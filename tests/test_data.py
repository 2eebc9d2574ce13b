import io
import json
import tracemalloc

import pytest

from pwmix.data import (
    Dataset,
    QuerySpec,
    count_query,
    histogram_query,
    load_dataset,
    neighbors,
    record_matches,
    release,
    release_to_json,
)
from pwmix.errors import (
    EmptyDatasetError,
    InvalidParameterError,
    ParseError,
    QueryError,
    UnsafeMechanismError,
)
from pwmix.mechanisms import (
    Geometric,
    GeometricMixture,
    LaplaceMixture,
    TruncatedLaplace,
    ZeroNoise,
)
from pwmix.sampling import SeededStream, sample

from conftest import PRESET_A, make_synthetic_dataset

CSV_FIXTURE = """age,work,sex
 25 , Private ,Male
30,Private,Female
25,Gov,Male
40,?,Female
25,Private,Male
"""


@pytest.fixture
def ds():
    return load_dataset(io.StringIO(CSV_FIXTURE))


class TestLoadDataset:
    def test_basic(self, ds):
        assert ds.schema == ("age", "work", "sex")
        assert ds.row_count == 5

    def test_trimming(self, ds):
        assert ds.records[0] == ("25", "Private", "Male")

    def test_question_mark_is_a_category(self, ds):
        q = QuerySpec(predicates=(("work", "?"),))
        assert count_query(ds, q) == 1

    def test_headerless(self):
        d = load_dataset(io.StringIO("a,b\nc,d\n"), header=False)
        assert d.schema == ("col0", "col1")
        assert d.row_count == 2

    def test_bytes_source(self):
        d = load_dataset(CSV_FIXTURE.encode())
        assert d.row_count == 5

    def test_quoted_fields(self):
        d = load_dataset(io.StringIO('a,b\n"x, y",z\n'))
        assert d.records[0] == ("x, y", "z")

    def test_ragged_row(self):
        with pytest.raises(ParseError) as exc:
            load_dataset(io.StringIO("a,b\n1,2\n3\n"))
        assert exc.value.row_index == 1

    def test_keeps_only_codes(self):
        # 10^4 rows of 4 cells: the cell strings alone take megabytes, the
        # uint8 codes 40 kB
        text = "a,b,c,d\n" + "".join(f"v{i % 7},w{i % 3},x{i % 5},y{i % 2}\n" for i in range(10_000))
        tracemalloc.start()
        try:
            ds = load_dataset(io.StringIO(text))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.row_count == 10_000
        assert held < 200_000

    def test_empty(self):
        with pytest.raises(EmptyDatasetError):
            load_dataset(io.StringIO(""))
        with pytest.raises(EmptyDatasetError):
            load_dataset(io.StringIO("a,b\n"))


class TestEncoding:
    def test_levels_are_sorted_distinct_values(self, ds):
        for attr in ds.schema:
            column = [rec[ds.schema.index(attr)] for rec in ds.records]
            assert ds.levels(attr) == tuple(sorted(set(column)))
        # "?" is an ordinary category and " Private " was trimmed on load.
        assert ds.levels("work") == ("?", "Gov", "Private")

    def test_codes_index_the_levels(self, ds):
        for attr in ds.schema:
            enc = ds.encoding(attr)
            assert [enc.levels[c] for c in enc.codes] == list(ds.column(attr))
            assert all(enc.index[v] == i for i, v in enumerate(enc.levels))

    def test_column_is_the_object_array(self, ds):
        col = ds.column("age")
        assert col.dtype == object
        assert col.tolist() == ["25", "30", "25", "40", "25"]

    def test_encoded_once(self, ds):
        assert ds.encoding("sex") is ds.encoding("sex")

    def test_values_that_trim_alike_share_a_level(self):
        d = Dataset(schema=("a",), records=((" x",), ("x ",), ("y",), ("x",)))
        assert d.levels("a") == ("x", "y")
        assert d.encoding("a").codes.tolist() == [0, 0, 1, 0]
        assert histogram_query(d, "a") == {"x": 3, "y": 1}

    def test_non_text_cell_refused(self):
        with pytest.raises(ParseError):
            Dataset(schema=("a", "b"), records=(("x", "1"), ("y", 2)))

    def test_unknown_attribute(self, ds):
        for method in (ds.encoding, ds.levels, ds.column, ds.position):
            with pytest.raises(QueryError):
                method("salary")


class TestCountQuery:
    def test_empty_predicates(self, ds):
        assert count_query(ds, QuerySpec()) == 5

    def test_conjunction(self, ds):
        q = QuerySpec(predicates=(("age", "25"), ("work", "Private")))
        assert count_query(ds, q) == 2

    def test_missing_value(self, ds):
        assert count_query(ds, QuerySpec(predicates=(("age", "99"),))) == 0
        assert count_query(ds, QuerySpec(predicates=(("age", "25"), ("work", "Gone")))) == 0

    def test_non_str_value_matches_nothing(self, ds):
        assert count_query(ds, QuerySpec(predicates=(("age", 25),))) == 0
        assert count_query(ds, QuerySpec(predicates=(("age", None),))) == 0

    def test_matches_string_comparison(self):
        ds = make_synthetic_dataset(rows=300, seed=7)
        columns = {a: [rec[i] for rec in ds.records] for i, a in enumerate(ds.schema)}
        for color in ("red", "gray", "pink"):
            for size in ("s", "l"):
                q = QuerySpec(predicates=(("color", color), ("size", size)))
                expected = sum(
                    c == color and z == size for c, z in zip(columns["color"], columns["size"])
                )
                assert count_query(ds, q) == expected

    def test_unknown_attribute(self, ds):
        with pytest.raises(QueryError):
            count_query(ds, QuerySpec(predicates=(("salary", "1"),)))

    def test_duplicate_predicate_attribute(self):
        with pytest.raises(InvalidParameterError):
            QuerySpec(predicates=(("a", "1"), ("a", "2")))


class TestHistogramQuery:
    def test_partition(self, ds):
        hist = histogram_query(ds, "sex")
        assert hist == {"Male": 3, "Female": 2}
        assert sum(hist.values()) == ds.row_count

    def test_bin_count(self, ds):
        assert len(histogram_query(ds, "age")) == 3

    def test_single_record(self):
        d = Dataset(schema=("a",), records=(("x",),))
        assert histogram_query(d, "a") == {"x": 1}

    def test_sorted_bins(self, ds):
        hist = histogram_query(ds, "work")
        assert hist == {"?": 1, "Gov": 1, "Private": 3}
        assert list(hist) == ["?", "Gov", "Private"]

    def test_unknown_attribute(self, ds):
        with pytest.raises(QueryError):
            histogram_query(ds, "nope")


class TestNeighbors:
    def test_row_count(self, ds):
        nb = neighbors(ds, 0)
        assert nb.row_count == 4
        assert ds.row_count == 5  # original untouched

    def test_matching_count_drops_by_one(self, ds):
        q = QuerySpec(predicates=(("age", "25"),))
        before = count_query(ds, q)
        assert count_query(neighbors(ds, 0), q) == before - 1

    def test_non_matching_count_unchanged(self, ds):
        q = QuerySpec(predicates=(("age", "40"),))
        assert count_query(neighbors(ds, 0), q) == count_query(ds, q)

    def test_sensitivity_premise(self, ds):
        for q in (
            QuerySpec(),
            QuerySpec(predicates=(("age", "25"),)),
            QuerySpec(predicates=(("work", "Private"), ("sex", "Male"))),
        ):
            base = count_query(ds, q)
            for i in range(ds.row_count):
                assert abs(base - count_query(neighbors(ds, i), q)) <= 1

    def test_out_of_range(self, ds):
        with pytest.raises(QueryError):
            neighbors(ds, 5)

    def test_record_matches(self, ds):
        q = QuerySpec(predicates=(("age", "25"),))
        assert record_matches(ds, 0, q)
        assert not record_matches(ds, 1, q)

    def test_record_matches_agrees_with_count(self, ds):
        q = QuerySpec(predicates=(("work", "Private"), ("sex", "Male")))
        assert sum(record_matches(ds, i, q) for i in range(ds.row_count)) == count_query(ds, q)

    def test_record_matches_unknown_attribute(self, ds):
        with pytest.raises(QueryError):
            record_matches(ds, 0, QuerySpec(predicates=(("salary", "1"),)))


class TestRelease:
    def test_zero_noise_identity(self):
        rel = release(7, ZeroNoise(), SeededStream(1))
        assert rel.released_value == 7
        assert rel.clamped is False

    def test_clamping_keeps_nonnegative(self):
        spec = GeometricMixture(PRESET_A)
        for seed in range(40):
            rel = release(0, spec, SeededStream(seed))
            assert rel.released_value >= 0
            if rel.clamped:
                assert rel.released_value == 0

    def test_clamp_flag_matches_rule(self):
        spec = GeometricMixture(PRESET_A)
        noise = sample(spec, SeededStream(77), size=200)
        stream = SeededStream(77)
        rels = [release(1, spec, stream) for _ in range(200)]
        assert any(r.clamped for r in rels)
        for y, r in zip(noise, rels):
            assert r.clamped == bool(1 + y < 0)
            assert r.released_value == max(0, 1 + int(y))

    def test_integer_output(self):
        rel = release(10, GeometricMixture(PRESET_A), SeededStream(3))
        assert isinstance(rel.released_value, int)
        rel = release(10, LaplaceMixture(PRESET_A), SeededStream(3))
        assert isinstance(rel.released_value, float)

    def test_large_count_stays_close(self):
        # tail mass beyond 15 is < 1e-4, so 50 releases stay inside easily
        spec = GeometricMixture(PRESET_A)
        stream = SeededStream(9)
        for _ in range(50):
            rel = release(1000, spec, stream)
            assert 985 <= rel.released_value <= 1015

    def test_vector_release_matches_streamwise_scalars(self):
        spec = GeometricMixture(PRESET_A)
        vec = release([4, 9, 2], spec, SeededStream(21))
        stream = SeededStream(21)
        singles = [release(n, spec, stream).released_value for n in (4, 9, 2)]
        assert vec.released_value == singles

    def test_trunclap_refused(self):
        with pytest.raises(UnsafeMechanismError):
            release(5, TruncatedLaplace(scale=1.0, bound=3.0), SeededStream(1))
        rel = release(5, TruncatedLaplace(scale=1.0, bound=3.0, allow_unsafe=True), SeededStream(1))
        assert 2.0 <= rel.released_value <= 8.0

    def test_negative_truth_rejected(self):
        with pytest.raises(InvalidParameterError):
            release(-1, ZeroNoise(), SeededStream(1))

    def test_json_wire_format(self):
        rel = release(3, Geometric(alpha=2.0), SeededStream(5))
        doc = release_to_json(rel, query="age=25", zeta_charged=0.5)
        assert set(doc) == {"query", "mechanism", "released", "clamped", "zeta_charged"}
        doc = release_to_json(rel, query="age=25", zeta_charged=0.5, reveal_true=True)
        assert doc["true"] == 3
        json.dumps(doc)  # serializable
