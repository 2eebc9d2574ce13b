import csv
import gc
import io
import json
import tracemalloc

import numpy as np
import pytest

import pwmix.data
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
    Laplace,
    LaplaceMixture,
    TruncatedLaplace,
)
from pwmix.sampling import SeededStream, lattice_uniforms, sample

from conftest import EXACT_ZERO, PRESET_A, GivenUniforms, make_synthetic_dataset

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
        # uint8 codes 40 kB.  Rows are encoded a block at a time, so the peak
        # stays far below the 4.2 MB that a list of all the rows reaches.
        text = "a,b,c,d\n" + "".join(f"v{i % 7},w{i % 3},x{i % 5},y{i % 2}\n" for i in range(10_000))
        tracemalloc.start()
        try:
            ds = load_dataset(io.StringIO(text))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.row_count == 10_000
        assert held < 200_000
        assert peak < 2_000_000

    def test_ragged_row_in_a_later_block(self):
        text = "a,b\n" + "x,y\n" * 5000 + "\n" + "z\n"
        with pytest.raises(ParseError) as exc:
            load_dataset(io.StringIO(text))
        assert exc.value.row_index == 5000
        assert str(exc.value) == "row 5000 has 1 fields, expected 2"

    def test_first_ragged_row_of_a_block_is_named(self):
        text = "a,b\n" + "x,y\n" * 1500 + "z\n" + "x,y\n" * 3 + "1,2,3\n"
        with pytest.raises(ParseError) as exc:
            load_dataset(io.StringIO(text))
        assert exc.value.row_index == 1500
        assert str(exc.value) == "row 1500 has 1 fields, expected 2"

    def test_oversized_cell_is_a_parse_error(self):
        limit = csv.field_size_limit()
        for text in (f"a,b\n1,{'x' * (limit + 1)}\n", f"{'h' * (limit + 1)},b\n1,2\n"):
            with pytest.raises(ParseError, match="field larger than field limit"):
                load_dataset(io.StringIO(text))

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

    def test_records_read_once_from_any_iterable(self):
        rows = [("r%d" % (i % 3), " s ") for i in range(3000)]
        d = Dataset(schema=("a", "b"), records=iter(rows))
        assert d.row_count == 3000
        assert d.levels("a") == ("r0", "r1", "r2") and d.levels("b") == ("s",)
        assert d.encoding("a").codes.dtype == np.uint8
        assert d.records == tuple((a, b.strip()) for a, b in rows)

    def test_no_records(self):
        d = Dataset(schema=("a", "b"), records=())
        assert d.row_count == 0 and d.levels("a") == ()
        assert d.encoding("b").codes.dtype == np.uint8 and d.encoding("b").codes.size == 0

    def test_non_text_cell_refused(self):
        with pytest.raises(ParseError):
            Dataset(schema=("a", "b"), records=(("x", "1"), ("y", 2)))
        with pytest.raises(ParseError, match="every cell must be text"):
            Dataset(schema=("a",), records=[("x",)] * 2000 + [(None,)])

    @pytest.mark.parametrize("n_levels, dtype", [(255, np.uint8), (256, np.uint16), (300, np.uint16)])
    def test_codes_are_the_narrowest_that_hold_the_levels(self, n_levels, dtype):
        rows = [(f"v{i % n_levels:03d}",) for i in range(3 * n_levels)]
        d = Dataset(schema=("a",), records=rows)
        assert d.encoding("a").codes.dtype == dtype
        assert d.encoding("a").codes.tolist() == [i % n_levels for i in range(3 * n_levels)]

    def test_many_raw_values_trim_to_few_levels(self):
        # 1,500 distinct cells need uint16 provisional codes, spread over two
        # blocks; they trim to 3 levels, whose codes are uint8
        rows = [(" " * (i // 3) + "xyz"[i % 3],) for i in range(1500)]
        d = Dataset(schema=("a",), records=rows)
        assert d.levels("a") == ("x", "y", "z")
        assert d.encoding("a").codes.dtype == np.uint8
        assert d.encoding("a").codes.tolist() == [i % 3 for i in range(1500)]

    def test_unknown_attribute(self, ds):
        for method in (ds.encoding, ds.levels, ds.column, ds.position):
            with pytest.raises(QueryError):
                method("salary")


def _reference_encoding(rows, width):
    """Per column, (levels, codes) the plain way: the sorted distinct trimmed values
    of that column alone, and each record's position among them."""
    out = []
    for j in range(width):
        trimmed = [row[j].strip() for row in rows]
        levels = tuple(sorted(set(trimmed)))
        out.append((levels, [levels.index(v) for v in trimmed]))
    return out


class TestEncoderMatchesAPerColumnReference:
    """One provisional numbering for every cell gives each column what encoding that
    column alone gives."""

    def assert_matches(self, rows, width):
        d = Dataset(schema=[f"c{j}" for j in range(width)], records=rows)
        assert d.row_count == len(rows)
        for j, (levels, codes) in enumerate(_reference_encoding(rows, width)):
            enc = d.encoding(f"c{j}")
            assert enc.levels == levels
            assert enc.codes.tolist() == codes
            assert enc.codes.dtype == np.min_scalar_type(len(levels))
            assert enc.index == {v: i for i, v in enumerate(levels)}

    def test_same_text_in_two_columns(self):
        rows = [("x", "y"), ("y", "x"), ("y", "z"), ("x", "x")]
        self.assert_matches(rows, 2)

    def test_values_that_trim_alike_within_and_across_columns(self):
        rows = [(" a", "a "), ("a", " b"), ("b ", "a"), (" a ", "b"), ("b", " a ")]
        self.assert_matches(rows, 2)

    def test_many_values_across_block_boundaries(self, monkeypatch):
        # 300 distinct texts per column, 500 in all, read 7 rows at a time: the
        # provisional codes outgrow uint8 inside the read, and a column's codes are
        # uint16 only if it has more than 256 levels
        monkeypatch.setattr(pwmix.data, "_BLOCK", 7)
        rows = [(f"v{i % 300:03d}", f"v{(i * 7 + 200) % 300 + 200:03d} ", "k" if i % 2 else " k")
                for i in range(900)]
        self.assert_matches(rows, 3)

    def test_zero_rows_and_zero_width(self):
        self.assert_matches([], 3)
        d = Dataset(schema=(), records=[(), (), ()])
        assert d.row_count == 3 and d.records == ((), (), ())
        d = Dataset(schema=(), records=[])
        assert d.row_count == 0

    @pytest.mark.parametrize("bad", [0, 6, 7, 20])
    def test_ragged_row_is_named(self, monkeypatch, bad):
        monkeypatch.setattr(pwmix.data, "_BLOCK", 7)
        rows = [("x", "y")] * 21
        rows[bad] = ("x",)
        with pytest.raises(ParseError) as exc:
            Dataset(schema=("a", "b"), records=rows)
        assert exc.value.row_index == bad
        assert str(exc.value) == f"row {bad} has 1 fields, expected 2"


class TestCollectorState:
    """A load pauses the cyclic collector and leaves it as the caller had it."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_after_success_and_after_a_parse_error(self, enabled):
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            assert load_dataset(io.StringIO(CSV_FIXTURE)).row_count == 5
            assert gc.isenabled() is enabled
            with pytest.raises(ParseError):
                load_dataset(io.StringIO("a,b\n1,2\n3\n"))
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_paused_while_rows_are_read(self):
        seen = []

        def rows():
            for i in range(3):
                seen.append(gc.isenabled())
                yield (str(i),)

        assert gc.isenabled()
        Dataset(schema=("a",), records=rows())
        assert seen == [False] * 3 and gc.isenabled()


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

    @pytest.mark.parametrize(
        "predicates",
        [(), (("age", "25"),), (("work", "Private"), ("sex", "Male")), (("work", "Retired"),)],
    )
    def test_record_matches_an_index_array(self, ds, predicates):
        q = QuerySpec(predicates=predicates)
        idx = np.array([4, 0, 2, 2, 1, 3])
        got = record_matches(ds, idx, q)
        assert got.dtype == bool and got.shape == idx.shape
        assert got.tolist() == [record_matches(ds, int(i), q) for i in idx]
        assert all(type(record_matches(ds, i, q)) is bool for i in (0, np.int64(1)))
        assert record_matches(ds, np.array([], dtype=np.int64), q).shape == (0,)

    @pytest.mark.parametrize("bad", [5, -1, 99])
    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_record_matches_out_of_range_anywhere(self, ds, bad, where):
        idx = np.array([0, 1, 2, 3, 4])
        idx[where] = bad
        q = QuerySpec(predicates=(("age", "25"),))
        with pytest.raises(QueryError, match=f"record index {bad} out of range"):
            record_matches(ds, idx, q)
        with pytest.raises(QueryError, match=f"record index {bad} out of range"):
            record_matches(ds, bad, q)


class TestRelease:
    def test_zero_noise_identity(self):
        rel = release(7, EXACT_ZERO, SeededStream(1))
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
            release(-1, EXACT_ZERO, SeededStream(1))

    def test_json_wire_format(self):
        rel = release(3, Geometric(alpha=2.0), SeededStream(5))
        doc = release_to_json(rel, query="age=25", zeta_charged=0.5)
        assert set(doc) == {"query", "mechanism", "released", "clamped", "zeta_charged"}
        doc = release_to_json(rel, query="age=25", zeta_charged=0.5, reveal_true=True)
        assert doc["true"] == 3
        json.dumps(doc)  # serializable


def _without_preimage(spec, outputs, truth):
    """The outputs that no release of ``truth`` can give: ``truth + noise`` at no uniform of
    the stream, the midpoints of the 2^53 lattice.  A release does not decrease in the
    uniform, so the least lattice value whose release reaches each output is bisected, and
    the output has a preimage when the release there is that output."""
    y = np.asarray(outputs, dtype=float)

    def released(values):
        u = lattice_uniforms(values)
        return truth + spec.draw(GivenUniforms(u), u.size)

    lo, hi = np.zeros(y.size, dtype=np.int64), np.full(y.size, 2**53 - 1, dtype=np.int64)
    while (lo < hi).any():
        mid = (lo + hi) // 2
        reached = released(mid) >= y
        lo, hi = np.where(reached, lo, mid + 1), np.where(reached, mid, hi)
    return y[released(lo) != y]


class TestReachability:
    """A release on the grid has no output that a neighbouring truth cannot produce.  A
    double drawn from the continuous law has such outputs (Mironov's attack on its
    low-order bits): of 20,000 float releases of 50 with these seeds, 565 at the lapmix
    preset and 1,361 for laplace had no preimage at 51."""

    @pytest.mark.parametrize(
        "spec", [Laplace(1 / 0.3281), LaplaceMixture(PRESET_A)], ids=lambda spec: spec.kind
    )
    @pytest.mark.parametrize("truth", [50, 1000])
    def test_no_output_a_neighbour_cannot_produce(self, spec, truth):
        rel = release([truth] * 20_000, spec, SeededStream(truth))
        assert not any(rel.clamped)
        for neighbour in (truth + 1, truth - 1):
            assert _without_preimage(spec, rel.released_value, neighbour).size == 0
