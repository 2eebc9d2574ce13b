"""Tabular dataset ingestion, conjunctive count/histogram queries, noisy release.

Datasets are categorical: every cell is trimmed text (continuous columns
count as text categories, and the literal token "?" is an ordinary
category).  A dataset keeps each attribute only as its dictionary encoding.
Count and histogram queries both have l1 sensitivity 1, since removing one
record changes a count by at most one and histogram bins are disjoint.
"""

from __future__ import annotations

import csv
import io
import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, count, islice
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyDatasetError, InvalidParameterError, ParseError, QueryError
from .mechanisms import MechanismSpec
from .sampling import SeededStream, sample

__all__ = [
    "ColumnCodes",
    "Dataset",
    "QuerySpec",
    "NoisyRelease",
    "load_dataset",
    "count_query",
    "histogram_query",
    "record_matches",
    "release",
    "release_to_json",
    "neighbors",
]


@dataclass(frozen=True)
class ColumnCodes:
    """Dictionary encoding of one attribute.

    ``levels`` are the distinct values in sorted order, ``index`` maps each
    value to its position in ``levels``, and ``codes[i]`` is that position for
    record ``i``.
    """

    levels: tuple[str, ...]
    index: dict[str, int]
    codes: np.ndarray

    def code(self, value) -> int | None:
        """Code of a value; None if the column lacks it or it is not a str."""
        return self.index.get(value) if isinstance(value, str) else None


# Records read per pass of the encoder: only this many rows of cell text are
# held at once, besides each column's distinct values and the codes.
_BLOCK = 1024


def _encode_columns(
    records: Iterable[Sequence[str]], width: int
) -> tuple[int, tuple[ColumnCodes, ...]]:
    """Row count and per-column encodings of ``records``, read ``_BLOCK`` rows at a time.

    Each column maps the values seen so far to provisional codes in order of
    first sight, assigned by one lookup pass per block.  At the end the values
    are trimmed, the sorted distinct trims become the levels (values that trim
    alike share one), and one array index maps the provisional codes to level
    codes.
    """
    rows = iter(records)
    seen = [defaultdict(count().__next__) for _ in range(width)]
    blocks: list[list[np.ndarray]] = [[] for _ in range(width)]
    row_count = 0
    while block := list(islice(rows, _BLOCK)):
        if any(map(width.__ne__, map(len, block))):
            i, rec = next((i, rec) for i, rec in enumerate(block, row_count) if len(rec) != width)
            raise ParseError(f"row {i} has {len(rec)} fields, expected {width}", row_index=i)
        row_count += len(block)
        for code_of, coded, column in zip(seen, blocks, zip(*block)):
            codes = np.fromiter(map(code_of.__getitem__, column), np.int64, len(column))
            coded.append(codes.astype(np.min_scalar_type(len(code_of))))
    columns = []
    for code_of, coded in zip(seen, blocks):
        if not all(isinstance(value, str) for value in code_of):
            raise ParseError("every cell must be text")
        trimmed = [value.strip() for value in code_of]
        levels = tuple(sorted(set(trimmed)))
        index = {v: i for i, v in enumerate(levels)}
        dtype = np.min_scalar_type(len(levels))
        level_of = np.fromiter(map(index.__getitem__, trimmed), dtype, len(trimmed))
        codes = level_of[np.concatenate(coded)] if coded else level_of
        columns.append(ColumnCodes(levels=levels, index=index, codes=codes))
    return row_count, tuple(columns)


class Dataset:
    """Immutable collection of categorical records with a named schema.

    ``records`` are rows of text, one value per attribute; any iterable of
    rows will do, and it is read once, a block of rows at a time.  Each
    attribute is dictionary-encoded as it is read, and only those codes are
    kept; every query works on them.
    """

    def __init__(self, schema: Iterable[str], records: Iterable[Sequence[str]]) -> None:
        self.schema = tuple(schema)
        self.row_count, self._columns = _encode_columns(records, len(self.schema))

    @property
    def records(self) -> tuple[tuple[str, ...], ...]:
        """The records as tuples of values, rebuilt from the columns."""
        if not self.schema:
            return ((),) * self.row_count
        return tuple(zip(*(self.column(name) for name in self.schema)))

    def position(self, name: str) -> int:
        """Index of an attribute in the schema."""
        try:
            return self.schema.index(name)
        except ValueError:
            raise QueryError(f"unknown attribute {name!r}; schema is {list(self.schema)}") from None

    def encoding(self, name: str) -> ColumnCodes:
        """Dictionary encoding of one attribute."""
        return self._columns[self.position(name)]

    def levels(self, name: str) -> tuple[str, ...]:
        """Distinct values of one attribute, sorted."""
        return self.encoding(name).levels

    def column(self, name: str) -> np.ndarray:
        """Values of one attribute as an object array."""
        enc = self.encoding(name)
        return np.array(enc.levels, dtype=object)[enc.codes]


@dataclass(frozen=True)
class QuerySpec:
    """Conjunctive count query: every (attribute, value) pair must match.

    At most one predicate per attribute.
    """

    predicates: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        seen = [a for a, _ in self.predicates]
        if len(seen) != len(set(seen)):
            raise InvalidParameterError("at most one predicate per attribute")


@dataclass(frozen=True)
class NoisyRelease:
    """Outcome of one noisy release.

    ``released_value`` is clamped to be nonnegative cell-wise, and ``clamped``
    flags exactly the cells where true + noise fell below zero (the release
    then substitutes noise = -true, i.e. outputs 0).
    """

    true_value: object
    released_value: object
    mechanism: MechanismSpec
    clamped: object


def load_dataset(source, *, header: bool = True) -> Dataset:
    """Read a CSV (RFC-4180-style quoting) into a Dataset.

    Values and header names are trimmed of surrounding whitespace.  Without a
    header row, attributes are named col0, col1, ...
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", newline="", encoding="utf-8") as fh:
            return load_dataset(fh, header=header)
    if isinstance(source, (bytes, bytearray)):
        return load_dataset(io.StringIO(source.decode("utf-8")), header=header)

    reader = csv.reader(source)
    rows = filter(None, reader)  # blank lines are skipped
    try:
        first = next(rows, None)
        if first is None:
            raise EmptyDatasetError("no rows in input")
        if header:
            schema = [name.strip() for name in first]
        else:
            schema = [f"col{i}" for i in range(len(first))]
            rows = chain([first], rows)
        ds = Dataset(schema, rows)
    except csv.Error as exc:  # e.g. a cell longer than csv.field_size_limit()
        raise ParseError(f"line {reader.line_num}: {exc}") from None
    if ds.row_count == 0:
        raise EmptyDatasetError("no records after the header row")
    return ds


def _predicate_mask(ds: Dataset, predicates: Iterable[tuple[str, str]], rows=None) -> np.ndarray:
    """Which records, all or those indexed by ``rows``, match every predicate.

    A value the column lacks, or a non-str, matches none.
    """
    mask = np.ones(ds.row_count if rows is None else np.shape(rows), dtype=bool)
    for attr, value in predicates:
        enc = ds.encoding(attr)
        code = enc.code(value)
        codes = enc.codes if rows is None else enc.codes[rows]
        mask &= (codes == code) if code is not None else False
    return mask


def count_query(ds: Dataset, q: QuerySpec) -> int:
    """Number of records matching every predicate."""
    return int(np.count_nonzero(_predicate_mask(ds, q.predicates)))


def histogram_query(ds: Dataset, attribute: str) -> dict[str, int]:
    """Per-value counts of one attribute; the bins partition the records."""
    enc = ds.encoding(attribute)
    counts = np.bincount(enc.codes, minlength=len(enc.levels))
    return dict(zip(enc.levels, counts.tolist()))


def record_matches(ds: Dataset, index: int | np.ndarray, q: QuerySpec) -> bool | np.ndarray:
    """Whether records satisfy all predicates of a count query.

    ``index`` is one record index, answered with a bool, or an array of them,
    answered with a bool array of its shape.
    """
    idx = np.asarray(index)
    outside = (idx < 0) | (idx >= ds.row_count)
    if outside.any():
        raise QueryError(f"record index {idx[outside][0]} out of range [0, {ds.row_count})")
    hit = _predicate_mask(ds, q.predicates, idx)
    return bool(hit) if idx.ndim == 0 else hit


def neighbors(ds: Dataset, index: int) -> Dataset:
    """Copy of the dataset with exactly one record removed."""
    if not (0 <= index < ds.row_count):
        raise QueryError(f"record index {index} out of range [0, {ds.row_count})")
    records = ds.records
    return Dataset(ds.schema, records[:index] + records[index + 1 :])


def release(true_value, spec: MechanismSpec, stream: SeededStream) -> NoisyRelease:
    """Add one independent noise draw per cell, clamping negatives to zero.

    Accepts a scalar count or a vector of cell counts (histogram).  Integer
    mechanisms release integers; the continuous families release reals
    unrounded.  Truncated Laplace is refused without its unsafe flag.
    """
    scalar = np.ndim(true_value) == 0
    truth = np.atleast_1d(np.asarray(true_value))
    if np.any(truth < 0):
        raise InvalidParameterError("true counts must be nonnegative")
    noise = np.atleast_1d(sample(spec, stream, size=truth.size))
    raw = truth + noise
    clamped = raw < 0
    released = np.where(clamped, 0, raw)
    if spec.integer:
        released = released.astype(np.int64)
    if scalar:
        rel = released[0]
        rel = int(rel) if spec.integer else float(rel)
        return NoisyRelease(
            true_value=int(truth[0]),
            released_value=rel,
            mechanism=spec,
            clamped=bool(clamped[0]),
        )
    rels = [int(v) if spec.integer else float(v) for v in released]
    return NoisyRelease(
        true_value=[int(v) for v in truth],
        released_value=rels,
        mechanism=spec,
        clamped=[bool(f) for f in clamped],
    )


def release_to_json(
    rel: NoisyRelease,
    *,
    query: str,
    zeta_charged: float,
    reveal_true: bool = False,
) -> dict:
    """Wire format of a release: {query, mechanism, released, clamped, zeta_charged}."""
    doc = {
        "query": query,
        "mechanism": rel.mechanism.label,
        "released": rel.released_value,
        "clamped": rel.clamped,
        "zeta_charged": zeta_charged if math.isfinite(zeta_charged) else "inf",
    }
    if reveal_true:
        doc["true"] = rel.true_value
    return doc
