"""Tabular dataset ingestion, conjunctive count/histogram queries, noisy release.

Datasets are categorical: every cell is trimmed text (continuous columns
count as text categories, and the literal token "?" is an ordinary
category).  A dataset keeps each attribute only as its dictionary encoding.
Count and histogram queries both have l1 sensitivity 1, since removing one
record changes a count by at most one and histogram bins are disjoint.
"""

from __future__ import annotations

import csv
import gc
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

    Every cell, whatever its column, gets a provisional code for its text in
    order of first sight, by one lookup pass over each block's cells in row
    order.  At the end each column reads the codes it used, trims their texts,
    and makes the sorted distinct trims its levels (texts that trim alike share
    one); one array index maps its provisional codes to level codes.  The
    cyclic garbage collector is paused while the rows are read: their lists
    hold no cycles, and the collections that their count triggers would find
    nothing to free.
    """
    rows = iter(records)
    code_of = defaultdict(count().__next__)
    blocks: list[np.ndarray] = []
    row_count = 0
    collecting = gc.isenabled()
    gc.disable()
    try:
        while block := list(islice(rows, _BLOCK)):
            if list(map(len, block)).count(width) != len(block):
                i, rec = next((i, rec) for i, rec in enumerate(block, row_count) if len(rec) != width)
                raise ParseError(f"row {i} has {len(rec)} fields, expected {width}", row_index=i)
            row_count += len(block)
            cells = map(code_of.__getitem__, chain.from_iterable(block))
            cells = np.fromiter(cells, np.intp, len(block) * width)
            blocks.append(cells.astype(np.min_scalar_type(len(code_of))))
    finally:
        if collecting:
            gc.enable()
    texts = list(code_of)
    if not all(isinstance(text, str) for text in texts):
        raise ParseError("every cell must be text")
    table = np.concatenate(blocks or [np.empty(0, np.uint8)]).reshape(row_count, width)
    columns = []
    for provisional in table.T:
        used = np.flatnonzero(np.bincount(provisional))
        trimmed = [texts[i].strip() for i in used.tolist()]
        levels = tuple(sorted(set(trimmed)))
        index = {v: i for i, v in enumerate(levels)}
        level_of = np.zeros(used[-1] + 1 if used.size else 0, np.min_scalar_type(len(levels)))
        level_of[used] = np.fromiter(map(index.__getitem__, trimmed), level_of.dtype, len(trimmed))
        columns.append(ColumnCodes(levels=levels, index=index, codes=level_of[provisional]))
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
    mechanisms release integers, and the Laplace families reals on their grid
    (see ``MechanismSpec.cell``).  Truncated Laplace is refused without its
    unsafe flag.
    """
    truth = np.atleast_1d(np.asarray(true_value))
    if np.any(truth < 0):
        raise InvalidParameterError("true counts must be nonnegative")
    raw = truth + np.atleast_1d(sample(spec, stream, size=truth.size))
    clamped = raw < 0
    number = int if spec.cell == 1 else float
    cells = (
        [int(v) for v in truth.tolist()],
        [number(v) for v in np.where(clamped, 0, raw).tolist()],
        clamped.tolist(),
    )
    if np.ndim(true_value) == 0:  # a count: each list's one cell
        cells = [values[0] for values in cells]
    true, released, flags = cells
    return NoisyRelease(true_value=true, released_value=released, mechanism=spec, clamped=flags)


def json_float(x: float):
    """A float as the JSON outputs print it: the number, or "inf", "-inf" or "nan"."""
    return x if math.isfinite(x) else str(x)


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
        "zeta_charged": json_float(zeta_charged),
    }
    if reveal_true:
        doc["true"] = rel.true_value
    return doc
