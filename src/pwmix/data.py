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
from dataclasses import dataclass
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

    @classmethod
    def encode(cls, column) -> ColumnCodes:
        """Encode one column of text, trimming each distinct value once.

        Values that trim to the same text share one level.
        """
        code_of = dict.fromkeys(column)
        if not all(isinstance(value, str) for value in code_of):
            raise ParseError("every cell must be text")
        levels = tuple(sorted({value.strip() for value in code_of}))
        index = {v: i for i, v in enumerate(levels)}
        for value in code_of:
            code_of[value] = index[value.strip()]
        dtype = np.min_scalar_type(len(levels))
        codes = np.fromiter(map(code_of.__getitem__, column), dtype=dtype, count=len(column))
        return cls(levels=levels, index=index, codes=codes)

    def code(self, value) -> int | None:
        """Code of a value; None if the column lacks it or it is not a str."""
        return self.index.get(value) if isinstance(value, str) else None


class Dataset:
    """Immutable collection of categorical records with a named schema.

    ``records`` are rows of text, one value per attribute.  Each attribute is
    dictionary-encoded when the dataset is built, and only those codes are
    kept; every query works on them.
    """

    def __init__(self, schema: Iterable[str], records: Sequence[Sequence[str]]) -> None:
        self.schema = tuple(schema)
        width = len(self.schema)
        for i, rec in enumerate(records):
            if len(rec) != width:
                raise ParseError(f"row {i} has {len(rec)} fields, expected {width}", row_index=i)
        self.row_count = len(records)
        columns = zip(*records) if records else [()] * width
        self._columns = tuple(ColumnCodes.encode(col) for col in columns)

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


def load_dataset(source, *, header: bool = True, delimiter: str = ",") -> Dataset:
    """Read a CSV (RFC-4180-style quoting) into a Dataset.

    Values and header names are trimmed of surrounding whitespace.  Without a
    header row, attributes are named col0, col1, ...
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", newline="", encoding="utf-8") as fh:
            return load_dataset(fh, header=header, delimiter=delimiter)
    if isinstance(source, (bytes, bytearray)):
        return load_dataset(io.StringIO(source.decode("utf-8")), header=header, delimiter=delimiter)

    rows = [row for row in csv.reader(source, delimiter=delimiter) if row]
    if not rows:
        raise EmptyDatasetError("no rows in input")
    if header:
        schema, rows = [name.strip() for name in rows[0]], rows[1:]
    else:
        schema = [f"col{i}" for i in range(len(rows[0]))]
    if not rows:
        raise EmptyDatasetError("no records after the header row")
    return Dataset(schema, rows)


def _predicate_mask(ds: Dataset, predicates: Iterable[tuple[str, str]]) -> np.ndarray:
    """Rows matching every predicate; a value the column lacks, or a non-str, matches none."""
    mask = np.ones(ds.row_count, dtype=bool)
    for attr, value in predicates:
        enc = ds.encoding(attr)
        code = enc.code(value)
        mask &= (enc.codes == code) if code is not None else False
    return mask


def count_query(ds: Dataset, q: QuerySpec) -> int:
    """Number of records matching every predicate."""
    return int(np.count_nonzero(_predicate_mask(ds, q.predicates)))


def histogram_query(ds: Dataset, attribute: str) -> dict[str, int]:
    """Per-value counts of one attribute; the bins partition the records."""
    enc = ds.encoding(attribute)
    counts = np.bincount(enc.codes, minlength=len(enc.levels))
    return dict(zip(enc.levels, counts.tolist()))


def record_matches(ds: Dataset, index: int, q: QuerySpec) -> bool:
    """Whether one record satisfies all predicates of a count query."""
    if not (0 <= index < ds.row_count):
        raise QueryError(f"record index {index} out of range [0, {ds.row_count})")
    for attr, value in q.predicates:
        enc = ds.encoding(attr)
        code = enc.code(value)
        if code is None or enc.codes[index] != code:
            return False
    return True


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
