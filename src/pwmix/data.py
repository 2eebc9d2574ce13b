"""Tabular dataset ingestion, conjunctive count/histogram queries, noisy release.

Datasets are categorical: every cell is kept as trimmed text (continuous
columns count as text categories, and the literal token "?" is an ordinary
category).  Count and histogram queries both have l1 sensitivity 1, since
removing one record changes a count by at most one and histogram bins are
disjoint.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

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


@dataclass
class Dataset:
    """Immutable collection of categorical records with a named schema.

    Each attribute is dictionary-encoded once, on first use, and every query
    works on those integer codes.
    """

    schema: tuple[str, ...]
    records: tuple[tuple[str, ...], ...]
    _encodings: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        width = len(self.schema)
        for i, rec in enumerate(self.records):
            if len(rec) != width:
                raise ParseError(
                    f"record {i} has {len(rec)} values, schema expects {width}", row_index=i
                )

    @property
    def row_count(self) -> int:
        return len(self.records)

    def position(self, name: str) -> int:
        """Index of an attribute in the schema."""
        try:
            return self.schema.index(name)
        except ValueError:
            raise QueryError(f"unknown attribute {name!r}; schema is {list(self.schema)}") from None

    def encoding(self, name: str) -> ColumnCodes:
        """Dictionary encoding of one attribute (built on first use, then cached).

        One hashing pass numbers the values in order of first appearance;
        the levels are then sorted and the codes remapped to sorted order.
        """
        if name not in self._encodings:
            idx = self.position(name)
            first: dict = {}
            raw = np.fromiter(
                (first.setdefault(rec[idx], len(first)) for rec in self.records),
                dtype=np.intp,
                count=self.row_count,
            )
            levels = tuple(sorted(first))
            rank = np.empty(len(levels), dtype=np.min_scalar_type(len(levels)))
            rank[[first[v] for v in levels]] = np.arange(len(levels))
            index = {v: i for i, v in enumerate(levels)}
            self._encodings[name] = ColumnCodes(levels=levels, index=index, codes=rank[raw])
        return self._encodings[name]

    def levels(self, name: str) -> tuple[str, ...]:
        """Distinct values of one attribute, sorted."""
        return self.encoding(name).levels

    def column(self, name: str) -> np.ndarray:
        """Values of one attribute as an object array."""
        enc = self.encoding(name)
        return np.array(enc.levels, dtype=object)[enc.codes]


@dataclass(frozen=True)
class QuerySpec:
    """Conjunctive predicate query: every (attribute, value) pair must match.

    ``kind`` is "count" or "histogram"; histogram queries additionally name
    the attribute whose value counts are released.  At most one predicate per
    attribute.
    """

    predicates: tuple[tuple[str, str], ...] = ()
    kind: str = "count"
    attribute: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("count", "histogram"):
            raise InvalidParameterError(f"kind must be 'count' or 'histogram', got {self.kind!r}")
        if self.kind == "histogram" and not self.attribute:
            raise InvalidParameterError("histogram queries need an attribute")
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

    reader = csv.reader(source, delimiter=delimiter)
    rows = [[cell.strip() for cell in row] for row in reader if row]
    if not rows:
        raise EmptyDatasetError("no rows in input")
    if header:
        schema = tuple(rows[0])
        body = rows[1:]
    else:
        schema = tuple(f"col{i}" for i in range(len(rows[0])))
        body = rows
    if not body:
        raise EmptyDatasetError("no records after the header row")
    width = len(schema)
    records = []
    for i, row in enumerate(body):
        if len(row) != width:
            raise ParseError(f"row {i} has {len(row)} fields, expected {width}", row_index=i)
        records.append(tuple(row))
    return Dataset(schema=schema, records=tuple(records))


def _predicate_mask(ds: Dataset, predicates: Iterable[tuple[str, str]]) -> np.ndarray:
    """Rows matching every predicate; a value the column lacks, or a non-str, matches none."""
    mask = np.ones(ds.row_count, dtype=bool)
    for attr, value in predicates:
        enc = ds.encoding(attr)
        code = enc.index.get(value) if isinstance(value, str) else None
        mask &= (enc.codes == code) if code is not None else False
    return mask


def count_query(ds: Dataset, q: QuerySpec) -> int:
    """Number of records matching every predicate."""
    if q.kind != "count":
        raise QueryError(f"count_query got a {q.kind!r} query")
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
    rec = ds.records[index]
    for attr, value in q.predicates:
        if rec[ds.position(attr)] != value:
            return False
    return True


def neighbors(ds: Dataset, index: int) -> Dataset:
    """Copy of the dataset with exactly one record removed."""
    if not (0 <= index < ds.row_count):
        raise QueryError(f"record index {index} out of range [0, {ds.row_count})")
    return Dataset(schema=ds.schema, records=ds.records[:index] + ds.records[index + 1 :])


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
