"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of the workload seed.  The structure of
each input (attribute cardinalities, the strata of the sweep grid) is fixed;
the seed only moves values within that structure, so the cost of one run
does not depend on which seed is drawn.

Nothing here imports pwmix: the program receives only the files and values
produced here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Adult-like schema: (attribute, levels, head levels).  The head levels
# carry the rows with Zipf-skewed frequencies; each remaining level is a rare
# value that occurs in exactly one row, as "Holand-Netherlands" does in the
# UCI Adult data.  native_country has 41 levels, as in Adult.
SCHEMA = (
    ("workclass", 8, 5),
    ("education", 16, 8),
    ("marital_status", 7, 5),
    ("occupation", 14, 8),
    ("relationship", 6, 5),
    ("race", 5, 4),
    ("sex", 2, 2),
    ("native_country", 41, 6),
)
ROWS = 50_000
# Head level k (0-based) has probability proportional to (k + 1) ** -ZIPF_S.
# Every pair of head levels then co-occurs in well over 32 rows, the
# clamp-free count of the audit mechanism, while any predicate on a rare
# level counts 0 or 1 rows.  So the small-count audit groups are those of
# counts 0 and 1, whatever the seed, and the audit's cost does not depend on
# which queries the seed draws.
ZIPF_S = 1.0

# One sweep round: SWEEP_ROUND points, of which every 100th is an
# underflowing point (r * eps * c_t > 745).
SWEEP_ROUND = 1000
UNDERFLOW_EVERY = 100


def _rng(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng([int(seed) & (2**63 - 1), purpose])


def level_label(attribute: str, level: int) -> str:
    return f"{attribute[:3]}{level:02d}"


@dataclass(frozen=True)
class Table:
    """The generated table as integer codes, one column per attribute."""

    codes: dict

    @property
    def attributes(self) -> tuple:
        return tuple(a for a, _, _ in SCHEMA)

    def labels(self, attribute: str) -> list:
        levels = next(n for a, n, _ in SCHEMA if a == attribute)
        return [level_label(attribute, k) for k in range(levels)]


def make_table(seed: int, rows: int = ROWS) -> Table:
    """Zipf-skewed head levels; each rare level in exactly one random row."""
    rng = _rng(seed, 1)
    codes = {}
    for attribute, levels, head in SCHEMA:
        weights = np.arange(1, head + 1, dtype=float) ** -ZIPF_S
        col = rng.choice(head, size=rows, p=weights / weights.sum())
        col[rng.choice(rows, size=levels - head, replace=False)] = np.arange(head, levels)
        codes[attribute] = col.astype(np.int64)
    return Table(codes)


def write_csv(table: Table, path: Path) -> None:
    """Write the table as a CSV with a header row."""
    columns = [
        np.array(table.labels(a), dtype=object)[table.codes[a]] for a in table.attributes
    ]
    lines = [",".join(table.attributes)]
    lines.extend(",".join(row) for row in zip(*columns))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class SweepPoint:
    c_t: float
    eps: float
    r_eps: float
    underflow: bool


def make_sweep_points(seed: int, n: int = SWEEP_ROUND) -> list:
    """Fresh (c_t, eps, r*eps) points: stratified, so each round has the same mix.

    Regular points: integer c_t cycling 1..10, eps log-uniform in [0.05, 1]
    and r uniform in [1.5, 10], each drawn once per stratum of a seeded
    permutation.  Every UNDERFLOW_EVERY-th point has c_t in 38..45, eps in
    [1.5, 2.5] and r*eps in [20, 30], so r * eps * c_t >= 760 > 745 and
    exp(-r * eps * c_t) underflows to 0.
    """
    rng = _rng(seed, 3)
    n_regular = n - n // UNDERFLOW_EVERY
    eps_strata = (rng.permutation(n_regular) + rng.random(n_regular)) / n_regular
    r_strata = (rng.permutation(n_regular) + rng.random(n_regular)) / n_regular
    regular = iter(
        SweepPoint(
            c_t=float(1 + j % 10),
            eps=(eps := math.exp(math.log(0.05) + float(eps_strata[j]) * math.log(20.0))),
            r_eps=eps * (1.5 + 8.5 * float(r_strata[j])),
            underflow=False,
        )
        for j in range(n_regular)
    )
    points = []
    for i in range(n):
        if i % UNDERFLOW_EVERY == UNDERFLOW_EVERY - 1:
            points.append(
                SweepPoint(
                    c_t=float(rng.integers(38, 46)),
                    eps=float(rng.uniform(1.5, 2.5)),
                    r_eps=float(rng.uniform(20.0, 30.0)),
                    underflow=True,
                )
            )
        else:
            points.append(next(regular))
    return points


def derive_seed(seed: int, *indices: int) -> int:
    """A 63-bit seed for one operation, fixed by the workload seed and indices."""
    state = np.random.SeedSequence([int(seed) & (2**63 - 1), *indices]).generate_state(1, np.uint64)
    return int(state[0] >> 1)
