"""Privacy-loss evaluation, general budget zeta, composition and budget matching.

The general budget of a mechanism is ``zeta = ln E[exp |L|]`` where ``L`` is
the per-outcome log-ratio of output probabilities on neighboring databases.
It equals epsilon for the plain geometric mechanism, lies between the two
parameters for the mixtures, and adds under composition.  ``zeta_empirical``
evaluates the definition exactly, as a sum over the runs of the grid law that a
mechanism releases.  ``charge_ledger`` composes releases in a JSON ledger file.
"""

from __future__ import annotations

import fcntl
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BudgetRefusedError, InvalidParameterError, PwmixError
from .mechanisms import MechanismSpec

__all__ = [
    "BudgetLedger",
    "charge_ledger",
    "privacy_loss",
    "zeta_closed_form",
    "zeta_empirical",
    "compose",
    "equivalent_epsilon",
]

# Largest rounded-Laplace target: the first Newton denominator, ~6 e^target, stays finite.
_RLAP_MAX_ZETA = math.log(sys.float_info.max) - 2.0


@dataclass(frozen=True)
class BudgetLedger:
    """Append-only record of general-budget charges; totals add exactly."""

    entries: tuple[tuple[str, float], ...] = ()

    @property
    def total(self) -> float:
        return float(sum(zeta for _, zeta in self.entries))


def _charge(zeta) -> float:
    """``zeta`` as a charge that composition takes: refused unless positive and finite."""
    if not (zeta > 0 and math.isfinite(zeta)):
        raise InvalidParameterError(f"zeta must be positive and finite, got {zeta!r}")
    return float(zeta)


def compose(ledger: BudgetLedger, zeta: float, label: str) -> BudgetLedger:
    """Append a charge; the total grows by exactly zeta (basic composition)."""
    return BudgetLedger(ledger.entries + ((label, _charge(zeta)),))


def _read_ledger(path: Path) -> tuple[list, float]:
    """The ledger's entries as read, each with a string label and a zeta that ``compose``
    takes, and the sum of their charges; an absent ledger is empty."""
    try:
        entries = json.loads(path.read_text()) if path.exists() else []
    except (OSError, ValueError) as exc:
        raise PwmixError(f"unreadable ledger {path}: {exc}") from None
    if not isinstance(entries, list):
        raise PwmixError(f"ledger {path} must hold a JSON list of entries")
    spent = 0.0
    for i, e in enumerate(entries):
        try:
            if not isinstance(e, dict) or not isinstance(e.get("label"), str):
                raise PwmixError("needs a string 'label'")
            zeta = e.get("zeta")
            if isinstance(zeta, bool) or not isinstance(zeta, (int, float)):
                raise PwmixError(f"needs a numeric 'zeta', got {zeta!r}")
            spent += _charge(float(zeta))
        except (PwmixError, OverflowError) as exc:
            raise PwmixError(f"ledger {path} entry {i}: {exc}") from None
    return entries, spent


def _store_ledger(path: Path, entries: list) -> None:
    """Replace the ledger through a temporary file, fsynced before the rename, and fsync the
    directory after it: once this returns, a crash cannot lose the new entries."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with open(fd, "w") as fh:
            if path.exists():
                os.fchmod(fh.fileno(), path.stat().st_mode & 0o777)
            fh.write(json.dumps(entries, indent=2, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        Path(tmp).unlink(missing_ok=True)  # gone once renamed
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def charge_ledger(path, zeta: float, mechanism: str, query: str, cap: float | None = None) -> float:
    """Charge ``zeta`` for ``query`` released by ``mechanism`` (its label) to the JSON ledger
    at ``path``; return the new total.  Under an exclusive lock on the sidecar ``<path>.lock``
    it reads and checks the entries, raises ``BudgetRefusedError`` for an unbounded charge or
    one past ``cap``, appends ``{label, zeta, timestamp}`` and stores the ledger durably."""
    path = Path(path)
    try:
        lock = os.open(path.with_name(path.name + ".lock"), os.O_RDWR | os.O_CREAT, 0o644)
    except OSError as exc:
        raise PwmixError(f"cannot lock ledger {path}: {exc}") from None
    try:
        fcntl.flock(lock, fcntl.LOCK_EX)
        entries, spent = _read_ledger(path)
        if not math.isfinite(zeta):
            raise BudgetRefusedError(f"{mechanism} has unbounded budget; refusing to charge a ledger")
        if cap is not None and spent + zeta > cap:
            raise BudgetRefusedError(
                f"budget cap {cap} would be exceeded (spent {spent:.6g}, charge {zeta:.6g})"
            )
        label = f"{mechanism} {query}"
        entries.append({"label": label, "zeta": _charge(zeta), "timestamp": time.time()})
        _store_ledger(path, entries)
        return spent + zeta
    finally:
        os.close(lock)  # releases the lock


def _require_shift(shift) -> int:
    """``shift`` as an int, refused unless it is a positive integer (a bool is not one)."""
    if isinstance(shift, bool) or not isinstance(shift, (int, np.integer)) or shift < 1:
        raise InvalidParameterError(f"shift must be a positive integer, got {shift!r}")
    return int(shift)


def privacy_loss(spec: MechanismSpec, outcome_noise, shift: int = 1) -> float:
    """Per-outcome privacy loss |ln P[noise = outcome -+ shift] / P[noise = outcome]|.

    Both shift directions are evaluated and the larger magnitude returned, from the log
    masses of the released law (``spec.log_prob``, at points of its grid), so it stays exact
    where they underflow.  A zero-probability denominator against a positive numerator
    reports an infinite loss (the truncated-mechanism pathology); nan means the outcome is
    impossible under every involved distribution (trunclap beyond its bound).  A shift must
    be a positive integer.
    """
    shift = _require_shift(shift)
    here = spec.log_prob(outcome_noise)
    # |ln P - ln P'| as floats: inf where one mass is 0, nan (inf - inf) where both are
    losses = [abs(spec.log_prob(outcome_noise + s) - here) for s in (-shift, shift)]
    return float(np.fmax(*losses))  # nan only where both are


def zeta_closed_form(spec: MechanismSpec) -> float:
    """General privacy budget from the closed forms (unit-shift count setting)."""
    return spec.zeta()


def zeta_empirical(spec: MechanismSpec, shift: int = 1) -> float:
    """General budget evaluated from its definition, ln sum exp(|L|) P, for the law that is
    released: the exact zeta of the grid law at ``shift`` / cell of its cells (``charge()``
    at shift 1); inf where an outcome of mass has a neighbour with none.  A shift must be a
    positive integer.
    """
    return spec.grid_law().zeta(_require_shift(shift) * round(1 / spec.cell))


def equivalent_epsilon(target_zeta: float) -> float:
    """Epsilon of the rounded Laplace mechanism whose zeta matches the target.

    (The geometric mechanism needs no inversion: its zeta is its epsilon.)  The
    closed form is inverted exactly: it is ln((5 - z + z^2 - z^3) / (2z(1+z)))
    in z = exp(-eps/2), so z is the root in (0, 1) of the increasing, convex
    cubic z^3 + (2Z-1) z^2 + (2Z+1) z - 5, Z = exp(target), onto which
    Newton's method from z = 1 falls monotonically.  Targets in
    (1.1e-16, ln(DBL_MAX) - 2] are inverted; others raise InvalidParameterError.
    """
    if not (target_zeta > 0 and math.isfinite(target_zeta)):
        raise InvalidParameterError(f"target_zeta must be positive, got {target_zeta!r}")
    if target_zeta > _RLAP_MAX_ZETA:
        raise InvalidParameterError(f"target_zeta {target_zeta!r} exceeds {_RLAP_MAX_ZETA:.6g}")
    two_big_z = 2.0 * math.exp(target_zeta)
    z = 1.0
    while True:  # until z stops falling; every term is positive, so nothing cancels
        step = (2.0 * z**3 + (two_big_z - 1.0) * z * z + 5.0) / (
            3.0 * z * z + 2.0 * (two_big_z - 1.0) * z + two_big_z + 1.0
        )
        if step >= z:
            break
        z = step
    if z == 1.0:
        raise InvalidParameterError(
            f"target_zeta {target_zeta!r} is too small: exp(-eps/2) rounds to 1"
        )
    return -2.0 * math.log(z)
