"""The two workloads: set-up, the fixed round of operations, and the checks.

A workload runs whole rounds of the same operations.  ``run`` is the timed
call into the program; ``prepare`` and ``check`` run outside the timed
interval.  ``check`` raises ``CheckFailed`` when an output breaks a property
the method must have; the operation then counts as failed.  ``warm_up``
runs once before timing, so that imports and lazy set-up are done.

The program is reached through module attributes (``cli.main``,
``bench.sweep_point``, ...) at call time, so the tracer's wrappers apply.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import inputs
import reference as ref
from pwmix import bench, cli, mechanisms

# Trials of the warm-up audit: enough to pass through every code path of
# the command, small enough that set-up is not a second copy of one operation.
WARM_UP_TRIALS = 10_000

# Tolerance on random outputs, in standard errors.
N_SE = 5.0
REL_TOL = 1e-9


class CheckFailed(Exception):
    """An output broke a property the method must have."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _read_json(path: Path):
    return json.loads(path.read_text())


def _manifest_matches(out_dir: Path) -> None:
    manifest = _read_json(out_dir / "manifest.json")
    written = {p.name for p in out_dir.iterdir()}
    _require(
        written == set(manifest["outputs"]) | {"manifest.json"},
        f"manifest lists {sorted(manifest['outputs'])}, directory holds {sorted(written)}",
    )


def _reset_dir(path: Path) -> None:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)


def _within(x: float, target: float, tol: float) -> bool:
    return abs(x - target) <= tol


def _rel_close(x: float, target: float, rel: float = REL_TOL) -> bool:
    return abs(x - target) <= rel * abs(target)


class Workload:
    """Shared shape of a workload; see the module docstring."""

    def __init__(self, root: Path, seed: int, workdir: Path, worker: int) -> None:
        self.root = root
        self.seed = seed
        self.workdir = workdir
        self.worker = worker

    def setup(self) -> None:
        """Generate inputs and load what the workload keeps across operations."""

    def warm_up(self) -> None:
        """One untimed operation, run after set-up and before timing."""
        op = self.round()[0]
        self.before_round(0)
        self.prepare(op)
        self.run(op)

    def round(self) -> list:
        raise NotImplementedError

    def before_round(self, index: int) -> None:
        """Untimed preparation of round ``index``."""

    def prepare(self, op) -> None:
        """Untimed preparation of one operation."""

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out) -> None:
        """Raise CheckFailed if the output of ``op`` is wrong."""

    def expected_failure(self, op) -> bool:
        """True for operations that fail every time because of a known fault."""
        return False

    def counters(self, op, out) -> dict:
        """Exact per-operation counts that only the output shows."""
        return {}


class Audit50k(Workload):
    """pwmix audit with configs/audit_example.json on a generated 50k-row table."""

    def setup(self) -> None:
        doc = _read_json(self.root / "configs" / "audit_example.json")
        csv_path = self.workdir / "adult_like.csv"
        inputs.write_csv(inputs.make_table(self.seed), csv_path)
        doc["data"] = str(csv_path)
        self.doc = doc
        self.config_path = self.workdir / "audit.json"
        self.config_path.write_text(json.dumps(doc))
        self.out = self.workdir / "audit_out"
        self.trials = int(doc["trials"])
        mech = doc["mechanism"]
        self.law = ref.law(mech["kind"], mech["eps"], mech.get("reps"), mech.get("ct"))
        p = self.law.p
        self.clamp_free = ref.audit_mean_loss(p[:-1], p[1:], self.trials, 50)
        self.same_ref: dict = {}
        # One audit seed for the whole run: which queries the seed draws sets
        # the number of loss groups, so every operation of a run is the same
        # audit and the per-operation counts repeat exactly.
        self.op_seed = inputs.derive_seed(self.seed, 12)

    def warm_up(self) -> None:
        """One audit of WARM_UP_TRIALS trials; its output is not checked."""
        config = self.workdir / "warm_audit.json"
        config.write_text(json.dumps({**self.doc, "trials": WARM_UP_TRIALS}))
        out = self.workdir / "warm_audit_out"
        argv = ["audit", "--config", str(config), "--out", str(out), "--seed", "0"]
        _require(cli.main(argv) == 0, "warm-up pwmix audit exited non-zero")
        shutil.rmtree(out)

    def round(self) -> list:
        return [0]

    def prepare(self, op) -> None:
        _reset_dir(self.out)

    def run(self, op):
        argv = ["audit", "--config", str(self.config_path), "--out", str(self.out),
                "--seed", str(self.op_seed)]
        _require(cli.main(argv) == 0, "pwmix audit exited non-zero")
        return self.out

    def _same_reference(self, n: int):
        if n not in self.same_ref:
            p = ref.clamped_outcomes(self.law, n)
            self.same_ref[n] = ref.audit_mean_loss(p, p, self.trials, 50)
        return self.same_ref[n]

    def check(self, op, out) -> None:
        _manifest_matches(out)
        report = _read_json(out / "privacy_audit.json")
        n_queries = int(self.doc["n_queries"])
        pairs = int(self.doc["max_records"]) * min(n_queries, int(self.doc["queries_per_record"]))
        _require(report["unbounded_loss_detected"] is False, "unbounded loss detected")
        _require(report["max_count_difference"] == 1, "max_count_difference is not 1")
        _require(report["n_pairs"] == pairs, f"n_pairs {report['n_pairs']} != {pairs}")
        free = [g for g in report["groups"] if g["kind"] == "diff" and g["canonical_large"]]
        _require(len(free) == 1, "no clamp-free group of differing answers")
        mean, se = self.clamp_free
        _require(_within(free[0]["mean_abs_loss"], mean, N_SE * se),
                 f"clamp-free mean loss {free[0]['mean_abs_loss']} vs reference {mean} +- {se}")
        for g in report["groups"]:
            if g["kind"] == "same":
                mean, se = self._same_reference(int(g["true_count"]))
                _require(g["mean_abs_loss"] <= mean + N_SE * se,
                         f"same-answer mean loss {g['mean_abs_loss']} at n={g['true_count']} "
                         f"exceeds {mean} + {N_SE} * {se}")
        self.groups = len(report["groups"])

    def counters(self, op, out) -> dict:
        return {"bench.audit_groups": self.groups}


class AnalyticSweep(Workload):
    """bench.sweep_point on fresh seeded points; 1 in 100 underflows."""

    def setup(self) -> None:
        self.points = inputs.make_sweep_points(self.seed)

    def round(self) -> list:
        return self.points

    def before_round(self, index: int) -> None:
        # Every round evaluates the same points; clearing the unbounded
        # constant caches keeps them missing and memory flat across rounds.
        mechanisms.lapmix_constants.cache_clear()
        mechanisms.geomix_constants.cache_clear()

    def run(self, op):
        return bench.sweep_point(op.c_t, op.eps, op.r_eps)

    def expected_failure(self, op) -> bool:
        return op.underflow

    def check(self, op, row) -> None:
        lo, hi = min(op.eps, op.r_eps), max(op.eps, op.r_eps)
        _require(lo <= row.zeta_gm <= hi, f"zeta_gm {row.zeta_gm} outside [{lo}, {hi}] at {op}")
        # Every unit-shift loss of the Laplace mixture is at most r*eps, so
        # zeta_lm <= r*eps.  It may fall below eps: the Laplace family's
        # zeta does (rounded Laplace at eps = 0.3318 has zeta 0.309, and the
        # reference table's row (4, 0.5, 1.0) has zeta_lm 0.497).
        _require(0.0 < row.zeta_lm <= hi, f"zeta_lm {row.zeta_lm} outside (0, {hi}] at {op}")
        for col in ("gm", "lm", "geo", "lap"):
            e_abs, var = getattr(row, f"e_abs_{col}"), getattr(row, f"var_{col}")
            _require(e_abs * e_abs <= var * (1.0 + 1e-12), f"E|x|^2 > Var in column {col} at {op}")
        law = ref.geometric_mixture(op.eps, op.r_eps, int(op.c_t))
        for name, got, want in (("E|x|", row.e_abs_gm, law.e_abs()),
                                ("Var", row.var_gm, law.variance()),
                                ("zeta", row.zeta_gm, law.zeta())):
            _require(_rel_close(got, want), f"geomix {name} {got} vs reference {want} at {op}")


WORKLOADS = {
    "audit-50k": Audit50k,
    "analytic-sweep": AnalyticSweep,
}
