"""Command-line surface: stats, sweep, release, bench and audit.

Exit codes: 0 success, 2 usage/config error, 3 policy refusal (unsafe
mechanism or budget cap), 141 (as for SIGPIPE) when stdout's reader has gone:
the output is cut short, without a traceback.  Randomized commands take
--seed; without one a fresh seed is drawn and printed so the run can be
reproduced.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import os
import secrets
import sys
from pathlib import Path

from . import __version__
from .accounting import charge_ledger
from .bench import SimulationConfig, SweepRow, audit_privacy, run_simulation, table_sweep
from .data import (
    QuerySpec,
    count_query,
    histogram_query,
    load_dataset,
    printed_charge,
    release,
    release_to_json,
)
from .errors import BudgetRefusedError, InvalidParameterError, PwmixError, UnsafeMechanismError
from .mechanisms import SPECS, MechanismSpec, spec_from_dict
from .sampling import SeededStream

USAGE_ERROR = 2
POLICY_REFUSAL = 3
BROKEN_PIPE = 141


def _fail(message: str, code: int = USAGE_ERROR) -> int:
    print(f"pwmix: error: {message}", file=sys.stderr)
    return code


def _spec_from_args(args) -> MechanismSpec:
    return spec_from_dict(
        {
            "kind": args.mechanism,
            "eps": args.eps,
            "reps": args.reps,
            "ct": args.ct,
            "unsafe": getattr(args, "unsafe", False),
        }
    )


def _add_mechanism_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--mechanism",
        required=True,
        choices=[cls.kind for cls in SPECS],
    )
    p.add_argument("--eps", type=float, help="inner privacy parameter epsilon")
    p.add_argument("--reps", type=float, help="outer privacy parameter r*eps (mixtures)")
    p.add_argument("--ct", type=float, help="break-point (mixtures) or truncation bound")


def _seed_from_args(args) -> int:
    if args.seed is not None:
        return int(args.seed)
    seed = secrets.randbits(63)
    print(f"pwmix: generated seed {seed} (pass --seed {seed} to reproduce)", file=sys.stderr)
    return seed


# ---------------------------------------------------------------------------
# stats


def _cmd_stats(args) -> int:
    spec = _spec_from_args(args)
    stats = spec.stats()
    row = {
        "mechanism": spec.label,
        "mean_abs_noise": stats.mean_abs_noise,
        "variance": stats.variance,
        "entropy": stats.entropy,
        "zeta": spec.zeta(),
        "zeta_charged": printed_charge(spec.charge()),
        "worst_case_eps": spec.worst_case_eps(),
    }
    if args.format == "json":
        print(json.dumps(row, sort_keys=True))
    else:
        writer = csv.DictWriter(sys.stdout, fieldnames=list(row))
        writer.writeheader()
        writer.writerow({k: (f"{v:.6g}" if isinstance(v, float) else v) for k, v in row.items()})
    return 0


# ---------------------------------------------------------------------------
# sweep


def _cmd_sweep(args) -> int:
    if args.table1:
        grid = None
    elif args.grid:
        try:
            doc = json.loads(Path(args.grid).read_text())
            grid = [(float(ct), float(eps), float(reps)) for ct, eps, reps in doc]
        except (OSError, ValueError, TypeError) as exc:
            return _fail(f"malformed grid file: {exc}")
    else:
        return _fail("pass --table1 or --grid FILE")
    rows = table_sweep(grid)
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(SweepRow.FIELDS)
        for row in rows:
            writer.writerow([f"{v:.6g}" for v in row.as_tuple()])
    finally:
        if args.out:
            out.close()
    return 0


# ---------------------------------------------------------------------------
# release


def _parse_query(text: str) -> tuple[tuple[str, str], ...]:
    preds = []
    for part in text.split(","):
        if not part.strip():
            continue
        if "=" not in part:
            raise PwmixError(f"predicate {part!r} is not of the form attr=value")
        attr, value = part.split("=", 1)
        preds.append((attr.strip(), value.strip()))
    return tuple(preds)


def _cmd_release(args) -> int:
    try:
        ds = load_dataset(args.data, header=not args.no_header)
    except (OSError, PwmixError) as exc:
        return _fail(f"cannot load dataset: {exc}")
    spec = _spec_from_args(args)
    seed = _seed_from_args(args)
    stream = SeededStream(seed)

    if args.hist:
        hist = histogram_query(ds, args.hist)
        cells = sorted(hist)
        truth = [hist[c] for c in cells]
        query_desc = f"histogram({args.hist})"
        zeta_unit = spec.charge()
        charge = zeta_unit if args.charge_mode == "parallel" else zeta_unit * len(cells)
        rel = release(truth, spec, stream)
        doc = release_to_json(rel, query=query_desc, zeta_charged=charge, reveal_true=args.reveal_true)
        doc["cells"] = cells
        doc["charge_mode"] = args.charge_mode
    else:
        q = QuerySpec(predicates=_parse_query(args.query or ""))
        truth = count_query(ds, q)
        query_desc = args.query or "(all rows)"
        charge = spec.charge()
        rel = release(truth, spec, stream)
        doc = release_to_json(rel, query=query_desc, zeta_charged=charge, reveal_true=args.reveal_true)
    doc["seed"] = seed

    if args.ledger:
        query = f"{query_desc} [{args.charge_mode}]" if args.hist else query_desc
        doc["ledger_total"] = charge_ledger(args.ledger, charge, spec.label, query, args.budget_cap)

    print(json.dumps(doc, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# bench / audit


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, command: str, config_path: Path, seed: int, outputs: list[str]):
    manifest = {
        "command": command,
        "config_digest": _digest(config_path),
        "master_seed": seed,
        "tool_version": __version__,
        "outputs": sorted(outputs),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _config_int(key: str, value) -> int:
    """A whole-number config value: an int, or an integral float such as 1e6; not a bool."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidParameterError(f"{key} must be a whole number, got {value!r}")
    return value


def _cmd_bench(args) -> int:
    config_path = Path(args.config)
    try:
        doc = json.loads(config_path.read_text())
        mechanisms = tuple(spec_from_dict(m) for m in doc["mechanisms"])
        samples = _config_int("samples_per_cell", doc.get("samples_per_cell", 10**6))
        c_t = doc["c_t_for_metrics"]
        if isinstance(c_t, bool) or not isinstance(c_t, (int, float)):
            raise InvalidParameterError(f"c_t_for_metrics must be a number, got {c_t!r}")
        config = SimulationConfig(
            true_counts=tuple(_config_int("true_counts", n) for n in doc["true_counts"]),
            mechanisms=mechanisms,
            samples_per_cell=samples,
            master_seed=_seed_from_args(args),
            c_t_for_metrics=float(c_t),
        )
    except (OSError, KeyError, ValueError, TypeError, OverflowError, PwmixError) as exc:
        return _fail(f"unreadable bench config: {exc!r}")
    report = run_simulation(config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    report_path = out_dir / "utility_report.json"
    report_path.write_text(json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n")
    outputs = [report_path.name]
    for name, columns, cell_rows in (
        (
            "error_cdf.csv",
            ["threshold", "probability"],
            lambda cell: [[t, f"{p:.6g}"] for t, p in cell.error_cdf.items()],
        ),
        ("within_bound.csv", ["within_bound_fraction"], lambda cell: [[f"{cell.within_bound:.6g}"]]),
        ("mre.csv", ["mean_relative_error"], lambda cell: [[f"{cell.mre:.6g}"]]),
    ):
        with open(out_dir / name, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["mechanism", "true_count", *columns])
            for cell in report.cells:
                w.writerows([cell.mechanism, cell.true_count, *row] for row in cell_rows(cell))
        outputs.append(name)
    _write_manifest(out_dir, "bench", config_path, config.master_seed, outputs)
    return 0


def _random_queries(ds, n_queries: int, rng) -> list[QuerySpec]:
    """Random two-attribute conjunctions: attributes uniform, then an observed value."""
    queries = []
    attrs = list(ds.schema)
    for _ in range(n_queries):
        a, b = rng.choice(len(attrs), size=2, replace=False)
        preds = []
        for ai in (a, b):
            values = ds.levels(attrs[int(ai)])
            preds.append((attrs[int(ai)], values[int(rng.integers(0, len(values)))]))
        queries.append(QuerySpec(predicates=tuple(preds)))
    return queries


def _cmd_audit(args) -> int:
    config_path = Path(args.config)
    try:
        doc = json.loads(config_path.read_text())
        data_path = doc["data"]
        spec = spec_from_dict(doc["mechanism"])
        trials = _config_int("trials", doc.get("trials", 10**6))
        n_queries = _config_int("n_queries", doc.get("n_queries", 100))
        max_records = _config_int("max_records", doc.get("max_records", 200))
        queries_per_record = _config_int("queries_per_record", doc.get("queries_per_record", 100))
        header = doc.get("header", True)
        if not isinstance(header, bool):
            raise InvalidParameterError(f"header must be true or false, got {header!r}")
        ds = load_dataset(data_path, header=header)
    except (OSError, KeyError, ValueError, TypeError, PwmixError) as exc:
        return _fail(f"unreadable audit config: {exc!r}")
    seed = _seed_from_args(args)
    stream = SeededStream(seed)
    queries = _random_queries(ds, n_queries, stream.derive(99).generator)
    report = audit_privacy(
        ds,
        queries,
        spec,
        trials,
        stream,
        max_records=max_records,
        queries_per_record=queries_per_record,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "privacy_audit.json"
    report_path.write_text(json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n")
    _write_manifest(out_dir, "audit", config_path, seed, [report_path.name])
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once; ``main`` runs ``_cmd_<command>`` as this module holds it then."""
    parser = argparse.ArgumentParser(
        prog="pwmix",
        description="Piecewise-mixture differential privacy toolkit",
    )
    parser.add_argument("--version", action="version", version=f"pwmix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="closed-form noise stats and privacy budget")
    _add_mechanism_flags(p)
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("sweep", help="metrics sweep over a (ct, eps, r*eps) grid")
    p.add_argument("--table1", action="store_true", help="use the built-in reference grid")
    p.add_argument("--grid", help="JSON file with a list of [ct, eps, reps] triples")
    p.add_argument("--out", help="CSV output path (default stdout)")

    p = sub.add_parser("release", help="noisy count or histogram release")
    p.add_argument("--data", required=True, help="CSV dataset path")
    p.add_argument("--no-header", action="store_true", help="treat the first row as data")
    p.add_argument("--query", help='conjunctive predicates "attr=val[,attr=val]"')
    p.add_argument("--hist", help="histogram over this attribute")
    _add_mechanism_flags(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--ledger", help="JSON budget ledger to charge (atomic rewrite)")
    p.add_argument("--budget-cap", type=float, help="refuse once the ledger would pass this total")
    p.add_argument("--reveal-true", action="store_true", help="include the true value in output")
    p.add_argument("--unsafe", action="store_true", help="allow the non-private trunclap")
    p.add_argument("--charge-mode", choices=["parallel", "sequential"], default="parallel")

    p = sub.add_parser("bench", help="Monte Carlo utility benchmark")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("audit", help="empirical privacy-loss audit on a dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = globals()[f"_cmd_{args.command}"](args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except (UnsafeMechanismError, BudgetRefusedError) as exc:
        return _fail(str(exc), POLICY_REFUSAL)
    except PwmixError as exc:
        return _fail(str(exc))
    except BrokenPipeError:
        # stdout's reader has gone: devnull takes the rest, so the flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE
    except OSError as exc:  # an output path that cannot be written, as --out in a missing directory
        return _fail(f"cannot write the output: {exc}")


if __name__ == "__main__":
    sys.exit(main())
