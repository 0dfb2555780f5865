"""Command-line entry point: run | sweep | probe | report.

Exit codes: 0 clean, 1 failing probe assertion, 2 configuration or schema
error, 3 solver guard trip, 4 internal error (any other exception). Every
error path prints one line with a machine-parsable prefix (config-error:,
solver-error:, io-error:, internal-error:); an internal error follows it
with the traceback. Outputs are UTF-8 CSV with header rows and pretty-printed
JSON with sorted keys; byte-identical for identical configs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
from pathlib import Path

from .coherent import wick_square_datum
from .config import PROBES, apply_overrides, load_config, validate
from .errors import ConfigurationError, PhaselabError
from .grids import PhaseField, make_grid, sample_field
from .hartree import evolve_hartree, evolve_linear_hartree
from .io import dump_raw_array, fmt, trajectory_csv, write_csv
from .norms import lebesgue_norm, mixed_norm, weighted_sobolev_norm
from .reports import CSV_COLUMNS, ProbeReport
from .spectral import shift
from .stability import classical_stability_experiment, quantum_stability_experiment
from .sweeps import sweep_reports
from .trajectory import Trajectory, resolve_steps
from .vlasov import evolve_vlasov

EXIT_OK = 0
EXIT_PROBE_FAIL = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INTERNAL = 4
TWIN_SHIFT_CELLS = 3  # spatial offset of the twin datum, in grid cells


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="phaselab",
                                description="phase-space quantization laboratory")
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out", default=None, help="output directory override")
        sp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="dotted-path config override (repeatable)")
        sp.add_argument("--seed", type=int, default=None, help="seed override")
        sp.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="worker pool size for sweep members")

    run_p = sub.add_parser("run", help="run one experiment")
    common(run_p)
    sweep_p = sub.add_parser("sweep", help="run the configured hbar-sweep probes")
    common(sweep_p)
    probe_p = sub.add_parser("probe", help="run one probe as a one-probe sweep, or norms")
    common(probe_p)
    probe_p.add_argument("--name", required=True,
                         help=f"probe name: norms or one of {', '.join(PROBES)}")
    report_p = sub.add_parser("report", help="merge probe reports from a directory")
    report_p.add_argument("results_dir", help="directory of ProbeReport JSON files")
    report_p.add_argument("--out", default=None, help="output directory (default: results_dir)")
    return p


def _load(args) -> dict:
    config = load_config(args.config)
    overrides = list(args.set)
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    if overrides:
        config = apply_overrides(config, overrides)
    if args.out is not None:
        config["out_dir"] = args.out
    return config


def _twin_fields(f1):
    delta = TWIN_SHIFT_CELLS * f1.grid.dx
    return f1, f1.copy_with(shift(f1.values, f1.grid.L_x, delta, axis=0))


def _run_vlasov(config: dict, f0, dt: float) -> Trajectory:
    return evolve_vlasov(f0, config["T"], dt, config["sign"])


def _run_hartree(config: dict, f0, dt: float) -> Trajectory:
    _, op0 = wick_square_datum(f0)
    return evolve_hartree(op0, config["T"], dt, config["sign"], log_spectrum=True)


def _run_linear_hartree(config: dict, f0, dt: float) -> Trajectory:
    ftraj = evolve_vlasov(f0, config["T"], dt, config["sign"])
    _, op0 = wick_square_datum(f0)
    return evolve_linear_hartree(op0, ftraj.fields, config["T"], dt, log_spectrum=True)


def _run_twin_classical(config: dict, f0, dt: float) -> ProbeReport:
    f1, f2 = _twin_fields(f0)
    return classical_stability_experiment(f1, f2, config["T"], dt, config["sign"])


def _run_twin_quantum(config: dict, f0, dt: float) -> ProbeReport:
    f1, f2 = _twin_fields(f0)
    (_, op1), (_, op2) = wick_square_datum(f1), wick_square_datum(f2)
    return quantum_stability_experiment(op1, op2, config["T"], dt, config["sign"])


# experiment -> function of (config, sampled profile, dt), in the order of
# config.EXPERIMENTS: a flow returns its Trajectory, a twin experiment its ProbeReport
RUNS = {
    "vlasov": _run_vlasov,
    "hartree": _run_hartree,
    "linear-hartree": _run_linear_hartree,
    "twin-classical": _run_twin_classical,
    "twin-quantum": _run_twin_quantum,
}


def cmd_run(config: dict) -> int:
    """Run one experiment. A flow writes <experiment>_trajectory.csv and,
    under dump_snapshots, its final state as the raw dump <experiment>_final;
    a twin experiment writes <probe>.json and exits 1 when it fails."""
    grid = make_grid(config["N"], config["L_x"], config["L_xi"])
    _, dt = resolve_steps(config["T"], config["dt"])
    result = RUNS[config["experiment"]](config, sample_field(grid, config["profile"]), dt)
    out_dir = Path(config["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    if isinstance(result, ProbeReport):
        (out_dir / f"{result.probe}.json").write_text(result.to_json() + "\n")
        return EXIT_OK if result.passed else EXIT_PROBE_FAIL
    name = config["experiment"].replace("-", "_")
    trajectory_csv(out_dir / f"{name}_trajectory.csv", result)
    if config["dump_snapshots"]:
        final = result.final()
        if isinstance(final, PhaseField):
            arr, label = final.values, "f(T)"
        else:
            arr, label = final.kernel, "op(T)"
        dump_raw_array(out_dir / f"{name}_final", arr, grid, label)
    return EXIT_OK


def _write_reports(reports: list[ProbeReport], out_dir: Path) -> int:
    """Write each report's JSON and print its slope and verdict; under a FAIL
    line, every failing tolerance entry with its observed value and bound."""
    all_pass = True
    for rep in reports:
        (out_dir / f"{rep.probe}.json").write_text(rep.to_json() + "\n")
        slope = "" if rep.slope is None else f"{rep.slope:+.4f}"
        print(f"{rep.probe:24s} slope={slope:>8s}  {'pass' if rep.passed else 'FAIL'}")
        for name, tol in rep.tolerance.items():
            if not tol["ok"]:
                print(f"  {name}: observed={tol['observed']} bound={tol['bound']}")
        all_pass = all_pass and rep.passed
    return EXIT_OK if all_pass else EXIT_PROBE_FAIL


def cmd_sweep(config: dict, jobs: int) -> int:
    settings = {key: config[key] for key in ("profile", "T", "sign", "dt", "seed", "L_x", "L_xi")}
    by_probe = sweep_reports(config["probes"], config["sweep_N"], jobs, **settings)
    out_dir = Path(config["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = [rep for name in config["probes"] for rep in by_probe[name]]
    code = _write_reports(reports, out_dir)
    write_csv(out_dir / "sweep_summary.csv", CSV_COLUMNS,
              [[r[c] for c in CSV_COLUMNS] for rep in reports for r in rep.csv_rows()])
    return code


def cmd_probe(config: dict, name: str, jobs: int) -> int:
    """The norms of the config's profile on its N x N grid, or a sweep of the
    one named probe."""
    if name != "norms":
        return cmd_sweep(validate({**config, "probes": [name]}), jobs)
    out_dir = Path(config["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    f = sample_field(make_grid(config["N"], config["L_x"], config["L_xi"]),
                     config["profile"])
    rows = [
        ["L1", lebesgue_norm(f, 1)],
        ["L2", lebesgue_norm(f, 2)],
        ["Linf", lebesgue_norm(f, math.inf)],
        ["L2xL2xi", mixed_norm(f, 2, 2)],
        ["L3xL2xi", mixed_norm(f, 3, 2)],
        ["H1", weighted_sobolev_norm(f, 1, 2, 0)],
        ["H2", weighted_sobolev_norm(f, 2, 2, 0)],
        ["W1inf", weighted_sobolev_norm(f, 1, math.inf, 0)],
        ["H2_2", weighted_sobolev_norm(f, 2, 2, 2)],
    ]
    write_csv(out_dir / "norms.csv", ["spec", "value"], rows)
    for spec, value in rows:
        print(f"{spec:10s} {fmt(value)}")
    return EXIT_OK


def _numbers(series, infinite: bool) -> bool:
    """Whether a report series is a list of numbers: no JSON boolean (it
    parses as a bool), no NaN, and no infinity unless ``infinite``."""
    return isinstance(series, list) and all(
        type(v) is int
        or (type(v) is float and (math.isfinite(v) or (infinite and not math.isnan(v))))
        for v in series)


def _read_report(fp: Path) -> dict | None:
    """The probe report in a JSON file, or None for other JSON. ValueError
    when the file is not JSON, the probe is no string, a series is not a list
    of finite numbers (ratio may be infinite: finalize_ratios writes inf for a
    budget <= 0), hbar and lhs differ in length or budget or ratio outruns
    them, the slope is neither null nor finite, or a verdict is no bool."""
    data = json.loads(fp.read_text())
    if not (isinstance(data, dict) and {"probe", "hbar", "lhs"} <= set(data)):
        return None
    finite = [data["hbar"], data["lhs"], data.get("budget", [])]
    well_formed = (isinstance(data["probe"], str)
                   and all(_numbers(s, infinite=False) for s in finite)
                   and _numbers(data.get("ratio", []), infinite=True)
                   and len(data["hbar"]) == len(data["lhs"])
                   and max(len(data.get(s, [])) for s in ("budget", "ratio")) <= len(data["hbar"])
                   and (data.get("slope") is None or _numbers([data["slope"]], infinite=False))
                   and type(data.get("passed", True)) is bool)
    if not well_formed:
        raise ValueError(f"malformed report file {fp}")
    return data


def cmd_report(results_dir: str, out: str | None) -> int:
    rdir = Path(results_dir)
    if not rdir.is_dir():
        raise ConfigurationError(f"results directory not found: {results_dir}")
    files = sorted(rdir.glob("*.json"))
    reports = []
    for fp in files:
        try:
            data = _read_report(fp)
        except ValueError:
            print(f"io-error: malformed report file {fp}", file=sys.stderr)
            return EXIT_CONFIG
        if data is not None:
            reports.append((fp.stem, data))
    if not reports:
        print(f"io-error: no probe reports found in {results_dir}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(out) if out else rdir
    out_dir.mkdir(parents=True, exist_ok=True)
    merged = []
    for run_id, data in reports:
        rows = ProbeReport.from_dict(data).csv_rows()
        merged += [[run_id, *(r[c] for c in CSV_COLUMNS)] for r in rows]
        if len(rows) >= 2:
            plot_rows = [[math.log(r["hbar"]), math.log(r["lhs"])]
                         for r in rows if r["hbar"] > 0 and r["lhs"] > 0]
            write_csv(out_dir / f"plot_{run_id}.csv", ["log_hbar", "log_lhs"], plot_rows)
        if data["probe"] == "convergence_rate":
            write_csv(out_dir / "main_rate.csv", ["hbar", "l2_error", "fitted_slope"],
                      [[r["hbar"], r["lhs"], r["slope"]] for r in rows])
    write_csv(out_dir / "merged_reports.csv", ["run", *CSV_COLUMNS], merged)
    print(f"merged {len(reports)} report(s) into {out_dir}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.verb == "report":
            return cmd_report(args.results_dir, args.out)
        config = _load(args)
        if args.verb == "run":
            return cmd_run(config)
        if args.verb == "sweep":
            return cmd_sweep(config, args.jobs)
        if args.verb == "probe":
            return cmd_probe(config, args.name, args.jobs)
        raise ConfigurationError(f"unknown verb {args.verb!r}")
    except PhaselabError as exc:
        config = isinstance(exc, ConfigurationError)
        # a per-snapshot consumer's error names its probe and time (sweeps.stream)
        at = "" if exc.probe is None else f"probe {exc.probe}, t={exc.t:.4g}: "
        print(f"{'config' if config else 'solver'}-error: {at}{exc}", file=sys.stderr)
        return EXIT_CONFIG if config else EXIT_SOLVER
    except Exception as exc:
        print(f"internal-error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
