"""phaselab benchmark: closed-loop ``phaselab sweep`` runs with output checks,
plus a per-layer trace taken from outside the program.

    python3 benchmarks/run.py --workload sweep-default --seed 1 --seconds 60 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 60 --trace 1

Paths resolve against the checkout that holds this file; the program is run
from its ``src/`` with the interpreter running this script. One client runs
one sweep process at a time (a closed loop): the next sweep starts after the
previous one has exited, as long as it should end within ``--seconds`` of the
first one's start, going by the previous sweep's time (at least one sweep).

``--trace 0`` prints the end-to-end metrics, measured with no tracer loaded:

- ``wall_s``: median wall time of one sweep process, from start to exit.
- ``cpu_s``: median user + sys CPU time of the sweep's process tree (the
  ``wait4`` rusage, which includes the pool workers the sweep reaped).
- ``peak_rss_mb``: median over sweeps of the largest peak resident set of any
  process in the tree, in MiB.
- ``setup_s``: median over SETUP_SAMPLES fresh interpreters of the time to
  import ``phaselab.cli`` and load the workload's config, start to exit; half
  are taken before the sweeps and half after.

``--trace 1`` runs the sweep once untraced and once under ``tracer.py`` and
prints the per-layer metrics of ``trace_metrics.py``.

Every sweep must exit 0 with every probe passed, match the committed headline
reference, and write byte-identical reports across repeats (within the run,
and against earlier runs of the same workload, seed and program version in
this checkout). Every ``convergence_rate.json`` must match, byte for byte,
the first one a ``--jobs 1`` sweep of this program version wrote
(``headline-jobs2`` runs one when there is none yet), which checks that the
reports do not depend on --jobs. A program run that fails any check counts
as failed; ``failed / attempted`` is the fail ratio. The last stdout line is the result JSON; the full record
(machine, samples, checks, counts) is written to ``.bench_out/records/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import trace_metrics
from machine import code_sha256
from workloads import CONFIG, HEADLINE, WORKLOADS, Workload, check_sweep, digests

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 20
BLAS_THREADS = "2"      # pinned so that both sides of a comparison use the same setting
CHILD_TIMEOUT_S = 150
SETUP_CODE = ("import sys, phaselab.cli\n"
              "from phaselab.config import apply_overrides, load_config\n"
              "apply_overrides(load_config(sys.argv[1]), sys.argv[2:])\n")
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)    # use the bytecode cache, as an installed phaselab does
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


@dataclass
class ChildRun:
    rc: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    output: str


def run_child(argv: list[str], log: Path) -> ChildRun:
    """Run one program process in its own session and reap it with wait4.

    The rusage covers the child and every descendant it waited for. On a
    timeout the whole session is killed.
    """
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT, start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, log.read_text(errors="replace"))


@dataclass
class Sweep:
    label: str
    run: ChildRun
    problems: list
    digests: dict
    bytes_written: int


def run_sweep(w: Workload, seed: int, work: Path, label: str, *, jobs: int | None = None,
              spans_dir: Path | None = None) -> Sweep:
    out_dir = work / label
    args = w.sweep_args(seed, out_dir, jobs)
    if spans_dir is None:
        argv = [sys.executable, "-m", "phaselab.cli", *args]
    else:
        argv = [sys.executable, str(BENCH / "tracer.py"), str(spans_dir), *args]
    run = run_child(argv, work / f"{label}.log")
    problems = check_sweep(w, run.rc, run.output, out_dir)
    files = digests(out_dir) if out_dir.is_dir() else {}
    size = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file()) if files else 0
    shutil.rmtree(out_dir, ignore_errors=True)
    return Sweep(label, run, problems, files, size)


def stored_digests(path: Path, first: dict) -> dict:
    """The digests stored at path; ``first`` is stored if there are none yet."""
    if not path.is_file():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(first, indent=1, sort_keys=True) + "\n")
    return json.loads(path.read_text())


def digests_dir() -> Path:
    """Where reference digests live: one directory per version of the program."""
    return OUT / "digests" / code_sha256()[:16]


def check_repeats(w: Workload, seed: int, sweeps: list[Sweep]) -> None:
    """Reports byte-identical across repeats and runs of this workload and seed,
    and a headline report byte-identical to the first --jobs 1 one of this program."""
    good = [s for s in sweeps if not s.problems]
    if not good:
        return
    ref = stored_digests(digests_dir() / f"{w.name}-seed{seed}.json", good[0].digests)
    for s in good:
        changed = sorted(k for k in set(ref) | set(s.digests) if ref.get(k) != s.digests.get(k))
        if changed:
            s.problems.append(f"reports differ from an earlier run of this seed: {changed}")
    headline_ref = digests_dir() / "headline-jobs1.json"
    if w.headline and (w.jobs == 1 or headline_ref.is_file()):
        want = stored_digests(headline_ref, {HEADLINE: good[0].digests.get(HEADLINE)})[HEADLINE]
        for s in good:
            if s.digests.get(HEADLINE) != want:
                s.problems.append(f"{HEADLINE} differs from the --jobs 1 sweep")


def headline_jobs1(w: Workload, seed: int, work: Path, out: Outcome) -> None:
    """Store the --jobs 1 headline digest first when a pooled workload needs it.

    The headline probe takes no seed, so one --jobs 1 sweep per program
    version (of sweep-default or of this) is the reference every later sweep
    must match.
    """
    headline_ref = digests_dir() / "headline-jobs1.json"
    if not w.headline or w.jobs == 1 or headline_ref.is_file():
        return
    s = run_sweep(w, seed, work, "jobs1", jobs=1)
    out.add_run(s.label, s.problems)
    if not s.problems:
        stored_digests(headline_ref, {HEADLINE: s.digests[HEADLINE]})


def measure_setup(w: Workload, seed: int, work: Path, n: int, samples: list,
                  problems: list, *, warm: bool = False) -> None:
    """Append n set-up times to samples; warm first runs one untimed import,
    which fills the bytecode cache."""
    argv = [sys.executable, "-c", SETUP_CODE, CONFIG, *w.config_overrides(seed, work / "setup")]
    for i in range(n + warm):
        if problems:
            return
        run = run_child(argv, work / "setup.log")
        if run.rc != 0:
            problems.append(f"set-up exit code {run.rc}: {run.output.strip()[-200:]}")
        elif i >= warm:
            samples.append(run.wall_s)


@dataclass
class Outcome:
    metrics: dict = field(default_factory=dict)     # name -> (value, unit, samples)
    runs: list = field(default_factory=list)        # (label, problems)
    record: dict = field(default_factory=dict)

    def add_run(self, label: str, problems: list) -> None:
        self.runs.append((label, list(problems)))

    @property
    def attempted(self) -> int:
        return len(self.runs)

    @property
    def failed(self) -> int:
        return sum(1 for _, p in self.runs if p)


def run_untraced(w: Workload, seed: int, seconds: float, work: Path, out: Outcome) -> None:
    # Half the set-up samples are taken before the sweeps and half after, so
    # that they span the run as the sweeps do, not one burst of a few seconds.
    setup, setup_problems = [], []
    measure_setup(w, seed, work, SETUP_SAMPLES // 2, setup, setup_problems, warm=True)
    sweeps: list[Sweep] = []
    start = time.perf_counter()
    # No sweep starts that the previous one's time says would end after --seconds.
    while not sweeps or time.perf_counter() - start + sweeps[-1].run.wall_s <= seconds:
        sweeps.append(run_sweep(w, seed, work, f"sweep{len(sweeps)}"))
    measure_setup(w, seed, work, SETUP_SAMPLES - len(setup), setup, setup_problems)
    out.add_run("setup", setup_problems)
    headline_jobs1(w, seed, work, out)
    check_repeats(w, seed, sweeps)
    for s in sweeps:
        out.add_run(s.label, s.problems)
    for name in ("wall_s", "cpu_s", "peak_rss_mb"):
        values = [getattr(s.run, name) for s in sweeps]
        out.metrics[name] = (statistics.median(values), END_TO_END_UNITS[name], len(values))
    if setup:
        out.metrics["setup_s"] = (statistics.median(setup), "s", len(setup))
    out.record.update(
        setup_s=setup,
        sweeps=[{"label": s.label, "rc": s.run.rc, "wall_s": s.run.wall_s, "cpu_s": s.run.cpu_s,
                 "peak_rss_mb": s.run.peak_rss_mb, "bytes_written": s.bytes_written}
                for s in sweeps])


def run_traced(w: Workload, seed: int, work: Path, out: Outcome) -> None:
    plain = run_sweep(w, seed, work, "untraced")
    spans_dir = work / "spans"
    traced = run_sweep(w, seed, work, "traced", spans_dir=spans_dir)
    headline_jobs1(w, seed, work, out)
    check_repeats(w, seed, [plain, traced])
    for s in (plain, traced):
        out.add_run(s.label, s.problems)
    if traced.problems:
        return
    spans = trace_metrics.load_spans(spans_dir)
    values, counts = trace_metrics.sweep_metrics(spans, w.jobs)
    values["io.bytes_written"] = traced.bytes_written
    values["trace.overhead_s"] = traced.run.wall_s - plain.run.wall_s
    for name, unit in trace_metrics.UNITS.items():
        out.metrics[name] = (values[name], unit, 1)
    out.record.update(counts=counts,
                      traced_wall_s=traced.run.wall_s, untraced_wall_s=plain.run.wall_s)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    w = WORKLOADS[name]
    work = OUT / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = Outcome()
    machine = run_child([sys.executable, str(BENCH / "machine.py")], work / "machine.log")
    out.record.update(workload=name, seed=seed, seconds=seconds, trace=trace, jobs=w.jobs,
                      machine=json.loads(machine.output) if machine.rc == 0 else None)
    try:
        if trace:
            run_traced(w, seed, work, out)
        else:
            run_untraced(w, seed, seconds, work, out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out.record.update(runs=out.runs, attempted=out.attempted, failed=out.failed,
                      metrics={k: {"value": v, "unit": u, "samples": n}
                               for k, (v, u, n) in out.metrics.items()})
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(out.record, indent=1, sort_keys=True) + "\n")
    return out


def print_outcome(name: str, out: Outcome) -> None:
    for label, problems in out.runs:
        for p in problems:
            print(f"{name}: FAILED {label}: {p}")
    for metric, (value, unit, n) in out.metrics.items():
        print(f"{name:15s} {metric:42s} {value:>16.6g} {unit:6s} (n={n})")
    print(f"{name:15s} {'fail_ratio':42s} {out.failed:>7d} of {out.attempted} attempted")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    for needed in ("src/phaselab/cli.py", CONFIG):
        if not (ROOT / needed).is_file():
            print(f"error: {needed} not found under {ROOT}; run from a phaselab checkout",
                  file=sys.stderr)
            return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    for n, out in outcomes.items():
        print_outcome(n, out)
    prefix = len(names) > 1
    result = {
        "correct": not any(o.failed for o in outcomes.values()),
        "attempted": sum(o.attempted for o in outcomes.values()),
        "failed": sum(o.failed for o in outcomes.values()),
        "metrics": {(f"{n}.{m}" if prefix else m): {"value": v, "unit": u}
                    for n, o in outcomes.items() for m, (v, u, _) in o.metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
