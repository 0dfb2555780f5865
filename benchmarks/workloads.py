"""The benchmark's workloads and the checks every run's outputs must pass.

Each workload is one ``phaselab sweep`` command line: ``configs/default.json``
plus ``--set`` overrides, a ``--jobs`` count, and the benchmark's seed passed
as ``--seed`` (the ``commutator`` probe draws its random symbols from it).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

CONFIG = "configs/default.json"
HEADLINE = "convergence_rate.json"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
STATIC_PROBES = ["wick_structure", "wick_square", "weight_remainder", "commutator",
                 "b_remainder", "init_diff"]


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int
    headline: bool            # runs the convergence probe, which writes HEADLINE
    overrides: tuple = ()

    def sweep_args(self, seed: int, out_dir: Path, jobs: int | None = None) -> list[str]:
        args = ["sweep", "--config", CONFIG, "--jobs", str(self.jobs if jobs is None else jobs),
                "--seed", str(seed), "--out", str(out_dir)]
        for o in self.overrides:
            args += ["--set", o]
        return args

    def config_overrides(self, seed: int, out_dir: Path) -> list[str]:
        """The overrides phaselab applies for sweep_args (what set-up loads)."""
        return [*self.overrides, f"out_dir={out_dir}", f"seed={seed}"]


WORKLOADS = {
    # The command users run: all ten probes on N = 64..256 at --jobs 1. Its four
    # dynamics probes re-run the same flows (evolve_vlasov 4x per N, linear
    # Hartree 5x, Hartree 2x), so step-count, step-cost and trajectory-sharing
    # changes all show here.
    "sweep-default": Workload("sweep-default", jobs=1, headline=True),
    # The headline probe alone at --jobs 2: one flow set per N, so trajectory
    # sharing is bypassed (prediction: no change from it). The only workload
    # that uses the sweeps.run_members process pool, where the N=256 member
    # sets the critical path.
    "headline-jobs2": Workload("headline-jobs2", jobs=2, headline=True,
                               overrides=('probes=["convergence"]',)),
    # The six static probes on N = 128..512: no time stepping, cost in
    # transforms (weyl_quantize gather), coherent (fft2 Husimi smoothing) and
    # LAPACK SVD/eigh. Guards against a dynamics change moving anything else,
    # and against a shared spectral/transforms/norms change slowing another
    # use of that code. An N=512 complex array is 4 MB, twice the 2 MB
    # per-core L2 of the 2-core Xeon the benchmark was defined on, so its
    # working set is larger than in the other two workloads. Run by hand only:
    # BENCHMARK.json does not gate it, as its time budget leaves a third
    # workload too short a run to be steady on a 2-core machine.
    "static-probes": Workload("static-probes", jobs=1, headline=False,
                              overrides=(f"probes={json.dumps(STATIC_PROBES)}",
                                         "sweep_N=[128,192,256,384,512]")),
}


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every report file a sweep wrote, by relative path."""
    return {str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def check_sweep(workload: Workload, rc: int, output: str, out_dir: Path) -> list[str]:
    """Problems with one sweep's outputs; an empty list means the run is correct."""
    if rc != 0:
        return [f"exit code {rc}: {' '.join(output.strip().splitlines()[-1:])}"]
    problems = []
    reports = sorted(out_dir.glob("*.json"))
    if not reports or not (out_dir / "sweep_summary.csv").is_file():
        problems.append("missing report files")
    for path in reports:
        if json.loads(path.read_text()).get("passed") is not True:
            problems.append(f"{path.name}: probe not passed")
    if workload.headline:
        problems += check_headline(out_dir / HEADLINE)
    return problems


def check_headline(path: Path) -> list[str]:
    """err_wigner per N against the committed reference, within its rtol."""
    if not path.is_file():
        return [f"{HEADLINE} missing"]
    ref = json.loads(REFERENCE.read_text())
    got = {str(m["N"]): m["err_wigner"]
           for m in json.loads(path.read_text())["details"]["members"]}
    if set(got) != set(ref["err_wigner"]):
        return [f"headline grid sizes {sorted(got)} != reference {sorted(ref['err_wigner'])}"]
    return [f"err_wigner at N={N}: {got[N]!r} vs reference {want!r} (rtol {ref['rtol']})"
            for N, want in ref["err_wigner"].items()
            if abs(got[N] - want) > ref["rtol"] * abs(want)]
