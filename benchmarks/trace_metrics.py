"""Per-layer metrics from the spans that tracer.py writes.

A span's self time is its duration minus the part of its interval that its
child spans cover (the union of the children's intervals, so the parallel
members of a pool are not counted twice). Counts are exact and must repeat
between two traced runs of the same seed; times are as measured.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

from tracer import EVOLVE_FLOWS, LAYERS

FLOWS = tuple(EVOLVE_FLOWS.values())
PER_CALL = ("spectral.shift", "transforms.weyl_quantize",
            "transforms.wigner_transform", "calculus.operator_sqrt")
MEMBERS = {"convergence": "sweeps.headline_member",
           "positivity_defect": "sweeps.defect_member",
           "sqrt_comparison": "sweeps.sqrt_comparison_member",
           "regularity": "sweeps.regularity_member"}
STEP_N = 256


def _units() -> dict:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update({"kernel.fft.calls": "count", "kernel.fft.points": "count",
                  "kernel.fft.self_s": "s", "kernel.linalg.svd_calls": "count",
                  "kernel.linalg.eigh_calls": "count", "kernel.linalg.self_s": "s"})
    for flow in FLOWS:
        units[f"{flow}.steps"] = "count"
        units[f"{flow}.step_ms.N{STEP_N}"] = "ms"
        units[f"{flow}.fft_calls_per_step"] = "1/step"
    for name in PER_CALL:
        units[f"{name}_ms.N{STEP_N}"] = "ms"
    for probe in MEMBERS:
        units[f"sweeps.member_s.{probe}.N{STEP_N}"] = "s"
    units.update({"sweeps.evolutions": "count", "sweeps.distinct_evolutions": "count",
                  "sweeps.evolutions_per_distinct": "ratio", "sweeps.pool_idle_s": "s",
                  "trajectory.snapshot_mb": "MB", "io.bytes_written": "B",
                  "trace.overhead_s": "s"})
    return units


UNITS = _units()    # every per-layer metric, in report order


class Span:
    __slots__ = ("sid", "parent", "name", "t0", "t1", "info", "self_s")

    def __init__(self, sid, parent, name, t0, t1, info):
        self.sid, self.parent, self.name = sid, parent, name
        self.t0, self.t1, self.info = t0, t1, info or {}
        self.self_s = t1 - t0

    @property
    def layer(self) -> str:
        parts = self.name.split(".")
        return ".".join(parts[:2]) if parts[0] == "kernel" else parts[0]

    @property
    def N(self):
        return self.info.get("N")


def load_spans(spans_dir: Path) -> list[Span]:
    spans = []
    for path in sorted(Path(spans_dir).glob("spans-*.jsonl")):
        with open(path) as fh:
            spans.extend(Span(*json.loads(line)) for line in fh)
    _set_self_times(spans)
    return spans


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    covered, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            covered += b - a
            end = b
    return covered


def _set_self_times(spans: list[Span]) -> None:
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.t0, s.t1))
    for s in spans:
        kids = children.get(s.sid)
        if kids:
            s.self_s = (s.t1 - s.t0) - _covered(kids, s.t0, s.t1)


def _flow_of_ancestor(span: Span, by_id: dict) -> str | None:
    """Flow of the nearest evolve span above this one, if any."""
    sid = span.parent
    while sid is not None:
        anc = by_id.get(sid)
        if anc is None:
            return None
        if "flow" in anc.info:
            return anc.info["flow"]
        sid = anc.parent
    return None


def _mean_s(spans: list[Span]) -> float:
    """Mean duration; 0 when the workload makes no such call."""
    return sum(s.t1 - s.t0 for s in spans) / len(spans) if spans else 0.0


def sweep_metrics(spans: list[Span], jobs: int) -> tuple[dict, dict]:
    """Per-layer metrics of one traced sweep, and the counts behind its ratios."""
    by_id = {s.sid: s for s in spans}
    m: dict = {}
    for layer in LAYERS:
        mine = [s for s in spans if s.layer == layer]
        m[f"{layer}.calls"] = len(mine)
        m[f"{layer}.self_s"] = sum(s.self_s for s in mine)
    fft = [s for s in spans if s.layer == "kernel.fft"]
    linalg = [s for s in spans if s.layer == "kernel.linalg"]
    m["kernel.fft.calls"] = len(fft)
    m["kernel.fft.points"] = sum(s.info["points"] for s in fft)
    m["kernel.fft.self_s"] = sum(s.self_s for s in fft)
    m["kernel.linalg.svd_calls"] = sum(s.name == "kernel.linalg.svd" for s in linalg)
    m["kernel.linalg.eigh_calls"] = sum(s.name in ("kernel.linalg.eigh", "kernel.linalg.eigvalsh")
                                        for s in linalg)
    m["kernel.linalg.self_s"] = sum(s.self_s for s in linalg)

    evolves = [s for s in spans if "flow" in s.info]
    fft_in_flow = defaultdict(int)
    for s in fft:
        flow = _flow_of_ancestor(s, by_id)
        if flow:
            fft_in_flow[flow] += 1
    for flow in FLOWS:
        mine = [s for s in evolves if s.info["flow"] == flow]
        steps = sum(s.info["steps"] for s in mine)
        m[f"{flow}.steps"] = steps
        m[f"{flow}.fft_calls_per_step"] = fft_in_flow[flow] / steps if steps else 0.0
        at_n = [s for s in mine if s.N == STEP_N]
        steps_n = sum(s.info["steps"] for s in at_n)
        m[f"{flow}.step_ms.N{STEP_N}"] = (
            1e3 * sum(s.t1 - s.t0 for s in at_n) / steps_n if steps_n else 0.0)
    for name in PER_CALL:
        m[f"{name}_ms.N{STEP_N}"] = 1e3 * _mean_s(
            [s for s in spans if s.name == name and s.N == STEP_N])
    for probe, name in MEMBERS.items():
        m[f"sweeps.member_s.{probe}.N{STEP_N}"] = _mean_s(
            [s for s in spans if s.name == name and s.N == STEP_N])
    distinct = {(s.info["flow"], s.N, s.info["init"]) for s in evolves}
    m["sweeps.evolutions"] = len(evolves)
    m["sweeps.distinct_evolutions"] = len(distinct)
    m["sweeps.evolutions_per_distinct"] = len(evolves) / len(distinct) if distinct else 0.0
    m["trajectory.snapshot_mb"] = sum(s.info["snapshot_bytes"] for s in evolves) / 1e6

    root = next(s for s in spans if s.name == "cli.main")
    members = [s for s in spans if s.layer == "sweeps" and s.name.endswith("_member")]
    busy = sum(s.t1 - s.t0 for s in members)
    m["sweeps.pool_idle_s"] = jobs * (root.t1 - root.t0) - busy
    member_s = defaultdict(float)
    for s in members:
        member_s[s.name] += s.t1 - s.t0
    counts = {"evolutions": len(evolves), "distinct_evolutions": len(distinct),
              "evolutions_by_flow": {f: sum(s.info["flow"] == f for s in evolves) for f in FLOWS},
              "member_busy_s": busy, "member_s_all_N": dict(member_s),
              "sweep_wall_s": root.t1 - root.t0, "jobs": jobs}
    return m, counts
