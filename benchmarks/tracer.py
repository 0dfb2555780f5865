"""Outside-in tracer for phaselab: spans recorded around calls into each module.

Nothing under ``src/`` changes. ``Tracer.install`` replaces every public
function of the layer modules with a timing wrapper, in every ``phaselab``
module namespace that bound it (``vlasov.shift`` and ``cli.shift`` are the
same function as ``spectral.shift`` and are patched too). It also wraps the
numpy FFT and linear-algebra kernels and the ``DensityOperator``
linear-algebra methods.

A span is ``[id, parent_id, name, t0, t1, info]``; times come from
``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so comparable across the
pool's forked workers). Spans stay in memory and are written once, as JSON
lines, at the end: by the main process when the sweep returns, and by a
forked pool worker when its sweep member returns. Workers inherit the
wrappers at fork and keep the parent's open spans as their ancestors.

Run as a script it traces one phaselab invocation::

    python3 benchmarks/tracer.py SPANS_DIR sweep --config configs/default.json --jobs 1

Untraced benchmark runs never import this file.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import sys
import time
from pathlib import Path

LAYERS = ("spectral", "poisson", "vlasov", "hartree", "transforms", "coherent",
          "operators", "calculus", "norms", "budgets", "remainder", "probes",
          "sweeps", "grids", "io")
FFT_FUNCS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
             "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")
LINALG_FUNCS = ("svd", "eigh", "eigvalsh")
OPERATOR_METHODS = ("apply", "compose", "adjoint", "trace", "singular_values",
                    "eigenvalues", "hermiticity_defect", "check_hermitian",
                    "check_positive")
EVOLVE_FLOWS = {"vlasov.evolve_vlasov": "vlasov",
                "hartree.evolve_hartree": "hartree",
                "hartree.evolve_linear_hartree": "linear_hartree"}


def _grid_size(args) -> int | None:
    """N of the first argument: a field, an operator, an array or a member dict."""
    if not args:
        return None
    a = args[0]
    grid = getattr(a, "grid", None)
    if grid is not None:
        return grid.N
    shape = getattr(a, "shape", None)
    if shape:
        return int(shape[0])
    if isinstance(a, dict) and "N" in a:
        return int(a["N"])
    return None


def _array_of(x):
    values = getattr(x, "values", None)
    return values if values is not None else x.kernel


def _trajectory_bytes(traj) -> int:
    """Bytes of the arrays a returned trajectory holds: snapshots and field history."""
    total = sum(_array_of(s).nbytes for s in traj.snapshots)
    for snap in traj.fields:
        total += snap.V.nbytes + snap.E.nbytes + snap.rho.nbytes
    return total


class Tracer:
    """Span store plus the wrappers that feed it; one per traced process."""

    def __init__(self, spans_dir: Path):
        self.spans_dir = Path(spans_dir)
        self.spans: list = []
        self.stack: list = []
        self.counter = 0
        self.pid = os.getpid()
        self.worker_depth = None   # stack depth at fork, set in pool workers
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        self.spans = []
        self.pid = os.getpid()
        self.worker_depth = len(self.stack)

    # -- span recording -----------------------------------------------------

    def _open(self):
        self.counter += 1
        sid = f"{self.pid}.{self.counter}"
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, t0, t1, info):
        self.stack.pop()
        self.spans.append([sid, parent, name, t0, t1, info])
        if self.worker_depth is not None and len(self.stack) == self.worker_depth:
            self.dump()

    def span(self, name: str, fn, info_fn=None):
        """Wrap fn so each call records one span; info_fn(args, kwargs, result) adds data."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(sid, parent, name, t0, time.perf_counter(), {"error": True})
                raise
            t1 = time.perf_counter()
            info = info_fn(args, kwargs, result) if info_fn else None
            self._close(sid, parent, name, t0, t1, info)
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def dump(self):
        """Append this process's finished spans to its own JSON-lines file."""
        if not self.spans:
            return
        self.spans_dir.mkdir(parents=True, exist_ok=True)
        with open(self.spans_dir / f"spans-{self.pid}.jsonl", "a") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")
        self.spans = []

    # -- installation -------------------------------------------------------

    def install(self):
        import numpy as np
        import phaselab.cli  # noqa: F401  (imports every module the sweep uses)
        from phaselab.operators import DensityOperator

        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "phaselab" or name.startswith("phaselab.")]
        for layer in LAYERS:
            module = sys.modules[f"phaselab.{layer}"]
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or getattr(fn, "__wrapped_by_tracer__", False)):
                    continue
                wrapped = self.span(f"{layer}.{name}", fn, self._info_for(f"{layer}.{name}"))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, attr, wrapped)
        for name in OPERATOR_METHODS:
            fn = getattr(DensityOperator, name)
            setattr(DensityOperator, name,
                    self.span(f"operators.DensityOperator.{name}", fn, self._size_info))
        for name in FFT_FUNCS:
            fn = getattr(np.fft, name)
            setattr(np.fft, name, self.span(f"kernel.fft.{name}", fn, self._fft_info))
        for name in LINALG_FUNCS:
            fn = getattr(np.linalg, name)
            setattr(np.linalg, name, self.span(f"kernel.linalg.{name}", fn, self._size_info))

    def _info_for(self, name: str):
        if name in EVOLVE_FLOWS:
            flow = EVOLVE_FLOWS[name]

            def evolve_info(args, kwargs, traj):
                init = args[0] if args else next(iter(kwargs.values()))
                digest = hashlib.blake2b(_array_of(init).tobytes(), digest_size=12).hexdigest()
                return {"N": init.grid.N, "flow": flow,
                        "steps": len(traj.times) - 1, "init": digest,
                        "snapshot_bytes": _trajectory_bytes(traj)}
            return evolve_info
        return self._size_info

    @staticmethod
    def _size_info(args, kwargs, result):
        N = _grid_size(args)
        return None if N is None else {"N": N}

    @staticmethod
    def _fft_info(args, kwargs, result):
        import numpy as np

        return {"points": max(np.size(args[0] if args else kwargs["a"]), result.size)}


def main(argv: list[str]) -> int:
    """Trace ``phaselab <argv[1:]>``, writing spans under the directory argv[0]."""
    from phaselab import cli

    tracer = Tracer(Path(argv[0]))
    tracer.install()
    try:
        return tracer.span("cli.main", cli.main)(argv[1:])
    finally:
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
