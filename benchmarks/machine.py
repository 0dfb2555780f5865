"""Machine record for a benchmark result.

Run as a script with the same environment as the timed sweeps, it prints one
JSON object: cores, CPU model, cache sizes, Python and numpy versions, the
BLAS library with its live thread count, and the identity of the code
(git commit when the checkout is a repository, and a hash of ``src/`` and
``configs/``).
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def caches() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size:
            out[f"L{level}" + ("d" if kind == "Data" else "i" if kind == "Instruction" else "")] = size
    return out


def cpu_model() -> str | None:
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def blas() -> dict:
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": info.get("name"), "version": info.get("version"),
              "env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}, "threads": None}
    maps = _read(Path("/proc/self/maps")) or ""
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                record["threads"], record["library"] = fn(), Path(lib).name
                return record
    return record


def code_sha256() -> str:
    """Hash of the program's sources and configs: what a sweep's outputs depend on."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "configs").glob("*.json")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def code_identity() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {"git_commit": commit, "code_sha256": code_sha256()}


def record() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "caches": caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas(),
        **code_identity(),
    }


if __name__ == "__main__":
    json.dump(record(), sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
