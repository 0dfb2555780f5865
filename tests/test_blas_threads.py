"""The BLAS thread pin: importing phaselab sets OpenBLAS to one thread, so
report bytes do not depend on the caller's OPENBLAS_NUM_THREADS."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core import _multiarray_umath

ROOT = Path(__file__).resolve().parents[1]


def _has_openblas_symbols() -> bool:
    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return False
    return all(hasattr(lib, f"scipy_openblas_{op}_num_threads64_") for op in ("set", "get"))


pytestmark = pytest.mark.skipif(not _has_openblas_symbols(),
                                reason="numpy does not bundle scipy-openblas")


def _run(args, threads: int) -> subprocess.CompletedProcess:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT, capture_output=True,
                          text=True, check=True)


def test_import_pins_one_thread():
    code = ("import ctypes, phaselab\n"
            "from numpy._core import _multiarray_umath\n"
            "get_threads = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_num_threads64_\n"
            "get_threads.argtypes, get_threads.restype = [], ctypes.c_int\n"
            "print(get_threads())")
    assert _run(["-c", code], threads=2).stdout.strip() == "1"


def test_reports_independent_of_caller_threads(tmp_path):
    reports = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        _run(["-m", "phaselab.cli", "sweep", "--config", "configs/default.json",
              "--set", 'probes=["wick_structure"]', "--set", "sweep_N=[96,128,192,256]",
              "--out", str(out)], threads)
        reports.append((out / "wick_structure.json").read_bytes())
    assert reports[0] == reports[1]
