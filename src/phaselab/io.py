"""CSV, JSON, and raw-array output with deterministic formatting."""

from __future__ import annotations

import csv
import json
from collections.abc import Iterable, Sequence
from pathlib import Path

import numpy as np

from .grids import PhaseGrid
from .trajectory import Trajectory


def fmt(x) -> str:
    """Deterministic shortest-roundtrip float formatting."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def write_csv(path: str | Path, header: list[str], rows: Iterable[Sequence]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])
    return path


def trajectory_csv(path: str | Path, traj: Trajectory) -> Path:
    """Trajectory log: time, then each logged quantity in record order."""
    return write_csv(path, ["time", *traj.logs], zip(traj.times, *traj.logs.values()))


def dump_raw_array(path_base: str | Path, arr: np.ndarray, grid: PhaseGrid,
                   label: str = "") -> tuple[Path, Path]:
    """Raw little-endian float64 dump with a JSON sidecar (shape, grid, hbar).

    Complex arrays are stored as interleaved (real, imag) float64 pairs, the
    memory layout of complex128.
    """
    path_base = Path(path_base)
    path_base.parent.mkdir(parents=True, exist_ok=True)
    complex_data = np.iscomplexobj(arr)
    bin_path = path_base.with_suffix(".bin")
    bin_path.write_bytes(np.ascontiguousarray(arr, "<c16" if complex_data else "<f8").tobytes())
    sidecar = {
        "label": label,
        "shape": list(arr.shape),
        "dtype": "complex128-interleaved" if complex_data else "float64",
        "byte_order": "little-endian",
        "grid": {"d": 1, "N": grid.N, "L_x": grid.L_x, "L_xi": grid.L_xi,
                 "hbar": grid.hbar},
    }
    json_path = path_base.with_suffix(".json")
    json_path.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    return bin_path, json_path


def load_raw_array(path_base: str | Path) -> np.ndarray:
    """The array that dump_raw_array wrote, bit for bit, as a read-only view."""
    path_base = Path(path_base)
    sidecar = json.loads(path_base.with_suffix(".json").read_text())
    dtype = "<c16" if sidecar["dtype"] == "complex128-interleaved" else "<f8"
    data = np.frombuffer(path_base.with_suffix(".bin").read_bytes(), dtype=dtype)
    return data.reshape(tuple(sidecar["shape"]))
