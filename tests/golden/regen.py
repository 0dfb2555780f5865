"""The golden ledger: every report that the default sweep, the two twin
experiments, the three flow runs and the norms probe write, as recorded from
the code that last regenerated it.

    python tests/golden/regen.py

reruns the COMMANDS from the current code, prints for each output file the
largest relative move of a numeric leaf against the committed ledger and its
leaf path, and then updates the ledger: it writes the files that are new or
have a leaf out of tolerance, deletes the files no longer produced and leaves
every other file byte for byte. tests/test_golden.py reruns the same
commands and requires every numeric leaf to match within RTOL, except the
ROUNDING leaves, which it holds to an absolute floor.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import shutil
import sys
import tempfile
from pathlib import Path

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]

# ledger folder -> the phaselab command lines whose outputs it holds
COMMANDS = {
    "default": [["sweep", "--config", "configs/default.json", "--seed", "1", "--jobs", "1"]],
    "quick": [*(["run", "--config", "configs/quick.json", "--set", f"experiment={experiment}"]
                for experiment in ("twin-classical", "twin-quantum",
                                   "vlasov", "hartree", "linear-hartree")),
              ["probe", "--config", "configs/quick.json", "--name", "norms"]],
}

# The pinned single OpenBLAS thread makes bits reproducible on one machine,
# not across CPUs, whose SIMD kernels differ; hence a relative tolerance.
RTOL = 1e-12
# leaf path, list indices as [] -> (absolute floor on its move, why the leaf
# sits at rounding level, where a relative tolerance would test noise)
ROUNDING = {
    "convergence_rate.json/details/members[]/mass_drift":
        (1e-13, "relative drift of the conserved Vlasov mass, about 1e-16"),
    "convergence_rate.json/details/members[]/trace_drift":
        (1e-13, "relative drift of the conserved Hartree trace, about 1e-15"),
    "sqrt_comparison.json/tolerance/sqrt_commutes_with_flow/observed":
        (1e-9, "one square root by two routes, about 5e-11 against its bound 1e-8"),
    "wick_structure.json/details/members[]/gap_equality_error":
        (1e-13, "two norms that Plancherel makes equal, about 1e-16; bound 1e-10"),
    "wick_structure.json/tolerance/gap_equality/observed":
        (1e-13, "the largest gap_equality_error"),
    "wick_structure.json/details/members[]/identity_gap":
        (1e-13, "one smoothing by two transforms, about 5e-16; bound 1e-10"),
    "wick_structure.json/tolerance/convolution_identity/observed":
        (1e-13, "the largest identity_gap"),
    "wick_structure.json/details/members[]/min_eig":
        (1e-12, "the least eigenvalue, about 1e-8, of an operator of norm about 0.9 "
                "carries the eigensolver's absolute error of order eps ||op||"),
    "vlasov_trajectory.csv[]/min_value":
        (1e-13, "the least value of f, about 6e-13, carries the shifts' absolute "
                "error of order eps max f"),
    "vlasov_trajectory.csv[]/momentum":
        (1e-13, "a first moment that the grid's one unpaired edge row makes about "
                "-1.4e-12, summed with absolute error of order eps ||xi f||_1"),
    "vlasov_trajectory.csv[]/boundary_fraction":
        (1e-13, "the edge rows' share of the mass, about 2.8e-12, whose f values "
                "carry the shifts' absolute error of order eps max f"),
    "hartree_trajectory.csv[]/min_eigenvalue":
        (1e-12, "the least eigenvalue, about 7e-11, of an operator of norm below 2 "
                "carries the eigensolver's absolute error of order eps ||op||"),
    "linear_hartree_trajectory.csv[]/min_eigenvalue":
        (1e-12, "as hartree_trajectory.csv"),
}


def produce(folder: str, out: Path) -> list[int]:
    """Run the ledger folder's commands with their outputs in ``out``; return
    the exit codes. The commands' stdout is dropped."""
    from phaselab.cli import main

    codes = []
    for argv in COMMANDS[folder]:
        argv = [str(ROOT / a) if a.startswith("configs/") else a for a in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(main([*argv, "--out", str(out)]))
    return codes


def _json_leaves(node, path: str):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _json_leaves(value, f"{path}/{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _json_leaves(value, f"{path}[{i}]")
    else:
        yield path, node


def _csv_value(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def leaves(fp: Path) -> dict:
    """Leaf path -> value of one output file: a JSON report by key path, a
    CSV by row index and column name, numbers as floats."""
    if fp.suffix == ".json":
        return dict(_json_leaves(json.loads(fp.read_text()), fp.name))
    rows = list(csv.DictReader(io.StringIO(fp.read_text())))
    return {f"{fp.name}[{i}]/{col}": _csv_value(cell)
            for i, row in enumerate(rows) for col, cell in row.items()}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare_file(was: Path, now: Path) -> tuple[tuple[float, str] | None, list[str]]:
    """Compare one fresh output file with its ledger copy. Return (the
    largest relative move of a numeric leaf, its leaf path), None when the
    leaf paths differ, and one line per leaf that breaks its tolerance:
    RTOL, or its ROUNDING floor, or equality for a non-numeric leaf."""
    old, new = leaves(was), leaves(now)
    if set(old) != set(new):
        return None, [f"{was.name}: leaf paths differ: {sorted(set(old) ^ set(new))[:5]}"]
    worst, broken = (0.0, ""), []
    for path, value in old.items():
        fresh = new[path]
        if not (_is_number(value) and _is_number(fresh)):
            if value != fresh:
                broken.append(f"{path}: {value!r} -> {fresh!r}")
            continue
        move = abs(fresh - value)
        rel = move / abs(value) if value else (0.0 if move == 0 else math.inf)
        if rel > worst[0]:
            worst = (rel, path)
        floor = ROUNDING.get(re.sub(r"\[\d+\]", "[]", path), (None,))[0]
        if (move > floor) if floor is not None else (rel > RTOL):
            broken.append(f"{path}: {value!r} -> {fresh!r} (relative move {rel:.3e})")
    return worst, broken


def compare(ledger: Path, fresh: Path) -> tuple[dict, list[str]]:
    """Compare the fresh outputs with a ledger folder. Return, per output
    file, (the largest relative move of a numeric leaf, its leaf path), and
    one line per leaf that breaks its tolerance (see compare_file) or per
    file found on one side only."""
    names = sorted({p.name for p in ledger.iterdir()} | {p.name for p in fresh.iterdir()})
    moves, broken = {}, []
    for name in names:
        if not (ledger / name).exists() or not (fresh / name).exists():
            broken.append(f"{name}: only in {'fresh' if (fresh / name).exists() else 'ledger'}")
            continue
        worst, lines = compare_file(ledger / name, fresh / name)
        if worst is not None:
            moves[name] = worst
        broken += lines
    return moves, broken


def update(target: Path, fresh: Path) -> list[str]:
    """Bring one ledger folder in line with the fresh outputs: copy the files
    that are new or have a leaf out of tolerance, delete the files no longer
    produced, and leave every other file byte for byte. Return one line per
    file, saying what happened to it."""
    target.mkdir(exist_ok=True)
    report = []
    for fp in sorted(target.iterdir()):
        if not (fresh / fp.name).exists():
            fp.unlink()
            report.append(f"{fp.name}: no longer produced, deleted")
    for fp in sorted(fresh.iterdir()):
        if not (target / fp.name).exists():
            shutil.copyfile(fp, target / fp.name)
            report.append(f"{fp.name}: new")
            continue
        worst, broken = compare_file(target / fp.name, fp)
        if worst is not None:
            report.append(f"{fp.name}: largest relative move {worst[0]:.3e} {worst[1]}")
        report += [f"{fp.name}: out of tolerance: {line}" for line in broken]
        if broken:
            shutil.copyfile(fp, target / fp.name)
            report.append(f"{fp.name}: rewritten")
    return report


def regen():
    """Update every ledger folder from the current code (see update),
    printing the moves."""
    for folder in COMMANDS:
        with tempfile.TemporaryDirectory() as tmp:
            fresh = Path(tmp)
            codes = produce(folder, fresh)
            if any(codes):
                sys.exit(f"{folder}: a command exited with {codes}; ledger left as it is")
            for line in update(LEDGER / folder, fresh):
                print(f"{folder}/{line}")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    regen()
