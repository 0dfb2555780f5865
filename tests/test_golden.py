"""The golden ledger (tests/golden): the default sweep and the two twin
experiments must reproduce every committed report number. Regenerate the
ledger with ``python tests/golden/regen.py``; ``pytest tests/test_golden.py -s``
prints each output file's largest relative move without regenerating it."""

import json

import pytest

from golden.regen import COMMANDS, LEDGER, ROUNDING, compare, leaves, produce


@pytest.mark.parametrize("folder", sorted(COMMANDS))
def test_reports_match_the_golden_ledger(folder, tmp_path):
    assert produce(folder, tmp_path) == [0] * len(COMMANDS[folder])
    moves, broken = compare(LEDGER / folder, tmp_path)
    summary = [f"{folder}/{name}: largest relative move {rel:.3e} at {path}"
               for name, (rel, path) in moves.items()]
    print("", *summary, sep="\n")
    assert not broken, "\n".join(summary + broken)


def test_every_rounding_leaf_is_in_the_ledger():
    # a rounding floor whose leaf is gone from the reports leaves the list
    paths = {p for fp in (LEDGER / "default").iterdir() for p in leaves(fp)}
    for pattern in ROUNDING:
        stem, _, rest = pattern.partition("[]")
        assert any(p.startswith(stem) and p.endswith(rest) for p in paths), pattern


def test_compare_flags_a_moved_leaf(tmp_path):
    ledger, fresh = tmp_path / "ledger", tmp_path / "fresh"
    report = {"lhs": [1.0, 2.0], "tolerance": {"gap_equality": {"observed": 1e-16}},
              "passed": True}
    for d in (ledger, fresh):
        d.mkdir()
    (ledger / "wick_structure.json").write_text(json.dumps(report))
    # a rounding leaf may move below its floor, and an ordinary leaf by RTOL
    report["tolerance"]["gap_equality"]["observed"] = 5e-16
    report["lhs"][1] = 2.0 * (1 + 1e-13)
    (fresh / "wick_structure.json").write_text(json.dumps(report))
    moves, broken = compare(ledger, fresh)
    assert broken == []
    rel, path = moves["wick_structure.json"]
    assert rel == pytest.approx(4.0)
    assert path == "wick_structure.json/tolerance/gap_equality/observed"
    report["lhs"][0], report["passed"] = 1.0 + 1e-11, False
    (fresh / "wick_structure.json").write_text(json.dumps(report))
    _, broken = compare(ledger, fresh)
    assert [line.split(":")[0] for line in broken] == ["wick_structure.json/lhs[0]",
                                                       "wick_structure.json/passed"]
