"""``tools/identity.py`` records every solver output on a fixed corpus and
diffs two such runs.  The file is loaded read-only: no bytecode is written
next to it."""

import copy
import importlib.util
import json
import os
import sys

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tools", "identity.py")


def _load_tool():
    spec = importlib.util.spec_from_file_location("_identity", TOOL)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _diff(tool, tmp_path, a, b, capsys):
    paths = []
    for label, records in (("a", a), ("b", b)):
        paths.append(str(tmp_path / f"{label}.json"))
        with open(paths[-1], "w") as f:
            json.dump(records, f)
    status = tool.main(["--diff", *paths])
    return status, capsys.readouterr().out.splitlines()


def _row(lines, kind, mode):
    """The counts of one summary row: records, values, witnesses, stats,
    verdicts."""
    for line in lines:
        if line.startswith(kind + " ") and line.split()[len(kind.split())] == mode:
            return [int(x) for x in line.split()[len(kind.split()) + 1:][:5]]
    raise AssertionError(f"no row for {kind} {mode}")


def test_self_diff_is_empty_and_changes_are_counted(tmp_path, capsys):
    tool = _load_tool()
    name, game = tool.corpus(1)[0]
    run = tool.solve_records(name, game)
    with_cli = {**run, **tool.cli_records(str(tmp_path))}
    assert len(with_cli) == len(run) + 28

    status, lines = _diff(tool, tmp_path, with_cli, with_cli, capsys)
    assert status == 0
    assert lines[:2] == ["moved exact values:", "  none"]
    assert _row(lines, "SESLO", "exact") == [1, 0, 0, 0, 0]
    assert _row(lines, "cli", "float") == [10, 0, 0, 0, 0]
    assert lines[-1] == f"identity: {len(with_cli)} records compared, 0 missing, 0 failed verdicts"

    doctored = copy.deepcopy(run)
    key = f"{name}|SELO|exact"
    doctored[key]["value"] = "Fraction(7, 1)"
    doctored[key]["supports"] += 1
    doctored[f"{name}|SESLO|float"]["value_float"] += 1e-6
    doctored[f"{name}|SESLO|float"]["value"] = "0.123"
    status, lines = _diff(tool, tmp_path, run, doctored, capsys)
    assert status == 0
    assert lines[1].startswith(f"  {key}: ") and lines[1].endswith(" -> Fraction(7, 1)")
    assert _row(lines, "SELO", "exact") == [1, 1, 0, 1, 0]
    assert _row(lines, "SESLO", "float") == [1, 1, 0, 0, 0]
    assert any(line.startswith("SESLO ") and line.endswith("1e-06") for line in lines)

    doctored = copy.deepcopy(run)
    doctored[f"{name}|BEST_NASH|float"]["verdict"] = False
    del doctored[f"{name}|MAX_CE|exact"]
    status, lines = _diff(tool, tmp_path, run, doctored, capsys)
    assert status == 1
    assert f"missing from one run: {name}|MAX_CE|exact" in lines
    assert f"verdict failed: {name}|BEST_NASH|float" in lines
    assert _row(lines, "BEST_NASH", "float") == [1, 0, 0, 0, 1]
