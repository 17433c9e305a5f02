"""``tools/sweep_scan.py`` re-solves the games of the ``sweep_float``
benchmark workload and names every failing one.  The file is loaded
read-only: no bytecode is written next to it or under ``perfbench/``."""

import dataclasses
import importlib.util
import os
import sys

import numpy as np

from partialcommit import solvers

SCAN = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tools", "sweep_scan.py")


def _load_scan():
    spec = importlib.util.spec_from_file_location("_sweep_scan", SCAN)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_five_games_pass(capsys):
    scan = _load_scan()
    assert scan.main(["--seeds", "0", "--games", "5"]) == 0
    assert capsys.readouterr().out == "sweep_scan: 20 solves over seeds 0-0, 0 failed\n"


def test_scanned_games_are_the_workload_games(tmp_path):
    scan = _load_scan()
    workload = scan.SweepFloat(3, str(tmp_path))
    m = n = workload.m
    for index in range(5):
        game_seed = scan.derive_seed(3, workload.name, index)
        game = scan.gen_random(m, n, 1, scan.experiment.derive_seed(game_seed, m, n, 0))
        want = workload.payoffs(game_seed)
        for got, w in zip(game.payoffs_in_mode("float"), want):
            assert np.array_equal(np.array(got), w)


def test_wrong_values_and_witnesses_are_named(monkeypatch, capsys):
    scan = _load_scan()
    solve = solvers.solve_seslo

    def faulty(game, mode="exact"):
        report = solve(game, mode)
        cells = len(game.partition.cells)
        if cells == 3:
            return dataclasses.replace(report, value=report.value + 1e-5)
        if cells == 1:
            return dataclasses.replace(report, verifier_passed=False)
        return report

    monkeypatch.setattr(solvers, "solve_seslo", faulty)
    assert scan.main(["--seeds", "2-3", "--games", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "sweep_scan: 16 solves over seeds 2-3, 8 failed"
    assert [line.split(":")[0] for line in lines[:-1]] == [
        f"FAILED seed={s} game={g} cells={k}" for s in (2, 3) for g in (0, 1) for k in (1, 3)
    ]
    assert "fails verify_correlated" in lines[0] and "!= HiGHS" in lines[1]
