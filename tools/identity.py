"""Solve a fixed corpus with every solver and diff two such runs.

    python3 tools/identity.py --out run.json
    python3 tools/identity.py --diff parent.json change.json

Run from the root of a checkout; the package is imported from its ``src/``.
To compare two commits, put this file in both checkouts and run ``--out`` in
each.  The corpus is fixed and seeded: the built-in examples with their own,
one-cell and singleton partitions, two 4x8 exact-cover games, the two 3x4
commitment-gap games, and ``gen_random(4, 3, 2, s)`` games with payoffs
through ``limit_denominator(d)`` for d in 2, 3, 5 and 100.  Each game is
solved for all five concepts in both modes; each witness is checked again by
the verifier the CLI ``verify`` command runs; the SESLO witness is searched
for deviations under all three signal models; and a few CLI calls run
in-process.  A record holds the value repr, the witness repr, the LPs solved,
the supports examined and the verifier verdict (none for a deviation plan,
which no verifier checks); a CLI record holds the sha256 of its stdout and,
as its verdict, whether it exited 0.

``--diff`` prints, by concept and mode, how many values, witnesses, stats
(LPs or supports) and verdicts moved and the largest float difference, after
listing every moved exact value.  It exits 1 when a record of the second run
has a failing verdict or a record is missing from either run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from partialcommit import cli  # noqa: E402
from partialcommit.deviations import (  # noqa: E402
    SignalModel,
    find_deviation,
    verify_correlated,
    verify_mixed,
)
from partialcommit.games import Game, SISPartition, save_game, save_profile  # noqa: E402
from partialcommit.instances import (  # noqa: E402
    EXAMPLE_4X2,
    EXAMPLE_NAMES,
    gen_close_to_full,
    gen_close_to_none,
    gen_example,
    gen_random,
    gen_x3c_game,
    gen_x3c_satisfiable,
    gen_x3c_unsatisfiable,
)
from partialcommit.solvers import (  # noqa: E402
    solve_best_nash,
    solve_max_ce,
    solve_selo,
    solve_seslo,
    solve_stackelberg,
)

MODES = ("exact", "float")
SOLVERS = (solve_seslo, solve_max_ce, solve_stackelberg, solve_selo, solve_best_nash)


def corpus(random_seeds: int = 25) -> list[tuple[str, Game]]:
    """(name, game) pairs; ``random_seeds`` random games per denominator."""
    games = []
    for name in EXAMPLE_NAMES:
        game = gen_example(name)
        m = game.num_rows
        games += [(f"{name}/own", game),
                  (f"{name}/one", game.with_partition(SISPartition.one_cell(m))),
                  (f"{name}/singletons", game.with_partition(SISPartition.singletons(m)))]
    games += [("x3c/sat", gen_x3c_game(gen_x3c_satisfiable(6, 0, seed=1))),
              ("x3c/unsat", gen_x3c_game(gen_x3c_unsatisfiable(6, 2, seed=1))),
              ("close_to_full", gen_close_to_full(3, Fraction(1, 10))),
              ("close_to_none", gen_close_to_none(3, Fraction(1, 10)))]
    for d in (2, 3, 5, 100):
        games += [(f"random/d{d}/s{seed}", _rounded_random(seed, d))
                  for seed in range(random_seeds)]
    return games


def _rounded_random(seed: int, d: int) -> Game:
    """``gen_random(4, 3, 2, seed)`` with payoffs through ``limit_denominator(d)``."""
    game = gen_random(4, 3, 2, seed)
    u1, u2 = ([[Fraction(x).limit_denominator(d) for x in row] for row in u]
              for u in (game.u1, game.u2))
    return Game(u1, u2, game.partition)


def _verified_game(game: Game, concept: str) -> Game:
    """The game whose partition the concept's witness is verified under."""
    m = game.num_rows
    if concept in ("MAX_CE", "BEST_NASH"):
        return game.with_partition(SISPartition.one_cell(m))
    if concept == "STACKELBERG":
        return game.with_partition(SISPartition.singletons(m))
    return game


def _record(kind, game, mode, value=None, witness=None, lps=None, supports=None,
            verdict=None) -> dict:
    return {
        "kind": kind, "game": game, "mode": mode,
        "value": None if value is None else repr(value),
        "value_float": None if value is None else float(value),
        "witness": None if witness is None else repr(witness),
        "lps": lps, "supports": supports, "verdict": verdict,
    }


def solve_records(name: str, game: Game) -> dict:
    out = {}
    for mode in MODES:
        seslo_witness = None
        for solve in SOLVERS:
            report = solve(game, mode)
            concept = report.concept
            out[f"{name}|{concept}|{mode}"] = _record(
                concept, name, mode, report.value, report.witness,
                report.stats.lps_solved, report.stats.supports_examined,
                report.verifier_passed,
            )
            target = _verified_game(game, concept)
            if concept in ("SESLO", "MAX_CE"):
                check = verify_correlated(target, report.witness, mode)
            else:
                check = verify_mixed(target, report.witness, mode)
            gains = (check.max_column_gain, check.max_row_gain)
            out[f"{name}|verify {concept}|{mode}"] = _record(
                "verify", name, mode, max(gains), gains, verdict=check.passed,
            )
            if concept == "SESLO":
                seslo_witness = report.witness
        for model in SignalModel:
            plan = find_deviation(game, seslo_witness, model, mode)
            out[f"{name}|deviate {model.value}|{mode}"] = _record(
                f"deviate {model.value}", name, mode, plan.gain, plan.delta,
            )
    return out


def cli_records(workdir: str) -> dict:
    """A few CLI calls on ``example_4x2`` and one random game, in-process."""
    out = {}
    for name, game in (("example_4x2", gen_example(EXAMPLE_4X2)),
                       ("random/d100/s0", _rounded_random(0, 100))):
        gpath = os.path.join(workdir, "game.json")
        ppath = os.path.join(workdir, "profile.json")
        save_game(game, gpath)
        save_profile(solve_seslo(game).witness, ppath)
        calls = [["solve", "--concept", c, "--mode", mode]
                 for c in ("seslo", "ce", "stackelberg", "selo", "nash") for mode in MODES]
        calls += [["verify", "--profile", ppath]]
        calls += [["deviate", "--model", model, "--profile", ppath]
                  for model in ("public-reveal", "no-reveal", "row-knows")]
        for argv in calls:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main([*argv, "--game", gpath])
            args = " ".join(a for a in argv if a != ppath)
            digest = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
            mode = "float" if "float" in argv else "exact"
            out[f"{name}|cli {args}|{mode}"] = _record(
                "cli", name, mode, witness=digest, verdict=code == 0,
            )
    return out


def run(random_seeds: int = 25) -> dict:
    records = {}
    for name, game in corpus(random_seeds):
        records.update(solve_records(name, game))
    with tempfile.TemporaryDirectory() as workdir:
        records.update(cli_records(workdir))
    return records


def diff(a: dict, b: dict) -> tuple[list[str], int]:
    """Report lines and the exit status for runs ``a`` and ``b``."""
    rows: dict[tuple[str, str], list] = {}
    moved_exact = []
    for key in sorted(a.keys() & b.keys()):
        ra, rb = a[key], b[key]
        row = rows.setdefault((rb["kind"], rb["mode"]), [0, 0, 0, 0, 0, 0.0])
        row[0] += 1
        if ra["value"] != rb["value"]:
            row[1] += 1
            if rb["mode"] == "exact":
                moved_exact.append(f"  {key}: {ra['value']} -> {rb['value']}")
        row[2] += ra["witness"] != rb["witness"]
        row[3] += (ra["lps"], ra["supports"]) != (rb["lps"], rb["supports"])
        row[4] += ra["verdict"] != rb["verdict"]
        if rb["mode"] == "float" and ra["value_float"] is not None:
            row[5] = max(row[5], abs(ra["value_float"] - rb["value_float"]))
    lines = ["moved exact values:", *(moved_exact or ["  none"])]
    lines.append(f"{'concept':<28} {'mode':<6} {'records':>7} {'values':>6} {'witnesses':>9} "
                 f"{'stats':>5} {'verdicts':>8}  max float diff")
    for (kind, mode), (n, values, witnesses, stats, verdicts, worst) in sorted(rows.items()):
        lines.append(f"{kind:<28} {mode:<6} {n:>7} {values:>6} {witnesses:>9} "
                     f"{stats:>5} {verdicts:>8}  {worst:.3g}")
    missing = sorted(a.keys() ^ b.keys())
    failed = sorted(key for key, rec in b.items() if rec["verdict"] is False)
    lines += [f"missing from one run: {key}" for key in missing]
    lines += [f"verdict failed: {key}" for key in failed]
    lines.append(f"identity: {len(a.keys() & b.keys())} records compared, "
                 f"{len(missing)} missing, {len(failed)} failed verdicts")
    return lines, 1 if missing or failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", help="solve the corpus and write the records here")
    group.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two runs")
    args = parser.parse_args(argv)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(run(), f, indent=0, sort_keys=True)
        return 0
    runs = []
    for path in args.diff:
        with open(path) as f:
            runs.append(json.load(f))
    lines, status = diff(*runs)
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
