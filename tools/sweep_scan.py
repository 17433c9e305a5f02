"""Re-solve the games of the ``sweep_float`` benchmark workload and report
every wrong one.

    python3 tools/sweep_scan.py --seeds 0-9 --games 5000

Run from the root of a checkout.  For run seed S and game index i, the
workload runs ``partialcommit experiment --m 4 --n 4 --games 1 --seed G``
with G derived from (S, i) as ``perfbench/workloads.py`` derives it; that
draws one game and solves float SESLO on it under every cell count.  This
script solves the same games the same way and checks each solve twice: the
witness with the package's verifier, and the value against an independent
HiGHS solve (``perfbench/oracle.py``) within the workload's tolerance.  It
prints one line per failing (seed, game, cells) and a summary line, and
exits 1 when any solve fails.  Solves run one after another in this process.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

from partialcommit import experiment, solvers  # noqa: E402
from partialcommit.games import SISPartition  # noqa: E402
from partialcommit.instances import gen_random  # noqa: E402

_saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # keep perfbench/ clean
try:
    from oracle import seslo_values  # noqa: E402
    from workloads import ORACLE_TOL, SweepFloat, derive_seed, round_robin  # noqa: E402
finally:
    sys.dont_write_bytecode = _saved


def scan_seed(seed: int, games: int) -> list[tuple[int, int, str]]:
    """(game, cells, why) for every failing solve of run seed ``seed``."""
    m, n = SweepFloat.m, SweepFloat.n
    failures, problems, owners = [], [], []
    for index in range(games):
        game_seed = derive_seed(seed, SweepFloat.name, index)
        base = gen_random(m, n, 1, experiment.derive_seed(game_seed, m, n, 0))
        u1, u2 = (np.array(u, dtype=float) for u in base.payoffs_in_mode("float"))
        for k in range(1, m + 1):
            game = base.with_partition(SISPartition.round_robin(m, k))
            try:
                report = solvers.solve_seslo(game, "float")
            except Exception as exc:  # a crash is a failure of that solve
                failures.append((index, k, f"{type(exc).__name__}: {exc}"))
                continue
            if not report.verifier_passed:
                failures.append((index, k, "the witness fails verify_correlated"))
            problems.append((u1, u2, round_robin(m, k)))
            owners.append((index, k, float(report.value)))
    for (index, k, got), want in zip(owners, seslo_values(problems)):
        if abs(got - want) > ORACLE_TOL:
            failures.append((index, k, f"value {got!r} != HiGHS {want!r}"))
    return sorted(failures)


def parse_seeds(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-9"),
                        help="run seeds, S or S-T inclusive (default 0-9)")
    parser.add_argument("--games", type=int, default=5000,
                        help="game indices 0..G-1 per seed (default 5000)")
    args = parser.parse_args(argv)
    solves = failed = 0
    for seed in args.seeds:
        for index, k, why in scan_seed(seed, args.games):
            print(f"FAILED seed={seed} game={index} cells={k}: {why}", flush=True)
            failed += 1
        solves += args.games * SweepFloat.m
    print(f"sweep_scan: {solves} solves over seeds {args.seeds.start}-{args.seeds.stop - 1}, "
          f"{failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
