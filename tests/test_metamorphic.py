"""Metamorphic checks: a change of the input with a known effect on every
answer, on one corpus of games with rational payoffs.

Multiplying the row player's payoffs by a positive constant scales every
row-player value and deviation gain by it, and scaling either player's
payoffs leaves every witness and deviation plan as it was.  Bland's rule
makes the same pivots when a row or the objective is scaled by a positive
number, so the exact solvers must return the very same witnesses.  In float
mode the values scale within rounding, and they agree with the exact values
within rounding.  Permuting the rows (and their cells) and the columns
changes no exact value, and the permuted witness passes its verifier on the
permuted game.  Relabelling the cells changes nothing at all, since
``SISPartition`` stores its cells canonically.
"""

import random
from fractions import Fraction as F

from partialcommit.deviations import SignalModel, find_deviation, verify_correlated, verify_mixed
from partialcommit.games import CorrelatedProfile, Game, MixedProfile, SISPartition
from partialcommit.instances import EXAMPLE_NAMES, gen_example, gen_random
from partialcommit.solvers import (
    solve_best_nash,
    solve_max_ce,
    solve_selo,
    solve_seslo,
    solve_stackelberg,
)

ROW_SCALE, COL_SCALE = F(7, 3), F(5, 11)
CONCEPTS = (solve_seslo, solve_max_ce, solve_stackelberg, solve_selo, solve_best_nash)


def _games():
    """The built-in examples, then 10 random 4x4 and 10 random 4x3 two-cell
    games with rational payoffs."""
    games = [(name, gen_example(name)) for name in EXAMPLE_NAMES]
    for m, n in ((4, 4), (4, 3)):
        for seed in range(10):
            game = gen_random(m, n, 2, seed)
            u1, u2 = ([[F(x).limit_denominator(100) for x in row] for row in u]
                      for u in (game.u1, game.u2))
            games.append((f"random {m}x{n} seed {seed}", Game(u1, u2, game.partition)))
    return games


def _scaled(game: Game) -> Game:
    u1 = [[ROW_SCALE * x for x in row] for row in game.u1]
    u2 = [[COL_SCALE * x for x in row] for row in game.u2]
    return Game(u1, u2, game.partition)


def test_positive_payoff_scaling():
    for name, game in _games():
        scaled = _scaled(game)
        solvers = [solve_seslo, solve_max_ce, solve_stackelberg]
        if game.num_rows * game.num_cols <= 16:
            solvers += [solve_selo, solve_best_nash]
        for solve in solvers:
            base, other = solve(game), solve(scaled)
            assert other.value == ROW_SCALE * base.value, (name, solve.__name__)
            assert repr(other.witness) == repr(base.witness), (name, solve.__name__)
        witness = solve_seslo(game).witness
        for model in SignalModel:
            base = find_deviation(game, witness, model)
            other = find_deviation(scaled, witness, model)
            assert other.delta == base.delta, (name, model)
            assert other.gain == ROW_SCALE * base.gain, (name, model)
    print("METAMORPHIC (positive payoff scaling): PASS")


def _concepts(game: Game) -> tuple:
    """All five concepts; SELO and best Nash only up to 16 cells."""
    return CONCEPTS if game.num_rows * game.num_cols <= 16 else CONCEPTS[:3]


def _close(got, want) -> bool:
    return abs(got - want) <= 1e-9 * (1 + abs(want))


def test_float_positive_payoff_scaling():
    for name, game in _games():
        scaled = _scaled(game)
        for solve in _concepts(game):
            base, other = solve(game, "float"), solve(scaled, "float")
            assert _close(other.value, float(ROW_SCALE) * base.value), (name, solve.__name__)
            assert base.verifier_passed and other.verifier_passed, (name, solve.__name__)


def test_float_agrees_with_exact():
    for name, game in _games():
        for solve in _concepts(game):
            exact, flt = solve(game, "exact"), solve(game, "float")
            assert _close(flt.value, float(exact.value)), (name, solve.__name__)


def _permuted(game: Game, rows: list, cols: list) -> Game:
    """Row i of the result is row ``rows[i]`` of ``game``, column j is column
    ``cols[j]``, and each cell holds the new indices of its rows."""
    u1, u2 = ([[u[r][c] for c in cols] for r in rows] for u in (game.u1, game.u2))
    where = {r: i for i, r in enumerate(rows)}
    cells = [[where[r] for r in cell] for cell in game.partition.cells]
    return Game(u1, u2, SISPartition(cells, game.num_rows))


def _verified_game(game: Game, solve) -> Game:
    """The game whose partition the concept's witness is verified under."""
    m = game.num_rows
    if solve in (solve_max_ce, solve_best_nash):
        return game.with_partition(SISPartition.one_cell(m))
    if solve is solve_stackelberg:
        return game.with_partition(SISPartition.singletons(m))
    return game


def test_row_and_column_permutations():
    for index, (name, game) in enumerate(_games()):
        rng = random.Random(index)
        rows, cols = list(range(game.num_rows)), list(range(game.num_cols))
        rng.shuffle(rows)
        rng.shuffle(cols)
        permuted = _permuted(game, rows, cols)
        for solve in _concepts(game):
            base, other = solve(game), solve(permuted)
            assert other.value == base.value, (name, solve.__name__)
            witness = base.witness
            if isinstance(witness, CorrelatedProfile):
                moved = CorrelatedProfile([[witness.p[r][c] for c in cols] for r in rows])
                report = verify_correlated(_verified_game(permuted, solve), moved)
            else:
                moved = MixedProfile([witness.sigma1[r] for r in rows],
                                     [witness.sigma2[c] for c in cols])
                report = verify_mixed(_verified_game(permuted, solve), moved)
            assert report.passed, (name, solve.__name__)
