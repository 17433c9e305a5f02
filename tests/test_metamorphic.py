"""Metamorphic checks: a change of the input with a known effect on every
answer.

Exact mode only.  Multiplying the row player's payoffs by a positive constant
scales every row-player value and deviation gain by it, and scaling either
player's payoffs leaves every witness and deviation plan as it was.  Bland's
rule makes the same pivots when a row or the objective is scaled by a
positive number, so the exact solvers must return the very same witnesses.
"""

from fractions import Fraction as F

from partialcommit.deviations import SignalModel, find_deviation
from partialcommit.games import Game
from partialcommit.instances import EXAMPLE_NAMES, gen_example, gen_random
from partialcommit.solvers import (
    solve_best_nash,
    solve_max_ce,
    solve_selo,
    solve_seslo,
    solve_stackelberg,
)

ROW_SCALE, COL_SCALE = F(7, 3), F(5, 11)


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
