"""The integer-row exact simplex makes the same decisions as a rational one.

``reference_simplex_exact`` is the ``Fraction``-tableau Bland simplex that
the integer kernel replaced, kept unchanged as the oracle: on every
standardized program below both must return equal dicts (status, primal
point, objective, basis and duals).
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from test_deviations import retired_deviation_lp
from test_solvers import _induce_column_lp, p1_lps

from partialcommit import deviations, linprog
from partialcommit.deviations import SignalModel, find_deviation
from partialcommit.games import Game, SISPartition
from partialcommit.instances import EXAMPLE_NAMES, gen_example
from partialcommit.linprog import (
    _MAX_PIVOTS,
    INFEASIBLE,
    OPTIMAL,
    LinearProgram,
    _simplex_exact,
    _standardize,
    _sub_multiple,
    solve_lp,
)
from partialcommit.solvers import _seslo_lp, solve_seslo

UNBOUNDED = "unbounded"  # the reference's verdict; the kernel raises instead


def reference_simplex_exact(std):
    matrix = [row[:] for row in std["matrix"]]
    rhs = list(std["rhs"])
    basis = list(std["ident"])
    ncols = std["ncols"]
    art = set(std["artificials"])
    live = list(range(len(matrix)))  # original row index per tableau row

    def pivot(z, r, j):
        piv = matrix[r][j]
        inv = Fraction(1) / piv
        matrix[r] = [a * inv for a in matrix[r]]
        rhs[r] = rhs[r] * inv
        prow = matrix[r]
        for i in range(len(matrix)):
            if i == r:
                continue
            f = matrix[i][j]
            if f:
                matrix[i] = [a - f * p for a, p in zip(matrix[i], prow)]
                rhs[i] -= f * rhs[r]
        f = z[j]
        if f:
            for k in range(ncols):
                z[k] -= f * prow[k]
            z[ncols] -= f * rhs[r]
        basis[r] = j

    def run(cost, enterable):
        z = [cost[j] for j in range(ncols)] + [Fraction(0)]
        for i, bcol in enumerate(basis):
            f = cost[bcol]
            if f:
                for k in range(ncols):
                    z[k] -= f * matrix[i][k]
                z[ncols] -= f * rhs[i]
        for _ in range(_MAX_PIVOTS):
            entering = None
            for j in range(ncols):
                if enterable[j] and z[j] < 0:
                    entering = j
                    break
            if entering is None:
                return z, OPTIMAL
            leave, best = None, None
            for i in range(len(matrix)):
                a = matrix[i][entering]
                if a > 0:
                    ratio = rhs[i] / a
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                        best, leave = ratio, i
            if leave is None:
                return z, UNBOUNDED
            pivot(z, leave, entering)
        raise RuntimeError("simplex failed to terminate")

    if art:
        # artificials start basic and may leave, but never re-enter; fixing
        # them at zero once they leave preserves the feasibility decision
        cost1 = [Fraction(1) if j in art else Fraction(0) for j in range(ncols)]
        z, _ = run(cost1, [j not in art for j in range(ncols)])
        if -z[ncols] > 0:
            return {"status": INFEASIBLE}
        # drive remaining artificials out of the basis
        for i in range(len(matrix) - 1, -1, -1):
            if basis[i] in art:
                target = None
                for j in range(ncols):
                    if j not in art and matrix[i][j] != 0:
                        target = j
                        break
                if target is not None:
                    pivot([Fraction(0)] * (ncols + 1), i, target)
                else:
                    del matrix[i], rhs[i], basis[i], live[i]

    enterable = [j not in art for j in range(ncols)]
    z, status = run(std["cost"], enterable)
    if status == UNBOUNDED:
        return {"status": UNBOUNDED}
    x = [Fraction(0)] * ncols
    for i, bcol in enumerate(basis):
        x[bcol] = rhs[i]
    duals = [Fraction(0)] * len(std["rhs"])
    for i in live:
        duals[i] = -z[std["ident"][i]]
    return {
        "status": OPTIMAL,
        "x": x,
        "obj": sum(std["cost"][j] * x[j] for j in range(ncols)),
        "basis": tuple(sorted(basis)),
        "duals": duals,
    }


def _same_as_reference(lp: LinearProgram) -> dict:
    """The kernel's result, asserted equal to the reference's; where the
    reference finds the program unbounded, the kernel must raise, and the
    reference's verdict is returned."""
    std = _standardize(lp, "exact")
    want = reference_simplex_exact(std)
    if want["status"] == UNBOUNDED:
        with pytest.raises(RuntimeError, match="the program is unbounded"):
            _simplex_exact(std)
        return want
    got = _simplex_exact(std)
    assert got == want
    return got


def _random_game(rng: random.Random, m: int, n: int) -> Game:
    def entry():
        return Fraction(rng.random()).limit_denominator(100)

    u1 = [[entry() for _ in range(n)] for _ in range(m)]
    u2 = [[entry() for _ in range(n)] for _ in range(m)]
    return Game(u1, u2, SISPartition.round_robin(m, rng.randint(1, m)))


def _deviation_lps(game: Game, monkeypatch) -> list[LinearProgram]:
    """The no-reveal LP ``find_deviation`` builds on the game's SESLO
    witness, between the public-reveal and row-knows LPs it built before
    their closed forms."""
    seen = []

    def record(lp, mode="exact"):
        seen.append(lp)
        return solve_lp(lp, mode)

    witness = solve_seslo(game).witness
    monkeypatch.setattr(deviations, "solve_lp", record)
    find_deviation(game, witness, SignalModel.NO_REVEAL)
    monkeypatch.undo()
    return [
        retired_deviation_lp(game, witness, SignalModel.PUBLIC_REVEAL, "exact"),
        *seen,
        retired_deviation_lp(game, witness, SignalModel.ROW_KNOWS_COLUMN_SIGNAL, "exact"),
    ]


def test_solver_lps_match_reference(monkeypatch):
    rng = random.Random(2024)
    statuses = []
    for _ in range(10):
        m, n = rng.choice([(3, 3), (4, 3), (3, 4), (4, 4)])
        game = _random_game(rng, m, n)
        u1, u2 = game.payoffs_in_mode("exact")
        lps = [_seslo_lp(u1, u2, game.partition, m, n)]
        lps += [_induce_column_lp(u1, u2, m, n, c) for c in range(n)]
        for _ in range(4):
            rsup = tuple(sorted(rng.sample(range(m), rng.randint(1, m))))
            csup = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
            objective = [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in rsup]
            lps += p1_lps(u2, rsup, csup, objective)
        lps += _deviation_lps(game, monkeypatch)
        statuses += [_same_as_reference(lp)["status"] for lp in lps]
    assert len(statuses) >= 100
    assert {OPTIMAL, INFEASIBLE} <= set(statuses)


def test_example_game_lps_match_reference(monkeypatch):
    for name in EXAMPLE_NAMES:
        game = gen_example(name)
        u1, u2 = game.payoffs_in_mode("exact")
        m, n = game.num_rows, game.num_cols
        _same_as_reference(_seslo_lp(u1, u2, game.partition, m, n))
        for lp in _deviation_lps(game, monkeypatch):
            assert _same_as_reference(lp)["status"] == OPTIMAL


def test_hand_built_lps_match_reference():
    half = Fraction(1, 2)
    cases = {
        # x - y >= -2 and x - y <= 3, written as "<=" rows with their
        # coefficients negated where needed
        "negated_rows": LinearProgram(
            (1, 1), (((-1, 1), "<=", 2), ((1, 2), "<=", 6), ((1, -1), "<=", 3)), 2,
        ),
        # min 2x + 3y + z with x + y + z >= 2 and y - x >= 1: the minimum as
        # the maximum of the negated cost, each ">=" row as an equality with
        # a surplus variable of its own
        "surplus_variables": LinearProgram(
            (-2, -3, -1, 0, 0),
            (((1, 1, 1, -1, 0), "=", 2), ((-1, 1, 0, 0, -1), "=", 1), ((0, 1, 2, 0, 0), "=", 3)),
            5,
        ),
        # the second and third rows repeat the first: after phase 1 their
        # artificials stay basic on all-zero rows, which stay in the tableau
        # inert (the reference deletes them)
        "redundant_equalities": LinearProgram(
            (1, 2, 3),
            (((1, 1, 1), "=", 1), ((2, 2, 2), "=", 2), ((half, half, half), "=", half),
             ((1, -1, 0), "<=", 0)), 3,
        ),
        "infeasible": LinearProgram((1, 1, 0), (((1, 1, 0), "<=", 1), ((1, 1, -1), "=", 2)), 3),
        "infeasible_equalities": LinearProgram(
            (-1, 0), (((1, 1), "=", 1), ((2, 2), "=", 3)), 2,
        ),
        "unbounded": LinearProgram((1, 0), (((1, -1), "<=", 1),), 2),
        "unbounded_after_phase1": LinearProgram(
            (0, 1, 0), (((-1, 1, 0), "=", 1), ((1, 0, -1), "=", 1)), 3,
        ),
        # ints and Fractions are standardized as they are, floats at their
        # exact binary value
        "mixed_number_types": LinearProgram(
            (1, Fraction(1, 3), 0.5),
            (((2, 0.25, Fraction(1, 7)), "<=", 3), ((1, Fraction(-1, 2), 0.1), "=", 0.75)),
            3,
        ),
    }
    out = {name: _same_as_reference(lp) for name, lp in cases.items()}
    mixed = _standardize(cases["mixed_number_types"], "exact")
    assert mixed["matrix"][1][:3] == [1, Fraction(-1, 2), Fraction(0.1)]
    assert [type(a) for a in mixed["matrix"][0]] == [int, Fraction, Fraction, int, int]
    assert mixed["rhs"] == [3, Fraction(3, 4)] and mixed["cost"][:3] == [-1, Fraction(-1, 3), -0.5]
    assert out["mixed_number_types"]["status"] == OPTIMAL
    assert out["infeasible"]["status"] == out["infeasible_equalities"]["status"] == INFEASIBLE
    assert out["unbounded"]["status"] == out["unbounded_after_phase1"]["status"] == UNBOUNDED
    redundant = out["redundant_equalities"]
    assert redundant["status"] == OPTIMAL and len(redundant["basis"]) == 2
    assert redundant["obj"] == -3  # min form of max 3 at (0, 0, 1)


def test_random_lps_match_reference():
    rng = random.Random(11)
    statuses = []
    for _ in range(200):
        n = rng.randint(1, 5)
        cons = []
        for _ in range(rng.randint(1, 6)):
            coefs = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n))
            cons.append((coefs, rng.choice(["<=", "="]), Fraction(rng.randint(0, 6))))
        if rng.random() < 0.7:
            cons.append((tuple([1] * n), "<=", Fraction(rng.randint(1, 8))))
        lp = LinearProgram(
            tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)),
            tuple(cons),
            n,
        )
        statuses.append(_same_as_reference(lp)["status"])
    assert {OPTIMAL, INFEASIBLE, UNBOUNDED} <= set(statuses)


def test_large_denominator_lps_match_reference(monkeypatch):
    # denominators near 2**600 put a row's denominator past the kernel's
    # lowest-terms bound at its first update, so these programs run the
    # reduction that the small-denominator corpora above never reach
    reduced = []

    def counting(row, den, other, s, t):
        new, out = _sub_multiple(row, den, other, s, t)
        reduced.append(out != den * (s // gcd(s, t)))
        return new, out

    monkeypatch.setattr(linprog, "_sub_multiple", counting)
    rng = random.Random(7)

    def entry(scale):
        return Fraction(rng.randint(-scale, scale), 2**600 + rng.randint(1, 2**16))

    statuses = []
    for _ in range(20):
        n = rng.randint(2, 5)
        cons = [
            (tuple(entry(6) for _ in range(n)), rng.choice(["<=", "="]), abs(entry(6)))
            for _ in range(rng.randint(2, 6))
        ]
        cons.append((tuple([1] * n), "<=", Fraction(rng.randint(1, 8))))
        lp = LinearProgram(tuple(entry(5) for _ in range(n)), tuple(cons), n)
        statuses.append(_same_as_reference(lp)["status"])
    assert {OPTIMAL, INFEASIBLE} <= set(statuses)
    assert any(reduced)
