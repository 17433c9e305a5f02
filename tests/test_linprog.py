import logging
import random
from fractions import Fraction as F
from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import linprog as scipy_linprog

from partialcommit import linprog
from partialcommit.instances import SIGNALING_5X4, gen_example
from partialcommit.linprog import (
    INFEASIBLE,
    OPTIMAL,
    LinearProgram,
    Polytope,
    enumerate_vertices,
    solve_lp,
)


def _scipy_reference(lp: LinearProgram):
    """Independent solve via scipy/HiGHS for cross-checking."""
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for coefs, rel, rhs in lp.constraints:
        row = [float(c) for c in coefs]
        if rel == "<=":
            A_ub.append(row)
            b_ub.append(float(rhs))
        else:
            A_eq.append(row)
            b_eq.append(float(rhs))
    c = [-float(x) for x in lp.objective]
    res = scipy_linprog(
        c,
        A_ub=A_ub or None,
        b_ub=b_ub or None,
        A_eq=A_eq or None,
        b_eq=b_eq or None,
        method="highs",
    )
    if res.status == 2:
        return INFEASIBLE, None
    if res.status == 3:
        return "unbounded", None
    return OPTIMAL, -res.fun


class TestLpForm:
    """One form: maximize over "<=" and "=" rows with right-hand sides >= 0."""

    BAD_ROWS = [((1, 1), ">=", 1), ((1, 1), "<=", -1), ((1, -1), "=", F(-1, 2)), ((1, 1), "<", 1)]

    @pytest.mark.parametrize("row", BAD_ROWS)
    def test_linear_program_rejects_other_rows(self, row):
        with pytest.raises(ValueError):
            LinearProgram((1, 1), (((1, 1), "<=", 1), row), 2)

    @pytest.mark.parametrize("row", BAD_ROWS)
    def test_polytope_rejects_other_rows(self, row):
        with pytest.raises(ValueError):
            Polytope(2, (((1, 1), "=", 1), row))

    def test_no_sense_argument(self):
        with pytest.raises(TypeError):
            LinearProgram((1,), "max", (((1,), "<=", 1),), 1)

    def test_float_unbounded_is_decided_in_exact_mode(self, caplog, monkeypatch):
        # the form requires a bounded region: the float kernel leaves this
        # one to exact mode, which raises
        calls = []
        exact_kernel = linprog._simplex_exact

        def spy(std):
            calls.append(std)
            return exact_kernel(std)

        monkeypatch.setattr(linprog, "_simplex_exact", spy)
        lp = LinearProgram((1, 0), (((1, -1), "<=", 1),), 2)
        with caplog.at_level(logging.DEBUG, logger="partialcommit.linprog"):
            with pytest.raises(RuntimeError, match="the program is unbounded"):
                solve_lp(lp, "float")
        assert len(calls) == 1
        assert [r.getMessage() for r in caplog.records] == [
            "float LP re-solved in exact arithmetic: stalled"
        ]


class TestSolveLp:
    def test_bounded_variable(self):
        lp = LinearProgram((1,), (((1,), "<=", 3),), 1)
        out = solve_lp(lp)
        assert out.status == OPTIMAL and out.value == 3
        assert out.check_certificate()

    def test_infeasible(self):
        lp = LinearProgram((1,), (((1,), "<=", 1), ((2,), "=", 3)), 1)
        assert solve_lp(lp).status == INFEASIBLE

    def test_unbounded(self):
        lp = LinearProgram((1,), (), 1)
        with pytest.raises(RuntimeError, match="the program is unbounded"):
            solve_lp(lp)

    def test_signaling_lp_value(self):
        # independent construction of the joint-distribution LP for the
        # 5x4 signaling game, written out by hand
        game = gen_example(SIGNALING_5X4)
        m, n = 5, 4
        var = lambda r, c: r * n + c
        cons = []
        for cell in ((0, 1, 2, 3), (4,)):
            for r in cell:
                for r2 in cell:
                    if r == r2:
                        continue
                    row = [0] * (m * n)
                    for c in range(n):
                        row[var(r, c)] = game.u1[r2][c] - game.u1[r][c]
                    cons.append((tuple(row), "<=", 0))
        for c in range(n):
            for c2 in range(n):
                if c == c2:
                    continue
                row = [0] * (m * n)
                for r in range(m):
                    row[var(r, c)] = game.u2[r][c2] - game.u2[r][c]
                cons.append((tuple(row), "<=", 0))
        cons.append((tuple([1] * (m * n)), "=", 1))
        obj = tuple(game.u1[r][c] for r in range(m) for c in range(n))
        lp = LinearProgram(obj, tuple(cons), m * n)
        out = solve_lp(lp, "exact")
        assert out.status == OPTIMAL
        assert out.value == F(19, 3)
        assert out.check_certificate()

    def test_deterministic(self):
        lp = LinearProgram(
            (3, 2, 1),
            (((1, 1, 1), "<=", 5), ((2, 1, 0), "<=", 6), ((0, 1, 3), "=", 1)),
            3,
        )
        a = solve_lp(lp, "exact")
        b = solve_lp(lp, "exact")
        assert a.value == b.value and a.solution == b.solution and a.duals == b.duals

    def test_float_zero_optimum_is_not_negative_zero(self):
        # the max form is solved as min of the negated cost, whose zero
        # optimum negates to -0.0; reports print it, so it must read 0.0
        lp = LinearProgram((-1,), (((1,), "<=", 1),), 1)
        out = solve_lp(lp, "float")
        assert repr(out.value) == "0.0" and repr(out.solution) == "(0.0,)"

    def test_random_against_scipy(self):
        rng = random.Random(11)
        optimal_seen = 0
        for _ in range(80):
            n = rng.randint(1, 5)
            cons = []
            for _ in range(rng.randint(1, 6)):
                coefs = tuple(F(rng.randint(-4, 4)) for _ in range(n))
                cons.append((coefs, rng.choice(["<=", "="]), F(rng.randint(0, 6))))
            cons.append((tuple([1] * n), "<=", F(rng.randint(1, 8))))
            lp = LinearProgram(tuple(F(rng.randint(-5, 5)) for _ in range(n)), tuple(cons), n)
            exact = solve_lp(lp, "exact")
            flt = solve_lp(lp, "float")
            ref_status, ref_value = _scipy_reference(lp)
            assert exact.status == ref_status
            assert flt.status == ref_status
            if ref_status == OPTIMAL:
                optimal_seen += 1
                assert exact.check_certificate() and flt.check_certificate()
                assert abs(float(exact.value) - ref_value) <= 1e-6 * (1 + abs(ref_value))
                # float and exact modes agree within 1e-6 relative
                assert abs(flt.value - float(exact.value)) <= 1e-6 * (1 + abs(flt.value))
        assert optimal_seen >= 20


def _tight_count(vertex, poly: Polytope) -> int:
    """Rank of the constraints active at the vertex."""
    rows = []
    for coefs, rel, rhs in poly.constraints:
        lhs = sum(a * x for a, x in zip(coefs, vertex))
        if rel == "=" or lhs == rhs:
            rows.append([F(a) for a in coefs])
    for i in range(poly.num_vars):
        if vertex[i] == 0:
            row = [F(0)] * poly.num_vars
            row[i] = F(1)
            rows.append(row)
    mat = np.array([[float(x) for x in row] for row in rows])
    return int(np.linalg.matrix_rank(mat)) if len(rows) else 0


def _random_simplex_polytope(rng) -> Polytope:
    """The 2- to 4-variable simplex cut by one to four random ``<=`` rows."""
    dim = rng.randint(2, 4)
    cons = [((tuple([1] * dim)), "=", 1)]
    for _ in range(rng.randint(1, 4)):
        cons.append(
            (tuple(F(rng.randint(-2, 2)) for _ in range(dim)), "<=", F(rng.randint(0, 2)))
        )
    return Polytope(dim, tuple(cons))


def _gauss_jordan(aug: list[list], ncols: int) -> list[int]:
    """Reduce ``aug`` in place over its first ``ncols`` columns; returns the
    pivot columns, whose rows come first."""
    piv = []
    for col in range(ncols):
        r = next((i for i in range(len(piv), len(aug)) if aug[i][col]), None)
        if r is not None:
            k = len(piv)
            aug[k], aug[r] = aug[r], aug[k]
            aug[k] = [a / aug[k][col] for a in aug[k]]
            aug[:] = [row if i == k else [a - row[col] * b for a, b in zip(row, aug[k])]
                      for i, row in enumerate(aug)]
            piv.append(col)
    return piv


def _brute_force_vertices(poly: Polytope) -> list[tuple]:
    """Reference enumeration: an independent set of equality rows plus every
    ``combinations`` subset of the inequality rows (``-x_i <= 0`` last)
    filling out the dimension, each solved from scratch in ``Fraction``s and
    kept when unique, feasible and new."""
    dim = poly.num_vars
    rows = [([F(a) for a in coefs], rel, F(rhs)) for coefs, rel, rhs in poly.constraints]
    rows += [([F(-1 if j == i else 0) for j in range(dim)], "<=", F(0)) for i in range(dim)]
    eqs = [coefs + [rhs] for coefs, rel, rhs in rows if rel == "="]
    piv = _gauss_jordan(eqs, dim + 1)
    if dim in piv:
        return []
    ineqs = [coefs + [rhs] for coefs, rel, rhs in rows if rel == "<="]
    verts = []
    for combo in combinations(ineqs, dim - len(piv)):
        system = eqs[: len(piv)] + list(combo)
        if len(_gauss_jordan(system, dim)) == dim:
            x = tuple(row[dim] for row in system)
            lhs = [sum(a * v for a, v in zip(coefs, x)) for coefs, _, _ in rows]
            feasible = all(l <= r if rel == "<=" else l == r for l, (_, rel, r) in zip(lhs, rows))
            if feasible and x not in verts:
                verts.append(x)
    return verts


def _awkward_polytope(rng) -> Polytope:
    """A 1- to 5-variable simplex cut by random ``<=`` rows, each one maybe
    followed by a repeat, a parallel copy, a zero row, or an equality that is
    redundant, inconsistent or new: subsets whose prefix is already
    dependent, and equality sets that lose rows or have no solution."""
    dim = rng.randint(1, 5)
    ones = (1,) * dim
    cons = [(ones, "=", 1)]
    for _ in range(rng.randint(1, 6 - dim // 2)):
        coefs = tuple(rng.choice([-2, -1, 0, 0, 1, 2, F(1, 3), F(-1, 2)]) for _ in range(dim))
        rhs = rng.choice([0, 0, 1, 2, F(1, 2)])
        cons.append((coefs, "<=", rhs))
        extra = rng.choice([
            None,
            (coefs, "<=", rhs),
            (tuple(2 * a for a in coefs), "<=", 2 * rhs + rng.randint(0, 1)),
            ((0,) * dim, "<=", rhs),
            (tuple(3 * a for a in ones), "=", 3),
            (ones, "=", 2),
            (coefs, "=", rhs) if dim > 1 else None,
        ])
        if extra is not None and (extra[1] == "<=" or rng.random() < 0.3):
            cons.append(extra)
    return Polytope(dim, tuple(cons))


class TestEnumerateVertices:
    def test_matches_brute_force(self):
        rng = random.Random(17)
        empty = 0
        for _ in range(80):
            poly = _awkward_polytope(rng)
            reference = _brute_force_vertices(poly)
            empty += not reference
            assert enumerate_vertices(poly, "exact") == reference, poly
            flt = enumerate_vertices(poly, "float")
            assert len(flt) == len(reference), poly
            for xv, fv in zip(reference, flt):
                assert all(abs(a - b) <= 1e-9 for a, b in zip(xv, fv)), poly
        assert 0 < empty < 40

    def test_standard_simplex(self):
        poly = Polytope(3, (((1, 1, 1), "=", 1),))
        verts = set(enumerate_vertices(poly))
        assert verts == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_half_constrained_simplex(self):
        # x >= 1/2 on the simplex, written as y <= 1/2
        poly = Polytope(2, (((1, 1), "=", 1), ((0, 1), "<=", F(1, 2))))
        verts = set(enumerate_vertices(poly))
        assert verts == {(1, 0), (F(1, 2), F(1, 2))}

    def test_example_game_column_polytope(self):
        # columns {A,B} with rows {a,d} required best within their cells:
        # 6a+0b <= 7a+2b and 5a+0b <= 4a+1b on the 2-simplex
        game = gen_example("example_4x2")
        cons = (
            ((1, 1), "=", 1),
            ((game.u1[1][0] - game.u1[0][0], game.u1[1][1] - game.u1[0][1]), "<=", 0),
            ((game.u1[2][0] - game.u1[3][0], game.u1[2][1] - game.u1[3][1]), "<=", 0),
        )
        verts = enumerate_vertices(Polytope(2, cons))
        assert (F(1, 2), F(1, 2)) in verts
        assert set(verts) == {(F(1, 2), F(1, 2)), (F(0), F(1))}

    def test_empty_polytope(self):
        poly = Polytope(2, (((1, 1), "=", 1), ((2, 2), "<=", 1)))
        assert enumerate_vertices(poly) == []

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_implied_equality_is_dropped(self, mode):
        alone = Polytope(2, (((1, 1), "=", 1),))
        doubled = Polytope(2, (((1, 1), "=", 1), ((2, 2), "=", 2)))
        assert enumerate_vertices(doubled, mode) == enumerate_vertices(alone, mode)
        assert len(enumerate_vertices(alone, mode)) == 2

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_inconsistent_equalities_are_empty(self, mode):
        poly = Polytope(2, (((1, 1), "=", 1), ((2, 2), "=", 3)))
        assert enumerate_vertices(poly, mode) == []

    def test_degenerate_vertex_reported_once(self):
        # three constraints meet at the same point of the 2-simplex
        poly = Polytope(
            2,
            (((1, 1), "=", 1), ((1, -1), "<=", 0), ((2, -2), "<=", 0), ((1, 0), "<=", F(1, 2))),
        )
        verts = enumerate_vertices(poly)
        assert len(set(verts)) == len(verts)
        assert (F(1, 2), F(1, 2)) in verts

    def test_vertices_have_full_rank_tight_sets(self):
        rng = random.Random(5)
        for _ in range(15):
            poly = _random_simplex_polytope(rng)
            for v in enumerate_vertices(poly):
                assert _tight_count(v, poly) == poly.num_vars

    def test_float_vertices_match_exact(self):
        rng = random.Random(5)
        for _ in range(15):
            poly = _random_simplex_polytope(rng)
            exact = enumerate_vertices(poly, "exact")
            flt = enumerate_vertices(poly, "float")
            assert len(flt) == len(exact)
            for xv, fv in zip(exact, flt):
                assert all(abs(float(a) - b) <= 1e-9 for a, b in zip(xv, fv))

    def test_lp_maximum_attained_at_vertex(self):
        rng = random.Random(6)
        for _ in range(15):
            dim = rng.randint(2, 4)
            cons = [((tuple([1] * dim)), "=", 1)]
            for _ in range(rng.randint(0, 3)):
                cons.append(
                    (tuple(F(rng.randint(-2, 2)) for _ in range(dim)), "<=", F(rng.randint(0, 2)))
                )
            poly = Polytope(dim, tuple(cons))
            verts = enumerate_vertices(poly)
            if not verts:
                continue
            obj = tuple(F(rng.randint(-5, 5)) for _ in range(dim))
            lp = LinearProgram(obj, poly.constraints, dim)
            out = solve_lp(lp)
            assert out.status == OPTIMAL
            best = max(sum(o * x for o, x in zip(obj, v)) for v in verts)
            assert best == out.value
