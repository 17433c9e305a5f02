import itertools
import logging
import math
import random
from fractions import Fraction as F
import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.optimize import linprog as scipy_linprog

from partialcommit import deviations, experiment, solvers
from partialcommit.deviations import SignalModel, find_deviation
from partialcommit.errors import ScaleGuardExceeded
from partialcommit.games import (
    FLOAT_TOL,
    CorrelatedProfile,
    Game,
    MixedProfile,
    SISPartition,
    correlated_utilities,
    expected_utilities,
)
from partialcommit.instances import (
    EXAMPLE_4X2,
    EXAMPLE_NAMES,
    SHAPLEY,
    SIGNALING_5X4,
    WEAKSIG_6X4,
    X3CInstance,
    gen_close_to_full,
    gen_example,
    gen_random,
    gen_x3c_game,
    solve_x3c_bruteforce,
)
from partialcommit.linprog import (
    INFEASIBLE,
    OPTIMAL,
    LinearProgram,
    Polytope,
    enumerate_vertices,
    solve_lp,
)
from partialcommit.solvers import (
    BEST_NASH,
    MAX_CE,
    SELO,
    SESLO,
    STACKELBERG,
    solve_best_nash,
    solve_max_ce,
    solve_selo,
    solve_seslo,
    solve_stackelberg,
)


def scipy_max_ce_value(game) -> float:
    """Row-optimal correlated equilibrium via an independently written LP."""
    m, n = game.num_rows, game.num_cols
    u1 = [[float(x) for x in row] for row in game.u1]
    u2 = [[float(x) for x in row] for row in game.u2]
    nv = m * n
    idx = lambda r, c: r * n + c
    A_ub, b_ub = [], []
    for r in range(m):
        for r2 in range(m):
            if r2 == r:
                continue
            row = [0.0] * nv
            for c in range(n):
                row[idx(r, c)] = u1[r2][c] - u1[r][c]
            A_ub.append(row)
            b_ub.append(0.0)
    for c in range(n):
        for c2 in range(n):
            if c2 == c:
                continue
            row = [0.0] * nv
            for r in range(m):
                row[idx(r, c)] = u2[r][c2] - u2[r][c]
            A_ub.append(row)
            b_ub.append(0.0)
    obj = [-u1[r][c] for r in range(m) for c in range(n)]
    res = scipy_linprog(
        obj, A_ub=A_ub, b_ub=b_ub, A_eq=[[1.0] * nv], b_eq=[1.0],
        bounds=[(0, None)] * nv, method="highs",
    )
    assert res.status == 0
    return -res.fun


def _induce_column_lp(u1, u2, m: int, n: int, cstar: int) -> LinearProgram:
    """Best row payoff in column ``cstar`` over row mixtures that make
    ``cstar`` a best response."""
    cons = []
    for c in range(n):
        if c == cstar:
            continue
        cons.append((tuple(u2[r][c] - u2[r][cstar] for r in range(m)), "<=", 0))
    cons.append((tuple([1] * m), "=", 1))
    obj = tuple(u1[r][cstar] for r in range(m))
    return LinearProgram(obj, tuple(cons), m)


def milp_best_nash_value(game) -> float:
    """Best row payoff over Nash equilibria by the mixed-integer program of
    Sandholm, Gilpin & Conitzer (AAAI 2005), solved by HiGHS.  A binary per
    action either keeps it out of the support (probability 0) or makes its
    regret 0; big-M is the payoff range plus 1."""
    u1, u2 = np.array(game.u1, dtype=float), np.array(game.u2, dtype=float)
    m, n = u1.shape
    big = max(np.ptp(u1), np.ptp(u2)) + 1
    # variables: x (m), y (n), v1, v2, then one binary per row and per column
    x, y, v1, v2, b = 0, m, m + n, m + n + 1, m + n + 2
    nv = b + m + n
    rows, lo, hi = [], [], []

    def add(coefs, low, high):
        row = np.zeros(nv)
        for j, a in coefs:
            row[j] += a
        rows.append(row)
        lo.append(low)
        hi.append(high)

    add([(x + r, 1) for r in range(m)], 1, 1)
    add([(y + c, 1) for c in range(n)], 1, 1)
    for r in range(m):  # regret of row r: v1 - u1[r] . y, in [0, big * b_r]
        regret = [(v1, 1), *[(y + c, -u1[r, c]) for c in range(n)]]
        add(regret, 0, np.inf)
        add([*regret, (b + r, -big)], -np.inf, 0)
        add([(x + r, 1), (b + r, 1)], -np.inf, 1)
    for c in range(n):  # regret of column c: v2 - x . u2[:, c], in [0, big * b_c]
        regret = [(v2, 1), *[(x + r, -u2[r, c]) for r in range(m)]]
        add(regret, 0, np.inf)
        add([*regret, (b + m + c, -big)], -np.inf, 0)
        add([(y + c, 1), (b + m + c, 1)], -np.inf, 1)
    objective = np.zeros(nv)
    objective[v1] = -1.0
    lower, upper = np.zeros(nv), np.ones(nv)
    lower[[v1, v2]], upper[[v1, v2]] = -np.inf, np.inf
    integrality = np.zeros(nv)
    integrality[b:] = 1
    res = milp(
        objective, constraints=LinearConstraint(np.array(rows), lo, hi),
        integrality=integrality, bounds=Bounds(lower, upper),
        options={"mip_rel_gap": 0},
    )
    assert res.status == 0
    return -res.fun


def stackelberg_per_column(game, mode):
    """Stackelberg value by the classic one-LP-per-column method, kept as an
    oracle independent of the signal LP the solver uses."""
    u1, u2 = game.payoffs_in_mode(mode)
    m, n = game.num_rows, game.num_cols
    outs = [solve_lp(_induce_column_lp(u1, u2, m, n, c), mode) for c in range(n)]
    return max(out.value for out in outs if out.status == OPTIMAL)


def _slack_game():
    """Game 0 of the 4x4 sweep with base seed 6707571899452336207."""
    return gen_random(4, 4, 1, seed=experiment.derive_seed(6707571899452336207, 4, 4, 0))


class TestSeslo:
    def test_signaling_game(self):
        report = solve_seslo(gen_example(SIGNALING_5X4))
        assert report.value == F(19, 3)
        assert report.verifier_passed
        assert correlated_utilities(gen_example(SIGNALING_5X4), report.witness)[0] == F(19, 3)

    def test_signaling_game_one_cell(self):
        game = gen_example(SIGNALING_5X4).with_partition(SISPartition.one_cell(5))
        report = solve_seslo(game)
        assert report.value == 1
        # the only best correlated outcome is the bottom-right pure one
        assert report.witness.p[4][3] == 1

    def test_weaksig_game(self):
        report = solve_seslo(gen_example(WEAKSIG_6X4))
        assert report.value == 2
        assert report.verifier_passed

    def test_float_witness_is_feasible_for_the_verifier(self):
        # the float optimum of this game leaves a slack of -5.3e-9, which the
        # verifier (1e-9) rejects; the certificate must reject it too, so the
        # LP is re-solved exactly
        game = _slack_game()
        flt = solve_seslo(game, mode="float")
        exact = solve_seslo(game)
        assert flt.verifier_passed
        assert flt.value == float(exact.value)
        assert abs(flt.value - 0.7362) < 1e-4

    def test_float_fallback_is_logged(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="partialcommit.linprog"):
            solve_seslo(_slack_game(), mode="float")
        assert [r.getMessage() for r in caplog.records] == [
            "float LP re-solved in exact arithmetic: certificate failed"
        ]
        assert caplog.records[0].levelno == logging.DEBUG

    def test_float_fallback_count(self, caplog):
        def fallbacks():
            prefix = "float LP re-solved in exact arithmetic"
            return sum(r.getMessage().startswith(prefix) for r in caplog.records)

        with caplog.at_level(logging.DEBUG, logger="partialcommit.linprog"):
            for k in range(1, 5):
                for seed in range(200):
                    assert solve_seslo(gen_random(4, 4, k, seed=seed), "float").verifier_passed
            assert fallbacks() == 0
            report = solve_seslo(_slack_game(), "float")
            assert fallbacks() == 1
        assert report.verifier_passed and round(report.value, 4) == 0.7362

    def test_shapley_one_cell_matches_independent_ce_lp(self):
        game = gen_example(SHAPLEY)
        report = solve_seslo(game)
        oracle = scipy_max_ce_value(game)
        assert abs(float(report.value) - oracle) < 1e-9
        assert report.value == F(1, 2)  # the cyclic-win distribution is optimal

    def test_lp_rows_are_the_verifier_tests(self):
        # the signal LP's "<=" rows at p are verify_correlated's tests, so a
        # block of tie rows placed on the wrong variables changes some gain
        rng = random.Random(28)
        games = [gen_example(name) for name in (EXAMPLE_4X2, SHAPLEY, SIGNALING_5X4, WEAKSIG_6X4)]
        for _ in range(20):
            u1, u2 = ([[F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)]
                       for _ in range(4)] for _ in range(2))
            games.append(Game(u1, u2, SISPartition.round_robin(4, rng.randint(1, 4))))
        checks = 0
        for game in games:
            m, n = game.num_rows, game.num_cols
            for partition in (game.partition, SISPartition.one_cell(m), SISPartition.singletons(m)):
                u1, u2 = game.payoffs_in_mode("exact")
                lp = solvers._seslo_lp(u1, u2, partition, m, n)
                tests = [coefs for coefs, rel, _ in lp.constraints if rel == "<="]
                for _ in range(5):
                    weights = [[rng.choice([0, 0, 1, 2, 3]) for _ in range(n)] for _ in range(m)]
                    weights[rng.randrange(m)][rng.randrange(n)] += 1
                    total = sum(map(sum, weights))
                    p = CorrelatedProfile([[F(w, total) for w in row] for row in weights])
                    x = [p.p[r][c] for r in range(m) for c in range(n)]
                    values = [sum(a * v for a, v in zip(coefs, x)) for coefs in tests]
                    report = deviations.verify_correlated(game.with_partition(partition), p)
                    gain = max(report.max_column_gain, report.max_row_gain)
                    assert max([0, *values]) == gain, (game, partition, p)
                    assert report.passed == all(v <= 0 for v in values)
                    checks += 1
        assert checks == 360


class TestSelo:
    def test_example_game(self):
        report = solve_selo(gen_example(EXAMPLE_4X2))
        assert report.value == F(7, 2)
        assert report.verifier_passed
        s1, s2 = report.witness.sigma1, report.witness.sigma2
        assert s1 == (F(1, 2), 0, 0, F(1, 2)) and s2 == (F(1, 2), F(1, 2))

    def test_example_game_singletons(self):
        game = gen_example(EXAMPLE_4X2).with_partition(SISPartition.singletons(4))
        assert solve_selo(game).value == F(13, 2)

    def test_example_game_one_cell(self):
        game = gen_example(EXAMPLE_4X2).with_partition(SISPartition.one_cell(4))
        assert solve_selo(game).value == 2

    def test_signaling_game_value_one(self):
        assert solve_selo(gen_example(SIGNALING_5X4)).value == 1

    def test_scale_guard(self):
        game = gen_random(8, 8, 2, seed=0)
        with pytest.raises(ScaleGuardExceeded):
            solve_selo(game, mode="float")
        with pytest.raises(ScaleGuardExceeded):
            solve_best_nash(game, mode="float")

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_stops_at_the_stackelberg_ceiling(self, mode):
        # with singleton cells the SELO value 13/2 is the largest
        # single-column cap, so the search ends before the last of the 45
        # support pairs, with the value and witness of the full search
        game = gen_example(EXAMPLE_4X2).with_partition(SISPartition.singletons(4))
        report = solve_selo(game, mode)
        assert abs(report.value - F(13, 2)) <= (0 if mode == "exact" else 1e-9)
        assert report.stats.supports_examined < 45
        value, witness = unpruned_search(game, mode)
        assert report.value == value
        assert (report.witness.sigma1, report.witness.sigma2) == (witness.sigma1, witness.sigma2)

    @pytest.mark.parametrize("solve", [solve_selo, solve_best_nash])
    def test_float_stop_within_rounding_of_the_ceiling(self, solve):
        # the best value (a P1 LP on the support rows) lands within rounding
        # of the ceiling (a cap LP on all rows) but not on it, so a stop
        # that needs best >= ceiling would examine all 105 support pairs
        game = gen_random(4, 3, 2, seed=22)
        report = solve(game, "float")
        assert report.stats.supports_examined < 105
        if solve is solve_best_nash:
            game = game.with_partition(SISPartition.one_cell(4))
        value, witness = unpruned_search(game, "float")
        assert report.value == value
        assert (report.witness.sigma1, report.witness.sigma2) == (witness.sigma1, witness.sigma2)


class TestStackelberg:
    def test_example_game(self):
        report = solve_stackelberg(gen_example(EXAMPLE_4X2))
        assert report.value == F(13, 2)
        # committing to half a, half b induces the first column
        assert report.witness.sigma2 == (1, 0)

    def test_close_to_full(self):
        game = gen_close_to_full(3, F(1, 10))
        report = solve_stackelberg(game)
        assert report.value > 1 - F(1, 10)
        assert report.witness.sigma2[3] == 1  # induces the safe column

    def test_one_by_one(self):
        game = Game([[5]], [[7]], SISPartition.one_cell(1))
        assert solve_stackelberg(game).value == 5

    def test_witness_induces_the_heaviest_column(self):
        # the float signal LP puts 8.3e-17 mass on column 0; the conditional
        # given that column would fail the verifier
        game = Game(
            [[2, 0, 0, 1], [3, 0, 0, 3], [0, 3, 1, 1]],
            [[0, 3, 2, 3], [1, 3, 1, 0], [2, 0, 0, 1]],
            SISPartition([[0, 2], [1]], 3),
        )
        flt = solve_stackelberg(game, mode="float")
        assert flt.verifier_passed
        assert flt.witness.sigma2 == (0, 1, 0, 0)
        exact = solve_stackelberg(game)
        assert exact.value == F(27, 16) == stackelberg_per_column(game, "exact")
        assert exact.stats.lps_solved == 1

    def test_partition_ignored(self):
        game = gen_example(EXAMPLE_4X2)
        a = solve_stackelberg(game)
        b = solve_stackelberg(game.with_partition(SISPartition.one_cell(4)))
        assert a.value == b.value


class TestBestNash:
    def test_example_game_unique_nash(self):
        report = solve_best_nash(gen_example(EXAMPLE_4X2))
        assert report.value == 2
        assert report.witness.sigma1 == (1, 0, 0, 0)
        assert report.witness.sigma2 == (0, 1)

    def test_shapley_uniform(self):
        report = solve_best_nash(gen_example(SHAPLEY))
        assert report.value == F(1, 3)
        assert report.witness.sigma1 == (F(1, 3),) * 3
        assert report.witness.sigma2 == (F(1, 3),) * 3

    def test_matches_independent_milp(self):
        for seed in range(20):
            game = gen_random(5, 5, 1, seed=seed)
            value = solve_best_nash(game, "float").value
            milp_value = milp_best_nash_value(game)
            if abs(milp_value - value) <= 1e-6:
                continue
            # HiGHS keeps a feasibility slack: the exact solve decides
            exact = solve_best_nash(game).value
            assert abs(value - exact) <= 1e-9, seed
            assert abs(milp_value - exact) <= 1e-5, seed

    def test_one_cell_selo_equals_best_nash(self):
        for name in (EXAMPLE_4X2, SHAPLEY):
            game = gen_example(name)
            merged = game.with_partition(SISPartition.one_cell(game.num_rows))
            assert solve_selo(merged).value == solve_best_nash(game).value


class TestFloatSignedZeros:
    def test_no_negative_zero_in_float_selo_or_nash(self):
        # the nonnegativity rows -x_i <= 0 leave -0.0 in vertex coordinates;
        # without clearing it, the SELO witnesses of gen_random(4, 3, 2, 31)
        # and gen_random(3, 4, 2, 12) would print "-0.0"
        games = [gen_example(EXAMPLE_4X2), gen_example(SHAPLEY)]
        games += [gen_random(4, 3, 2, seed=s) for s in range(28, 34)]
        games += [gen_random(3, 4, 2, seed=s) for s in range(10, 16)]
        for game in games:
            for solve in (solve_selo, solve_best_nash):
                report = solve(game, "float")
                numbers = (report.value, *report.witness.sigma1, *report.witness.sigma2)
                assert all(math.copysign(1.0, x) > 0 for x in numbers if x == 0), numbers


class TestMaxCe:
    def test_concept_and_values(self):
        report = solve_max_ce(gen_example(SHAPLEY))
        assert report.concept == MAX_CE
        assert report.value >= F(1, 2)

    def test_signaling_game(self):
        assert solve_max_ce(gen_example(SIGNALING_5X4)).value == 1

    def test_dominates_best_nash(self):
        rng = random.Random(4)
        for trial in range(6):
            game = gen_random(3, 3, rng.randint(1, 3), seed=300 + trial)
            ce = solve_max_ce(game, mode="float")
            nash = solve_best_nash(game, mode="float")
            assert ce.value >= nash.value - 1e-7


class TestCrossConceptInvariants:
    def test_seslo_dominates_selo_exact(self):
        for name in (EXAMPLE_4X2, SHAPLEY, SIGNALING_5X4, WEAKSIG_6X4):
            game = gen_example(name)
            assert solve_seslo(game).value >= solve_selo(game).value

    def test_refinement_monotone_on_example(self):
        game = gen_example(SIGNALING_5X4)
        coarse = solve_seslo(game.with_partition(SISPartition.one_cell(5))).value
        mid = solve_seslo(game).value
        fine = solve_seslo(game.with_partition(SISPartition.singletons(5))).value
        assert coarse <= mid <= fine

    def test_witnesses_pass_matching_verifiers(self):
        game = gen_example(EXAMPLE_4X2)
        assert solve_seslo(game).verifier_passed
        assert solve_selo(game).verifier_passed
        assert solve_stackelberg(game).verifier_passed
        assert solve_best_nash(game).verifier_passed
        assert solve_max_ce(game).verifier_passed

    def test_selo_value_equals_witness_utility(self):
        game = gen_example(EXAMPLE_4X2)
        report = solve_selo(game)
        assert expected_utilities(game, report.witness)[0] == report.value


class TestBoundedPrograms:
    """Every LP the package builds is bounded by construction, which is what
    lets the simplex kernels answer only optimal or infeasible."""

    @staticmethod
    def _bounded_by_construction(lp: LinearProgram) -> bool:
        # each variable has a positive coefficient in an "=" row whose
        # coefficients are all >= 0 and whose right-hand side is > 0
        covered = set()
        for coefs, rel, rhs in lp.constraints:
            if rel == "=" and rhs > 0 and all(a >= 0 for a in coefs):
                covered |= {j for j, a in enumerate(coefs) if a > 0}
        return covered == set(range(lp.num_vars))

    def test_every_solver_and_deviation_lp(self, monkeypatch):
        seen = []

        def record(lp, mode="exact"):
            seen.append(lp)
            return solve_lp(lp, mode)

        monkeypatch.setattr(solvers, "solve_lp", record)
        monkeypatch.setattr(deviations, "solve_lp", record)
        games = [gen_example(name) for name in (EXAMPLE_4X2, SHAPLEY, SIGNALING_5X4, WEAKSIG_6X4)]
        games += [gen_random(4, 3, 2, seed) for seed in range(4)]
        for game in games:
            for mode in ("exact", "float"):
                for solve in (solve_seslo, solve_max_ce, solve_stackelberg, solve_selo,
                              solve_best_nash):
                    solve(game, mode)
                witness = solve_seslo(game, mode).witness
                for model in SignalModel:
                    find_deviation(game, witness, model, mode)
        assert len(seen) > 400
        assert all(self._bounded_by_construction(lp) for lp in seen)


class TestSeloAtFiveByFive:
    """SELO identities one size beyond acceptance criterion 5's 4x4."""

    def test_singleton_cells_give_stackelberg_exactly(self):
        # the support search against the signal LP: two engines, one value
        for seed in range(20):
            game = gen_random(5, 5, 5, seed=seed)
            u1, u2 = ([[F(x).limit_denominator(100) for x in row] for row in u]
                      for u in (game.u1, game.u2))
            game = Game(u1, u2, game.partition)
            assert solve_selo(game).value == solve_stackelberg(game).value, seed

    def test_refinement_chain_below_seslo(self):
        partitions = [
            SISPartition.one_cell(5), SISPartition.round_robin(5, 2), SISPartition.singletons(5)
        ]
        for seed in range(20):
            base = gen_random(5, 5, 1, seed=seed)
            values = []
            for partition in partitions:
                game = base.with_partition(partition)
                values.append(solve_selo(game, "float").value)
                assert values[-1] <= solve_seslo(game, "float").value + 1e-9, seed
            assert values[0] <= values[1] + 1e-9 and values[1] <= values[2] + 1e-9, seed


def pair_optima(game, mode, rsup, csup):
    """(P1 outcome, vertex) for each vertex of the pair's P2 in
    ``enumerate_vertices`` order, one P1 LP per vertex, stopping at the
    first infeasible P1 (P1 does not depend on the vertex).  The rows come
    from the test-owned ``tie_rows``, which states the solver's tie rule in
    the same arithmetic, so float optima are bit-comparable;
    ``TestP2Polytope`` checks the solver's rows against the pairwise form."""
    u1, u2 = game.payoffs_in_mode(mode)
    pay2 = list(zip(*u2))  # column c's payoff against row r is pay2[c][r]
    p1_rows = tie_rows(pay2, rsup, csup, (range(game.num_cols),))
    p2 = Polytope(len(csup), tie_rows(u1, csup, rsup, game.partition.cells))
    for vert in enumerate_vertices(p2, mode):
        weights = [sum(u1[r][c] * y for c, y in zip(csup, vert)) for r in rsup]
        out = solve_lp(LinearProgram(tuple(weights), p1_rows, len(rsup)), mode)
        if out.status == INFEASIBLE:
            return
        assert out.status == OPTIMAL
        yield out, vert


def unpruned_search(game, mode):
    """The support search with no pruning, kept as the oracle of the pruned
    one: every support pair in the search's order, every vertex of its P2,
    one P1 LP per vertex, and the first optimum kept (in float mode a later
    one must be larger by more than ``FLOAT_TOL``, relative)."""
    m, n = game.num_rows, game.num_cols
    best = witness = None
    for rsup, csup in solvers._support_pairs(m, n):
        for out, vert in pair_optima(game, mode, rsup, csup):
            tol = 0 if mode == "exact" or best is None else FLOAT_TOL * (1 + abs(best))
            if best is None or out.value - best > tol:
                sigma1, sigma2 = [0] * m, [0] * n
                for r, x in zip(rsup, out.solution):
                    sigma1[r] = x
                for c, y in zip(csup, vert):
                    sigma2[c] = y
                best, witness = out.value, MixedProfile(sigma1, sigma2, mode)
    return best, witness


class TestPruningSoundness:
    def test_pruned_search_matches_raw_enumeration(self):
        # small-integer payoffs maximize ties, the worst case for any
        # bound-versus-best boundary mistake; in float mode the tied optima
        # differ in the last bits
        rng = random.Random(606)
        for trial in range(40):
            m, n = rng.choice([(3, 3), (4, 3), (3, 4), (4, 2), (5, 3)])
            u1 = [[F(rng.randint(0, 3)) for _ in range(n)] for _ in range(m)]
            u2 = [[F(rng.randint(0, 3)) for _ in range(n)] for _ in range(m)]
            game = Game(u1, u2, SISPartition.round_robin(m, rng.randint(1, m)))
            for mode in ("exact", "float"):
                v1, w1, _ = solvers._SupportSearch(game, mode).run()
                v2, w2 = unpruned_search(game, mode)
                case = (trial, mode)
                assert v1 == v2, case
                assert (w1.sigma1, w1.sigma2) == (w2.sigma1, w2.sigma2), case

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_emptiness_rule_skips_walks(self, mode, monkeypatch):
        # a pair inside one whose P2 came out empty is not walked; a search
        # that records no empty pair walks it, and both match the oracle
        class NoRecords(list):
            def append(self, item):
                pass

        walks = []
        enumerate_all = solvers.enumerate_vertices
        monkeypatch.setattr(solvers, "enumerate_vertices",
                            lambda poly, mode: walks.append(poly) or enumerate_all(poly, mode))
        game = gen_example(EXAMPLE_4X2)
        results = []
        for records in (list, NoRecords):
            walks.clear()
            search = solvers._SupportSearch(game, mode)
            search._empty = records()
            value, witness, _ = search.run()
            results.append((len(walks), value, witness.sigma1, witness.sigma2))
        (pruned, *found), (walked, *unrecorded) = results
        assert pruned < walked
        value, witness = unpruned_search(game, mode)
        assert found == unrecorded == [value, witness.sigma1, witness.sigma2]


def _bound_games():
    """The examples under their own, one-cell and singleton partitions, and
    20 small-integer games (many ties, so many pairs sit on a bound)."""
    for name in EXAMPLE_NAMES:
        game = gen_example(name)
        m = game.num_rows
        yield game
        yield game.with_partition(SISPartition.one_cell(m))
        yield game.with_partition(SISPartition.singletons(m))
    rng = random.Random(2929)
    for _ in range(20):
        m, n = rng.choice([(3, 3), (4, 3), (3, 4), (4, 2)])
        u1 = [[F(rng.randint(0, 3)) for _ in range(n)] for _ in range(m)]
        u2 = [[F(rng.randint(0, 3)) for _ in range(n)] for _ in range(m)]
        yield Game(u1, u2, SISPartition.round_robin(m, rng.randint(1, m)))


class TestPruningBounds:
    """Each bound the search prunes a support pair (R, C) on holds for that
    pair's optimum, computed with no bound at all: the column-set cap
    ``csup_cap(C)`` and the per-column bound
    max_{c∈C} min(csup_cap((c,)), max_{r∈R} u1[r][c])."""

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_every_pair_optimum_is_within_both_bounds(self, mode):
        for g, game in enumerate(_bound_games()):
            search = solvers._SupportSearch(game, mode)
            u1 = search.u1
            for rsup, csup in solvers._support_pairs(game.num_rows, game.num_cols):
                case = (g, mode, rsup, csup)
                values = [out.value for out, _ in pair_optima(game, mode, rsup, csup)]
                caps = [search.csup_cap((c,)) for c in csup]
                if None in caps or search.csup_cap(csup) is None:
                    assert values == [], case  # an empty cap region: no profile
                    continue
                if not values:
                    continue
                best = max(values)
                slack = 0 if mode == "exact" else FLOAT_TOL * (1 + abs(best))
                assert best <= search.csup_cap(csup) + slack, case
                bound = max(min(cap, max(u1[r][c] for r in rsup)) for cap, c in zip(caps, csup))
                assert best <= bound + slack, case

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_a_column_set_cap_is_one_lp(self, mode):
        search = solvers._SupportSearch(gen_example(WEAKSIG_6X4), mode)
        for csup in [(0, 1), (1, 2, 3), (0, 1, 2, 3)]:
            before = search.stats.lps_solved
            search.csup_cap(csup)
            assert search.stats.lps_solved == before + 1, csup
            search.csup_cap(csup)
            assert search.stats.lps_solved == before + 1, csup


def _outcome(out):
    return out.status, repr(out.value), repr(out.solution)


class TestOneRowP1:
    """A one-row P1 is the point x = e_r: ``_solve_p1`` tests its tie rows at
    x = 1 and gives ``solve_lp``'s status, value and solution with no LP."""

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("a", [0.0, 5e-10, 2e-9, 5e-9, 2e-8, 0.25])
    def test_matches_solve_lp_at_the_tolerance_edges(self, mode, a):
        # row 0's column payoffs: column 1 differs from column 0 by ±a (an
        # "=" row when both are supported, a "<=" row otherwise), and
        # column 2 is worse than both
        for coef in (a, -a):
            u1 = [[0.7, 0.2, 0.1], [0.0, 0.0, 0.0]]
            u2 = [[0.0, coef, -1.0], [1.0, 0.0, 0.0]]
            search = solvers._SupportSearch(Game(u1, u2, SISPartition.one_cell(2)), mode)
            for csup in [(0,), (1,), (0, 1)]:
                weights = [search.u1[0][csup[0]]]
                lps = search.stats.lps_solved
                got = search._solve_p1((0,), csup, weights)
                assert search.stats.lps_solved == lps
                want = solve_lp(search._p1_lp((0,), csup, weights), mode)
                assert _outcome(got) == _outcome(want), (coef, csup)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_matches_solve_lp_on_random_games(self, mode):
        feasible = 0
        for seed in range(10):
            search = solvers._SupportSearch(gen_random(4, 3, 2, seed), mode)
            for r in range(4):
                for k in (1, 2, 3):
                    for csup in itertools.combinations(range(3), k):
                        weights = [search.u1[r][csup[-1]]]
                        got = search._solve_p1((r,), csup, weights)
                        want = solve_lp(search._p1_lp((r,), csup, weights), mode)
                        assert _outcome(got) == _outcome(want), (seed, r, csup)
                        feasible += got.status == OPTIMAL
        assert feasible > 0


class TestX3CEquivalenceSmall:
    def test_tiny_instances(self):
        cases = [
            X3CInstance(3, [(0, 1, 2)]),
            X3CInstance(6, [(0, 1, 2), (3, 4, 5)]),
            X3CInstance(6, [(0, 1, 2), (0, 3, 4)]),
            X3CInstance(6, [(0, 1, 2), (1, 2, 3), (2, 3, 4)]),
        ]
        for inst in cases:
            game = gen_x3c_game(inst)
            value = solve_selo(game, mode="float", allow_large=True).value
            has_cover = solve_x3c_bruteforce(inst)
            assert (value > 1e-7) == has_cover
            if has_cover:
                assert value >= 1 - 1e-9

    def test_exact_mode_agrees_on_smallest(self):
        inst = X3CInstance(3, [(0, 1, 2)])
        game = gen_x3c_game(inst)
        assert solve_selo(game).value == 1


def pairwise_rows(pay, over, sup, cells) -> tuple:
    """Best-response rows as first written: each response in ``sup`` at
    least as good as every other response of its cell, one ``<=`` row per
    ordered pair, ``pay[a][j]`` being response ``a``'s payoff against ``j``;
    then ``Σ = 1``."""
    rows = [
        (tuple(pay[a2][j] - pay[a][j] for j in over), "<=", 0)
        for cell in cells
        for a in cell if a in sup
        for a2 in cell if a2 != a
    ]
    rows.append((tuple([1] * len(over)), "=", 1))
    return tuple(rows)


def tie_rows(pay, over, sup, cells) -> tuple:
    """The same set with the supported responses of a cell tied: an ``=``
    row against the cell's first supported response for each other one, a
    ``<=`` row against it for each unsupported response; then ``Σ = 1``."""
    rows = []
    for cell in cells:
        tied = [a for a in cell if a in sup]
        for a in cell:
            if tied and a != tied[0]:
                coefs = tuple(pay[a][j] - pay[tied[0]][j] for j in over)
                rows.append((coefs, "=" if a in sup else "<=", 0))
    rows.append((tuple([1] * len(over)), "=", 1))
    return tuple(rows)


def p1_lps(u2, rsup, csup, objective) -> list[LinearProgram]:
    """The P1 program of a support pair in both forms, pairwise then tied:
    row mixtures over ``rsup`` keeping every ``csup`` column a best response
    to the column player, maximizing ``objective``."""
    pay = list(zip(*u2))  # column c's payoff against row r is pay[c][r]
    cells = (range(len(pay)),)
    return [
        LinearProgram(tuple(objective), rows(pay, rsup, csup, cells), len(rsup))
        for rows in (pairwise_rows, tie_rows)
    ]


def _tie_heavy_games():
    rng = random.Random(1212)
    for trial in range(30):
        m, n = rng.choice([(3, 3), (4, 3), (3, 4), (4, 2), (5, 3)])
        u1 = [[F(rng.randint(0, 2)) for _ in range(n)] for _ in range(m)]
        u2 = [[F(rng.randint(0, 2)) for _ in range(n)] for _ in range(m)]
        if trial % 2:
            u1[-1] = list(u1[0])  # a duplicated row: its tie rows are all zero
        partition = [
            SISPartition.one_cell(m),
            SISPartition.singletons(m),
            SISPartition.round_robin(m, 2),
        ][trial % 3]
        yield Game(u1, u2, partition)
    yield gen_x3c_game(X3CInstance(3, [(0, 1, 2)]))


def _assert_same_vertices(got, want, mode, case):
    """Equal vertex sets; in float mode each vertex within 1e-9 of one of
    the other set."""
    if mode == "exact":
        assert len(got) == len(set(got)) and set(got) == set(want), case
        return
    assert len(got) == len(want), case
    for a, b in ((got, want), (want, got)):
        for v in a:
            assert any(all(abs(x - y) <= 1e-9 for x, y in zip(v, w)) for w in b), case


class TestP2Polytope:
    """The solver's tie rows against the pairwise ``<=`` form, on both sides
    of every support pair: P2 (column mixtures, the game's cells) and P1
    (row mixtures, one cell of all columns)."""

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_equality_ties_give_the_two_inequality_vertices(self, mode):
        for g, game in enumerate(_tie_heavy_games()):
            search = solvers._SupportSearch(game, mode)
            cells = game.partition.cells
            for rsup, csup in solvers._support_pairs(game.num_rows, game.num_cols):
                got = enumerate_vertices(search._p2_polytope(rsup, csup), mode)
                rows = pairwise_rows(search.u1, csup, rsup, cells)
                want = enumerate_vertices(Polytope(len(csup), rows), mode)
                _assert_same_vertices(got, want, mode, (g, rsup, csup))

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_p1_ties_give_the_pairwise_vertices(self, mode):
        for g, game in enumerate(_tie_heavy_games()):
            search = solvers._SupportSearch(game, mode)
            pay = list(zip(*search.u2))  # column c's payoff against row r is pay[c][r]
            cols = (range(game.num_cols),)
            for rsup, csup in solvers._support_pairs(game.num_rows, game.num_cols):
                tied = search._p1_lp(rsup, csup, [0] * len(rsup)).constraints
                got = enumerate_vertices(Polytope(len(rsup), tied), mode)
                rows = pairwise_rows(pay, rsup, csup, cols)
                want = enumerate_vertices(Polytope(len(rsup), rows), mode)
                _assert_same_vertices(got, want, mode, (g, rsup, csup))
