import random
from fractions import Fraction as F

import pytest
from scipy.optimize import linprog as scipy_linprog

from partialcommit import deviations
from partialcommit.deviations import (
    DeviationPlan,
    SignalModel,
    apply_plan,
    embed_mixed_as_correlated,
    find_deviation,
    plan_gain,
    plan_is_undetectable,
    verify_correlated,
    verify_mixed,
)
from partialcommit.games import (
    FLOAT_TOL,
    CorrelatedProfile,
    Game,
    MixedProfile,
    SISPartition,
    conditional_sis_given_column,
)
from partialcommit.instances import (
    EXAMPLE_4X2,
    SHAPLEY,
    SIGNALING_5X4,
    WEAKSIG_6X4,
    gen_example,
    gen_random,
    nine_atom_profile,
)
from partialcommit.linprog import OPTIMAL, LinearProgram, solve_lp
from partialcommit.solvers import solve_seslo


def scipy_max_deviation_gain(game, profile, model) -> float:
    """Independent LP construction and solve for the best-plan gain.

    Built directly from the definitions with scipy/HiGHS, sharing no code
    with the package's formulation.
    """
    m, n = game.num_rows, game.num_cols
    p = [[float(x) for x in row] for row in profile.p]
    u1 = [[float(x) for x in row] for row in game.u1]
    cells = game.partition.cells
    cell_of = {r: cell for cell in cells for r in cell}
    conditioned = model is SignalModel.ROW_KNOWS_COLUMN_SIGNAL

    if conditioned:
        keys = [(r, c, r2) for r in range(m) for c in range(n) for r2 in range(m)]
    else:
        keys = [(r, r2) for r in range(m) for r2 in range(m)]
    index = {k: i for i, k in enumerate(keys)}
    nv = len(keys)

    c_obj = [0.0] * nv
    for k, i in index.items():
        if conditioned:
            r, c, r2 = k
            c_obj[i] = -p[r][c] * u1[r2][c]
        else:
            r, r2 = k
            c_obj[i] = -sum(p[r][c] * u1[r2][c] for c in range(n))

    A_eq, b_eq = [], []
    if conditioned:
        for r in range(m):
            for c in range(n):
                row = [0.0] * nv
                for r2 in range(m):
                    row[index[(r, c, r2)]] = 1.0
                A_eq.append(row)
                b_eq.append(1.0)
    else:
        for r in range(m):
            row = [0.0] * nv
            for r2 in range(m):
                row[index[(r, r2)]] = 1.0
            A_eq.append(row)
            b_eq.append(1.0)

    if model is SignalModel.PUBLIC_REVEAL:
        bounds = []
        for k in keys:
            r, r2 = k
            bounds.append((0.0, 1.0 if r2 in cell_of[r] else 0.0))
    else:
        bounds = [(0.0, 1.0)] * nv
        for c in range(n):
            if sum(p[r][c] for r in range(m)) <= 0:
                continue
            for cell in cells:
                row = [0.0] * nv
                for r in range(m):
                    for r2 in cell:
                        key = (r, c, r2) if conditioned else (r, r2)
                        row[index[key]] += p[r][c]
                A_eq.append(row)
                b_eq.append(sum(p[r][c] for r in cell))

    res = scipy_linprog(c_obj, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs")
    assert res.status == 0
    baseline = sum(p[r][c] * u1[r][c] for r in range(m) for c in range(n))
    return -res.fun - baseline


class TestVerifyMixed:
    def test_half_c_half_d_passes(self):
        game = gen_example(EXAMPLE_4X2)
        prof = MixedProfile([0, 0, F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)])
        report = verify_mixed(game, prof)
        assert report.passed
        assert report.max_column_gain == 0 and report.max_row_gain == 0

    def test_half_a_half_b_fails_with_half_gain(self):
        game = gen_example(EXAMPLE_4X2)
        prof = MixedProfile([F(1, 2), F(1, 2), 0, 0], [1, 0])
        report = verify_mixed(game, prof)
        assert not report.passed
        assert report.max_row_gain == F(1, 2)
        plan = report.row_witness
        assert isinstance(plan, DeviationPlan)
        assert plan_gain(game, embed_mixed_as_correlated(prof), plan) == F(1, 2)

    def test_dominant_pure_outcome_passes_any_partition(self):
        game = gen_example(EXAMPLE_4X2)
        prof = MixedProfile([1, 0, 0, 0], [0, 1])
        for part in (game.partition, SISPartition.one_cell(4), SISPartition.singletons(4)):
            assert verify_mixed(game.with_partition(part), prof).passed

    def test_column_deviation_detected(self):
        game = gen_example(EXAMPLE_4X2)
        prof = MixedProfile([1, 0, 0, 0], [1, 0])  # column should play B against a
        report = verify_mixed(game, prof)
        assert not report.passed
        assert report.max_column_gain == 1
        assert report.column_witness == (0, 1)


class TestVerifyCorrelated:
    def test_signaling_profile_passes(self):
        game = gen_example(SIGNALING_5X4)
        assert verify_correlated(game, nine_atom_profile(SIGNALING_5X4)).passed

    def test_shapley_six_atom_passes(self):
        game = gen_example(SHAPLEY)
        w = F(1, 6)
        p = [[0, w, w], [w, 0, w], [w, w, 0]]
        assert verify_correlated(game, CorrelatedProfile(p)).passed

    def test_singleton_partition_removes_row_constraints(self):
        game = gen_example(SIGNALING_5X4).with_partition(SISPartition.singletons(5))
        assert verify_correlated(game, nine_atom_profile(SIGNALING_5X4)).passed

    def test_failing_profile_reports_pair(self):
        game = gen_example(SIGNALING_5X4)
        p = [[0] * 4 for _ in range(5)]
        p[3][0] = 1  # recommend (d, A): d is dominated by e within its cell? no: d,e differ
        report = verify_correlated(game, CorrelatedProfile(p))
        assert not report.passed
        assert report.max_row_gain > 0 or report.max_column_gain > 0

    def test_checks_the_witness_as_reported(self):
        # this float SESLO witness does not sum to exactly 1.0, so converting
        # it to float mode again would renormalize it and change last bits
        game = gen_random(4, 4, 1, seed=4)
        witness = solve_seslo(game, "float").witness
        assert witness.in_mode("float") is witness
        u2 = game.payoffs_in_mode("float")[1]
        p = witness.p
        col_gain = max(
            sum(p[r][c] * (u2[r][c2] - u2[r][c]) for r in range(4))
            for c in range(4)
            for c2 in range(4)
            if c2 != c
        )
        assert col_gain > 0
        assert verify_correlated(game, witness, "float").max_column_gain == col_gain

    def test_matches_public_reveal_deviation_sign(self):
        rng = random.Random(9)
        for trial in range(15):
            game = gen_random(3, 3, rng.randint(1, 3), seed=trial)
            weights = [[F(rng.randint(0, 3)) for _ in range(3)] for _ in range(3)]
            total = sum(sum(row) for row in weights)
            if total == 0:
                continue
            prof = CorrelatedProfile([[w / total for w in row] for row in weights])
            exact_game = Game(
                [[F(x) for x in row] for row in game.u1],
                [[F(x) for x in row] for row in game.u2],
                game.partition,
            )
            report = verify_correlated(exact_game, prof)
            gain = find_deviation(exact_game, prof, SignalModel.PUBLIC_REVEAL).gain
            assert report.passed == (gain <= 0 and report.max_column_gain <= 0)


class TestEmbedding:
    def test_point_mass(self):
        prof = MixedProfile([1, 0], [0, 1])
        assert embed_mixed_as_correlated(prof).p == ((0, 1), (0, 0))

    def test_quarter_atoms(self):
        prof = MixedProfile([F(1, 2), 0, 0, F(1, 2)], [F(1, 2), F(1, 2)])
        p = embed_mixed_as_correlated(prof).p
        assert p[0] == (F(1, 4), F(1, 4)) and p[3] == (F(1, 4), F(1, 4))

    def test_uniform_shapley(self):
        prof = MixedProfile([F(1, 3)] * 3, [F(1, 3)] * 3)
        assert all(x == F(1, 9) for row in embed_mixed_as_correlated(prof).p for x in row)

    def test_verified_mixed_stays_verified_embedded(self):
        # every 1/4-grid mixed profile that passes the mixed check must pass
        # the correlated check after embedding
        game = gen_example(EXAMPLE_4X2)
        grid4 = [
            [F(a, 4) for a in comp]
            for comp in _compositions(4, 4)
        ]
        grid2 = [[F(a, 4) for a in comp] for comp in _compositions(4, 2)]
        checked = 0
        for s1 in grid4:
            for s2 in grid2:
                prof = MixedProfile(s1, s2)
                if verify_mixed(game, prof).passed:
                    assert verify_correlated(game, embed_mixed_as_correlated(prof)).passed
                    checked += 1
        assert checked > 0


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


class TestFindDeviation:
    def test_no_reveal_paper_plan_gain(self):
        game = gen_example(WEAKSIG_6X4)
        prof = nine_atom_profile(WEAKSIG_6X4)
        h = F(1, 2)
        delta = [
            [h, 0, 0, 0, h, 0],
            [0, h, 0, 0, 0, h],
            [0, 0, h, h, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [1, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
        ]
        plan = DeviationPlan(SignalModel.NO_REVEAL, delta, F(1, 3))
        assert plan_gain(game, prof, plan) == F(1, 3)
        assert plan_is_undetectable(game, prof, plan)

    def test_no_reveal_max_gain(self):
        # the handwritten relabeling turns out to be optimal: the maximum is
        # exactly 1/3, confirmed by the independent scipy oracle
        game = gen_example(WEAKSIG_6X4)
        prof = nine_atom_profile(WEAKSIG_6X4)
        plan = find_deviation(game, prof, SignalModel.NO_REVEAL)
        oracle = scipy_max_deviation_gain(game, prof, SignalModel.NO_REVEAL)
        assert abs(float(plan.gain) - oracle) < 1e-9
        assert plan.gain == F(1, 3)
        assert plan.gain >= F(1, 3)
        assert plan_is_undetectable(game, prof, plan)
        assert plan_gain(game, prof, plan) == plan.gain

    def test_public_reveal_gain_zero_on_seslo_witness(self):
        game = gen_example(WEAKSIG_6X4)
        prof = nine_atom_profile(WEAKSIG_6X4)
        plan = find_deviation(game, prof, SignalModel.PUBLIC_REVEAL)
        assert plan.gain == 0

    def test_row_knows_gain_four(self):
        game = gen_example(SIGNALING_5X4)
        prof = nine_atom_profile(SIGNALING_5X4)
        plan = find_deviation(game, prof, SignalModel.ROW_KNOWS_COLUMN_SIGNAL)
        oracle = scipy_max_deviation_gain(game, prof, SignalModel.ROW_KNOWS_COLUMN_SIGNAL)
        assert abs(float(plan.gain) - oracle) < 1e-9
        assert plan.gain == 4  # 31/3 achieved vs 19/3 baseline
        assert plan_is_undetectable(game, prof, plan)

    def test_gain_nonnegative_and_identity_feasible(self):
        rng = random.Random(21)
        for trial in range(8):
            game = gen_random(3, 3, rng.randint(1, 3), seed=100 + trial)
            weights = [[rng.randint(0, 3) for _ in range(3)] for _ in range(3)]
            total = sum(sum(r) for r in weights)
            if total == 0:
                continue
            prof = CorrelatedProfile(
                [[F(w, total) for w in row] for row in weights]
            )
            exact_game = Game(
                [[F(x) for x in row] for row in game.u1],
                [[F(x) for x in row] for row in game.u2],
                game.partition,
            )
            for model in SignalModel:
                plan = find_deviation(exact_game, prof, model)
                assert plan.gain >= 0
                assert plan_gain(exact_game, prof, plan) == plan.gain

    def test_model_power_ordering(self):
        cases = [
            (gen_example(WEAKSIG_6X4), nine_atom_profile(WEAKSIG_6X4)),
            (gen_example(SIGNALING_5X4), nine_atom_profile(SIGNALING_5X4)),
        ]
        rng = random.Random(33)
        for trial in range(6):
            m, n = rng.choice([(3, 3), (4, 2)])
            game = gen_random(m, n, rng.randint(1, m), seed=200 + trial)
            exact_game = Game(
                [[F(x) for x in row] for row in game.u1],
                [[F(x) for x in row] for row in game.u2],
                game.partition,
            )
            weights = [[rng.randint(0, 3) for _ in range(n)] for _ in range(m)]
            total = sum(sum(r) for r in weights)
            if total == 0:
                continue
            cases.append((exact_game, CorrelatedProfile([[F(w, total) for w in row] for row in weights])))
        for game, prof in cases:
            g_pub = find_deviation(game, prof, SignalModel.PUBLIC_REVEAL).gain
            g_nor = find_deviation(game, prof, SignalModel.NO_REVEAL).gain
            g_rks = find_deviation(game, prof, SignalModel.ROW_KNOWS_COLUMN_SIGNAL).gain
            assert g_pub <= g_nor <= g_rks

    def test_returned_plans_preserve_conditionals(self):
        game = gen_example(WEAKSIG_6X4)
        prof = nine_atom_profile(WEAKSIG_6X4)
        for model in (SignalModel.NO_REVEAL, SignalModel.ROW_KNOWS_COLUMN_SIGNAL):
            plan = find_deviation(game, prof, model)
            deviated = apply_plan(prof, plan)
            for c in range(game.num_cols):
                before = conditional_sis_given_column(prof, game.partition, c)
                if before is None:
                    continue
                after = conditional_sis_given_column(deviated, game.partition, c)
                assert after == before

    def test_plan_row_sums_validated(self):
        with pytest.raises(Exception):
            DeviationPlan(SignalModel.NO_REVEAL, [[F(1, 2), 0], [0, 1]], 0)


def retired_deviation_lp(game, profile, model, mode) -> LinearProgram:
    """The LP ``find_deviation`` solved for ``model`` before its closed form,
    kept as an oracle: public-reveal over the within-cell pairs (r, r2),
    row-knows over every (r, c, r2), keeping each column's cell masses."""
    u1, _ = game.payoffs_in_mode(mode)
    p = profile.in_mode(mode).p
    m, n = game.num_rows, game.num_cols
    if model is SignalModel.PUBLIC_REVEAL:
        keys = sorted((r, r2) for cell in game.partition.cells for r in cell for r2 in cell)
        obj = [sum(p[r][c] * u1[r2][c] for c in range(n)) for r, r2 in keys]
        cons = [(tuple(int(k[0] == r) for k in keys), "=", 1) for r in range(m)]
    else:
        keys = [(r, c, r2) for r in range(m) for c in range(n) for r2 in range(m)]
        obj = [p[r][c] * u1[r2][c] for r, c, r2 in keys]
        cons = [
            (tuple(int(k[:2] == (r, c)) for k in keys), "=", 1) for r in range(m) for c in range(n)
        ]
        for c in range(n):
            if sum(p[r][c] for r in range(m)) <= (FLOAT_TOL if mode == "float" else 0):
                continue
            for cell in game.partition.cells:
                row = tuple(p[r][c] if c2 == c and r2 in cell else 0 for r, c2, r2 in keys)
                cons.append((row, "=", sum(p[r][c] for r in cell)))
    return LinearProgram(tuple(obj), tuple(cons), len(keys))


def lp_deviation_gain(game, profile, model, mode):
    """Best-plan gain by solving ``retired_deviation_lp``."""
    out = solve_lp(retired_deviation_lp(game, profile, model, mode), mode)
    assert out.status == OPTIMAL
    u1, _ = game.payoffs_in_mode(mode)
    p = profile.in_mode(mode).p
    return out.value - sum(p[r][c] * u1[r][c] for r in range(len(p)) for c in range(len(p[0])))


def _exact(game):
    return Game(*game.payoffs_in_mode("exact"), game.partition)


def _random_joint(rng, m, n):
    weights = [[rng.choice([0, 0, 1, 2, 3]) for _ in range(n)] for _ in range(m)]
    weights[rng.randrange(m)][rng.randrange(n)] += 1
    total = sum(map(sum, weights))
    return CorrelatedProfile([[F(w, total) for w in row] for row in weights])


def deviation_corpus():
    """Seeded (label, exact game, exact profile) triples: SESLO witnesses and
    random joint distributions on rounded 4x3 games and on 4x3 games with
    integer payoffs 0-2 (many ties), and the SESLO witnesses and nine-atom
    profiles of the example games."""
    rng = random.Random(2016)
    cases = []
    for i in range(20):
        for kind in ("rounded", "ties"):
            if kind == "rounded":
                draw = lambda: F(rng.random()).limit_denominator(100)  # noqa: E731
            else:
                draw = lambda: F(rng.randint(0, 2))  # noqa: E731
            u1 = [[draw() for _ in range(3)] for _ in range(4)]
            u2 = [[draw() for _ in range(3)] for _ in range(4)]
            game = Game(u1, u2, SISPartition.round_robin(4, rng.randint(1, 4)))
            cases.append((f"{kind}{i}/seslo", game, solve_seslo(game).witness))
            cases.append((f"{kind}{i}/joint", game, _random_joint(rng, 4, 3)))
    for name in (EXAMPLE_4X2, SHAPLEY, SIGNALING_5X4, WEAKSIG_6X4):
        game = _exact(gen_example(name))
        cases.append((f"{name}/seslo", game, solve_seslo(game).witness))
        cases.append((f"{name}/joint", game, _random_joint(rng, game.num_rows, game.num_cols)))
    for name in (SIGNALING_5X4, WEAKSIG_6X4):
        cases.append((f"{name}/nine-atom", _exact(gen_example(name)), nine_atom_profile(name)))
    return cases


CLOSED_FORM_MODELS = (SignalModel.PUBLIC_REVEAL, SignalModel.ROW_KNOWS_COLUMN_SIGNAL)


class TestClosedFormOracle:
    """The closed-form plans reach the optimum of the LPs they replaced."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return deviation_corpus()

    def test_corpus_size(self, corpus):
        assert len(corpus) * len(CLOSED_FORM_MODELS) >= 150

    @pytest.mark.parametrize("model", CLOSED_FORM_MODELS, ids=lambda m: m.value)
    def test_exact_gain_equals_lp(self, corpus, model):
        for label, game, prof in corpus:
            plan = find_deviation(game, prof, model)
            assert plan.gain == lp_deviation_gain(game, prof, model, "exact"), label
            assert plan_is_undetectable(game, prof, plan), label
            assert plan_gain(game, prof, plan) == plan.gain, label

    @pytest.mark.parametrize("model", CLOSED_FORM_MODELS, ids=lambda m: m.value)
    def test_float_gain_within_tolerance(self, corpus, model):
        for label, game, prof in corpus:
            prof = prof.in_mode("float")
            plan = find_deviation(game, prof, model, "float")
            assert abs(plan.gain - lp_deviation_gain(game, prof, model, "float")) <= 1e-9, label
            assert plan_is_undetectable(game, prof, plan, "float"), label
            assert abs(plan_gain(game, prof, plan, "float") - plan.gain) <= 1e-9, label


def _one_column_game(u1_column, cells):
    m = len(u1_column)
    return Game([[x] for x in u1_column], [[0]] * m, SISPartition(cells, m))


class TestPlanRule:
    """A row stays unless a row of its cell is strictly better; it then moves
    to the best row, lowest index on ties; zero-mass rows and pairs stay."""

    def test_ties_go_to_the_lower_index(self):
        game = _one_column_game([0, 5, 5], [[0, 1, 2]])
        prof = CorrelatedProfile([[1], [0], [0]])
        pub = find_deviation(game, prof, SignalModel.PUBLIC_REVEAL)
        assert pub.delta == ((0, 1, 0), (0, 1, 0), (0, 0, 1))
        rks = find_deviation(game, prof, SignalModel.ROW_KNOWS_COLUMN_SIGNAL)
        assert rks.delta == (((0, 1, 0),), ((0, 1, 0),), ((0, 0, 1),))
        assert pub.gain == rks.gain == 5

    def test_a_best_row_stays(self):
        # row 0 ties row 1 as best and has the lower index, yet row 1 stays
        game = _one_column_game([4, 4, 1], [[0, 1, 2]])
        prof = CorrelatedProfile([[0], [F(1, 2)], [F(1, 2)]])
        for model in CLOSED_FORM_MODELS:
            plan = find_deviation(game, prof, model)
            rows = plan.delta if model is SignalModel.PUBLIC_REVEAL else [b[0] for b in plan.delta]
            assert tuple(rows) == ((1, 0, 0), (0, 1, 0), (1, 0, 0))
            assert plan.gain == F(3, 2)

    def test_zero_mass_rows_and_pairs_stay(self):
        game = Game([[0, 0], [3, 3], [0, 0], [9, 9]], [[0, 0]] * 4, SISPartition([[0, 1], [2, 3]], 4))
        prof = CorrelatedProfile([[F(1, 2), 0], [0, 0], [0, F(1, 2)], [0, 0]])
        pub = find_deviation(game, prof, SignalModel.PUBLIC_REVEAL)
        assert pub.delta == ((0, 1, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 0, 1))
        rks = find_deviation(game, prof, SignalModel.ROW_KNOWS_COLUMN_SIGNAL)
        stay = [tuple(int(r2 == r) for r2 in range(4)) for r in range(4)]
        assert rks.delta == (
            ((0, 1, 0, 0), stay[0]),  # column 1 has no mass in row 0
            (stay[1], stay[1]),
            (stay[2], (0, 0, 0, 1)),
            (stay[3], stay[3]),
        )
        assert pub.gain == rks.gain == F(3, 2) + F(9, 2)

    def test_verify_mixed_witness_follows_the_same_rule(self):
        game = gen_example(EXAMPLE_4X2)
        prof = MixedProfile([F(1, 2), F(1, 2), 0, 0], [1, 0])
        witness = verify_mixed(game, prof).row_witness
        plan = find_deviation(game, embed_mixed_as_correlated(prof), SignalModel.PUBLIC_REVEAL)
        assert witness.delta == plan.delta and witness.gain == plan.gain


class TestNoLpForClosedForms:
    def test_only_no_reveal_solves_an_lp(self, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("solve_lp called")

        monkeypatch.setattr(deviations, "solve_lp", no_lp)
        game = gen_example(SIGNALING_5X4)
        prof = nine_atom_profile(SIGNALING_5X4)
        for mode in ("exact", "float"):
            assert find_deviation(game, prof, SignalModel.PUBLIC_REVEAL, mode).gain == 0
            gain = find_deviation(game, prof, SignalModel.ROW_KNOWS_COLUMN_SIGNAL, mode).gain
            assert gain == pytest.approx(4, abs=1e-9)
            with pytest.raises(AssertionError, match="solve_lp called"):
                find_deviation(game, prof, SignalModel.NO_REVEAL, mode)
