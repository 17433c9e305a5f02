"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Exact-value checks run in rational mode with zero tolerance;
random-game checks run in float mode with the stated tolerances.
"""

import random
from fractions import Fraction as F

from test_deviations import scipy_max_deviation_gain
from test_solvers import stackelberg_per_column

from partialcommit.deviations import (
    DeviationPlan,
    SignalModel,
    find_deviation,
    plan_gain,
    plan_is_undetectable,
    verify_mixed,
)
from partialcommit.experiment import ExperimentConfig, emit_csv, experiment_values, run_experiment
from partialcommit.games import MixedProfile, SISPartition, expected_utilities
from partialcommit.instances import (
    EXAMPLE_4X2,
    SIGNALING_5X4,
    WEAKSIG_6X4,
    X3CInstance,
    gen_close_to_full,
    gen_close_to_none,
    gen_example,
    gen_random,
    gen_x3c_game,
    gen_x3c_satisfiable,
    gen_x3c_unsatisfiable,
    nine_atom_profile,
    solve_x3c_bruteforce,
)
from partialcommit.solvers import (
    solve_best_nash,
    solve_max_ce,
    solve_selo,
    solve_seslo,
    solve_stackelberg,
)

TOL = 1e-7


def _all_partitions(num_rows):
    """Every set partition of the row indices."""
    if num_rows == 1:
        yield [[0]]
        return
    for smaller in _all_partitions(num_rows - 1):
        last = num_rows - 1
        for i in range(len(smaller)):
            yield smaller[:i] + [smaller[i] + [last]] + smaller[i + 1 :]
        yield smaller + [[last]]


def test_criterion_1_exact_paper_values():
    g2 = gen_example(EXAMPLE_4X2)
    assert solve_selo(g2).value == F(7, 2)
    assert solve_stackelberg(g2).value == F(13, 2)
    assert solve_selo(g2.with_partition(SISPartition.singletons(4))).value == F(13, 2)
    assert solve_best_nash(g2).value == 2
    assert solve_selo(g2.with_partition(SISPartition.one_cell(4))).value == 2

    g4 = gen_example(SIGNALING_5X4)
    assert solve_seslo(g4).value == F(19, 3)
    assert solve_seslo(g4.with_partition(SISPartition.one_cell(5))).value == 1
    assert solve_selo(g4).value == 1

    g6 = gen_example(WEAKSIG_6X4)
    assert solve_seslo(g6).value == 2
    print("ACCEPTANCE 1 (exact paper values): PASS")


def test_criterion_2_deviation_exact_checks():
    g6 = gen_example(WEAKSIG_6X4)
    p6 = nine_atom_profile(WEAKSIG_6X4)

    # the handwritten relabeling: swap the mimic rows up, dilute the top rows
    h = F(1, 2)
    explicit = DeviationPlan(
        SignalModel.NO_REVEAL,
        [
            [h, 0, 0, 0, h, 0],
            [0, h, 0, 0, 0, h],
            [0, 0, h, h, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [1, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
        ],
        F(1, 3),
    )
    assert plan_gain(g6, p6, explicit) == F(1, 3)
    assert plan_is_undetectable(g6, p6, explicit)

    best = find_deviation(g6, p6, SignalModel.NO_REVEAL)
    assert best.gain >= F(1, 3)
    oracle = scipy_max_deviation_gain(g6, p6, SignalModel.NO_REVEAL)
    assert abs(float(best.gain) - oracle) < 1e-9
    assert best.gain == F(1, 3)  # frozen after oracle confirmation

    assert find_deviation(g6, p6, SignalModel.PUBLIC_REVEAL).gain == 0

    g4 = gen_example(SIGNALING_5X4)
    p4 = nine_atom_profile(SIGNALING_5X4)
    rks = find_deviation(g4, p4, SignalModel.ROW_KNOWS_COLUMN_SIGNAL)
    oracle4 = scipy_max_deviation_gain(g4, p4, SignalModel.ROW_KNOWS_COLUMN_SIGNAL)
    assert abs(float(rks.gain) - oracle4) < 1e-9
    assert rks.gain == 4  # 31/3 attainable against 19/3 baseline
    print("ACCEPTANCE 2 (deviation analysis exact checks): PASS")


def test_criterion_3_x3c_reduction_equivalence():
    instances = [X3CInstance(3, [(0, 1, 2)])]
    for extras in (0, 1, 2, 3):
        for seed in range(6):
            instances.append(gen_x3c_satisfiable(6, extras, seed=seed * 7 + extras))
    for count in (2, 3, 4, 5):
        for seed in range(7):
            instances.append(gen_x3c_unsatisfiable(6, count, seed=seed * 13 + count))
    assert len(instances) >= 50

    positives = 0
    for inst in instances:
        game = gen_x3c_game(inst)
        has_cover = solve_x3c_bruteforce(inst)
        ceiling = solve_seslo(game, "float").value  # valid bound: signaling only helps
        value = solve_selo(game, "float", upper_bound=ceiling, allow_large=True).value
        assert (value > TOL) == has_cover, f"mismatch on {inst}"
        if has_cover:
            positives += 1
            assert value >= 1 - 1e-9
    assert positives >= 10 and positives < len(instances)
    print(
        f"ACCEPTANCE 3 (exact-cover reduction equivalence on {len(instances)} "
        f"instances, {positives} positive): PASS"
    )


def test_criterion_4_commitment_gap_families():
    eps = F(1, 10)
    for n in (2, 3):
        full = gen_close_to_full(n, eps)
        assert solve_stackelberg(full).value > 1 - eps
        for cells in _all_partitions(n):
            if len(cells) == n:
                continue  # only coarser-than-full partitions
            coarse = full.with_partition(SISPartition(cells, n))
            assert solve_seslo(coarse).value <= eps

        none = gen_close_to_none(n, eps)
        for cells in _all_partitions(n):
            if len(cells) != 2:
                continue
            two = none.with_partition(SISPartition(cells, n))
            assert solve_selo(two).value >= 1 - eps
        merged = none.with_partition(SISPartition.one_cell(n))
        assert solve_seslo(merged).value == 0
    print("ACCEPTANCE 4 (close-to-full / close-to-none gap families): PASS")


def test_criterion_5_proposition_suite_random_games():
    rng = random.Random(2024)
    sizes = [(3, 3)] * 120 + [(4, 4)] * 80
    for idx, (m, n) in enumerate(sizes):
        base = gen_random(m, n, 1, seed=10_000 + idx)
        cells = rng.randint(1, m)
        mid = base.with_partition(SISPartition.round_robin(m, cells))
        one = base.with_partition(SISPartition.one_cell(m))
        single = base.with_partition(SISPartition.singletons(m))

        seslo = {p: solve_seslo(g, "float") for p, g in
                 (("one", one), ("mid", mid), ("single", single))}
        selo = {p: solve_selo(g, "float") for p, g in
                (("one", one), ("mid", mid), ("single", single))}
        nash = solve_best_nash(base, "float")
        stack = solve_stackelberg(base, "float")
        ce = solve_max_ce(base, "float")

        for p in ("one", "mid", "single"):
            assert seslo[p].value >= selo[p].value - TOL  # signaling never hurts
        assert abs(selo["one"].value - nash.value) <= TOL
        assert abs(selo["single"].value - stack.value) <= TOL
        assert abs(seslo["one"].value - ce.value) <= TOL
        assert abs(seslo["single"].value - stack.value) <= TOL
        assert abs(stack.value - stackelberg_per_column(base, "float")) <= TOL
        # refinement chain one-cell -> round-robin -> singletons
        assert seslo["mid"].value >= seslo["one"].value - TOL
        assert seslo["single"].value >= seslo["mid"].value - TOL
        assert selo["mid"].value >= selo["one"].value - TOL
        assert selo["single"].value >= selo["mid"].value - TOL
        for report in (*seslo.values(), *selo.values(), nash, stack, ce):
            assert report.verifier_passed, f"witness failed verification on game {idx}"
    print(f"ACCEPTANCE 5 (proposition suite on {len(sizes)} random games): PASS")


def _grid_distributions(parts, denom):
    def compositions(total, k):
        if k == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, k - 1):
                yield (first,) + rest

    return [tuple(x / denom for x in comp) for comp in compositions(denom, parts)]


def test_criterion_6_grid_oracle_certification():
    grid3 = _grid_distributions(3, 6)
    rng = random.Random(77)
    for idx in range(20):
        m = n = 3
        game = gen_random(m, n, rng.randint(1, m), seed=20_000 + idx)
        best = solve_selo(game, "float").value
        passing = 0
        for s1 in grid3:
            for s2 in grid3:
                prof = MixedProfile(s1, s2, "float")
                if verify_mixed(game, prof, "float").passed:
                    passing += 1
                    value = expected_utilities(game, prof)[0]
                    assert value <= best + TOL, (
                        f"grid profile beats the solver on game {idx}: {value} > {best}"
                    )
    print("ACCEPTANCE 6 (1/6-grid oracle certification on 20 games): PASS")


def test_criterion_7_experiment_reproduction(tmp_path):
    config = ExperimentConfig(
        sizes=((4, 4),), games_per_point=300, sis_counts=(1, 2, 4), base_seed=424242
    )
    values = experiment_values(config)
    for i in range(config.games_per_point):
        v1 = values[(4, 4, 1)][i]
        v2 = values[(4, 4, 2)][i]
        v4 = values[(4, 4, 4)][i]
        assert v2 >= v1 - 1e-9 and v4 >= v2 - 1e-9  # hard per-game monotonicity

    rows = run_experiment(config)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(rows, a)
    emit_csv(run_experiment(config), b)
    assert a.read_bytes() == b.read_bytes()  # hard determinism

    mean = {row.sis_count: row.mean for row in rows}
    gain_12 = mean[2] - mean[1]
    gain_14 = mean[4] - mean[1]
    advisory_ok = gain_12 >= 0.5 * gain_14
    print(
        f"ADVISORY (criterion 7): first split captures "
        f"{gain_12 / gain_14 * 100 if gain_14 else 100:.1f}% of the full-commitment gain "
        f"({'meets' if advisory_ok else 'below'} the 50% expectation)"
    )
    print("ACCEPTANCE 7 (experiment reproduction, determinism + monotonicity): PASS")
