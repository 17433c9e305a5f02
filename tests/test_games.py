import json
import random
from fractions import Fraction as F

import pytest

from partialcommit.errors import (
    DimensionMismatch,
    EmptyGame,
    NonFiniteNumber,
    PartitionInvalid,
    UniverseMismatch,
)
from partialcommit.games import (
    CorrelatedProfile,
    Game,
    MixedProfile,
    SISPartition,
    conditional_sis_given_column,
    correlated_utilities,
    expected_utilities,
    game_to_dict,
    is_refinement,
    load_game,
    parse_number,
    profile_from_dict,
    save_game,
    sis_mass,
    validate_game,
)
from partialcommit.deviations import embed_mixed_as_correlated
from partialcommit.instances import (
    EXAMPLE_4X2,
    SIGNALING_5X4,
    WEAKSIG_6X4,
    gen_example,
    nine_atom_profile,
)


def _example_raw():
    return {
        "u1": [[7, 2], [6, 0], [5, 0], [4, 1]],
        "u2": [[0, 1], [1, 0], [0, 1], [1, 0]],
        "partition": [[0, 1], [2, 3]],
    }


class TestValidateGame:
    def test_example_game_valid(self):
        game = validate_game(_example_raw())
        assert game.num_rows == 4 and game.num_cols == 2
        assert len(game.partition) == 2
        assert game.partition.cells == ((0, 1), (2, 3))

    def test_partition_missing_row(self):
        raw = _example_raw()
        raw["partition"] = [[0, 1], [2]]
        with pytest.raises(PartitionInvalid):
            validate_game(raw)

    def test_partition_duplicate_row(self):
        raw = _example_raw()
        raw["partition"] = [[0, 1], [1, 2, 3]]
        with pytest.raises(PartitionInvalid):
            validate_game(raw)

    def test_partition_out_of_range(self):
        raw = _example_raw()
        raw["partition"] = [[0, 1], [2, 3, 4]]
        with pytest.raises(PartitionInvalid):
            validate_game(raw)

    def test_one_by_one(self):
        game = validate_game({"u1": [[5]], "u2": [[7]], "partition": [[0]]})
        assert game.num_rows == game.num_cols == 1

    def test_shape_mismatch(self):
        raw = _example_raw()
        raw["u2"] = [[0, 1], [1, 0], [0, 1]]
        with pytest.raises(DimensionMismatch):
            validate_game(raw)

    def test_empty(self):
        with pytest.raises(EmptyGame):
            validate_game({"u1": [], "u2": [], "partition": []})

    def test_non_finite_payoffs_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(NonFiniteNumber):
                Game([[bad, 1], [0, 1]], [[0, 1], [1, 0]], SISPartition.one_cell(2))
            with pytest.raises(NonFiniteNumber):
                Game([[1, 1], [0, 1]], [[0, 1], [1, bad]], SISPartition.one_cell(2))
            raw = _example_raw()
            raw["u2"][3][1] = bad
            with pytest.raises(NonFiniteNumber):
                validate_game(raw)


class TestNumbers:
    def test_decimal_token_is_exact(self):
        assert parse_number(0.25) == F(1, 4)
        assert parse_number(0.1) == F(1, 10)

    def test_fraction_token(self):
        assert parse_number("19/3") == F(19, 3)
        assert parse_number("-1/2") == F(-1, 2)

    def test_bad_tokens(self):
        for bad in ("19:3", "1/0", "1/-2", None, True):
            with pytest.raises(ValueError):
                parse_number(bad)


class TestUtilities:
    def test_half_a_half_d(self):
        game = gen_example(EXAMPLE_4X2)
        prof = MixedProfile([F(1, 2), 0, 0, F(1, 2)], [F(1, 2), F(1, 2)])
        v1, _ = expected_utilities(game, prof)
        assert v1 == F(7, 2)

    def test_pure_a_B(self):
        game = gen_example(EXAMPLE_4X2)
        prof = MixedProfile([1, 0, 0, 0], [0, 1])
        assert expected_utilities(game, prof) == (2, 1)

    def test_point_masses_give_matrix_entry(self):
        rng = random.Random(0)
        game = gen_example(SIGNALING_5X4)
        for _ in range(10):
            r = rng.randrange(5)
            c = rng.randrange(4)
            s1 = [0] * 5
            s1[r] = 1
            s2 = [0] * 4
            s2[c] = 1
            assert expected_utilities(game, MixedProfile(s1, s2)) == (
                game.u1[r][c],
                game.u2[r][c],
            )

    def test_correlated_paper_values(self):
        g4 = gen_example(SIGNALING_5X4)
        assert correlated_utilities(g4, nine_atom_profile(SIGNALING_5X4))[0] == F(19, 3)
        g6 = gen_example(WEAKSIG_6X4)
        assert correlated_utilities(g6, nine_atom_profile(WEAKSIG_6X4))[0] == 2
        point = [[0] * 4 for _ in range(5)]
        point[4][3] = 1  # the (e, D) outcome
        assert correlated_utilities(g4, CorrelatedProfile(point))[0] == 1

    def test_dimension_mismatch(self):
        game = gen_example(EXAMPLE_4X2)
        with pytest.raises(DimensionMismatch):
            expected_utilities(game, MixedProfile([1, 0], [1, 0]))

    def test_outer_product_identity(self):
        rng = random.Random(1)
        game = gen_example(EXAMPLE_4X2)
        for _ in range(20):
            s1 = [F(rng.randint(0, 4)) for _ in range(4)]
            s2 = [F(rng.randint(0, 4)) for _ in range(2)]
            if sum(s1) == 0 or sum(s2) == 0:
                continue
            prof = MixedProfile([x / sum(s1) for x in s1], [x / sum(s2) for x in s2])
            assert expected_utilities(game, prof) == correlated_utilities(
                game, embed_mixed_as_correlated(prof)
            )


class TestSisMass:
    def test_paper_example(self):
        part = SISPartition([[0, 1], [2, 3]], 4)
        assert sis_mass([F(1, 2), 0, 0, F(1, 2)], part) == [F(1, 2), F(1, 2)]

    def test_round_robin_uniform(self):
        part = SISPartition([[0, 2], [1, 3]], 4)
        assert sis_mass([F(1, 4)] * 4, part) == [F(1, 2), F(1, 2)]

    def test_point_mass_singletons(self):
        part = SISPartition.singletons(4)
        assert sis_mass([1, 0, 0, 0], part) == [1, 0, 0, 0]

    def test_total_mass_preserved(self):
        rng = random.Random(2)
        for _ in range(20):
            m = rng.randint(1, 7)
            weights = [F(rng.randint(0, 5)) for _ in range(m)]
            cells = SISPartition.round_robin(m, rng.randint(1, m))
            assert sum(sis_mass(weights, cells)) == sum(weights)


class TestConditionalSis:
    def test_weaksig_column_A(self):
        game = gen_example(WEAKSIG_6X4)
        prof = nine_atom_profile(WEAKSIG_6X4)
        cond = conditional_sis_given_column(prof, game.partition, 0)
        assert cond == [F(2, 3), F(1, 3)]

    def test_no_mass_column(self):
        game = gen_example(WEAKSIG_6X4)
        prof = nine_atom_profile(WEAKSIG_6X4)
        assert conditional_sis_given_column(prof, game.partition, 3) is None

    def test_product_profile_matches_sis_mass(self):
        part = SISPartition([[0, 1], [2]], 3)
        s1 = [F(1, 2), F(1, 4), F(1, 4)]
        s2 = [F(1, 3), 0, F(2, 3)]
        prof = embed_mixed_as_correlated(MixedProfile(s1, s2))
        masses = sis_mass(s1, part)
        for c in range(3):
            cond = conditional_sis_given_column(prof, part, c)
            if s2[c] == 0:
                assert cond is None
            else:
                assert cond == masses

    def test_sums_to_one_when_present(self):
        game = gen_example(SIGNALING_5X4)
        prof = nine_atom_profile(SIGNALING_5X4)
        for c in range(4):
            cond = conditional_sis_given_column(prof, game.partition, c)
            if cond is not None:
                assert sum(cond) == 1


class TestRefinement:
    def test_singletons_refine_everything(self):
        coarse = SISPartition([[0, 2], [1, 3]], 4)
        assert is_refinement(SISPartition.singletons(4), coarse)

    def test_pairs_refine_one_cell(self):
        assert is_refinement(SISPartition([[0, 2], [1, 3]], 4), SISPartition.one_cell(4))

    def test_round_robin_incomparable(self):
        k3 = SISPartition.round_robin(4, 3)  # {{0,3},{1},{2}}
        k2 = SISPartition.round_robin(4, 2)  # {{0,2},{1,3}}
        assert k3.cells == ((0, 3), (1,), (2,))
        assert not is_refinement(k3, k2)

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatch):
            is_refinement(SISPartition.singletons(3), SISPartition.singletons(4))

    def test_reflexive_and_transitive(self):
        rng = random.Random(3)
        for _ in range(25):
            m = rng.randint(1, 6)
            fine = SISPartition.round_robin(m, m)  # singletons
            mid = SISPartition.round_robin(m, rng.randint(1, m))
            coarse = SISPartition.one_cell(m)
            for p in (fine, mid, coarse):
                assert is_refinement(p, p)
            assert is_refinement(fine, mid) and is_refinement(mid, coarse)
            assert is_refinement(fine, coarse)


class TestJsonFormats:
    def test_game_round_trip(self, tmp_path):
        game = gen_example(SIGNALING_5X4)
        path = tmp_path / "game.json"
        save_game(game, path)
        again = load_game(path)
        assert again.u1 == game.u1 and again.u2 == game.u2
        assert again.partition.cells == game.partition.cells

    def test_decimal_and_fraction_tokens(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({
            "u1": [[0.5, "1/3"]], "u2": [[1, 0]], "partition": [[0]],
        }))
        game = load_game(path)
        assert game.u1[0] == (F(1, 2), F(1, 3))

    def test_mixed_profile_dict(self):
        prof = profile_from_dict({"sigma1": ["1/2", "1/2"], "sigma2": [1, 0]})
        assert isinstance(prof, MixedProfile)
        assert prof.sigma1 == (F(1, 2), F(1, 2))

    def test_correlated_profile_dict(self):
        prof = profile_from_dict({"p": [["1/2", 0], [0, "1/2"]]})
        assert isinstance(prof, CorrelatedProfile)
        assert prof.p[0][0] == F(1, 2)

    def test_bad_profile_dict(self):
        with pytest.raises(DimensionMismatch):
            profile_from_dict({"sigma1": [1]})

    def test_exact_distribution_must_sum_to_one(self):
        with pytest.raises(DimensionMismatch):
            MixedProfile([F(1, 2), F(1, 3)], [1])

    def test_float_mode_renormalizes(self):
        prof = MixedProfile([0.5 + 4e-10, 0.5], [1.0], mode="float")
        assert abs(sum(prof.sigma1) - 1.0) < 1e-15

    def test_game_to_dict_tokens(self):
        game = gen_example(SIGNALING_5X4)
        d = game_to_dict(game)
        assert d["u1"][0][1] == 12
        assert d["partition"] == [[0, 1, 2, 3], [4]]


class TestInMode:
    """A profile already in the asked mode is returned as it is."""

    def test_float_profiles_are_not_renormalized(self):
        p = CorrelatedProfile([[0.1, 0.2], [0.3, 0.4]], "float")
        assert p.in_mode("float") is p
        mixed = MixedProfile([0.1, 0.2, 0.7], [0.3, 0.3, 0.4], "float")
        assert mixed.in_mode("float") is mixed

    def test_exact_profiles_are_returned_as_they_are(self):
        p = nine_atom_profile(SIGNALING_5X4)
        assert p.in_mode("exact") is p
        mixed = MixedProfile([F(1, 3), F(2, 3)], [1, 0])
        assert mixed.in_mode("exact") is mixed

    def test_other_mode_converts(self):
        p = CorrelatedProfile([[F(1, 4), F(3, 4)]])
        assert p.in_mode("float").p == ((0.25, 0.75),)
        assert p.in_mode("float").in_mode("exact").p == p.p
        mixed = MixedProfile([0.25, 0.75], [1.0], "float")
        assert mixed.in_mode("exact").sigma1 == (F(1, 4), F(3, 4))
        with pytest.raises(ValueError):
            p.in_mode("decimal")
