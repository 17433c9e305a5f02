import pytest

from partialcommit.errors import InvalidParams
from partialcommit.experiment import (
    ExperimentConfig,
    derive_seed,
    emit_csv,
    emit_svg,
    experiment_values,
    run_experiment,
)
from partialcommit.instances import gen_random
from partialcommit.solvers import solve_max_ce, solve_seslo


def _small_config(**overrides):
    base = dict(sizes=((3, 3),), games_per_point=6, base_seed=11)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_rows_shape_and_bounds(self):
        rows = run_experiment(_small_config())
        assert len(rows) == 3  # sis_counts default 1..m
        for row in rows:
            assert row.games == 6
            assert 0.0 <= row.mean <= 1.0
            assert row.std >= 0.0

    def test_determinism(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_experiment(_small_config()), p1)
        emit_csv(run_experiment(_small_config()), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_game_rematerializable_from_seed(self):
        config = _small_config()
        seed = derive_seed(config.base_seed, 3, 3, 4)
        game = gen_random(3, 3, 1, seed)
        value = float(solve_seslo(game, "float").value)
        values = experiment_values(config)
        assert values[(3, 3, 1)][4] == value

    def test_payoffs_shared_across_counts(self):
        # per-game value can only improve with a finer round-robin chain
        config = _small_config(sizes=((4, 3),), sis_counts=(1, 2, 4))
        values = experiment_values(config)
        for i in range(config.games_per_point):
            v1 = values[(4, 3, 1)][i]
            v2 = values[(4, 3, 2)][i]
            v4 = values[(4, 3, 4)][i]
            assert v2 >= v1 - 1e-9
            assert v4 >= v2 - 1e-9

    def test_one_cell_matches_max_ce(self):
        config = _small_config()
        values = experiment_values(config)
        for i in range(config.games_per_point):
            seed = derive_seed(config.base_seed, 3, 3, i)
            game = gen_random(3, 3, 1, seed)
            assert values[(3, 3, 1)][i] == float(solve_max_ce(game, "float").value)

    def test_mean_within_observed_range(self):
        config = _small_config()
        values = experiment_values(config)
        for row in run_experiment(config):
            vals = values[(row.m, row.n, row.sis_count)]
            assert min(vals) <= row.mean <= max(vals)

    def test_config_validation(self):
        with pytest.raises(InvalidParams):
            ExperimentConfig(sizes=((3, 3),), games_per_point=0)
        with pytest.raises(InvalidParams):
            ExperimentConfig(sizes=())
        with pytest.raises(InvalidParams):
            ExperimentConfig(sizes=((3, 3),), sis_counts=(4,))
        with pytest.raises(InvalidParams):
            ExperimentConfig(sizes=((3, 3),), sis_counts=(1, 2, 1))


class TestOutputs:
    def test_csv_format(self, tmp_path):
        rows = run_experiment(_small_config(sizes=((4, 4),), games_per_point=2))
        path = tmp_path / "out.csv"
        emit_csv(rows, path)
        text = path.read_text()
        lines = text.split("\n")
        assert lines[0] == "m,n,sis_count,games,mean,std,seed"
        assert len(lines) == 6  # header + 4 data rows + trailing newline
        assert "\r" not in text
        first = lines[1].split(",")
        assert first[0] == "4" and first[2] == "1" and first[6] == "11"

    def test_svg_one_polyline_per_size(self, tmp_path):
        config = ExperimentConfig(
            sizes=((3, 3), (2, 4)), games_per_point=2, sis_counts=(1, 2), base_seed=5
        )
        rows = run_experiment(config)
        path = tmp_path / "out.svg"
        emit_svg(rows, path)
        text = path.read_text()
        assert text.count("<polyline") == 2
        assert "3x3" in text and "2x4" in text

    def test_empty_rows_error(self, tmp_path):
        with pytest.raises(InvalidParams):
            emit_csv([], tmp_path / "x.csv")
        with pytest.raises(InvalidParams):
            emit_svg([], tmp_path / "x.svg")
        assert not (tmp_path / "x.csv").exists()
