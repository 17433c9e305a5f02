import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from partialcommit import deviations, experiment, solvers
from partialcommit.cli import main
from partialcommit.errors import DimensionMismatch
from partialcommit.games import CorrelatedProfile, load_game, save_game, save_profile
from partialcommit.instances import (
    SHAPLEY,
    SIGNALING_5X4,
    WEAKSIG_6X4,
    gen_example,
    gen_random,
    nine_atom_profile,
)
from partialcommit.linprog import INFEASIBLE, UNBOUNDED, LpOutcome
from partialcommit.solvers import solve_seslo


def _last_json(capsys):
    out = capsys.readouterr().out
    return json.loads(out.strip().splitlines()[-1]), out


class TestSolve:
    def test_seslo_exact_value(self, tmp_path, capsys):
        path = tmp_path / "sig.json"
        save_game(gen_example(SIGNALING_5X4), path)
        code = main(["solve", "--concept", "seslo", "--game", str(path), "--mode", "exact"])
        payload, out = _last_json(capsys)
        assert code == 0
        assert payload["value"] == "19/3"
        assert payload["verifier_passed"] is True
        assert "value: 19/3" in out

    def test_file_round_trip_matches_in_memory(self, tmp_path, capsys):
        game = gen_example(WEAKSIG_6X4)
        path = tmp_path / "weak.json"
        save_game(game, path)
        main(["solve", "--concept", "seslo", "--game", str(path)])
        payload, _ = _last_json(capsys)
        assert payload["value"] == "2"
        assert solve_seslo(load_game(path)).value == solve_seslo(game).value

    def test_scale_guard_exit_code(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        save_game(gen_random(10, 10, 2, seed=1), path)
        code = main(["solve", "--concept", "selo", "--game", str(path), "--mode", "float"])
        assert code == 1
        assert "ScaleGuardExceeded" in capsys.readouterr().err

    def test_allow_large_flag(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        save_game(gen_random(8, 7, 8, seed=2), path)
        code = main([
            "solve", "--concept", "selo", "--game", str(path),
            "--mode", "float", "--allow-large",
        ])
        assert code == 0

    def test_missing_game_file(self, capsys):
        code = main(["solve", "--concept", "seslo", "--game", "/nonexistent.json"])
        assert code == 1


_GOOD_GAME = '{"u1": [[1, 0], [0, 1]], "u2": [[0, 1], [1, 0]], "partition": [[0, 1]]}'
_BAD_PROFILE = '{"sigma1": ["abc", "1/2"], "sigma2": ["1/2", "1/2"]}'


class TestMalformedInput:
    @pytest.mark.parametrize(
        "command, game_text, profile_text, error",
        [
            pytest.param(
                "solve",
                '{"u1": [[NaN, 1], [0, 1]], "u2": [[0, 1], [1, 0]], "partition": [[0, 1]]}',
                None, "NonFiniteNumber", id="nan-payoff",
            ),
            pytest.param("solve", _GOOD_GAME[:30], None, "DimensionMismatch", id="truncated-json"),
            pytest.param("solve", "[1, 2]", None, "DimensionMismatch", id="top-level-list"),
            pytest.param(
                "solve", _GOOD_GAME.replace("[[0, 1]]", '[[0], "x"]'), None, "PartitionInvalid",
                id="partition-entry",
            ),
            pytest.param("verify", _GOOD_GAME, _BAD_PROFILE, "DimensionMismatch", id="verify-token"),
            pytest.param(
                "deviate", _GOOD_GAME, _BAD_PROFILE, "DimensionMismatch", id="deviate-token"
            ),
            pytest.param(
                "verify", _GOOD_GAME, '{"p": [[0, "1/2"], ["1/2"]]}', "DimensionMismatch",
                id="ragged-profile",
            ),
            pytest.param(
                "solve", _GOOD_GAME[:-1] + ', "row_labels": "ab"}', None, "DimensionMismatch",
                id="labels-string",
            ),
            pytest.param(
                "solve", _GOOD_GAME[:-1] + ', "row_labels": [1, 2]}', None, "DimensionMismatch",
                id="labels-not-strings",
            ),
            pytest.param(
                "solve", _GOOD_GAME[:-1] + ', "col_labels": 5}', None, "DimensionMismatch",
                id="labels-not-list",
            ),
        ],
    )
    def test_exit_code(self, tmp_path, capsys, command, game_text, profile_text, error):
        game = tmp_path / "game.json"
        game.write_text(game_text)
        argv = [command, "--game", str(game)]
        if command == "solve":
            argv += ["--concept", "seslo"]
        else:
            profile = tmp_path / "profile.json"
            profile.write_text(profile_text)
            argv += ["--profile", str(profile)]
        if command == "deviate":
            argv += ["--model", "no-reveal"]
        code = main(argv)
        assert code == 1
        assert f"error: {error}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["gen", "--family", "x3c", "--elements", "6", "--subsets", "0,1,x"],
                         id="subsets-token"),
            pytest.param(["gen", "--family", "x3c", "--elements", "6", "--subsets", "0,1,2;"],
                         id="subsets-empty-chunk"),
            pytest.param(["gen", "--family", "close_to_full", "--n", "3", "--eps", "abc"],
                         id="eps-token"),
            pytest.param(["gen", "--family", "close_to_full", "--n", "3", "--eps", "1/0"],
                         id="eps-zero-denominator"),
            pytest.param(["experiment", "--m", "3", "--n", "3", "--games", "1",
                          "--sis-counts", "1,a"], id="sis-counts-token"),
        ],
    )
    def test_malformed_argument(self, tmp_path, capsys, argv):
        out = str(tmp_path / "out")
        argv = argv + (["--out", out] if argv[0] == "gen" else ["--out-csv", out])
        assert main(argv) == 1
        assert "error: InvalidParams:" in capsys.readouterr().err


class TestVerifyAndDeviate:
    def test_verify_mixed_profile(self, tmp_path, capsys):
        gpath = tmp_path / "g.json"
        ppath = tmp_path / "p.json"
        save_game(gen_example("example_4x2"), gpath)
        ppath.write_text(json.dumps({"sigma1": ["1/2", 0, 0, "1/2"], "sigma2": ["1/2", "1/2"]}))
        code = main(["verify", "--game", str(gpath), "--profile", str(ppath)])
        payload, _ = _last_json(capsys)
        assert code == 0 and payload["passed"] is True

    def test_verify_embeds_with_flag(self, tmp_path, capsys):
        gpath = tmp_path / "g.json"
        ppath = tmp_path / "p.json"
        save_game(gen_example("example_4x2"), gpath)
        ppath.write_text(json.dumps({"sigma1": ["1/2", 0, 0, "1/2"], "sigma2": ["1/2", "1/2"]}))
        code = main(["verify", "--game", str(gpath), "--profile", str(ppath), "--correlated"])
        payload, _ = _last_json(capsys)
        assert code == 0
        assert payload["profile_kind"] == "correlated" and payload["passed"] is True

    def test_deviate_no_reveal_gain(self, tmp_path, capsys):
        gpath = tmp_path / "g.json"
        ppath = tmp_path / "p.json"
        save_game(gen_example(WEAKSIG_6X4), gpath)
        save_profile(nine_atom_profile(WEAKSIG_6X4), ppath)
        code = main([
            "deviate", "--game", str(gpath), "--profile", str(ppath),
            "--model", "no-reveal",
        ])
        payload, out = _last_json(capsys)
        assert code == 0
        assert payload["gain"] == "1/3"
        assert "max gain: 1/3" in out

    def test_usage_error_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["deviate", "--game", "x", "--profile", "y", "--model", "bogus"])
        assert exc.value.code == 2


#: runs the CLI with ``import scipy`` failing: the arguments are a game file
#: and a profile file; every ``solve`` concept in both modes and ``deviate``
#: under every signal model must exit 0
_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
try:
    import scipy
except ImportError:
    pass
else:
    sys.exit("scipy is still importable")
from partialcommit.cli import main
game, profile = sys.argv[1:]
runs = [["solve", "--concept", c, "--game", game, "--mode", mode]
        for c in ("seslo", "selo", "stackelberg", "nash", "ce") for mode in ("exact", "float")]
runs += [["deviate", "--game", game, "--profile", profile, "--model", model, "--mode", mode]
         for model in ("public-reveal", "no-reveal", "row-knows") for mode in ("exact", "float")]
failed = [run for run in runs if main(run) != 0]
sys.exit(f"failed: {failed}" if failed else 0)
"""


class TestNumpyOnlyRuntime:
    def test_cli_runs_without_scipy(self, tmp_path):
        gpath, ppath = tmp_path / "g.json", tmp_path / "p.json"
        save_game(gen_example(SHAPLEY), gpath)
        w = Fraction(1, 6)
        save_profile(CorrelatedProfile([[0, w, w], [w, 0, w], [w, w, 0]]), ppath)
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        ))
        out = subprocess.run(
            [sys.executable, "-c", _WITHOUT_SCIPY, str(gpath), str(ppath)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.count('"verifier_passed": true') == 10
        assert out.stdout.count('"gain":') == 6


class TestGen:
    def test_gen_then_solve_round_trip(self, tmp_path, capsys):
        out = tmp_path / "game.json"
        assert main(["gen", "--family", "signaling_5x4", "--out", str(out)]) == 0
        assert main(["solve", "--concept", "seslo", "--game", str(out)]) == 0
        payload, _ = _last_json(capsys)
        assert payload["value"] == "19/3"

    def test_gen_x3c(self, tmp_path):
        out = tmp_path / "x3c.json"
        code = main([
            "gen", "--family", "x3c", "--elements", "6",
            "--subsets", "0,1,2;3,4,5", "--out", str(out),
        ])
        assert code == 0
        game = load_game(out)
        assert game.num_rows == 4 and game.num_cols == 8

    def test_gen_family_with_partition(self, tmp_path):
        out = tmp_path / "ctn.json"
        code = main([
            "gen", "--family", "close_to_none", "--n", "3", "--eps", "1/10",
            "--partition", "0|1,2", "--out", str(out),
        ])
        assert code == 0
        assert load_game(out).partition.cells == ((0,), (1, 2))

    def test_gen_missing_params(self, tmp_path, capsys):
        code = main(["gen", "--family", "close_to_full", "--out", str(tmp_path / "x.json")])
        assert code == 1

    def test_gen_random_round_robin(self, tmp_path):
        out = tmp_path / "r.json"
        code = main([
            "gen", "--family", "random", "--m", "4", "--n", "3",
            "--sis-count", "2", "--seed", "9", "--out", str(out),
        ])
        assert code == 0
        assert load_game(out).partition.cells == ((0, 2), (1, 3))


class TestExperimentCommand:
    def test_csv_and_svg_outputs(self, tmp_path, capsys):
        csv = tmp_path / "e.csv"
        svg = tmp_path / "e.svg"
        code = main([
            "experiment", "--m", "3", "--n", "3", "--games", "4", "--seed", "3",
            "--out-csv", str(csv), "--out-svg", str(svg),
        ])
        assert code == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "m,n,sis_count,games,mean,std,seed"
        assert len(lines) == 4
        assert "<polyline" in svg.read_text()

    def test_rerun_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["experiment", "--m", "3", "--n", "3", "--games", "3", "--seed", "5"]
        assert main(args + ["--out-csv", str(a)]) == 0
        assert main(args + ["--out-csv", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sis_counts_flag(self, tmp_path):
        csv = tmp_path / "e.csv"
        code = main([
            "experiment", "--m", "4", "--n", "3", "--games", "2", "--seed", "1",
            "--sis-counts", "1,2,4", "--out-csv", str(csv),
        ])
        assert code == 0
        assert len(csv.read_text().strip().splitlines()) == 4


class TestSolverFailure:
    """Typed errors raised inside a solve end the command with exit 1."""

    @pytest.mark.parametrize(
        "module, status, argv, message",
        [
            pytest.param(solvers, INFEASIBLE, ["solve", "--concept", "seslo"],
                         "signal LP unexpectedly infeasible", id="seslo"),
            pytest.param(solvers, UNBOUNDED, ["solve", "--concept", "selo", "--mode", "float"],
                         "support search found no feasible profile", id="selo"),
            pytest.param(deviations, UNBOUNDED, ["deviate", "--model", "no-reveal"],
                         "deviation LP unexpectedly unbounded", id="deviate"),
        ],
    )
    def test_unexpected_lp_status(self, tmp_path, capsys, monkeypatch, module, status, argv,
                                  message):
        gpath, ppath = tmp_path / "g.json", tmp_path / "p.json"
        save_game(gen_example(WEAKSIG_6X4), gpath)
        save_profile(nine_atom_profile(WEAKSIG_6X4), ppath)
        argv = argv + ["--game", str(gpath)]
        if argv[0] == "deviate":
            argv += ["--profile", str(ppath)]
        _lp_status(monkeypatch, module, status)
        assert main(argv) == 1
        assert f"error: SolverFailure: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "patch, error",
        [
            pytest.param(
                lambda mp: mp.setattr(experiment, "solve_seslo", _raise(DimensionMismatch("bad"))),
                "DimensionMismatch", id="game-error",
            ),
            pytest.param(
                lambda mp: _lp_status(mp, solvers, INFEASIBLE),
                "SolverFailure", id="solver-failure",
            ),
        ],
    )
    def test_experiment_names_the_game(self, tmp_path, capsys, monkeypatch, patch, error):
        patch(monkeypatch)
        code = main([
            "experiment", "--m", "3", "--n", "3", "--games", "2", "--seed", "5",
            "--out-csv", str(tmp_path / "e.csv"),
        ])
        assert code == 1
        seed = experiment.derive_seed(5, 3, 3, 0)
        assert (
            f"error: {error}: solver failed on game seed={seed} (m=3, n=3, index=0, sis_count=1)"
            in capsys.readouterr().err
        )


def _lp_status(monkeypatch, module, status):
    """Make every LP ``module`` solves end with ``status``."""
    monkeypatch.setattr(module, "solve_lp", lambda lp, mode="exact": LpOutcome(status=status))


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail
