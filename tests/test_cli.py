import copy
import json
import os
import random
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from partialcommit import deviations, errors, experiment, solvers
from partialcommit.cli import _MODELS, main
from partialcommit.errors import DimensionMismatch
from partialcommit.games import (
    CorrelatedProfile,
    game_to_dict,
    load_game,
    save_game,
    save_profile,
)
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
        err = capsys.readouterr().err
        assert "ScaleGuardExceeded" in err
        assert "--allow-large" in err

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


def _run_files(tmp_path, command, game_text, profile_text, extra=()):
    """Run ``command`` on a game file (and for ``verify``/``deviate`` a
    profile file) holding the given texts; returns the exit code."""
    game = tmp_path / "game.json"
    game.write_text(game_text)
    argv = [command, "--game", str(game), *extra]
    if command == "solve" and "--concept" not in extra:
        argv += ["--concept", "seslo"]
    if command != "solve":
        profile = tmp_path / "profile.json"
        profile.write_text(profile_text)
        argv += ["--profile", str(profile)]
    if command == "deviate" and "--model" not in extra:
        argv += ["--model", "no-reveal"]
    return main(argv)


#: parses to an exact rational that no float holds
_BEYOND_FLOAT = "1e400"


def _error_class(err: str) -> str:
    """The ``GameError`` subclass named by the CLI's single error line; fails
    on a traceback, on more than one line, or on any other exception."""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "Traceback" not in err, err
    match = re.fullmatch(r"error: (\w+): .*", lines[0])
    assert match, err
    assert issubclass(getattr(errors, match.group(1), type(None)), errors.GameError), err
    return match.group(1)


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
            pytest.param(
                "solve", _GOOD_GAME.replace("[[0, 1]]", "[[false, true]]"), None,
                "PartitionInvalid", id="partition-booleans",
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
        code = _run_files(tmp_path, command, game_text, profile_text)
        assert code == 1
        assert _error_class(capsys.readouterr().err) == error

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize(
        "command, in_game, exact_error",
        [
            pytest.param("solve", True, "NonFiniteNumber", id="solve-payoff"),
            pytest.param("verify", True, "NonFiniteNumber", id="verify-payoff"),
            pytest.param("deviate", True, "NonFiniteNumber", id="deviate-payoff"),
            # an exact profile entry this large cannot sum to 1 with the rest
            pytest.param("verify", False, "DimensionMismatch", id="verify-profile"),
            pytest.param("deviate", False, "DimensionMismatch", id="deviate-profile"),
        ],
    )
    def test_beyond_float_range(self, tmp_path, capsys, command, in_game, exact_error, mode):
        game_text, profile_text = _GOOD_GAME, '{"sigma1": [1, 0], "sigma2": ["1/2", "1/2"]}'
        if in_game:
            game_text = game_text.replace("[[1, 0]", f"[[{_BEYOND_FLOAT}, 0]", 1)
        else:
            profile_text = profile_text.replace("[1, 0]", f"[{_BEYOND_FLOAT}, 0]")
        code = _run_files(tmp_path, command, game_text, profile_text, ["--mode", mode])
        assert code == 1
        error = exact_error if mode == "exact" else "NonFiniteNumber"
        assert _error_class(capsys.readouterr().err) == error

    def test_every_payoff_beyond_float_range(self, tmp_path, capsys):
        # exact arithmetic alone would solve this game; its float value would not exist
        big = f"[[{_BEYOND_FLOAT}, {_BEYOND_FLOAT}], [{_BEYOND_FLOAT}, {_BEYOND_FLOAT}]]"
        game_text = f'{{"u1": {big}, "u2": {big}, "partition": [[0, 1]]}}'
        assert _run_files(tmp_path, "solve", game_text, None) == 1
        assert _error_class(capsys.readouterr().err) == "NonFiniteNumber"

    @pytest.mark.parametrize("concept", ["seslo", "selo", "stackelberg", "nash", "ce"])
    def test_payoff_differences_beyond_float_range(self, tmp_path, capsys, concept):
        # finite floats whose row differences overflow: float mode cannot solve
        # this game, and rejects its LPs before numpy computes with the
        # overflowed entries (so without a warning)
        big = "1e308"
        game_text = (
            f'{{"u1": [[{big}, -{big}], [-{big}, {big}]], '
            f'"u2": [[-{big}, {big}], [{big}, -{big}]], "partition": [[0], [1]]}}'
        )
        extra = ["--concept", concept, "--mode"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _run_files(tmp_path, "solve", game_text, None, [*extra, "float"]) == 1
        err = capsys.readouterr().err
        assert _error_class(err) == "NonFiniteNumber"
        assert "solve with --mode exact instead" in err
        assert _run_files(tmp_path, "solve", game_text, None, [*extra, "exact"]) == 0
        assert _last_json(capsys)[0]["value"] == "0"

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
            pytest.param(["experiment", "--m", "2", "--n", "2", "--games", "1",
                          "--sis-counts", "1,1"], id="sis-counts-repeated"),
            pytest.param(["experiment", "--m", "2", "--n", "2", "--games", "1",
                          "--sis-counts", ""], id="sis-counts-empty"),
        ],
    )
    def test_malformed_argument(self, tmp_path, capsys, argv):
        out = str(tmp_path / "out")
        argv = argv + (["--out", out] if argv[0] == "gen" else ["--out-csv", out])
        assert main(argv) == 1
        assert "error: InvalidParams:" in capsys.readouterr().err

    def test_seeded_fuzz(self, tmp_path, capsys):
        """Mutated copies of the example game and profile files: every run of
        ``solve`` (seslo, selo), ``verify`` and ``deviate`` in both modes
        exits 0 or 1, and 1 with one typed error line and no traceback."""
        rng = random.Random(3)
        base_game = game_to_dict(gen_example("example_4x2"))
        base_profiles = (
            {"sigma1": ["1/2", 0, 0, "1/2"], "sigma2": ["1/2", "1/2"]},
            {"p": [["1/8", "1/8"] for _ in range(4)]},
        )
        kinds = set()
        for _ in range(40):
            game, profile = copy.deepcopy(base_game), copy.deepcopy(rng.choice(base_profiles))
            target = game if rng.random() < 0.5 else profile
            kind = _mutate(rng, target)
            kinds.add(kind)
            texts = [_file_text(game), _file_text(profile)]
            runs = [("verify", []), ("deviate", ["--model", rng.choice(sorted(_MODELS))])]
            if target is game:
                runs += [("solve", ["--concept", "seslo"]), ("solve", ["--concept", "selo"])]
            for command, extra in runs:
                for mode in ("exact", "float"):
                    case = f"{kind} {texts} {command} {extra} {mode}"
                    try:
                        code = _run_files(tmp_path, command, *texts, [*extra, "--mode", mode])
                    except Exception as exc:  # noqa: BLE001 - any escape is the failure
                        pytest.fail(f"{case}: {exc!r}")
                    err = capsys.readouterr().err
                    assert code in (0, 1), case
                    if code == 1:
                        _error_class(err)
        assert kinds == set(_MUTATIONS)


#: marks the entry that the file text turns into the ``_BEYOND_FLOAT`` token
_BIG = "BIG"


def _file_text(doc: dict) -> str:
    text = json.dumps(doc)
    return text.replace(f'"-{_BIG}"', "-" + _BEYOND_FLOAT).replace(f'"{_BIG}"', _BEYOND_FLOAT)


def _numeric_slots(doc: dict) -> list[tuple[list, int]]:
    """(list, index) of every number in a game's or profile's matrices."""
    slots = []
    for key in ("u1", "u2", "p", "sigma1", "sigma2"):
        value = doc.get(key)
        rows = value if value and isinstance(value[0], list) else [value] if value else []
        slots += [(row, i) for row in rows for i in range(len(row))]
    return slots


def _set_entry(rng, doc, value):
    row, i = rng.choice(_numeric_slots(doc))
    row[i] = value


def _ragged(rng, doc):
    row, _ = rng.choice(_numeric_slots(doc))
    if rng.random() < 0.5:
        row.pop()
    else:
        row.append(0)


_MUTATIONS = {
    "drop": lambda rng, doc: doc.pop(rng.choice(sorted(doc))),
    "retype": lambda rng, doc: doc.__setitem__(
        rng.choice(sorted(doc)),
        rng.choice(["x", 3, None, {}, [], [["x"]], [[True]], [[1, 2], 3], {"0": [1]}]),
    ),
    "ragged": _ragged,
    "partition": lambda rng, doc: doc.__setitem__("partition", rng.choice([
        [[0, 1]], [[0, 0, 1, 2, 3]], [[0, 1, 2, 3, 4]], [[-1, 0, 1, 2, 3]], [["a", 1, 2, 3]],
        [[0, 1], [2, 3], []], [[0.5, 1, 2, 3]], [[0, 1, 2, 3], [0]], [0, 1, 2, 3], "0|1",
    ])),
    "beyond-float": lambda rng, doc: _set_entry(rng, doc, rng.choice([_BIG, "-" + _BIG])),
    "negative": lambda rng, doc: _set_entry(rng, doc, rng.choice([-1, "-1/2", -0.25])),
    "oversized": lambda rng, doc: _set_entry(rng, doc, rng.choice([2, "3/2", 1.5, 10**30])),
}


def _mutate(rng, doc: dict) -> str:
    """Apply one random malformation to ``doc`` in place; returns its name.
    A profile has no partition, so it gets another mutation instead."""
    kinds = sorted(k for k in _MUTATIONS if k != "partition" or "partition" in doc)
    kind = rng.choice(kinds)
    _MUTATIONS[kind](rng, doc)
    return kind

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

    def test_gen_random_with_partition(self, tmp_path):
        out = tmp_path / "r.json"
        code = main([
            "gen", "--family", "random", "--m", "3", "--n", "3",
            "--partition", "0|1,2", "--out", str(out),
        ])
        assert code == 0
        assert load_game(out).partition.cells == ((0,), (1, 2))

    def test_gen_example_with_sis_count(self, tmp_path):
        out = tmp_path / "s.json"
        code = main(["gen", "--family", "shapley", "--sis-count", "3", "--out", str(out)])
        assert code == 0
        game = load_game(out)
        assert game.partition.cells == ((0,), (1,), (2,))
        assert game.u1 == gen_example(SHAPLEY).u1

    @pytest.mark.parametrize(
        "family, error",
        [
            ("random", "InvalidParams"),
            ("close_to_full", "PartitionInvalid"),
            ("close_to_none", "PartitionInvalid"),
        ],
    )
    def test_zero_sis_count(self, tmp_path, capsys, family, error):
        # a count of 0 is a count, not "no count given"
        out = tmp_path / "g.json"
        code = main([
            "gen", "--family", family, "--m", "3", "--n", "3", "--eps", "1/10",
            "--sis-count", "0", "--out", str(out),
        ])
        assert code == 1
        assert f"error: {error}:" in capsys.readouterr().err
        assert not out.exists()


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
