"""The benchmark's workloads: seeded inputs, timed operations, result checks.

Each workload yields a stream of operations.  An operation's ``run`` is the
timed call into the package; its ``post`` turns the raw output into a small
record and does any bookkeeping the next operation needs (reading the CSV,
writing a witness file).  ``post`` runs outside the timed region, as does
building the inputs of each game, which happens when the stream reaches it.
``check`` judges the records after the timed loop has ended.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count
from typing import Any, Callable

import numpy as np

import partialcommit as pc
from partialcommit import cli, experiment, solvers

#: float results must match the recorded reference within this
REFERENCE_TOL = 1e-7
#: float results must match an independent HiGHS solve within this
ORACLE_TOL = 1e-6


@dataclass
class Op:
    key: str
    run: Callable[[], Any]
    post: Callable[[Any], dict]


def derive_seed(seed: int, tag: str, index: int) -> int:
    digest = hashlib.sha256(f"{seed}:{tag}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def round_robin(m: int, k: int) -> list[list[int]]:
    return [[r for r in range(m) if r % k == j] for j in range(k)]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``partialcommit <argv>`` in-process, stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def last_json(stdout: str) -> dict:
    return json.loads(stdout.rstrip("\n").rsplit("\n", 1)[-1])


class Workload:
    name = ""
    #: games in the traced run, which is also the recorded reference prefix
    trace_games = 0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def fixed_ops(self) -> list[Op]:
        """Seed-independent operations that open every run."""
        return []

    def game_ops(self, index: int) -> list[Op]:
        raise NotImplementedError

    def stream(self, games: int | None = None):
        """Every operation of the workload, building each game's inputs lazily."""
        indices = count() if games is None else range(games)
        return chain(self.fixed_ops(), chain.from_iterable(map(self.game_ops, indices)))

    def check(self, records: list[dict], reference: dict | None) -> list[str | None]:
        """Per record: None when correct, else why not."""
        raise NotImplementedError


def _ref_mismatch(record, reference, exact: bool) -> str | None:
    if reference is None or record["key"] not in reference:
        return None
    want = reference[record["key"]]
    got = record["value"]
    if exact:
        return None if got == want else f"value {got} != reference {want}"
    if len(got) != len(want) or any(abs(a - b) > REFERENCE_TOL for a, b in zip(got, want)):
        return f"values {got} != reference {want}"
    return None


# ---------------------------------------------------------------------------


class SweepFloat(Workload):
    """``partialcommit experiment`` on one M x N game per call, cell counts 1..M."""

    name = "sweep_float"
    m = n = 4
    trace_games = 300

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.csv_path = os.path.join(workdir, "sweep.csv")
        self.verdicts: list[bool] = []

    def __enter__(self):
        # record each solve's verifier verdict, which the CSV does not carry;
        # the lookup through ``solvers`` keeps a traced binding in the path
        def capture(game, mode="exact"):
            report = solvers.solve_seslo(game, mode)
            self.verdicts.append(report.verifier_passed)
            return report

        self._original = experiment.solve_seslo
        experiment.solve_seslo = capture
        return self

    def __exit__(self, *exc):
        experiment.solve_seslo = self._original
        return False

    def game_ops(self, index):
        game_seed = derive_seed(self.seed, self.name, index)
        argv = ["experiment", "--m", str(self.m), "--n", str(self.n), "--games", "1",
                "--seed", str(game_seed), "--out-csv", self.csv_path]

        def post(out):
            rc, _stdout = out
            with open(self.csv_path, encoding="ascii") as fh:
                rows = fh.read().split("\n")[1:-1]
            values = [float(row.split(",")[4]) for row in rows]
            return {"key": f"g{index}", "rc": rc, "seed": game_seed, "value": values,
                    "verified": all(self.verdicts) and len(self.verdicts) == self.m}

        def run():
            self.verdicts.clear()
            return run_cli(argv)

        return [Op(f"g{index}", run, post)]

    def payoffs(self, game_seed: int):
        """The game ``experiment`` draws for game index 0 of ``--seed game_seed``."""
        m, n = self.m, self.n
        digest = hashlib.sha256(f"{game_seed}:{m}:{n}:0".encode("ascii")).digest()
        rng = random.Random(int.from_bytes(digest[:8], "big"))
        u1 = np.array([[rng.random() for _ in range(n)] for _ in range(m)])
        u2 = np.array([[rng.random() for _ in range(n)] for _ in range(m)])
        return u1, u2

    def check(self, records, reference):
        from oracle import seslo_values

        problems, owners = [], []
        for i, rec in enumerate(records):
            if "error" in rec or rec["rc"] != 0 or len(rec["value"]) != self.m:
                continue
            u1, u2 = self.payoffs(rec["seed"])
            for k in range(1, self.m + 1):
                problems.append((u1, u2, round_robin(self.m, k)))
                owners.append((i, k - 1))
        oracle = seslo_values(problems)
        verdicts: list[str | None] = [None] * len(records)
        for (i, j), want in zip(owners, oracle):
            got = records[i]["value"][j]
            if abs(got - want) > ORACLE_TOL and verdicts[i] is None:
                verdicts[i] = f"cells={j + 1}: value {got} != HiGHS {want}"
        for i, rec in enumerate(records):
            if "error" in rec:
                verdicts[i] = rec["error"]
            elif rec["rc"] != 0 or len(rec["value"]) != self.m:
                verdicts[i] = f"exit code {rec['rc']}, {len(rec['value'])} CSV rows"
            elif not rec["verified"]:
                verdicts[i] = "a witness failed its verifier"
            else:
                verdicts[i] = verdicts[i] or _ref_mismatch(rec, reference, exact=False)
        return verdicts


# ---------------------------------------------------------------------------


class ExactLp(Workload):
    """CLI ``solve`` (seslo, ce, stackelberg) and ``deviate`` (all three signal
    models, on the SESLO witness) in the default exact mode."""

    name = "exact_lp"
    m, n, cells = 4, 3, 2
    max_denominator = 100
    trace_games = 40
    concepts = ("seslo", "ce", "stackelberg")
    models = ("public-reveal", "no-reveal", "row-knows")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.payoff_of: dict[str, tuple] = {}

    def fixed_ops(self):
        ops = []
        for name in pc.EXAMPLE_NAMES:
            path = os.path.join(self.workdir, f"{name}.json")
            pc.save_game(pc.gen_example(name), path)
            ops.extend(self._game_ops(name, path))
        return ops

    def game_ops(self, index):
        rng = random.Random(derive_seed(self.seed, self.name, index))

        def entry():
            x = Fraction(rng.random()).limit_denominator(self.max_denominator)
            return x.numerator if x.denominator == 1 else str(x)  # the file format's spelling

        def matrix():
            return [[entry() for _ in range(self.n)] for _ in range(self.m)]

        raw = {"u1": matrix(), "u2": matrix(), "partition": round_robin(self.m, self.cells)}
        path = os.path.join(self.workdir, f"g{index}.json")
        with open(path, "w", encoding="ascii") as fh:
            json.dump(raw, fh)
        return self._game_ops(f"g{index}", path)

    def _game_ops(self, gid, path):
        with open(path, encoding="ascii") as fh:
            raw = json.load(fh)
        self.payoff_of[gid] = tuple(
            np.array([[float(Fraction(str(x))) for x in row] for row in raw[key]])
            for key in ("u1", "u2")
        ) + (raw["partition"],)
        witness = os.path.join(self.workdir, f"{gid}.witness.json")

        def post_solve(concept):
            def post(out):
                rc, stdout = out
                doc = last_json(stdout)
                if concept == "seslo":
                    with open(witness, "w", encoding="ascii") as fh:
                        json.dump(doc["witness"], fh)
                return {"key": f"{gid}/{concept}", "rc": rc, "game": gid, "op": concept,
                        "value": doc["value"], "verified": doc["verifier_passed"]}
            return post

        def post_deviate(model):
            def post(out):
                rc, stdout = out
                return {"key": f"{gid}/{model}", "rc": rc, "game": gid, "op": model,
                        "value": last_json(stdout)["gain"], "verified": True}
            return post

        ops = []
        for concept in self.concepts:
            argv = ["solve", "--concept", concept, "--game", path]
            ops.append(Op(f"{gid}/{concept}", lambda a=argv: run_cli(a), post_solve(concept)))
        for model in self.models:
            argv = ["deviate", "--game", path, "--profile", witness, "--model", model]
            ops.append(Op(f"{gid}/{model}", lambda a=argv: run_cli(a), post_deviate(model)))
        return ops

    def check(self, records, reference):
        from oracle import seslo_values, stackelberg_value

        verdicts: list[str | None] = [None] * len(records)
        ok = [i for i, rec in enumerate(records) if "error" not in rec and rec["rc"] == 0]
        lp_index = [i for i in ok if records[i]["op"] in ("seslo", "ce")]
        problems = []
        for i in lp_index:
            u1, u2, cells = self.payoff_of[records[i]["game"]]
            if records[i]["op"] == "ce":
                cells = [list(range(u1.shape[0]))]
            problems.append((u1, u2, cells))
        oracle = dict(zip(lp_index, seslo_values(problems)))
        stackelberg: dict[str, float] = {}
        gains: dict[str, dict[str, Fraction]] = {}
        for i in ok:
            rec = records[i]
            value = Fraction(rec["value"])
            if rec["op"] == "stackelberg":
                if rec["game"] not in stackelberg:
                    stackelberg[rec["game"]] = stackelberg_value(*self.payoff_of[rec["game"]][:2])
                oracle[i] = stackelberg[rec["game"]]
            if i in oracle and abs(float(value) - oracle[i]) > ORACLE_TOL:
                verdicts[i] = f"value {rec['value']} != HiGHS {oracle[i]}"
            elif rec["op"] in self.models:
                gains.setdefault(rec["game"], {})[rec["op"]] = value
                if value < 0 or (rec["op"] == "public-reveal" and value != 0):
                    verdicts[i] = f"gain {rec['value']} impossible on a SESLO witness"
        for i, rec in enumerate(records):
            if "error" in rec:
                verdicts[i] = rec["error"]
            elif rec["rc"] != 0:
                verdicts[i] = f"exit code {rec['rc']}"
            elif not rec["verified"]:
                verdicts[i] = "witness failed its verifier"
            elif rec["op"] == "row-knows":
                g = gains[rec["game"]]
                if not g.get("public-reveal", 0) <= g.get("no-reveal", 0) <= g["row-knows"]:
                    verdicts[i] = f"deviation gains out of order: {g}"
            verdicts[i] = verdicts[i] or _ref_mismatch(rec, reference, exact=True)
        return verdicts


# ---------------------------------------------------------------------------


class SupportSearch(Workload):
    """Float SELO and best Nash by support enumeration on random M x N
    two-cell games, one game (both concepts) per operation."""

    name = "support_search"
    m, n, cells = 4, 3, 2
    trace_games = 300

    def game_ops(self, index):
        rng = random.Random(derive_seed(self.seed, self.name, index))
        u1 = [[rng.random() for _ in range(self.n)] for _ in range(self.m)]
        u2 = [[rng.random() for _ in range(self.n)] for _ in range(self.m)]
        game = pc.Game(u1, u2, pc.SISPartition(round_robin(self.m, self.cells), self.m))

        def run():
            return pc.solve_selo(game, "float"), pc.solve_best_nash(game, "float")

        def post(reports):
            selo, nash = reports
            return {"key": f"g{index}", "u": (np.array(u1), np.array(u2)),
                    "value": [selo.value, nash.value],
                    "verified": selo.verifier_passed and nash.verifier_passed}

        return [Op(f"g{index}", run, post)]

    def check(self, records, reference):
        from oracle import seslo_values

        solved = [i for i, rec in enumerate(records) if "error" not in rec]
        cells = round_robin(self.m, self.cells)
        seslo = dict(zip(solved, seslo_values([records[i]["u"] + (cells,) for i in solved])))
        verdicts: list[str | None] = [None] * len(records)
        for i, rec in enumerate(records):
            if "error" in rec:
                verdicts[i] = rec["error"]
                continue
            selo, nash = rec["value"]
            if not rec["verified"]:
                verdicts[i] = "witness failed its verifier"
            # every Nash equilibrium is SELO-feasible; signaling dominates SELO
            elif nash > selo + REFERENCE_TOL or selo > seslo[i] + ORACLE_TOL:
                verdicts[i] = f"nash {nash} <= selo {selo} <= HiGHS SESLO {seslo[i]} fails"
            else:
                verdicts[i] = _ref_mismatch(rec, reference, exact=False)
        return verdicts


WORKLOADS = {w.name: w for w in (SweepFloat, ExactLp, SupportSearch)}
