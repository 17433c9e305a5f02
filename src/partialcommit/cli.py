"""Command-line interface.

Subcommands: ``solve`` (pick a concept and a game file), ``verify`` (check a
profile for undetectable beneficial deviations), ``deviate`` (find the
best undetectable deviation under a signaling model), ``gen`` (write a
built-in or generated game to a file), ``experiment`` (random-game sweep
with CSV/SVG output).

Each analysis subcommand prints a short human-readable report followed by a
single-line JSON document.  Exit codes: 0 success, 1 domain error (bad game,
scale guard, ...), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .deviations import (
    SignalModel,
    embed_mixed_as_correlated,
    find_deviation,
    verify_correlated,
    verify_mixed,
)
from .errors import GameError, InvalidParams, PartitionInvalid
from .experiment import ExperimentConfig, emit_csv, emit_svg, run_experiment
from .games import (
    CorrelatedProfile,
    MixedProfile,
    SISPartition,
    format_number,
    load_game,
    load_profile,
    profile_to_dict,
    save_game,
)
from .instances import (
    EXAMPLE_NAMES,
    X3CInstance,
    gen_close_to_full,
    gen_close_to_none,
    gen_example,
    gen_random,
    gen_x3c_game,
)
from .solvers import (
    solve_best_nash,
    solve_max_ce,
    solve_selo,
    solve_seslo,
    solve_stackelberg,
)

_CONCEPTS = {
    "seslo": solve_seslo,
    "selo": solve_selo,
    "stackelberg": solve_stackelberg,
    "nash": solve_best_nash,
    "ce": solve_max_ce,
}

_FAMILIES = EXAMPLE_NAMES + ("x3c", "close_to_full", "close_to_none", "random")

_MODELS = {
    "public-reveal": SignalModel.PUBLIC_REVEAL,
    "no-reveal": SignalModel.NO_REVEAL,
    "row-knows": SignalModel.ROW_KNOWS_COLUMN_SIGNAL,
}


def _json_value(x):
    if isinstance(x, Fraction):
        return format_number(x)
    return x


def _emit(human_lines: list[str], payload: dict) -> None:
    for line in human_lines:
        print(line)
    print(json.dumps(payload, default=_json_value))


def _cmd_solve(args) -> int:
    game = load_game(args.game)
    solver = _CONCEPTS[args.concept]
    kwargs = {"mode": args.mode}
    if args.concept in ("selo", "nash"):
        kwargs["allow_large"] = args.allow_large
    report = solver(game, **kwargs)
    human = [
        f"concept: {report.concept}",
        f"mode: {report.mode}",
        f"value: {format_number(report.value)}",
        f"verifier: {'passed' if report.verifier_passed else 'FAILED'}",
        f"supports examined: {report.stats.supports_examined}, "
        f"LPs solved: {report.stats.lps_solved}",
    ]
    payload = {
        "concept": report.concept,
        "mode": report.mode,
        "value": report.value,
        "value_float": float(report.value),
        "witness": profile_to_dict(report.witness),
        "verifier_passed": report.verifier_passed,
        "stats": {
            "supports_examined": report.stats.supports_examined,
            "lps_solved": report.stats.lps_solved,
        },
    }
    _emit(human, payload)
    return 0


def _load_profile_for(args, want_correlated: bool):
    profile = load_profile(args.profile, args.mode)
    if want_correlated and isinstance(profile, MixedProfile):
        profile = embed_mixed_as_correlated(profile.in_mode(args.mode))
    return profile


def _cmd_verify(args) -> int:
    game = load_game(args.game)
    profile = _load_profile_for(args, args.correlated)
    if isinstance(profile, CorrelatedProfile):
        report = verify_correlated(game, profile, args.mode)
        kind = "correlated"
    else:
        report = verify_mixed(game, profile, args.mode)
        kind = "mixed"
    human = [
        f"profile: {kind}",
        f"no undetectable beneficial deviations: {'yes' if report.passed else 'NO'}",
        f"max column gain: {format_number(report.max_column_gain)}",
        f"max row gain: {format_number(report.max_row_gain)}",
    ]
    if report.column_witness:
        human.append(f"column deviation: {report.column_witness[0]} -> {report.column_witness[1]}")
    if report.row_witness is not None and not report.passed:
        human.append("row deviation witness available")
    payload = {
        "profile_kind": kind,
        "passed": report.passed,
        "max_column_gain": report.max_column_gain,
        "max_row_gain": report.max_row_gain,
        "column_witness": report.column_witness,
    }
    _emit(human, payload)
    return 0


def _cmd_deviate(args) -> int:
    game = load_game(args.game)
    profile = _load_profile_for(args, want_correlated=True)
    model = _MODELS[args.model]
    plan = find_deviation(game, profile, model, args.mode)
    human = [
        f"model: {args.model}",
        f"max gain: {format_number(plan.gain)}",
    ]
    payload = {
        "model": args.model,
        "gain": plan.gain,
        "gain_float": float(plan.gain),
        "delta": plan.delta,
    }
    _emit(human, payload)
    return 0


def _parse_partition(text: str, num_rows: int) -> SISPartition:
    cells = []
    for chunk in text.split("|"):
        try:
            cells.append([int(tok) for tok in chunk.split(",") if tok.strip() != ""])
        except ValueError as exc:
            raise PartitionInvalid(f"--partition cells must be row indices: {exc}") from exc
    return SISPartition(cells, num_rows)


def _parse_ints(text: str, flag: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise InvalidParams(f"{flag} takes comma-separated integers: {exc}") from exc


def _cmd_gen(args) -> int:
    fam = args.family
    if fam in EXAMPLE_NAMES:
        game = gen_example(fam)
    elif fam == "x3c":
        if args.elements is None or not args.subsets:
            raise InvalidParams("x3c needs --elements and --subsets")
        subsets = [_parse_ints(chunk, "--subsets") for chunk in args.subsets.split(";")]
        game = gen_x3c_game(X3CInstance(args.elements, subsets))
    elif fam in ("close_to_full", "close_to_none"):
        if args.n is None or args.eps is None:
            raise InvalidParams(f"{fam} needs --n and --eps")
        try:
            eps = Fraction(args.eps)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidParams(f"--eps must be a rational like 1/10: {exc}") from exc
        make = gen_close_to_full if fam == "close_to_full" else gen_close_to_none
        game = make(args.n, eps)
    elif fam == "random":
        if args.m is None or args.n is None:
            raise InvalidParams("random needs --m and --n")
        cells = args.m if args.sis_count is None else args.sis_count
        game = gen_random(args.m, args.n, cells, args.seed)
    else:  # pragma: no cover - argparse choices guard this
        raise InvalidParams(f"unknown family {fam!r}")
    if args.partition:
        game = game.with_partition(_parse_partition(args.partition, game.num_rows))
    elif args.sis_count is not None:
        game = game.with_partition(SISPartition.round_robin(game.num_rows, args.sis_count))
    save_game(game, args.out)
    print(f"wrote {game.num_rows}x{game.num_cols} game "
          f"({len(game.partition)} cells) to {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    sis_counts = None
    if args.sis_counts is not None:
        sis_counts = tuple(_parse_ints(args.sis_counts, "--sis-counts"))
    config = ExperimentConfig(
        sizes=((args.m, args.n),),
        games_per_point=args.games,
        sis_counts=sis_counts,
        base_seed=args.seed,
    )
    rows = run_experiment(config)
    emit_csv(rows, args.out_csv)
    written = [args.out_csv]
    if args.out_svg:
        emit_svg(rows, args.out_svg)
        written.append(args.out_svg)
    for row in rows:
        print(f"m={row.m} n={row.n} cells={row.sis_count}: "
              f"mean={row.mean:.6f} std={row.std:.6f} over {row.games} games")
    print("wrote " + ", ".join(str(w) for w in written))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partialcommit",
        description="Solvers for games with partially observable commitment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute an equilibrium concept for a game file")
    p.add_argument("--concept", required=True, choices=sorted(_CONCEPTS))
    p.add_argument("--game", required=True)
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.add_argument("--allow-large", action="store_true",
                   help="override the size guard on support enumeration")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a profile for undetectable beneficial deviations")
    p.add_argument("--game", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--correlated", action="store_true",
                   help="treat a mixed profile as its induced joint distribution")
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("deviate", help="maximum-gain undetectable deviation under a signaling model")
    p.add_argument("--game", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--model", required=True, choices=sorted(_MODELS))
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.set_defaults(func=_cmd_deviate)

    p = sub.add_parser("gen", help="write a built-in or generated game to a JSON file")
    p.add_argument("--family", required=True, choices=_FAMILIES)
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--eps", help="rational like 1/10")
    p.add_argument("--elements", type=int, help="x3c element count")
    p.add_argument("--subsets", help="x3c subsets, e.g. '0,1,2;3,4,5'")
    p.add_argument("--sis-count", type=int, help="round-robin cell count")
    p.add_argument("--partition", help="explicit cells, e.g. '0,1|2,3'")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("experiment", help="random-game observability sweep")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--games", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sis-counts", help="comma list of distinct counts, default 1..m")
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-svg")
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    # the parser is a reference cycle; dropping it before the command runs
    # lets the next young-generation collection free it
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GameError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
