"""Benchmark of the partialcommit solvers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.  One
closed-loop caller makes sequential calls in this single process.  With
``--trace 0`` it measures the end-to-end metrics for ``--seconds`` and
checks every result; with ``--trace 1`` it runs a fixed list of operations
once untraced and once under the layer trace and reports the per-layer
metrics.  The last line of standard output is the JSON result.  See
``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from itertools import chain  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")
REFERENCE = os.path.join(HERE, "reference.json")

DEFAULT_SEED = 0
#: timed passes over the same operations; each operation's fastest timing
#: counts, which filters out short slow spells caused by other tenants of
#: the machine.  More passes would leave less of the run for distinct games.
PASSES = 2
#: fresh interpreters timed for ``setup_s``; the median is reported
SETUP_RUNS = 7
#: games whose inputs a timed set-up builds
SETUP_GAMES = 10


def import_workloads():
    if not os.path.isfile(os.path.join(SRC, "partialcommit", "__init__.py")):
        sys.exit(f"perfbench: {SRC}/partialcommit not found; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import workloads

    return workloads


def run_ops(ops, deadline: float | None = None):
    """Run operations back to back until ``deadline``; returns the operations
    run, their records and their latencies in seconds."""
    done, records, latencies = [], [], []
    for op in ops:
        done.append(op)
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            latencies.append(time.perf_counter() - start)
            records.append({"key": op.key, "error": f"{type(exc).__name__}: {exc}"})
        else:
            latencies.append(time.perf_counter() - start)
            try:
                records.append(op.post(out))
            except Exception as exc:  # unreadable output fails the operation
                records.append({"key": op.key, "error": f"{type(exc).__name__}: {exc}"})
        if deadline is not None and time.perf_counter() >= deadline:
            break
    return done, records, latencies


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def load_reference(path: str, workload: str, seed: int) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    ref = dict(data[workload]["fixed"])
    if seed == data["seed"]:
        ref.update(data[workload]["seeded"])
    return ref


def _signature(record):
    return record.get("error"), record.get("value"), record.get("verified")


def count_failures(wl, passes, reference) -> int:
    """Failed executions over all passes: a first-pass record fails the
    workload's check; a later one fails with it or by differing from it."""
    first = passes[0]
    verdicts = wl.check(first, reference)
    failures = []
    for records in passes:
        for rec, base, why in zip(records, first, verdicts):
            if not why and _signature(rec) != _signature(base):
                why = f"differs from the first pass: {_signature(rec)}"
            if why:
                failures.append((rec["key"], why))
    for key, why in failures[:10]:
        print(f"FAILED {wl.name} {key}: {why}", file=sys.stderr)
    return len(failures)


def measure_setup(args) -> float:
    """Median wall time of a fresh interpreter importing the package and
    building the inputs of the workload's first games."""
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            check=True, cwd=ROOT,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def machine_info() -> dict:
    import numpy

    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        top, commit = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.split()
        if os.path.realpath(top) != os.path.realpath(ROOT):
            commit = None  # an enclosing repository, not this tree's
    except (OSError, subprocess.CalledProcessError, ValueError):
        commit = None  # a plain source tree: the digest below identifies it
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "partialcommit")):
        dirnames.sort()
        for name in sorted(f for f in filenames if f.endswith(".py")):
            with open(os.path.join(dirpath, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def end_to_end(args, wl, reference):
    setup_s = measure_setup(args)
    deadline = time.perf_counter() + args.seconds / PASSES
    ops, records, latencies = run_ops(wl.stream(args.games), deadline)
    passes, timings = [records], [latencies]
    for _ in range(PASSES - 1):
        _, records, latencies = run_ops(ops)
        passes.append(records)
        timings.append(latencies)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = count_failures(wl, passes, reference)
    lat = sorted(min(per_op) for per_op in zip(*timings))
    metrics = {
        "solves_per_s": (len(lat) / sum(lat), "1/s"),
        "solve_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "solve_p90_ms": (1e3 * nearest_rank(lat, 0.9), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    attempted = PASSES * len(lat)
    print(f"{wl.name}: {len(lat)} operations x {PASSES} passes, {failed} failed "
          f"(failed_frac {failed / attempted:.4g}); percentiles over {len(lat)} per-operation minima")
    return metrics, attempted, failed


def per_layer(args, wl, reference):
    from layers import LayerTrace

    games = wl.trace_games if args.games is None else args.games
    ops = list(wl.stream(games))  # builds every input before any pass
    _, warm, _ = run_ops(ops)  # first calls are slower; keep them out of the overhead
    _, plain, plain_lat = run_ops(ops)
    with LayerTrace() as trace:
        _, traced, traced_lat = run_ops(ops)
    trace.check_bindings()
    failed = count_failures(wl, [warm, plain, traced], reference)
    print(f"{wl.name}: traced {len(ops)} operations ({games} games), {failed} failed")
    return trace.metrics(sum(plain_lat), sum(traced_lat)), 3 * len(ops), failed


def write_reference(workloads, path: str, seed: int) -> None:
    """Record the values of every traced operation at the current commit."""
    data = {"seed": seed}
    for name, cls in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=BUILD) as workdir, cls(seed, workdir) as wl:
            _, fixed, _ = run_ops(wl.fixed_ops())
            _, seeded, _ = run_ops(chain.from_iterable(map(wl.game_ops, range(wl.trace_games))))
            if count_failures(wl, [fixed + seeded], None):
                sys.exit(f"perfbench: {name} failed its checks; reference not written")
        data[name] = {"fixed": {r["key"]: r["value"] for r in fixed},
                      "seeded": {r["key"]: r["value"] for r in seeded}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--games", type=int,
                        help="cap on random games (a tiny run); the traced run's default is fixed")
    parser.add_argument("--reference", default=REFERENCE, help="recorded values to check against")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the reference values for --seed and exit")
    args = parser.parse_args(argv)
    workloads = import_workloads()
    os.makedirs(BUILD, exist_ok=True)
    if args.write_reference:
        write_reference(workloads, args.reference, args.seed)
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(dir=BUILD) as workdir, cls(args.seed, workdir) as wl:
        if args.setup_only:
            for _ in wl.stream(SETUP_GAMES):
                pass
            return 0
        reference = load_reference(args.reference, args.workload, args.seed)
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed = measure(args, wl, reference)
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    print(json.dumps({"machine": machine_info(), "workload": args.workload, "seed": args.seed}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
