"""Outside-in layer trace of the ``partialcommit`` modules.

Spans are recorded from the benchmark's side: each entry point below is
replaced by a timing wrapper at every place the package binds it (module
globals, ``from x import y`` copies, dispatch dicts such as the CLI's
concept table, and class attributes for methods).  Nothing under ``src/``
changes.  A span's self time is its duration minus the time of the spans it
directly encloses; spans are aggregated as they close, so memory stays flat.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter

#: (module, attribute) of every traced entry point; a dotted attribute is a
#: method looked up on the class
ENTRY_POINTS = (
    ("cli", "main"),
    ("experiment", "run_experiment"),
    ("experiment", "experiment_values"),
    ("experiment", "emit_csv"),
    ("solvers", "solve_seslo"),
    ("solvers", "solve_max_ce"),
    ("solvers", "solve_stackelberg"),
    ("solvers", "solve_selo"),
    ("solvers", "solve_best_nash"),
    ("deviations", "verify_mixed"),
    ("deviations", "verify_correlated"),
    ("deviations", "find_deviation"),
    ("linprog", "solve_lp"),
    ("linprog", "enumerate_vertices"),
    ("linprog", "LpOutcome.check_certificate"),
    ("games", "Game.payoffs_in_mode"),
    ("games", "load_game"),
    ("games", "load_profile"),
    ("instances", "gen_random"),
)

PACKAGE = "partialcommit"


class MissedBinding(RuntimeError):
    """The trace disagrees with the package's own counters."""


class _Span:
    __slots__ = ("name", "layer", "start", "child", "mode")

    def __init__(self, name, layer, mode):
        self.name, self.layer, self.mode = name, layer, mode
        self.child = 0.0
        self.start = time.perf_counter()


class LayerTrace:
    """Install with ``with LayerTrace() as trace:``; read ``metrics()`` after."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total: Counter = Counter()  # seconds, inclusive
        self.self_time: Counter = Counter()  # seconds, exclusive of child spans
        self.counts: Counter = Counter()
        self._stack: list[_Span] = []
        self._undo: list = []

    # -- installation ---------------------------------------------------------

    def __enter__(self):
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for module_name, attr in ENTRY_POINTS:
            owner = sys.modules[f"{PACKAGE}.{module_name}"]
            *cls_path, fn_name = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", module_name, original)
            if cls_path:
                self._undo.append((setattr, owner, fn_name, original))
                setattr(owner, fn_name, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((setattr, mod, key, original))
                        setattr(mod, key, wrapper)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._undo.append((dict.__setitem__, value, dkey, original))
                                value[dkey] = wrapper
        return self

    def __exit__(self, *exc):
        for restore, owner, key, original in reversed(self._undo):
            restore(owner, key, original)
        self._undo.clear()
        return False

    def _wrap(self, name, layer, fn):
        stack = self._stack
        on_exit = _EXIT_HOOKS.get(name)
        takes_mode = name == "linprog.solve_lp"  # fallbacks are told apart by mode

        def traced(*args, **kwargs):
            mode = None
            if takes_mode:
                mode = args[1] if len(args) > 1 else kwargs.get("mode", "exact")
            span = _Span(name, layer, mode)
            parent = stack[-1] if stack else None
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                duration = time.perf_counter() - span.start
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - span.child
                if parent is not None:
                    parent.child += duration
            if on_exit is not None:
                on_exit(self.counts, span, parent, duration, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- results --------------------------------------------------------------

    def layer_self_ms(self, layer: str) -> float:
        return 1e3 * sum(t for name, t in self.self_time.items() if name.startswith(layer + "."))

    def check_bindings(self) -> None:
        """Every LP a solver reports must have passed through a traced binding."""
        c = self.counts
        if c["solver_lp_spans"] != c["solver_lps_reported"]:
            raise MissedBinding(
                f"solver-level solve_lp spans ({c['solver_lp_spans']}) != sum of "
                f"SolveReport.stats.lps_solved ({c['solver_lps_reported']})"
            )

    def metrics(self, untraced_s: float, traced_s: float) -> dict[str, tuple[float, str]]:
        c, calls = self.counts, self.calls
        ms = lambda name: 1e3 * self.total[name]  # noqa: E731
        self_ms = lambda name: 1e3 * self.self_time[name]  # noqa: E731
        ratio = lambda num, den: num / den if den else 0.0  # noqa: E731
        solves = c["solves"]
        return {
            "linprog.lp_calls": (calls["linprog.solve_lp"], "count"),
            "linprog.lp_self_ms": (self_ms("linprog.solve_lp"), "ms"),
            "linprog.lp_cells": (c["lp_cells"], "count-computed"),
            "linprog.float_lp_calls": (c["float_lp_calls"], "count"),
            "linprog.cert_calls": (calls["linprog.check_certificate"], "count"),
            "linprog.cert_self_ms": (self_ms("linprog.check_certificate"), "ms"),
            "linprog.fallbacks": (c["fallbacks"], "count"),
            "linprog.fallback_frac": (ratio(c["fallbacks"], c["float_lp_calls"]), "ratio"),
            "linprog.fallback_ms": (1e3 * c["fallback_s"], "ms"),
            "linprog.enum_calls": (calls["linprog.enumerate_vertices"], "count"),
            "linprog.enum_self_ms": (self_ms("linprog.enumerate_vertices"), "ms"),
            "linprog.enum_vertices": (c["enum_vertices"], "count"),
            "linprog.enum_subsets": (c["enum_subsets"], "count-computed"),
            "linprog.enum_yield": (ratio(c["enum_vertices"], c["enum_subsets"]), "ratio-computed"),
            "solvers.solves": (solves, "count"),
            "solvers.supports_examined": (c["supports_examined"], "count"),
            "solvers.pairs_enumerated": (c["pairs_enumerated"], "count"),
            "solvers.prune_frac": (
                ratio(c["supports_examined"] - c["pairs_enumerated"], c["supports_examined"]), "ratio"),
            "solvers.lps_per_solve": (ratio(c["solver_lps_reported"], solves), "count"),
            "solvers.self_ms": (self.layer_self_ms("solvers"), "ms"),
            "deviations.verify_calls": (
                calls["deviations.verify_mixed"] + calls["deviations.verify_correlated"], "count"),
            "deviations.verify_self_ms": (
                self_ms("deviations.verify_mixed") + self_ms("deviations.verify_correlated"), "ms"),
            "deviations.find_deviation_self_ms": (self_ms("deviations.find_deviation"), "ms"),
            "games.payoffs_in_mode_calls": (calls["games.payoffs_in_mode"], "count"),
            "games.payoffs_in_mode_ms": (ms("games.payoffs_in_mode"), "ms"),
            "games.load_game_ms": (ms("games.load_game"), "ms"),
            "cli.self_ms": (self.layer_self_ms("cli"), "ms"),
            "experiment.self_ms": (self.layer_self_ms("experiment"), "ms"),
            "instances.gen_random_ms": (ms("instances.gen_random"), "ms"),
            "trace.untraced_ms": (1e3 * untraced_s, "ms"),
            "trace.overhead_frac": (traced_s / untraced_s - 1.0, "ratio"),
        }


# -- per-entry-point counters -----------------------------------------------

def _on_solve_lp(c, span, parent, duration, args, result):
    lp = args[0]
    c["lp_cells"] += len(lp.constraints) * lp.num_vars
    if parent is not None and parent.name == "linprog.solve_lp":
        if parent.mode == "float" and span.mode == "exact":
            c["fallbacks"] += 1
            c["fallback_s"] += duration
    elif span.mode == "float":
        c["float_lp_calls"] += 1
    if parent is not None and parent.layer == "solvers":
        c["solver_lp_spans"] += 1


def _on_enumerate(c, span, parent, duration, args, result):
    poly = args[0]
    dim = poly.num_vars
    n_eq = sum(1 for _, rel, _ in poly.constraints if rel == "=")
    n_ineq = len(poly.constraints) - n_eq + dim  # plus one nonnegativity row per variable
    if poly.upper_bounds is not None:
        n_ineq += sum(1 for ub in poly.upper_bounds if ub is not None)
    need = dim - n_eq
    c["enum_subsets"] += math.comb(n_ineq, need) if 0 <= need <= n_ineq else 0
    c["enum_vertices"] += len(result)
    if parent is not None and parent.layer == "solvers":
        c["pairs_enumerated"] += 1


def _on_solve(c, span, parent, duration, args, result):
    if parent is None or parent.layer != "solvers":  # max_ce wraps seslo: count once
        c["solves"] += 1
        c["supports_examined"] += result.stats.supports_examined
        c["solver_lps_reported"] += result.stats.lps_solved


_EXIT_HOOKS = {
    "linprog.solve_lp": _on_solve_lp,
    "linprog.enumerate_vertices": _on_enumerate,
    **{name: _on_solve for name in (
        "solvers.solve_seslo", "solvers.solve_max_ce", "solvers.solve_stackelberg",
        "solvers.solve_selo", "solvers.solve_best_nash")},
}
