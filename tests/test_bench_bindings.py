"""The benchmark's layer trace still binds to the package.

``perfbench/layers.py`` wraps every entry point it names in ``ENTRY_POINTS``
and reads ``LinearProgram.constraints``/``num_vars`` and
``Polytope.num_vars``/``constraints``/``upper_bounds`` from the arguments it
sees.  A rename in the package breaks only the traced benchmark runs, so this
runs a few solves under the trace.  The file is loaded read-only: no bytecode
is written next to it.
"""

import importlib.util
import os
import sys

import partialcommit.cli  # noqa: F401  (the trace wraps every loaded package module)
from partialcommit import solvers
from partialcommit.instances import EXAMPLE_4X2, gen_example

LAYERS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench", "layers.py")


def _load_layers():
    spec = importlib.util.spec_from_file_location("_perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_layer_trace_binds_to_the_solvers():
    layers = _load_layers()
    game = gen_example(EXAMPLE_4X2)
    with layers.LayerTrace() as trace:
        solvers.solve_selo(game, "float")
        solvers.solve_best_nash(game, "exact")
        solvers.solve_seslo(game)
    trace.check_bindings()
    # best Nash runs through solve_selo, whose span it then encloses
    assert trace.calls["solvers.solve_selo"] == 2
    assert trace.calls["solvers.solve_best_nash"] == trace.calls["solvers.solve_seslo"] == 1
    assert trace.counts["solves"] == 3
    assert trace.counts["solver_lp_spans"] == trace.counts["solver_lps_reported"] > 0
    assert trace.counts["lp_cells"] > 0
    assert trace.counts["enum_subsets"] >= trace.counts["enum_vertices"] > 0
    assert trace.calls["linprog.check_certificate"] > 0
    # the wrappers are gone again
    assert not hasattr(solvers.solve_selo, "__wrapped__")
