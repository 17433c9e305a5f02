"""Solvers for two-player games where the row player's commitment power is
limited to what the column player can observe: the rows are partitioned into
cells of indistinguishable actions, reputations form over cells only, and
solution concepts ask that no profitable deviation be undetectable."""

from .deviations import (
    DeviationPlan,
    SignalModel,
    VerifyReport,
    apply_plan,
    embed_mixed_as_correlated,
    find_deviation,
    plan_gain,
    plan_is_undetectable,
    verify_correlated,
    verify_mixed,
)
from .errors import (
    DimensionMismatch,
    EmptyGame,
    GameError,
    InvalidInstance,
    InvalidParams,
    NonFiniteNumber,
    PartitionInvalid,
    ScaleGuardExceeded,
    SolverFailure,
    UniverseMismatch,
    UnknownExample,
)
from .games import (
    CorrelatedProfile,
    Game,
    MixedProfile,
    SISPartition,
    conditional_sis_given_column,
    correlated_utilities,
    expected_utilities,
    is_refinement,
    load_game,
    load_profile,
    save_game,
    save_profile,
    sis_mass,
    validate_game,
)
from .instances import (
    EXAMPLE_4X2,
    EXAMPLE_NAMES,
    SHAPLEY,
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
from .linprog import (
    LinearProgram,
    LpOutcome,
    Polytope,
    enumerate_vertices,
    solve_lp,
)
from .solvers import (
    BEST_NASH,
    MAX_CE,
    SELO,
    SESLO,
    STACKELBERG,
    SolveReport,
    solve_best_nash,
    solve_max_ce,
    solve_selo,
    solve_seslo,
    solve_stackelberg,
)

__version__ = "0.1.0"
