"""Exception types shared across the package.

Everything raised on bad user input derives from :class:`GameError`, which
the CLI maps to exit code 1.  So does :class:`SolverFailure`: a solver LP
that ends in a status the game theory rules out (a signal LP cannot be
infeasible, since every correlated equilibrium is feasible for it) names the
failing LP instead of ending the command in a traceback.  Other internal
invariant violations use plain ``RuntimeError`` and are bugs.
"""


class GameError(Exception):
    """Base class for domain errors."""


class DimensionMismatch(GameError):
    """Payoff matrices or profiles have incompatible shapes."""


class NonFiniteNumber(GameError):
    """A payoff or probability is NaN or infinite."""


class EmptyGame(GameError):
    """A game needs at least one row and one column."""


class PartitionInvalid(GameError):
    """Row partition does not cover the row set exactly once."""


class UniverseMismatch(GameError):
    """Two partitions do not share the same row universe."""


class ScaleGuardExceeded(GameError):
    """An exponential-time solver was invoked above the size guard."""


class UnknownExample(GameError):
    """Unrecognized built-in example name."""


class InvalidInstance(GameError):
    """Malformed exact-cover instance."""


class InvalidParams(GameError):
    """Game family parameters outside their legal range."""


class SolverFailure(GameError):
    """A solver LP ended unexpectedly infeasible, or a search found no
    feasible profile."""
