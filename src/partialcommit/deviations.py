"""Undetectable-deviation checks and maximum-gain deviation search.

A deviation for the row player is a stochastic relabeling of the mediator's
recommendation.  What the column player can detect depends on the signaling
model:

* ``PUBLIC_REVEAL``: the row player's signal is published after play, so any
  move outside the recommended cell is caught; plans may only shuffle within
  a cell.
* ``NO_REVEAL``: only the per-column-signal distribution over cells is
  observable over time, so a plan is undetectable iff it preserves that
  conditional distribution for every column signal that actually occurs.
* ``ROW_KNOWS_COLUMN_SIGNAL``: as ``NO_REVEAL``, but the relabeling may also
  condition on the column player's signal.

``find_deviation`` solves one LP per model; the identity plan is always
feasible, so the reported gain is never negative.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from .errors import DimensionMismatch, SolverFailure
from .games import (
    FLOAT_TOL,
    CorrelatedProfile,
    Game,
    MixedProfile,
    Number,
    conditional_sis_given_column,
    correlated_utilities,
    to_mode,
)
from .linprog import OPTIMAL, LinearProgram, solve_lp


class SignalModel(enum.Enum):
    PUBLIC_REVEAL = "public-reveal"
    NO_REVEAL = "no-reveal"
    ROW_KNOWS_COLUMN_SIGNAL = "row-knows"


@dataclass(frozen=True)
class DeviationPlan:
    """Stochastic relabeling of row recommendations.

    ``delta[r][r2]`` is the chance of playing ``r2`` when recommended ``r``;
    under ``ROW_KNOWS_COLUMN_SIGNAL`` the table gains a middle index,
    ``delta[r][c][r2]``, conditioning on the column signal.
    """

    model: SignalModel
    delta: tuple
    gain: Number

    def __post_init__(self):
        object.__setattr__(self, "delta", _freeze(self.delta))
        tol = FLOAT_TOL if _has_float(self.delta) else 0
        rows = (
            [row for block in self.delta for row in block]
            if self.model is SignalModel.ROW_KNOWS_COLUMN_SIGNAL
            else list(self.delta)
        )
        for row in rows:
            if any(x < -tol for x in row):
                raise DimensionMismatch("plan has a negative probability")
            if abs(sum(row) - 1) > tol:
                raise DimensionMismatch("plan rows must each sum to 1")


def _freeze(x):
    if isinstance(x, (list, tuple)):
        return tuple(_freeze(v) for v in x)
    return x


def _has_float(x) -> bool:
    if isinstance(x, tuple):
        return any(_has_float(v) for v in x)
    return isinstance(x, float)


@dataclass(frozen=True)
class VerifyReport:
    passed: bool
    max_column_gain: Number
    max_row_gain: Number
    column_witness: tuple[int, int] | None = None
    row_witness: object = None  # (r, r') pair or a DeviationPlan


def _tol(mode: str) -> Number:
    return 0 if mode == "exact" else FLOAT_TOL


def embed_mixed_as_correlated(profile: MixedProfile) -> CorrelatedProfile:
    """Outer product: independent play seen as a joint recommendation."""
    mode = "float" if any(isinstance(x, float) for x in profile.sigma1 + profile.sigma2) else "exact"
    return CorrelatedProfile(
        [[s1 * s2 for s2 in profile.sigma2] for s1 in profile.sigma1], mode
    )


def apply_plan(profile: CorrelatedProfile, plan: DeviationPlan, mode: str = "exact") -> CorrelatedProfile:
    """Joint distribution that results from playing ``plan`` against ``profile``."""
    m, n = profile.num_rows, profile.num_cols
    p = profile.p
    out = [[to_mode(0, mode) for _ in range(n)] for _ in range(m)]
    if plan.model is SignalModel.ROW_KNOWS_COLUMN_SIGNAL:
        for r in range(m):
            for c in range(n):
                if p[r][c] == 0:
                    continue
                for r2 in range(m):
                    out[r2][c] += p[r][c] * plan.delta[r][c][r2]
    else:
        for r in range(m):
            for c in range(n):
                if p[r][c] == 0:
                    continue
                for r2 in range(m):
                    out[r2][c] += p[r][c] * plan.delta[r][r2]
    return CorrelatedProfile(out, mode)


def plan_gain(game: Game, profile: CorrelatedProfile, plan: DeviationPlan, mode: str = "exact") -> Number:
    """Row player's expected improvement from playing the plan."""
    g = Game(*game.payoffs_in_mode(mode), game.partition)
    prof = profile.in_mode(mode)
    base, _ = correlated_utilities(g, prof)
    dev, _ = correlated_utilities(g, apply_plan(prof, plan, mode))
    return dev - base


def plan_is_undetectable(
    game: Game, profile: CorrelatedProfile, plan: DeviationPlan, mode: str = "exact"
) -> bool:
    """Would the column player's long-run observations look unchanged?

    Checks that the per-column-signal distribution over cells is preserved
    for every column with positive marginal; under ``PUBLIC_REVEAL`` the
    plan must additionally stay inside each recommendation's cell.
    """
    tol = _tol(mode)
    prof = profile.in_mode(mode)
    if plan.model is SignalModel.PUBLIC_REVEAL:
        for r in range(game.num_rows):
            cell = set(game.partition.cell_of(r))
            for r2 in range(game.num_rows):
                if r2 not in cell and abs(plan.delta[r][r2]) > tol:
                    return False
    deviated = apply_plan(prof, plan, mode)
    for c in range(game.num_cols):
        before = conditional_sis_given_column(prof, game.partition, c)
        if before is None:
            continue
        after = conditional_sis_given_column(deviated, game.partition, c)
        if after is None:
            return False
        if any(abs(a - b) > tol for a, b in zip(after, before)):
            return False
    return True


# ---------------------------------------------------------------------------
# verifiers


def verify_mixed(game: Game, profile: MixedProfile, mode: str = "exact") -> VerifyReport:
    """Check a mixed profile for undetectable beneficial deviations.

    Gains are those of the best deviation: for the column player, switching
    all mass to the best response; for the row player, the best relabeling
    that keeps the distribution over cells fixed (move each cell's mass to
    that cell's best row).
    """
    if len(profile.sigma1) != game.num_rows or len(profile.sigma2) != game.num_cols:
        raise DimensionMismatch("profile shape does not match game")
    u1, u2 = game.payoffs_in_mode(mode)
    prof = profile.in_mode(mode)
    s1, s2 = prof.sigma1, prof.sigma2
    m, n = game.num_rows, game.num_cols
    tol = _tol(mode)

    col_payoff = [sum(s1[r] * u2[r][c] for r in range(m)) for c in range(n)]
    played = sum(s2[c] * col_payoff[c] for c in range(n))
    best_c = max(range(n), key=lambda c: (col_payoff[c], -c))
    col_gain = col_payoff[best_c] - played
    col_witness = None
    if col_gain > tol:
        worst_supported = min(
            (c for c in range(n) if s2[c] > tol), key=lambda c: (col_payoff[c], c)
        )
        col_witness = (worst_supported, best_c)
    else:
        col_gain = to_mode(0, mode)

    row_payoff = [sum(s2[c] * u1[r][c] for c in range(n)) for r in range(m)]
    row_gain = to_mode(0, mode)
    target = list(range(m))
    for cell in game.partition.cells:
        best_r = max(cell, key=lambda r: (row_payoff[r], -r))
        for r in cell:
            if s1[r] > tol and row_payoff[best_r] > row_payoff[r]:
                row_gain += s1[r] * (row_payoff[best_r] - row_payoff[r])
                target[r] = best_r
    row_witness = None
    if row_gain > tol:
        delta = [[to_mode(1 if r2 == target[r] else 0, mode) for r2 in range(m)] for r in range(m)]
        row_witness = DeviationPlan(SignalModel.PUBLIC_REVEAL, delta, row_gain)
    else:
        row_gain = to_mode(0, mode)

    return VerifyReport(
        passed=col_gain <= tol and row_gain <= tol,
        max_column_gain=col_gain,
        max_row_gain=row_gain,
        column_witness=col_witness,
        row_witness=row_witness,
    )


def verify_correlated(game: Game, profile: CorrelatedProfile, mode: str = "exact") -> VerifyReport:
    """Check a joint recommendation distribution, one linear test per pair.

    Tests are evaluated in unnormalized form (mass-weighted), which makes
    the zero-mass provisos vacuous; the reported gains are the largest test
    values, floored at the always-available identity deviation's 0.
    """
    if profile.num_rows != game.num_rows or profile.num_cols != game.num_cols:
        raise DimensionMismatch("profile shape does not match game")
    u1, u2 = game.payoffs_in_mode(mode)
    p = profile.in_mode(mode).p
    m, n = game.num_rows, game.num_cols
    tol = _tol(mode)

    col_gain = to_mode(0, mode)
    col_witness = None
    for c in range(n):
        for c2 in range(n):
            if c2 == c:
                continue
            g = sum(p[r][c] * (u2[r][c2] - u2[r][c]) for r in range(m))
            if g > col_gain:
                col_gain, col_witness = g, (c, c2)

    row_gain = to_mode(0, mode)
    row_witness = None
    for cell in game.partition.cells:
        for r in cell:
            for r2 in cell:
                if r2 == r:
                    continue
                g = sum(p[r][c] * (u1[r2][c] - u1[r][c]) for c in range(n))
                if g > row_gain:
                    row_gain, row_witness = g, (r, r2)

    return VerifyReport(
        passed=col_gain <= tol and row_gain <= tol,
        max_column_gain=col_gain,
        max_row_gain=row_gain,
        column_witness=col_witness if col_gain > tol else None,
        row_witness=row_witness if row_gain > tol else None,
    )


# ---------------------------------------------------------------------------
# maximum-gain deviation search


def find_deviation(
    game: Game, profile: CorrelatedProfile, model: SignalModel, mode: str = "exact"
) -> DeviationPlan:
    """Maximum-gain undetectable deviation plan under the given model."""
    if profile.num_rows != game.num_rows or profile.num_cols != game.num_cols:
        raise DimensionMismatch("profile shape does not match game")
    u1, _ = game.payoffs_in_mode(mode)
    p = profile.in_mode(mode).p
    m, n = game.num_rows, game.num_cols
    part = game.partition
    conditioned = model is SignalModel.ROW_KNOWS_COLUMN_SIGNAL

    # variable layout
    if conditioned:
        var_of = {(r, c, r2): i for i, (r, c, r2) in enumerate(
            (r, c, r2) for r in range(m) for c in range(n) for r2 in range(m)
        )}
    elif model is SignalModel.PUBLIC_REVEAL:
        pairs = [(r, r2) for cell in part.cells for r in cell for r2 in cell]
        pairs.sort()
        var_of = {pair: i for i, pair in enumerate(pairs)}
    else:
        var_of = {(r, r2): r * m + r2 for r in range(m) for r2 in range(m)}
    nvars = len(var_of)
    zero = to_mode(0, mode)

    def blank():
        return [zero] * nvars

    objective = blank()
    if conditioned:
        for (r, c, r2), i in var_of.items():
            objective[i] = p[r][c] * u1[r2][c]
    else:
        for (r, r2), i in var_of.items():
            objective[i] = sum(p[r][c] * u1[r2][c] for c in range(n))

    constraints = []
    if conditioned:
        for r in range(m):
            for c in range(n):
                row = blank()
                for r2 in range(m):
                    row[var_of[(r, c, r2)]] = to_mode(1, mode)
                constraints.append((tuple(row), "=", 1))
    else:
        for r in range(m):
            row = blank()
            for r2 in range(m):
                if (r, r2) in var_of:
                    row[var_of[(r, r2)]] = to_mode(1, mode)
            constraints.append((tuple(row), "=", 1))

    if model in (SignalModel.NO_REVEAL, SignalModel.ROW_KNOWS_COLUMN_SIGNAL):
        # preserve the observed cell distribution given each sent column signal
        for c in range(n):
            marginal = sum(p[r][c] for r in range(m))
            if marginal <= _tol(mode):
                continue
            for cell in part.cells:
                row = blank()
                for r in range(m):
                    if p[r][c] == 0:
                        continue
                    for r2 in cell:
                        key = (r, c, r2) if conditioned else (r, r2)
                        row[var_of[key]] += p[r][c]
                rhs = sum(p[r][c] for r in cell)
                constraints.append((tuple(row), "=", rhs))

    lp = LinearProgram(
        objective=tuple(objective),
        sense="max",
        constraints=tuple(constraints),
        num_vars=nvars,
    )
    out = solve_lp(lp, mode)
    if out.status != OPTIMAL:
        raise SolverFailure(f"deviation LP unexpectedly {out.status}")

    baseline = sum(p[r][c] * u1[r][c] for r in range(m) for c in range(n))
    gain = out.value - baseline
    if mode == "float" and abs(gain) < FLOAT_TOL:
        gain = 0.0

    if conditioned:
        delta = tuple(
            tuple(tuple(out.solution[var_of[(r, c, r2)]] for r2 in range(m)) for c in range(n))
            for r in range(m)
        )
    else:
        delta = tuple(
            tuple(out.solution[var_of[(r, r2)]] if (r, r2) in var_of else zero for r2 in range(m))
            for r in range(m)
        )
    return DeviationPlan(model=model, delta=delta, gain=gain)
