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

``find_deviation`` solves an LP only for ``NO_REVEAL``.  The other two
models have closed forms.  Under ``PUBLIC_REVEAL`` each recommended row
moves to the row of its cell with the largest ``sum_c p[r][c] * u1[.][c]``.
Under ``ROW_KNOWS_COLUMN_SIGNAL`` each recommended pair ``(r, c)`` moves to
the row of r's cell with the largest ``u1[.][c]``; no plan that keeps every
column's cell masses can do better, since it can at best give each cell's
mass under column c that cell's best payoff in column c.  Both use the rule
``verify_mixed`` uses: a row stays unless a row of its cell is strictly
better, moves to the best row (lowest index on ties), and rows or pairs with
zero mass stay.  The identity plan is always available, so the reported
gain is never negative.
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


def _best_row(cell, score, r: int) -> int:
    """Row that recommended row ``r`` of ``cell`` moves to: the row of the
    cell with the largest ``score`` (lowest index on ties) when it is
    strictly better than ``r``, else ``r`` itself."""
    best = max(cell, key=lambda r2: (score[r2], -r2))
    return best if score[best] > score[r] else r


def _point_masses(target, m: int, mode: str) -> tuple:
    """Deterministic plan rows: all mass on ``target[i]`` in row ``i``."""
    zero, one = to_mode(0, mode), to_mode(1, mode)
    return tuple(tuple(one if r2 == t else zero for r2 in range(m)) for t in target)


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
    knows_column = plan.model is SignalModel.ROW_KNOWS_COLUMN_SIGNAL
    for r in range(m):
        for c in range(n):
            if p[r][c] == 0:
                continue
            moves = plan.delta[r][c] if knows_column else plan.delta[r]
            for r2 in range(m):
                out[r2][c] += p[r][c] * moves[r2]
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
        for r in cell:
            if s1[r] > tol:
                target[r] = _best_row(cell, row_payoff, r)
                row_gain += s1[r] * (row_payoff[target[r]] - row_payoff[r])
    row_witness = None
    if row_gain > tol:
        row_witness = DeviationPlan(SignalModel.PUBLIC_REVEAL, _point_masses(target, m, mode), row_gain)
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
    cell_of = game.partition.cell_of
    if model is SignalModel.NO_REVEAL:
        delta, gain = _no_reveal_plan(u1, p, game.partition, mode)
    elif model is SignalModel.PUBLIC_REVEAL:
        gain, target = to_mode(0, mode), []
        for r in range(m):
            cell = cell_of(r)
            score = {r2: sum(p[r][c] * u1[r2][c] for c in range(n)) for r2 in cell}
            target.append(_best_row(cell, score, r))
            gain += score[target[r]] - score[r]
        delta = _point_masses(target, m, mode)
    else:
        columns = list(zip(*u1))
        gain, delta = to_mode(0, mode), []
        for r in range(m):
            target = [_best_row(cell_of(r), columns[c], r) if p[r][c] else r for c in range(n)]
            gain += sum(p[r][c] * (u1[t][c] - u1[r][c]) for c, t in enumerate(target))
            delta.append(_point_masses(target, m, mode))
    if mode == "float" and abs(gain) < FLOAT_TOL:
        gain = 0.0
    return DeviationPlan(model=model, delta=delta, gain=gain)


def _no_reveal_plan(u1, p, partition, mode: str) -> tuple[tuple, Number]:
    """(delta, gain) of the no-reveal LP: variable ``r * m + r2`` is
    ``delta[r][r2]``, and the plan must keep every column's cell masses."""
    m, n = len(p), len(p[0])
    zero, one = to_mode(0, mode), to_mode(1, mode)
    objective = tuple(
        sum(p[r][c] * u1[r2][c] for c in range(n)) for r in range(m) for r2 in range(m)
    )
    constraints = [
        (tuple(one if r3 == r else zero for r3 in range(m) for _ in range(m)), "=", 1)
        for r in range(m)
    ]
    # preserve the observed cell distribution given each sent column signal
    for c in range(n):
        if sum(p[r][c] for r in range(m)) <= _tol(mode):
            continue
        for cell in partition.cells:
            row = tuple(p[r][c] if r2 in cell else zero for r in range(m) for r2 in range(m))
            constraints.append((row, "=", sum(p[r][c] for r in cell)))
    out = solve_lp(LinearProgram(objective, tuple(constraints), m * m), mode)
    if out.status != OPTIMAL:
        raise SolverFailure(f"deviation LP unexpectedly {out.status}")
    baseline = sum(p[r][c] * u1[r][c] for r in range(m) for c in range(n))
    delta = tuple(out.solution[r * m:(r + 1) * m] for r in range(m))
    return delta, out.value - baseline
