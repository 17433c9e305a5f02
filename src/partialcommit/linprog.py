"""Deterministic linear programming and vertex enumeration.

One LP form: maximize ``objective . x`` over ``<=`` and ``=`` rows with
nonnegative right-hand sides, ``x >= 0``, on a bounded region (every package
LP has a ``sum = 1`` row), so a solve ends optimal or infeasible.  ``x = 0``
meets each ``<=`` row, so only ``=`` rows need an artificial column.

Both arithmetic modes run a two-phase tableau simplex on min c.y, A y = b,
y >= 0, with c the negated objective, on one layout: the constraint rows over
``[A | b]`` with the reduced-cost row last, so a pivot updates every row
alike, and the artificial columns last, behind a cutoff that no entering
column passes.  Phase 1 always runs, and tableau row i stays program row i: a
redundant ``=`` row, with no real entry left after phase 1, stays inert, its
artificial basic at zero and its dual 0.  The kernels differ only in
arithmetic and pricing.  Exact mode uses Bland's smallest-index rule (no
rounding anywhere, guaranteed termination) on integer rows: each row is a list
of Python ints over one positive denominator.  A row update skips the zero
entries of the row it subtracts, and a row is brought to lowest terms only
once its denominator has grown past ``_REDUCE_BITS``; the pivot row alone is
reduced at every pivot.  A positive row scale cancels out of every sign test
and cross-multiplied ratio, so the pivots are those of a rational tableau,
made with integer arithmetic only.  ``Fraction`` values are built just for the
solution, duals and objective it returns, which puts them in lowest terms.

Float mode works on numpy arrays end to end under a 1e-9 tolerance:
standardization converts the constraint matrix, right-hand side and cost in
one call each, and a pivot is one rank-one update of the tableau.  It uses
the Dantzig rule with largest-pivot tie-breaking, which wanders far less on
degenerate programs; an optimum must pass its certificate and an
infeasibility verdict its Farkas vector, and anything else (a stall, a
column with no leaving row, a failed check) is re-solved in exact arithmetic
and logged at debug level on the ``partialcommit.linprog`` logger.  Both
modes are fully deterministic for a fixed input.

Artificial columns are kept in the tableau (barred from entering) so the
final reduced-cost row yields the dual vector for free; every optimal
outcome carries enough state to re-verify feasibility, dual feasibility and
strong duality via :meth:`LpOutcome.check_certificate`.  One routine checks
both modes: float certificates on their arrays within ``FLOAT_TOL``, exact
ones on object arrays with no tolerance.  A float answer re-solved exactly is
that solve's outcome rounded, and it keeps that solve's exact certificate.

Vertex enumeration (for the SELO and best-Nash support search) rests on one
row reduction, ``_add_row``, which grows a reduced system by one row or finds
the row dependent on it or contradicting it.  Tight subsets are built one row
at a time, so a dependent prefix is dropped with every subset extending it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

import numpy as np

from .errors import NonFiniteNumber
from .games import FLOAT_TOL, Number, tolerance, to_mode

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

_STALLED = "stalled"  # internal: the float kernel leaves the program to exact mode

_MAX_PIVOTS = 200_000

#: float mode refuses to divide by anything smaller than this when a
#: better-scaled pivot is available
_PIVOT_MIN = 1e-7

#: exact mode brings an updated row to lowest terms only once its
#: denominator has more bits than this.  Timed at 512, 1024, 2048 and 4096
#: bits on SESLO and CE LPs up to 8x8 (payoff denominators <= 100) and on
#: a float-valued 6x6 SESLO LP, 1024 was the fastest on the 8x8 LPs and
#: within 10% of the best on the others: 512 reduces 2-4x as many rows,
#: larger bounds let them grow, and never reducing took the 8x8 SESLO LP
#: from about 2.5 s to 16 s.
_REDUCE_BITS = 1024

Constraint = tuple[Sequence[Number], str, Number]  # (coefficients, '<=' | '=', rhs >= 0)


def _check_rows(constraints: tuple[Constraint, ...], num_vars: int) -> None:
    for coefs, rel, rhs in constraints:
        if len(coefs) != num_vars:
            raise ValueError("constraint coefficient length must equal num_vars")
        if rel not in ("<=", "="):
            raise ValueError(f"relation must be '<=' or '=', got {rel!r}")
        if rhs < 0:
            raise ValueError(f"right-hand side must be nonnegative, got {rhs!r}")


@dataclass(frozen=True)
class LinearProgram:
    """Maximize ``objective . x`` over ``<=`` and ``=`` rows with
    nonnegative right-hand sides, ``x >= 0``; the region must be bounded.

    A ``>=`` row is written as a ``<=`` row with its coefficients negated, a
    minimum as the maximum of the negated objective, and an upper bound as
    one more ``<=`` row.
    """

    objective: tuple[Number, ...]
    constraints: tuple[Constraint, ...]
    num_vars: int

    def __post_init__(self):
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length must equal num_vars")
        _check_rows(self.constraints, self.num_vars)


@dataclass(frozen=True)
class Polytope:
    """Feasible region only: the rows of a :class:`LinearProgram`, ``x >= 0``."""

    num_vars: int
    constraints: tuple[Constraint, ...]
    #: not a field: the benchmark's layer trace (perfbench/layers.py,
    #: ``_on_enumerate``) reads it to count inequality rows
    upper_bounds = None

    def __post_init__(self):
        _check_rows(self.constraints, self.num_vars)


@dataclass
class _Certificate:
    # standard-form data the simplex actually solved: min c.y, A y = b, y >= 0
    # (artificial columns are bookkeeping, not variables of the real program);
    # lists of ints and Fractions in exact mode, numpy arrays in float mode
    matrix: list | np.ndarray
    rhs: list | np.ndarray
    cost: list | np.ndarray
    x_std: list | np.ndarray
    duals: list | np.ndarray
    artificials: list
    mode: str

    def check(self) -> bool:
        """Primal feasibility (artificials at zero), dual feasibility and
        strong duality, as one set of array tests for both modes.  Float mode
        allows ``FLOAT_TOL`` on the point and the rows and 10x that on the
        artificials, reduced costs and duality gap; exact mode allows nothing,
        on ``dtype=object`` arrays of the solve's ints and ``Fraction``s."""
        a, b, c, x, y = self.matrix, self.rhs, self.cost, self.x_std, self.duals
        art = self.artificials
        tol = tolerance(self.mode)
        if self.mode == "exact":
            b, c, x, y = (np.array(v, dtype=object) for v in (b, c, x, y))
            a = np.array(a, dtype=object).reshape(len(b), len(c))
        # a point the verifiers would reject (they allow FLOAT_TOL) must not
        # pass here, or a float solve could report an infeasible optimum
        if (x < -tol).any() or (np.abs(x[art]) > tol * 10).any():
            return False
        if (np.abs(_sum_in_order(a * x, 1) - b) > tol).any():
            return False
        # dual feasibility: reduced costs nonnegative for the min problem
        rc = c - _sum_in_order(y[:, None] * a, 0)
        rc[art] = 0
        if (rc < -tol * 10).any():
            return False
        primal = _sum_in_order(c * x, 0)
        return bool(abs(primal - _sum_in_order(y * b, 0)) <= tol * 10 * (1 + abs(primal)))


def _sum_in_order(terms: np.ndarray, axis: int):
    """Sums along ``axis``, added first to last as Python's ``sum`` adds
    them: a verdict at a tolerance's edge must not hang on the order in which
    a BLAS dot product adds."""
    if terms.shape[axis] == 0:
        return terms.sum(axis)
    return np.add.accumulate(terms, axis).take(-1, axis)


@dataclass
class LpOutcome:
    status: str
    value: Number | None = None
    solution: tuple[Number, ...] | None = None
    duals: tuple[Number, ...] | None = None
    _certificate: _Certificate | None = field(default=None, repr=False)

    def check_certificate(self) -> bool:
        """Re-verify primal/dual feasibility and strong duality."""
        if self.status != OPTIMAL:
            return False
        return self._certificate is not None and self._certificate.check()


# ---------------------------------------------------------------------------
# standardization


def _standardize(lp: LinearProgram, mode: str):
    """Give each ``<=`` row a slack column and each ``=`` row an artificial.

    Returns everything the kernels need to solve min c.y, A y = b, y >= 0,
    with ``c`` the negated objective: the matrix, right-hand side and cost
    are lists of ints and ``Fraction``s in exact mode (any other number is
    converted exactly) and numpy arrays, converted in one call each, in
    float mode.
    """
    v, m = lp.num_vars, len(lp.constraints)
    # column layout: structural vars, then slacks, then artificials
    ncols = v + m
    if mode == "float":
        matrix = np.zeros((m, ncols))
        matrix[:, :v] = np.array([row for row, _, _ in lp.constraints], dtype=float).reshape(m, v)
        if not np.isfinite(matrix).all():
            # a payoff difference overflowed: stop before the kernel pivots on it
            bad = float(matrix[~np.isfinite(matrix)][0])
            raise NonFiniteNumber(
                f"a float computation reached {bad}; solve with --mode exact instead"
            )
        b = np.array([rhs for _, _, rhs in lp.constraints], dtype=float)
        cost = np.concatenate([-np.array(lp.objective, dtype=float), np.zeros(m)])
    else:
        matrix = [[_exact(x) for x in coefs] + [0] * m for coefs, _, _ in lp.constraints]
        b = [_exact(rhs) for _, _, rhs in lp.constraints]
        cost = [-_exact(x) for x in lp.objective] + [0] * m
    slack_rows = [i for i, (_, rel, _) in enumerate(lp.constraints) if rel == "<="]
    art_rows = [i for i, (_, rel, _) in enumerate(lp.constraints) if rel == "="]
    # column giving the i-th unit vector (the row's slack or artificial):
    # the starting basis, and where the duals are read
    ident = [None] * m
    for j, i in enumerate(slack_rows + art_rows, v):
        matrix[i][j] = 1
        ident[i] = j
    return {
        "matrix": matrix,
        "rhs": b,
        "cost": cost,
        "artificials": list(range(v + len(slack_rows), ncols)),
        "ident": ident,
        "num_vars": v,
        "ncols": ncols,
    }


def _exact(x: Number) -> int | Fraction:
    """``x`` itself when it is already an int or ``Fraction``, else its
    exact value (a float that is not finite raises ``NonFiniteNumber``)."""
    return x if isinstance(x, (int, Fraction)) else to_mode(x, "exact")


# ---------------------------------------------------------------------------
# exact kernel (fraction-free integer rows)


def _int_row(values):
    """Integers over the least positive common denominator of ``values``."""
    pairs = [x.as_integer_ratio() for x in values]
    den = lcm(*[d for _, d in pairs])
    return [n * (den // d) for n, d in pairs], den


def _sub_multiple(row, den, other, s, t):
    """``row/den - t/(s*den) * other`` as (integers, denominator); ``s`` is
    positive.  The result is brought to lowest terms only once its
    denominator passes ``_REDUCE_BITS``."""
    g = gcd(s, t)
    if g > 1:
        s //= g
        t //= g
    if s == 1:
        new = [a - t * b if b else a for a, b in zip(row, other)]
    else:
        new = [a * s - t * b if b else a * s for a, b in zip(row, other)]
        den *= s
    if den.bit_length() > _REDUCE_BITS:
        g = gcd(den, *new)
        if g > 1:
            return [a // g for a in new], den // g
    return new, den


def _simplex_exact(std):
    """Two-phase Bland simplex on integer rows (see the module docstring):
    the constraint rows with the right-hand side last, then the reduced-cost
    row.  Signs are read from the numerators, since every denominator is
    positive.
    """
    rows, dens = [], []
    for coefs, b in zip(std["matrix"], std["rhs"]):
        row, den = _int_row([*coefs, b])
        rows.append(row)
        dens.append(den)
    rows.append(None)  # the reduced-cost row, priced by run()
    dens.append(None)
    basis = list(std["ident"])
    ncols = std["ncols"]
    # the artificial columns come last and never enter
    real = ncols - len(std["artificials"])

    def pivot(r, j):
        prow = rows[r]
        p = prow[j]
        if p < 0:
            prow = [-a for a in prow]
            p = -p
        g = gcd(*prow)
        if g > 1:
            prow = [a // g for a in prow]
            p //= g
        rows[r], dens[r] = prow, p  # entry j is now exactly 1
        for i, row in enumerate(rows):
            f = row[j]
            if f and i != r:
                rows[i], dens[i] = _sub_multiple(row, dens[i], prow, p, f)
        basis[r] = j

    def run(cost):
        z, dz = _int_row([*cost, 0])
        for i, bcol in enumerate(basis):
            f = cost[bcol]
            if f:
                # z -= f * row_i / dens[i], with f = num/den
                z, dz = _sub_multiple(
                    z, dz, rows[i], f.denominator * dens[i], f.numerator * dz
                )
        rows[-1], dens[-1] = z, dz
        for _ in range(_MAX_PIVOTS):
            z = rows[-1]
            entering = next((j for j in range(real) if z[j] < 0), None)
            if entering is None:
                return
            # min ratio rhs_i / a_i, where the row denominator cancels
            leave = None
            for i, row in enumerate(rows[:-1]):
                a = row[entering]
                if a > 0:
                    if leave is not None:
                        lhs, rhs = row[ncols] * best_a, best_b * a
                        if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                            continue
                    leave, best_b, best_a = i, row[ncols], a
            if leave is None:
                raise RuntimeError("the program is unbounded")
            pivot(leave, entering)
        raise RuntimeError("simplex failed to terminate")

    # artificials start basic and may leave, but never re-enter; fixing
    # them at zero once they leave preserves the feasibility decision
    run([0] * real + [1] * (ncols - real))
    if rows[-1][ncols] < 0:
        return {"status": INFEASIBLE}
    # drive remaining artificials out of the basis; one on a row with no
    # real entry left stays basic at zero, and that redundant row is inert
    for i in range(len(basis) - 1, -1, -1):
        if basis[i] >= real:
            target = next((j for j in range(real) if rows[i][j]), None)
            if target is not None:
                pivot(i, target)

    run(std["cost"])
    z, dz = rows.pop(), dens.pop()
    x = [Fraction(0)] * ncols
    for row, den, bcol in zip(rows, dens, basis):
        x[bcol] = Fraction(row[ncols], den)
    return {
        "status": OPTIMAL,
        "x": x,
        "obj": Fraction(-z[ncols], dz),
        "basis": tuple(sorted(b for b in basis if b < real)),
        "duals": [Fraction(-z[j], dz) for j in std["ident"]],
    }


# ---------------------------------------------------------------------------
# float kernel (numpy)


def _simplex_float(std):
    """Two-phase simplex on one tableau: the constraint rows over ``[A | b]``
    with the reduced-cost row last, so a pivot is one rank-one update."""
    tol = FLOAT_TOL
    ncols = std["ncols"]
    orig, orig_rhs = std["matrix"], std["rhs"]
    m = len(orig_rhs)
    t = np.zeros((m + 1, ncols + 1))
    t[:m, :ncols] = orig
    t[:m, ncols] = orig_rhs
    basis = np.array(std["ident"], dtype=int)
    ident = np.array(std["ident"], dtype=int)
    # the artificial columns come last and never enter
    real = ncols - len(std["artificials"])

    def pivot(r, j):
        prow = t[r] / t[r, j]
        col = t[:, j, None].copy()
        col[r] = 0.0
        np.subtract(t, col * prow, out=t)
        t[r] = prow
        basis[r] = j

    def run(cost):
        # Dantzig entering with largest-pivot tie-breaking: much less
        # degenerate wandering than Bland on these all-zero-rhs programs.
        # A stall cap, like a column with no leaving row, hands the program
        # to the exact solver.
        t[-1, :ncols] = cost
        t[-1, ncols] = 0.0
        for i in cost[basis].nonzero()[0]:
            t[-1] -= cost[basis[i]] * t[i]
        z, rhs = t[-1, :real], t[:-1, ncols]  # views that follow the pivots
        for _ in range(200 + 40 * (m + ncols)):
            j = int(z.argmin())
            if z[j] >= -tol:
                return OPTIMAL
            col = t[:-1, j]
            # near-zero pivots amplify error 1/|piv|; only fall back to them
            # when no well-scaled candidate exists at all
            pos = (col > _PIVOT_MIN).nonzero()[0]
            if pos.size == 0:
                pos = (col > tol).nonzero()[0]
                if pos.size == 0:
                    return _STALLED
            ratios = rhs[pos] / col[pos]
            best = ratios.min()
            ties = pos[ratios <= best + tol * (1 + abs(best))]
            leave = ties[0]
            if ties.size > 1:  # the largest pivot, then the smallest basic column
                ties = ties[col[ties] == col[ties].max()]
                leave = ties[basis[ties].argmin()]
            pivot(int(leave), j)
        return _STALLED

    cost1 = np.zeros(ncols)
    cost1[real:] = 1.0
    if run(cost1) is _STALLED:
        return {"status": _STALLED}
    if -t[-1, ncols] > tol * 10:
        # validate the implied Farkas certificate before trusting it
        y = cost1[ident] - t[-1, ident]
        lhs = y @ orig
        if (y @ orig_rhs) > 1e-8 and float(lhs[:real].max(initial=0.0)) <= 1e-7:
            return {"status": INFEASIBLE}
        return {"status": _STALLED}
    # drive the artificials out of the basis, last row first; a redundant
    # row, with no real entry left, is zeroed and stays inert
    for i in (basis >= real).nonzero()[0][::-1]:
        cands = (np.abs(t[i, :real]) > tol).nonzero()[0]
        if cands.size:
            well_scaled = cands[np.abs(t[i, cands]) > _PIVOT_MIN]
            pivot(i, (well_scaled if well_scaled.size else cands)[0])
        else:
            t[i, :real] = t[i, ncols] = 0.0

    cost2 = std["cost"]
    if run(cost2) is _STALLED:
        return {"status": _STALLED}
    x = np.zeros(ncols)
    x[basis] = t[:-1, ncols]
    duals = np.where(basis < real, -t[-1, ident], 0.0)
    return {
        "status": OPTIMAL,
        "x": x,
        "obj": float(cost2 @ x),
        "basis": tuple(sorted(basis[basis < real].tolist())),
        "duals": duals,
    }


# ---------------------------------------------------------------------------
# public entry points


def solve_lp(lp: LinearProgram, mode: str = "exact") -> LpOutcome:
    """Solve ``lp`` deterministically, to ``OPTIMAL`` or ``INFEASIBLE`` (an
    unbounded program raises ``RuntimeError``); see the module docstring.

    A float-mode program the float kernel cannot settle (a stall, or an
    optimum whose certificate does not verify) is transparently re-solved
    exactly and rounded; the rounded outcome keeps the exact certificate, so
    float results are always certified too.
    """
    std = _standardize(lp, mode)
    res = _simplex_exact(std) if mode == "exact" else _simplex_float(std)
    if res["status"] == _STALLED:
        return _float_via_exact(lp, "stalled")
    if res["status"] != OPTIMAL:
        return LpOutcome(status=res["status"])
    solution, duals = res["x"][: std["num_vars"]], res["duals"]
    value = -res["obj"]
    if mode == "float":
        # adding zero turns -0.0 into 0.0, so no reported zero reads "-0.0"
        solution, value, duals = (solution + 0.0).tolist(), value + 0.0, duals.tolist()
    cert = _Certificate(
        matrix=std["matrix"],
        rhs=std["rhs"],
        cost=std["cost"],
        x_std=res["x"],
        duals=res["duals"],
        artificials=std["artificials"],
        mode=mode,
    )
    outcome = LpOutcome(
        status=OPTIMAL,
        value=value,
        solution=tuple(solution),
        duals=tuple(duals),
        _certificate=cert,
    )
    if mode == "float" and not outcome.check_certificate():
        return _float_via_exact(lp, "certificate failed")
    return outcome


def _float_via_exact(lp: LinearProgram, reason: str) -> LpOutcome:
    """The exact solve of ``lp``: an optimum rounded to floats, or infeasible."""
    # imported here, on the rare fallback: the logging package costs about
    # 0.5 MB of resident memory and 6 ms of start-up in every process
    import logging

    logging.getLogger(__name__).debug("float LP re-solved in exact arithmetic: %s", reason)
    exact = solve_lp(lp, "exact")
    if exact.status != OPTIMAL:
        return exact
    # the rounded numbers keep the exact solve's certificate, which they came from
    return replace(
        exact,
        value=float(exact.value),
        solution=tuple(float(x) for x in exact.solution),
        duals=tuple(float(y) for y in exact.duals),
    )


def _add_row(piv: dict, row: list, tol: float) -> dict | None:
    """Reduce the augmented ``row`` (coefficients, then right-hand side)
    against ``piv``, ``{pivot column: row}`` in reduced form; return the grown
    system, ``piv`` itself when the row depends on it and agrees, or ``None``
    when it contradicts it.  Exact mode (``tol`` 0) pivots on the first
    nonzero entry, float mode on the largest, beyond ``tol``.
    """
    # skipping the many zero entries saves much of the ``Fraction`` work
    for col, prow in piv.items():
        f = row[col]
        if f:
            row = [a - f * b if b else a for a, b in zip(row, prow)]
    if tol:
        mags = [abs(a) for a in row[:-1]]
        big = max(mags, default=0.0)
        col = mags.index(big) if big > tol else None
    else:
        col = next((j for j, a in enumerate(row[:-1]) if a), None)
    if col is None:
        return piv if abs(row[-1]) <= tol else None
    p = row[col]
    row = [a / p for a in row]
    grown = {}
    for c, prow in piv.items():
        f = prow[col]
        grown[c] = [a - f * b if b else a for a, b in zip(prow, row)] if f else prow
    grown[col] = row
    return grown


def enumerate_vertices(poly: Polytope, mode: str = "exact") -> list[tuple]:
    """Every vertex of the polytope exactly once, deterministic order.

    The region must be bounded: a direction along which it recedes has no
    vertex, so it would go unreported.  Every solver polytope is bounded,
    since it carries ``sum = 1`` over nonnegative variables.

    The equality rows go in first (``[]`` if they contradict).  A depth-first
    walk then adds the inequality rows, nonnegativity last, in the order of
    ``itertools.combinations``; each subset reaching full rank gives a point,
    kept when new and within every row.  Intended for desk-scale dimensions.
    """
    dim = poly.num_vars
    tol = tolerance(mode)
    zero, one = to_mode(0, mode), to_mode(1, mode)
    rows = [([to_mode(a, mode) for a in coefs], rel, to_mode(rhs, mode))
            for coefs, rel, rhs in poly.constraints]
    base = {}
    for coefs, rel, rhs in rows:
        if rel == "=" and (base := _add_row(base, [*coefs, rhs], tol)) is None:
            return []
    # x_i >= 0 is tight where x_i = 0: a unit row with right-hand side 0
    ineqs = [[*coefs, rhs] for coefs, rel, rhs in rows if rel == "<="]
    ineqs += [[one if j == i else zero for j in range(dim + 1)] for i in range(dim)]
    verts, seen = [], set()

    def walk(piv: dict, start: int) -> None:
        if len(piv) < dim:
            for k in range(start, len(ineqs) - (dim - len(piv)) + 1):
                grown = _add_row(piv, ineqs[k], tol)
                if grown is not None and grown is not piv:
                    walk(grown, k + 1)
            return
        x = [piv[j][dim] for j in range(dim)]
        if any(v < -tol for v in x):
            return
        key = tuple(x) if mode == "exact" else tuple(round(v, 9) for v in x)
        if key in seen:
            return
        for coefs, rel, rhs in rows:
            lhs = sum(a * v for a, v in zip(coefs, x))
            if (lhs > rhs + tol) if rel == "<=" else (abs(lhs - rhs) > tol):
                return
        seen.add(key)
        # adding zero turns a -0.0 coordinate into 0.0
        verts.append(key if mode == "exact" else tuple(v + 0.0 for v in x))

    walk(base, 0)
    return verts
