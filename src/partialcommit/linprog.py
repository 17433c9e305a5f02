"""Deterministic linear programming and vertex enumeration.

Both arithmetic modes run a two-phase tableau simplex.  Exact mode uses
Bland's smallest-index rule (no rounding anywhere, guaranteed termination) on
a fraction-free tableau: every row, and the reduced-cost row, is a list of
Python ints over one positive denominator, brought to lowest terms by a
single gcd after each update.  It makes the pivot decisions of a rational
tableau with integer arithmetic only, and builds ``Fraction`` values just
for the solution, duals and objective it returns.

Float mode vectorizes the pivoting with numpy under a 1e-9 tolerance and
uses the Dantzig rule with largest-pivot tie-breaking, which wanders far
less on degenerate programs; every float status is validated (optimality
certificate, Farkas vector, or improving ray), and anything that cannot be
certified is re-solved in exact arithmetic, logged at debug level on the
``partialcommit.linprog`` logger.  Both modes are fully deterministic for a
fixed input.

Artificial columns are kept in the tableau (barred from entering) so the
final reduced-cost row yields the dual vector for free; every optimal
outcome carries enough state to re-verify feasibility, dual feasibility and
strong duality via :meth:`LpOutcome.check_certificate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Sequence

import numpy as np

from .games import FLOAT_TOL, Number, to_mode

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_STALLED = "stalled"  # internal: float kernel hit its iteration cap

_MAX_PIVOTS = 200_000

#: float mode refuses to divide by anything smaller than this when a
#: better-scaled pivot is available
_PIVOT_MIN = 1e-7

Constraint = tuple[Sequence[Number], str, Number]  # (coefficients, '<='|'='|'>=', rhs)


@dataclass(frozen=True)
class LinearProgram:
    """max/min of a linear objective over linear constraints.

    Every variable is nonnegative and has no other bound; an upper bound is
    one more ``<=`` constraint.
    """

    objective: tuple[Number, ...]
    sense: str  # 'max' | 'min'
    constraints: tuple[Constraint, ...]
    num_vars: int

    def __post_init__(self):
        if self.sense not in ("max", "min"):
            raise ValueError(f"sense must be 'max' or 'min', got {self.sense!r}")
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length must equal num_vars")
        for coefs, rel, _rhs in self.constraints:
            if len(coefs) != self.num_vars:
                raise ValueError("constraint coefficient length must equal num_vars")
            if rel not in ("<=", "=", ">="):
                raise ValueError(f"unknown relation {rel!r}")


@dataclass(frozen=True)
class Polytope:
    """Feasible region only; same constraint conventions as LinearProgram."""

    num_vars: int
    constraints: tuple[Constraint, ...]
    #: not a field: the benchmark's layer trace (perfbench/layers.py,
    #: ``_on_enumerate``) reads it to count inequality rows
    upper_bounds = None


@dataclass
class _Certificate:
    # standard-form data the simplex actually solved: min c.y, A y = b, y >= 0
    # (artificial columns are bookkeeping, not variables of the real program)
    matrix: list
    rhs: list
    cost: list
    x_std: list
    duals: list
    artificials: frozenset
    mode: str

    def check(self) -> bool:
        tol = 0 if self.mode == "exact" else FLOAT_TOL * 10
        # a point the verifiers would reject (they allow FLOAT_TOL) must not
        # pass here, or a float solve could report an infeasible optimum
        primal_tol = 0 if self.mode == "exact" else FLOAT_TOL
        n = len(self.cost)
        if any(x < -primal_tol for x in self.x_std):
            return False
        if any(abs(self.x_std[j]) > tol for j in self.artificials):
            return False
        for row, b in zip(self.matrix, self.rhs):
            resid = sum(a * x for a, x in zip(row, self.x_std)) - b
            if abs(resid) > primal_tol:
                return False
        # dual feasibility: reduced costs nonnegative for the min problem
        for j in range(n):
            if j in self.artificials:
                continue
            rc = self.cost[j] - sum(self.duals[i] * self.matrix[i][j] for i in range(len(self.rhs)))
            if rc < -tol:
                return False
        primal = sum(c * x for c, x in zip(self.cost, self.x_std))
        dual = sum(y * b for y, b in zip(self.duals, self.rhs))
        return abs(primal - dual) <= tol * (1 + abs(primal))


@dataclass
class LpOutcome:
    status: str
    value: Number | None = None
    solution: tuple[Number, ...] | None = None
    basis: tuple[int, ...] | None = None
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
    """Normalize signs and lay out slack and artificial columns.

    Returns everything the kernels need to solve min c.y, A y = b, y >= 0.
    """
    v = lp.num_vars
    obj = [to_mode(x, mode) for x in lp.objective]
    flip = lp.sense == "max"
    cost = [-x for x in obj] if flip else obj

    rows: list[list] = []
    rels: list[str] = []
    rhs: list = []
    for coefs, rel, b in lp.constraints:
        row = [to_mode(x, mode) for x in coefs]
        b = to_mode(b, mode)
        if b < 0:  # make every right-hand side nonnegative
            row, b, rel = [-a for a in row], -b, {"<=": ">=", ">=": "<=", "=": "="}[rel]
        rows.append(row)
        rels.append(rel)
        rhs.append(b)

    # column layout: structural vars, then slack/surplus, then artificials
    zero = to_mode(0, mode)
    one = to_mode(1, mode)
    m = len(rows)
    slack_col: list[int | None] = [None] * m
    art_col: list[int | None] = [None] * m
    ncols = v
    for i in range(m):
        if rels[i] in ("<=", ">="):
            slack_col[i] = ncols
            ncols += 1
    for i in range(m):
        if rels[i] in ("=", ">="):
            art_col[i] = ncols
            ncols += 1

    matrix = [row + [zero] * (ncols - v) for row in rows]
    for i in range(m):
        if slack_col[i] is not None:
            matrix[i][slack_col[i]] = one if rels[i] == "<=" else -one
        if art_col[i] is not None:
            matrix[i][art_col[i]] = one

    # column giving the i-th unit vector in the original matrix: the starting
    # basis, and where the duals are read
    ident = [art_col[i] if art_col[i] is not None else slack_col[i] for i in range(m)]
    return {
        "matrix": matrix,
        "rhs": rhs,
        "cost": cost + [zero] * (ncols - v),
        "basis": ident,
        "artificials": [c for c in art_col if c is not None],
        "ident": ident,
        "num_vars": v,
        "ncols": ncols,
        "flip": flip,
    }


# ---------------------------------------------------------------------------
# exact kernel (fraction-free integer rows)


def _int_row(values):
    """Integers over the least positive common denominator of ``values``."""
    pairs = [x.as_integer_ratio() for x in values]
    den = lcm(*[d for _, d in pairs])
    return [n * (den // d) for n, d in pairs], den


def _sub_multiple(row, den, other, s, t):
    """``row/den - t/(s*den) * other`` as (integers, denominator), in lowest
    terms; ``s`` is positive."""
    g = gcd(s, t)
    if g > 1:
        s //= g
        t //= g
    new = [a * s - t * b for a, b in zip(row, other)]
    den *= s
    g = gcd(den, *new)
    if g > 1:
        return [a // g for a in new], den // g
    return new, den


def _simplex_exact(std):
    """Two-phase Bland simplex on integer rows (see the module docstring);
    the right-hand side is the last entry of each row.  Signs are read from
    the numerators, since every denominator is positive.
    """
    rows, dens = [], []
    for coefs, b in zip(std["matrix"], std["rhs"]):
        row, den = _int_row([*coefs, b])
        rows.append(row)
        dens.append(den)
    basis = list(std["basis"])
    ncols = std["ncols"]
    art = set(std["artificials"])
    live = list(range(len(rows)))  # original row index per tableau row

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
        return prow, p

    def run(cost, enterable):
        z, dz = _int_row([*cost, 0])
        for i, bcol in enumerate(basis):
            f = cost[bcol]
            if f:
                # z -= f * row_i / dens[i], with f = num/den
                z, dz = _sub_multiple(
                    z, dz, rows[i], f.denominator * dens[i], f.numerator * dz
                )
        for _ in range(_MAX_PIVOTS):
            entering = None
            for j in range(ncols):
                if enterable[j] and z[j] < 0:
                    entering = j
                    break
            if entering is None:
                return z, dz, OPTIMAL
            # min ratio rhs_i / a_i, where the row denominator cancels
            leave = None
            for i, row in enumerate(rows):
                a = row[entering]
                if a > 0:
                    if leave is not None:
                        lhs, rhs = row[ncols] * best_a, best_b * a
                        if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                            continue
                    leave, best_b, best_a = i, row[ncols], a
            if leave is None:
                return z, dz, UNBOUNDED
            prow, p = pivot(leave, entering)
            f = z[entering]
            if f:
                z, dz = _sub_multiple(z, dz, prow, p, f)
        raise RuntimeError("simplex failed to terminate")

    if art:
        # artificials start basic and may leave, but never re-enter; fixing
        # them at zero once they leave preserves the feasibility decision
        cost1 = [1 if j in art else 0 for j in range(ncols)]
        z, _, _ = run(cost1, [j not in art for j in range(ncols)])
        if z[ncols] < 0:
            return {"status": INFEASIBLE}
        # drive remaining artificials out of the basis
        for i in range(len(rows) - 1, -1, -1):
            if basis[i] in art:
                row = rows[i]
                target = next((j for j in range(ncols) if j not in art and row[j]), None)
                if target is not None:
                    pivot(i, target)
                else:
                    del rows[i], dens[i], basis[i], live[i]

    enterable = [j not in art for j in range(ncols)]
    z, dz, status = run(std["cost"], enterable)
    if status == UNBOUNDED:
        return {"status": UNBOUNDED}
    x = [Fraction(0)] * ncols
    for row, den, bcol in zip(rows, dens, basis):
        x[bcol] = Fraction(row[ncols], den)
    duals = [Fraction(0)] * len(std["rhs"])
    for i in live:
        duals[i] = Fraction(-z[std["ident"][i]], dz)
    return {
        "status": OPTIMAL,
        "x": x,
        "obj": Fraction(-z[ncols], dz),
        "basis": tuple(sorted(basis)),
        "duals": duals,
    }


# ---------------------------------------------------------------------------
# float kernel (numpy)


def _simplex_float(std):
    tol = FLOAT_TOL
    ncols = std["ncols"]
    orig_rhs = np.array([float(b) for b in std["rhs"]])
    orig = np.array([[float(a) for a in row] for row in std["matrix"]]).reshape(
        len(orig_rhs), ncols
    )
    basis = list(std["basis"])
    art = set(std["artificials"])
    real_cols = np.array([j not in art for j in range(ncols)])
    live = list(range(len(orig_rhs)))

    state = {"matrix": orig.copy(), "rhs": orig_rhs.copy()}

    def pivot(z, r, j):
        matrix, rhs = state["matrix"], state["rhs"]
        prow = matrix[r] / matrix[r, j]
        prhs = rhs[r] / matrix[r, j]
        col = matrix[:, j].copy()
        col[r] = 0.0
        matrix -= np.outer(col, prow)
        rhs -= col * prhs
        matrix[r] = prow
        rhs[r] = prhs
        if z is not None:
            zj = z[j]
            if zj:
                z[:ncols] -= zj * prow
                z[ncols] -= zj * prhs
        basis[r] = j

    def run(cost, enter_mask):
        # Dantzig entering with largest-pivot tie-breaking: much less
        # degenerate wandering than Bland on these all-zero-rhs programs.
        # A stall cap hands pathological cases to the exact solver.
        matrix, rhs = state["matrix"], state["rhs"]
        z = np.zeros(ncols + 1)
        z[:ncols] = cost
        for i, bcol in enumerate(basis):
            f = cost[bcol]
            if f:
                z[:ncols] -= f * matrix[i]
                z[ncols] -= f * rhs[i]
        cap = 200 + 40 * (len(rhs) + ncols)
        for _ in range(cap):
            matrix, rhs = state["matrix"], state["rhs"]
            masked = np.where(enter_mask, z[:ncols], 0.0)
            j = int(masked.argmin())
            if masked[j] >= -tol:
                return z, OPTIMAL
            col = matrix[:, j]
            # near-zero pivots amplify error 1/|piv|; only fall back to them
            # when no well-scaled candidate exists at all
            pos = np.nonzero(col > _PIVOT_MIN)[0]
            if pos.size == 0:
                pos = np.nonzero(col > tol)[0]
                if pos.size == 0:
                    state["ray_col"] = j
                    return z, UNBOUNDED
            ratios = rhs[pos] / col[pos]
            best = ratios.min()
            ties = pos[ratios <= best + tol * (1 + abs(best))]
            leave = int(max(ties, key=lambda i: (col[i], -basis[i])))
            pivot(z, leave, j)
        return z, _STALLED

    if art:
        cost1 = np.where(real_cols, 0.0, 1.0)
        z, status = run(cost1, real_cols)
        if status is _STALLED:
            return {"status": _STALLED}
        if -z[ncols] > tol * 10:
            # validate the implied Farkas certificate before trusting it
            y = cost1[std["ident"]] - z[std["ident"]]
            lhs = y @ orig
            if (y @ orig_rhs) > 1e-8 and float(lhs[real_cols].max(initial=0.0)) <= 1e-7:
                return {"status": INFEASIBLE}
            return {"status": _STALLED}
        for i in range(len(basis) - 1, -1, -1):
            if basis[i] in art:
                row = state["matrix"][i]
                cands = [j for j in range(ncols) if j not in art and abs(row[j]) > tol]
                well_scaled = [j for j in cands if abs(row[j]) > _PIVOT_MIN]
                if cands:
                    pivot(None, i, (well_scaled or cands)[0])
                else:
                    state["matrix"] = np.delete(state["matrix"], i, axis=0)
                    state["rhs"] = np.delete(state["rhs"], i)
                    del basis[i], live[i]

    cost2 = np.array([float(c) for c in std["cost"]])
    z, status = run(cost2, real_cols)
    if status is _STALLED:
        return {"status": _STALLED}
    x = np.zeros(ncols)
    for i, bcol in enumerate(basis):
        x[bcol] = state["rhs"][i]
    feasible = (
        x.min(initial=0.0) >= -1e-7
        and np.abs(orig @ x - orig_rhs).max(initial=0.0) <= 1e-7
    )
    if status == UNBOUNDED:
        # validate the ray: follows the entering column of the last tableau
        j = state["ray_col"]
        d = np.zeros(ncols)
        d[j] = 1.0
        for i in range(len(basis)):
            d[basis[i]] = -state["matrix"][i][j]
        ray_ok = (
            feasible
            and d.min(initial=0.0) >= -1e-7
            and np.abs(orig @ d).max(initial=0.0) <= 1e-7
            and float(cost2 @ d) < -tol
        )
        return {"status": UNBOUNDED if ray_ok else _STALLED}
    if not feasible:
        return {"status": _STALLED}
    duals = [0.0] * len(std["rhs"])
    for i in live:
        duals[i] = float(-z[std["ident"][i]])
    return {
        "status": OPTIMAL,
        "x": [float(v) for v in x],
        "obj": float(cost2 @ x),
        "basis": tuple(sorted(basis)),
        "duals": duals,
    }


# ---------------------------------------------------------------------------
# public entry points


def solve_lp(lp: LinearProgram, mode: str = "exact") -> LpOutcome:
    """Solve ``lp`` deterministically; see module docstring for guarantees.

    A float-mode optimum whose certificate does not verify (pathological
    degeneracy) is transparently re-solved exactly and rounded, so float
    results are always certified too.
    """
    std = _standardize(lp, mode)
    res = _simplex_exact(std) if mode == "exact" else _simplex_float(std)
    if res["status"] == _STALLED:
        return _float_via_exact(lp, "stalled")
    if res["status"] != OPTIMAL:
        return LpOutcome(status=res["status"])
    x_std = res["x"]
    # adding zero turns a float -0.0 into 0.0, so no reported zero reads "-0.0"
    zero = to_mode(0, mode)
    solution = tuple(x + zero for x in x_std[: std["num_vars"]])
    user_value = (-res["obj"] if std["flip"] else res["obj"]) + zero
    cert = _Certificate(
        matrix=std["matrix"],
        rhs=std["rhs"],
        cost=std["cost"],
        x_std=list(x_std),
        duals=list(res["duals"]),
        artificials=frozenset(std["artificials"]),
        mode=mode,
    )
    outcome = LpOutcome(
        status=OPTIMAL,
        value=user_value,
        solution=solution,
        basis=res["basis"],
        duals=tuple(res["duals"]),
        _certificate=cert,
    )
    if mode == "float" and not outcome.check_certificate():
        return _float_via_exact(lp, "certificate failed")
    return outcome


def _float_via_exact(lp: LinearProgram, reason: str) -> LpOutcome:
    # imported here, on the rare fallback: the logging package costs about
    # 0.5 MB of resident memory and 6 ms of start-up in every process
    import logging

    logging.getLogger(__name__).debug("float LP re-solved in exact arithmetic: %s", reason)
    exact = solve_lp(lp, "exact")
    if exact.status != OPTIMAL:
        return LpOutcome(status=exact.status)
    cert = exact._certificate
    float_cert = _Certificate(
        matrix=[[float(a) for a in row] for row in cert.matrix],
        rhs=[float(b) for b in cert.rhs],
        cost=[float(c) for c in cert.cost],
        x_std=[float(x) for x in cert.x_std],
        duals=[float(y) for y in cert.duals],
        artificials=cert.artificials,
        mode="float",
    )
    return LpOutcome(
        status=OPTIMAL,
        value=float(exact.value),
        solution=tuple(float(x) for x in exact.solution),
        basis=exact.basis,
        duals=tuple(float(y) for y in exact.duals),
        _certificate=float_cert,
    )


def _eliminate(aug: list[list], ncols: int, mode: str) -> list[int]:
    """Gauss-Jordan elimination of ``aug`` in place over its first ``ncols``
    columns; returns the pivot columns, whose reduced rows come first.

    Float mode pivots on the largest entry of a column and treats entries
    within ``FLOAT_TOL`` as zero; exact mode pivots on the first nonzero one.
    """
    tol = 0 if mode == "exact" else FLOAT_TOL
    piv_cols = []
    r = 0
    for col in range(ncols):
        best = None
        for i in range(r, len(aug)):
            a = abs(aug[i][col])
            if a > tol:
                if mode == "exact":
                    best = i  # any nonzero pivot is fine exactly
                    break
                if best is None or a > abs(aug[best][col]):
                    best = i
        if best is None:
            continue
        aug[r], aug[best] = aug[best], aug[r]
        piv = aug[r][col]
        aug[r] = [a / piv for a in aug[r]]
        for i in range(len(aug)):
            if i != r and abs(aug[i][col]) > tol:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        piv_cols.append(col)
        r += 1
        if r == len(aug):
            break
    return piv_cols


def _gauss_solve(rows: list[tuple[list, Number]], dim: int, mode: str):
    """Solve a linear system given as (coefficients, rhs) pairs.

    Returns the unique solution vector, or None when the system is singular,
    underdetermined, or inconsistent.
    """
    aug = [list(coefs) + [rhs] for coefs, rhs in rows]
    if len(_eliminate(aug, dim, mode)) < dim:
        return None
    tol = 0 if mode == "exact" else FLOAT_TOL
    if any(abs(row[dim]) > tol for row in aug[dim:]):
        return None  # inconsistent
    return [row[dim] for row in aug[:dim]]


def _polytope_rows(poly: Polytope, mode: str):
    """All defining constraints and the nonnegativity rows, mode-converted."""
    rows = []
    for coefs, rel, rhs in poly.constraints:
        rows.append(([to_mode(a, mode) for a in coefs], rel, to_mode(rhs, mode)))
    zero, one = to_mode(0, mode), to_mode(1, mode)
    for i in range(poly.num_vars):
        row = [zero] * poly.num_vars
        row[i] = one
        rows.append((row, ">=", zero))
    return rows


def _satisfies(x, rows, mode: str) -> bool:
    tol = 0 if mode == "exact" else FLOAT_TOL
    for coefs, rel, rhs in rows:
        lhs = sum(a * v for a, v in zip(coefs, x))
        if rel == "<=" and lhs > rhs + tol:
            return False
        if rel == ">=" and lhs < rhs - tol:
            return False
        if rel == "=" and abs(lhs - rhs) > tol:
            return False
    return True


def enumerate_vertices(poly: Polytope, mode: str = "exact") -> list[tuple]:
    """Every vertex of the polytope exactly once, deterministic order.

    The region must be bounded: a direction along which it recedes has no
    vertex, so it would go unreported.  Every solver polytope is bounded,
    since it carries ``sum = 1`` over nonnegative variables.

    Works by enumerating subsets of tight constraints: the equality rows,
    reduced to an independent set, are always tight, and each combination of
    inequalities filling out the dimension is solved as a square system and
    kept when the solution is unique and feasible.  Intended for desk-scale
    dimensions.
    """
    dim = poly.num_vars
    rows = _polytope_rows(poly, mode)
    eqs = [list(coefs) + [rhs] for coefs, rel, rhs in rows if rel == "="]
    piv_cols = _eliminate(eqs, dim + 1, mode)
    if dim in piv_cols:
        return []  # the equalities reduce to 0 = 1
    base = [(row[:dim], row[dim]) for row in eqs[: len(piv_cols)]]
    ineqs = [(coefs, rhs) for coefs, rel, rhs in rows if rel != "="]
    need = dim - len(base)
    verts: list[tuple] = []
    seen = set()
    for combo in combinations(range(len(ineqs)), need):
        system = base + [ineqs[k] for k in combo]
        x = _gauss_solve(system, dim, mode)
        if x is None:
            continue
        if not _satisfies(x, rows, mode):
            continue
        key = tuple(x) if mode == "exact" else tuple(round(v, 9) for v in x)
        if key in seen:
            continue
        seen.add(key)
        verts.append(tuple(x))
    return verts
