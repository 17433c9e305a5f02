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

from .errors import UnboundedPolytope
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

    Variables default to lower bound 0; pass ``lower_bounds`` /
    ``upper_bounds`` (per-variable, ``None`` entry = no upper bound) to
    change that.  Lower bounds must be finite.
    """

    objective: tuple[Number, ...]
    sense: str  # 'max' | 'min'
    constraints: tuple[Constraint, ...]
    num_vars: int
    lower_bounds: tuple[Number, ...] | None = None
    upper_bounds: tuple[Number | None, ...] | None = None

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
    lower_bounds: tuple[Number, ...] | None = None
    upper_bounds: tuple[Number | None, ...] | None = None


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
    """Shift lower bounds to zero, fold upper bounds into rows, normalize signs.

    Returns everything the kernels need plus the data to map a standard-form
    solution back to user space.
    """
    v = lp.num_vars
    lbs = [to_mode(x, mode) for x in (lp.lower_bounds or (0,) * v)]
    if any(x is None for x in lbs):
        raise ValueError("lower bounds must be finite")
    obj = [to_mode(x, mode) for x in lp.objective]
    flip = lp.sense == "max"
    cost = [-x for x in obj] if flip else list(obj)
    const = sum(o * l for o, l in zip(obj, lbs))

    rows: list[list] = []
    rels: list[str] = []
    rhs: list = []
    for coefs, rel, b in lp.constraints:
        cc = [to_mode(x, mode) for x in coefs]
        shift = sum(c * l for c, l in zip(cc, lbs))
        rows.append(cc)
        rels.append(rel)
        rhs.append(to_mode(b, mode) - shift)
    if lp.upper_bounds is not None:
        for i, ub in enumerate(lp.upper_bounds):
            if ub is None:
                continue
            row = [to_mode(0, mode)] * v
            row[i] = to_mode(1, mode)
            rows.append(row)
            rels.append("<=")
            rhs.append(to_mode(ub, mode) - lbs[i])

    # make every right-hand side nonnegative
    for i in range(len(rows)):
        if rhs[i] < 0:
            rows[i] = [-a for a in rows[i]]
            rhs[i] = -rhs[i]
            rels[i] = {"<=": ">=", ">=": "<=", "=": "="}[rels[i]]

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

    matrix = [[zero] * ncols for _ in range(m)]
    for i in range(m):
        for j in range(v):
            matrix[i][j] = rows[i][j]
        if slack_col[i] is not None:
            matrix[i][slack_col[i]] = one if rels[i] == "<=" else -one
        if art_col[i] is not None:
            matrix[i][art_col[i]] = one

    basis = [art_col[i] if art_col[i] is not None else slack_col[i] for i in range(m)]
    cost_full = cost + [zero] * (ncols - v)
    artificials = [c for c in art_col if c is not None]
    # column giving the i-th unit vector in the original matrix (for duals)
    ident = [art_col[i] if art_col[i] is not None else slack_col[i] for i in range(m)]
    return {
        "matrix": matrix,
        "rhs": rhs,
        "cost": cost_full,
        "basis": basis,
        "artificials": artificials,
        "ident": ident,
        "num_vars": v,
        "ncols": ncols,
        "lbs": lbs,
        "flip": flip,
        "const": const,
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
    matrix = np.array([[float(a) for a in row] for row in std["matrix"]], dtype=float)
    if matrix.size == 0:
        matrix = matrix.reshape((len(std["rhs"]), std["ncols"]))
    rhs = np.array([float(b) for b in std["rhs"]], dtype=float)
    basis = list(std["basis"])
    ncols = std["ncols"]
    art = set(std["artificials"])
    live = list(range(len(rhs)))

    state = {"matrix": matrix, "rhs": rhs}

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

    orig = np.array([[float(a) for a in row] for row in std["matrix"]])
    if orig.size == 0:
        orig = orig.reshape((len(std["rhs"]), ncols))
    orig_rhs = np.array([float(b) for b in std["rhs"]])
    real_cols = np.array([j not in art for j in range(ncols)])

    if art:
        cost1 = np.array([1.0 if j in art else 0.0 for j in range(ncols)])
        enter1 = np.array([j not in art for j in range(ncols)])
        z, status = run(cost1, enter1)
        if status is _STALLED:
            return {"status": _STALLED}
        if -z[ncols] > tol * 10:
            # validate the implied Farkas certificate before trusting it
            y = np.zeros(len(orig_rhs))
            for i in range(len(orig_rhs)):
                ident = std["ident"][i]
                y[i] = float(cost1[ident]) - float(z[ident])
            lhs = y @ orig
            if (y @ orig_rhs) > 1e-8 and float(lhs[real_cols].max(initial=0.0)) <= 1e-7:
                return {"status": INFEASIBLE}
            return {"status": _STALLED}
        for i in range(len(basis) - 1, -1, -1):
            if basis[i] in art:
                row = state["matrix"][i]
                target = None
                for j in range(ncols):
                    if j not in art and abs(row[j]) > _PIVOT_MIN:
                        target = j
                        break
                if target is None:
                    for j in range(ncols):
                        if j not in art and abs(row[j]) > tol:
                            target = j
                            break
                if target is not None:
                    pivot(None, i, target)
                else:
                    state["matrix"] = np.delete(state["matrix"], i, axis=0)
                    state["rhs"] = np.delete(state["rhs"], i)
                    del basis[i], live[i]

    enter2 = np.array([j not in art for j in range(ncols)])
    cost2 = np.array([float(c) for c in std["cost"]])
    z, status = run(cost2, enter2)
    if status is _STALLED:
        return {"status": _STALLED}
    x = np.zeros(ncols)
    for i, bcol in enumerate(basis):
        x[bcol] = state["rhs"][i]
    feasible = (
        x.min(initial=0.0) >= -1e-7
        and (np.abs(orig @ x - orig_rhs).max(initial=0.0) if len(orig_rhs) else 0.0) <= 1e-7
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
            and (np.abs(orig @ d).max(initial=0.0) if len(orig_rhs) else 0.0) <= 1e-7
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
    solution = tuple(x_std[j] + std["lbs"][j] for j in range(std["num_vars"]))
    if std["flip"]:
        user_value = -res["obj"] + std["const"]
    else:
        user_value = res["obj"] + std["const"]
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


def _gauss_solve(rows: list[tuple[list, Number]], dim: int, mode: str):
    """Solve a linear system given as (coefficients, rhs) pairs.

    Returns the unique solution vector, or None when the system is singular,
    underdetermined, or inconsistent.
    """
    tol = 0 if mode == "exact" else FLOAT_TOL
    aug = [list(coefs) + [rhs] for coefs, rhs in rows]
    piv_cols = []
    r = 0
    for col in range(dim):
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
    if len(piv_cols) < dim:
        return None
    for i in range(r, len(aug)):
        if abs(aug[i][dim]) > tol:
            return None  # inconsistent
    x = [None] * dim
    for i, col in enumerate(piv_cols):
        x[col] = aug[i][dim]
    return x


def _polytope_rows(poly: Polytope, mode: str):
    """All defining constraints, variable bounds included, mode-converted."""
    rows = []
    for coefs, rel, rhs in poly.constraints:
        rows.append(([to_mode(a, mode) for a in coefs], rel, to_mode(rhs, mode)))
    lbs = poly.lower_bounds or (0,) * poly.num_vars
    for i, lb in enumerate(lbs):
        row = [to_mode(0, mode)] * poly.num_vars
        row[i] = to_mode(1, mode)
        rows.append((row, ">=", to_mode(lb, mode)))
    if poly.upper_bounds is not None:
        for i, ub in enumerate(poly.upper_bounds):
            if ub is None:
                continue
            row = [to_mode(0, mode)] * poly.num_vars
            row[i] = to_mode(1, mode)
            rows.append((row, "<=", to_mode(ub, mode)))
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


def enumerate_vertices(
    poly: Polytope, mode: str = "exact", check_bounded: bool = True
) -> list[tuple]:
    """Every vertex of the polytope exactly once, deterministic order.

    Works by enumerating subsets of tight constraints: every equality row is
    always tight, and each combination of inequalities filling out the
    dimension is solved as a square system and kept when the solution is
    unique and feasible.  Intended for desk-scale dimensions.
    """
    dim = poly.num_vars
    if check_bounded:
        for i in range(dim):
            for sense in ("max", "min"):
                obj = [0] * dim
                obj[i] = 1
                probe = LinearProgram(
                    objective=tuple(obj),
                    sense=sense,
                    constraints=tuple(poly.constraints),
                    num_vars=dim,
                    lower_bounds=poly.lower_bounds,
                    upper_bounds=poly.upper_bounds,
                )
                if solve_lp(probe, mode).status == UNBOUNDED:
                    raise UnboundedPolytope(f"recession direction along variable {i}")
    rows = _polytope_rows(poly, mode)
    eqs = [(coefs, rhs) for coefs, rel, rhs in rows if rel == "="]
    ineqs = [(coefs, rhs) for coefs, rel, rhs in rows if rel != "="]

    # independent equality rows, with an early exit on inconsistency
    tol = 0 if mode == "exact" else FLOAT_TOL
    base: list[tuple[list, Number]] = []
    for coefs, rhs in eqs:
        trial = base + [(coefs, rhs)]
        # rank check via elimination on the trial set
        aug = [list(c) + [b] for c, b in trial]
        rank = _matrix_rank(aug, dim, tol)
        if rank == len(trial):
            base = trial
        else:
            # dependent row: keep only if it is implied, else the set is empty
            if not _row_implied(base, coefs, rhs, dim, tol):
                return []
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


def _matrix_rank(aug, dim, tol) -> int:
    rows = [row[:] for row in aug]
    rank = 0
    for col in range(dim):
        piv = None
        for i in range(rank, len(rows)):
            if abs(rows[i][col]) > tol:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank][col]
        rows[rank] = [a / p for a in rows[rank]]
        for i in range(len(rows)):
            if i != rank and abs(rows[i][col]) > tol:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _row_implied(base, coefs, rhs, dim, tol) -> bool:
    """Is (coefs == rhs) a linear consequence of the base equalities?

    Callers only ask this for rows whose coefficients are dependent on the
    base, so the row is implied exactly when appending it does not raise the
    rank of the augmented matrix.
    """
    rows = [list(c) + [b] for c, b in base] + [list(coefs) + [rhs]]
    return _matrix_rank(rows, dim, tol) == _matrix_rank(rows, dim + 1, tol)
