"""Independent reference values from scipy's HiGHS.

The LPs are built here from the definitions, sharing no code with the
package's own formulations.  SESLO/CE programs are always feasible and
bounded, so many of them are stacked block-diagonally into one HiGHS call;
each block's value is read back from its own slice of the solution.
"""

from __future__ import annotations

import numpy as np

#: blocks per stacked HiGHS call
_CHUNK = 400


def seslo_blocks(u1: np.ndarray, u2: np.ndarray, cells) -> tuple:
    """(objective, A_ub) of the signaling LP: max sum p*u1 over joint
    distributions p (row-major r*n+c) with no undetectable beneficial
    deviation; the equality is sum(p) = 1 and every A_ub row is <= 0."""
    m, n = u1.shape
    rows = []
    for cell in cells:
        for r in cell:
            for r2 in cell:
                if r2 != r:
                    row = np.zeros((m, n))
                    row[r] = u1[r2] - u1[r]
                    rows.append(row.ravel())
    for c in range(n):
        for c2 in range(n):
            if c2 != c:
                row = np.zeros((m, n))
                row[:, c] = u2[:, c2] - u2[:, c]
                rows.append(row.ravel())
    return u1.ravel().copy(), np.array(rows).reshape(len(rows), m * n)


def seslo_values(problems) -> list[float]:
    """Optimal values of the signaling LPs for (u1, u2, cells) triples."""
    from scipy.optimize import linprog
    from scipy.sparse import block_diag

    values: list[float] = []
    for start in range(0, len(problems), _CHUNK):
        chunk = [seslo_blocks(*p) for p in problems[start:start + _CHUNK]]
        objs = [obj for obj, _ in chunk]
        a_ub = block_diag([a for _, a in chunk], format="csr")
        a_eq = block_diag([np.ones((1, len(obj))) for obj in objs], format="csr")
        res = linprog(
            -np.concatenate(objs),
            A_ub=a_ub, b_ub=np.zeros(a_ub.shape[0]),
            A_eq=a_eq, b_eq=np.ones(len(objs)),
            bounds=(0, None), method="highs",
        )
        if res.status != 0:
            raise RuntimeError(f"HiGHS failed on a stacked SESLO chunk: {res.message}")
        at = 0
        for obj in objs:
            values.append(float(obj @ res.x[at:at + len(obj)]))
            at += len(obj)
    return values


def stackelberg_value(u1: np.ndarray, u2: np.ndarray) -> float:
    """Best row payoff over mixed commitments, ties to the row player: the
    best of one LP per column the commitment is to induce."""
    from scipy.optimize import linprog

    m, n = u1.shape
    best = None
    for cstar in range(n):
        others = [c for c in range(n) if c != cstar]
        res = linprog(
            -u1[:, cstar],
            A_ub=(u2[:, others] - u2[:, [cstar]]).T,  # u2(x, c) - u2(x, c*) <= 0
            b_ub=np.zeros(len(others)),
            A_eq=np.ones((1, m)), b_eq=[1.0],
            bounds=(0, None), method="highs",
        )
        if res.status == 0 and (best is None or -res.fun > best):
            best = -res.fun
    if best is None:
        raise RuntimeError("HiGHS found no inducible column")
    return best
