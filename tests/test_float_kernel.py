"""The one-tableau float simplex and the array certificate check make the
same decisions as the three-array kernel and the loop check they replaced.

``reference_simplex_float`` (separate constraint matrix, right-hand side and
reduced-cost vectors) and ``reference_certificate_check`` (pure-Python loops)
are the replaced code, kept unchanged as oracles: on every standardized
program below the kernels must return the same numbers bit for bit (status,
primal point, objective, basis and duals), and the checks the same verdicts.
``reference_exact_certificate_check`` (exact loops over ints and
``Fraction``s) is the replaced exact check, the oracle of the same routine
in exact mode, where it allows no tolerance.
Where the reference certifies an improving ray, the kernel instead leaves
the program to exact mode (``_STALLED``), which raises: a program must be
bounded.  Rows the reference deletes as redundant stay in the kernel's
tableau, inert, with dual 0.  The kernel has also dropped the reference's
end-of-run feasibility check: the certificate tests the same two things at
``FLOAT_TOL``, which is tighter, so an optimum that check rejects fails its
certificate and is re-solved exactly all the same.  The check rejects no
optimum of this corpus.
"""

import dataclasses
import random
from fractions import Fraction as F

import numpy as np
import pytest
from test_deviations import retired_deviation_lp
from test_solvers import p1_lps

from partialcommit import deviations, solvers
from partialcommit.deviations import SignalModel, find_deviation
from partialcommit.experiment import derive_seed
from partialcommit.games import FLOAT_TOL, Game
from partialcommit.instances import gen_random
from partialcommit.linprog import (
    _PIVOT_MIN,
    _STALLED,
    INFEASIBLE,
    OPTIMAL,
    LinearProgram,
    _simplex_float,
    _standardize,
    _sum_in_order,
    solve_lp,
)
from partialcommit.solvers import (
    _seslo_lp,
    solve_max_ce,
    solve_selo,
    solve_seslo,
    solve_stackelberg,
)

UNBOUNDED = "unbounded"  # the reference's verdict; ``solve_lp`` raises instead


def reference_simplex_float(std):
    tol = FLOAT_TOL
    ncols = std["ncols"]
    orig_rhs = np.array([float(b) for b in std["rhs"]])
    orig = np.array([[float(a) for a in row] for row in std["matrix"]]).reshape(
        len(orig_rhs), ncols
    )
    basis = list(std["ident"])
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


def reference_certificate_check(matrix, rhs, cost, x_std, duals, artificials) -> bool:
    tol = FLOAT_TOL * 10
    primal_tol = FLOAT_TOL
    n = len(cost)
    if any(x < -primal_tol for x in x_std):
        return False
    if any(abs(x_std[j]) > tol for j in artificials):
        return False
    for row, b in zip(matrix, rhs):
        resid = sum(a * x for a, x in zip(row, x_std)) - b
        if abs(resid) > primal_tol:
            return False
    # dual feasibility: reduced costs nonnegative for the min problem
    for j in range(n):
        if j in artificials:
            continue
        rc = cost[j] - sum(duals[i] * matrix[i][j] for i in range(len(rhs)))
        if rc < -tol:
            return False
    primal = sum(c * x for c, x in zip(cost, x_std))
    dual = sum(y * b for y, b in zip(duals, rhs))
    return abs(primal - dual) <= tol * (1 + abs(primal))


def reference_exact_certificate_check(matrix, rhs, cost, x_std, duals, artificials) -> bool:
    a, b, c, x, y = matrix, rhs, cost, x_std, duals
    art = set(artificials)
    if any(v < 0 for v in x) or any(x[j] for j in art):
        return False
    if any(sum(a_ij * x_j for a_ij, x_j in zip(row, x)) != b_i for row, b_i in zip(a, b)):
        return False
    # dual feasibility: reduced costs nonnegative for the min problem
    for j in range(len(c)):
        if j not in art and c[j] < sum(y[i] * a[i][j] for i in range(len(b))):
            return False
    return sum(c_j * x_j for c_j, x_j in zip(c, x)) == sum(y_i * b_i for y_i, b_i in zip(y, b))


def _plain(res: dict) -> str:
    """The result dict with arrays as lists; ``repr`` shows every float bit
    that matters, the sign of a zero included."""
    return repr({k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in res.items()})


def _reference_structural_part(lp: LinearProgram):
    """Rows, right-hand sides and costs of the structural columns as the
    per-coefficient conversion built them (the cost is the negated
    objective)."""
    rows = [[float(a) for a in coefs] for coefs, _rel, _b in lp.constraints]
    rhs = [float(b) for _coefs, _rel, b in lp.constraints]
    cost = [-float(c) for c in lp.objective]
    return np.array(rows).reshape(len(rows), lp.num_vars), np.array(rhs), np.array(cost)


def _same_as_reference(lp: LinearProgram) -> dict:
    std = _standardize(lp, "float")
    exact = _standardize(lp, "exact")
    v, ncols = lp.num_vars, std["ncols"]
    rows, rhs, cost = _reference_structural_part(lp)
    # the slack and artificial columns hold 0 and +-1 only, so converting the
    # exact layout gives their float bits
    layout = np.array(exact["matrix"], dtype=float).reshape(len(rhs), ncols)[:, v:]
    assert std["matrix"].tobytes() == np.hstack([rows, layout]).tobytes()
    assert std["rhs"].tobytes() == rhs.tobytes()
    assert std["cost"].tobytes() == np.concatenate([cost, np.zeros(ncols - v)]).tobytes()
    for key in ("artificials", "ident", "ncols", "num_vars"):
        assert std[key] == exact[key], key
    got = _simplex_float(std)
    want = reference_simplex_float(std)
    if want["status"] == UNBOUNDED:
        want = {"status": _STALLED}
        with pytest.raises(RuntimeError, match="the program is unbounded"):
            solve_lp(lp, "float")
    assert _plain(got) == _plain(want)
    return got


def _captured_lps(module, monkeypatch, run) -> list[LinearProgram]:
    """Every LP ``module`` hands to ``solve_lp`` while ``run()`` executes."""
    seen = []

    def record(lp, mode="exact"):
        seen.append(lp)
        return solve_lp(lp, mode)

    monkeypatch.setattr(module, "solve_lp", record)
    try:
        run()
    finally:
        monkeypatch.undo()
    return seen


def _deviation_lps(game, monkeypatch) -> list[LinearProgram]:
    witness = solve_seslo(game, "float").witness
    no_reveal = _captured_lps(
        deviations, monkeypatch,
        lambda: find_deviation(game, witness, SignalModel.NO_REVEAL, "float"),
    )
    return [
        retired_deviation_lp(game, witness, SignalModel.PUBLIC_REVEAL, "float"),
        *no_reveal,
        retired_deviation_lp(game, witness, SignalModel.ROW_KNOWS_COLUMN_SIGNAL, "float"),
    ]


def _random_lps(rng: random.Random, count: int) -> list[LinearProgram]:
    """Random programs; most are built around a feasible point, the rest
    are often infeasible.  Some repeat an equality row, scaled."""
    lps = []
    for _ in range(count):
        n = rng.randint(1, 6)
        point = [rng.choice([0.0, rng.uniform(0, 2)]) for _ in range(n)]
        feasible = rng.random() < 0.6
        cons = []
        for _ in range(rng.randint(1, 7)):
            coefs = tuple(rng.choice([0.0, rng.uniform(-3, 3)]) for _ in range(n))
            rel = rng.choice(["<=", "="])
            b = rng.uniform(0, 4)
            if feasible:
                b = sum(a * x for a, x in zip(coefs, point))
                if rel == "<=":
                    b = abs(b) + rng.uniform(0, 1)
                elif b < 0:
                    coefs, b = tuple(-a for a in coefs), -b
            cons.append((coefs, rel, b))
        if rng.random() < 0.3:
            coefs, _rel, b = cons[0]
            cons[0] = (coefs, "=", b)
            cons.append((tuple(2 * a for a in coefs), "=", 2 * b))
        if rng.random() < 0.7:
            cons.append((tuple([1.0] * n), "<=", sum(point) + rng.uniform(0, 8)))
        lps.append(LinearProgram(tuple(rng.uniform(-5, 5) for _ in range(n)), tuple(cons), n))
    return lps


def _corpus(monkeypatch) -> list[LinearProgram]:
    rng = random.Random(7)
    lps = []
    for seed in range(12):
        game = gen_random(4, 4, 1, seed=seed)
        u1, u2 = game.payoffs_in_mode("float")
        for k in range(1, 5):
            cells = game.with_partition(game.partition.round_robin(4, k)).partition
            lps.append(_seslo_lp(u1, u2, cells, 4, 4))
    for seed in range(7):
        game = gen_random(4, 3, 2, seed=seed)
        _u1, u2 = game.payoffs_in_mode("float")
        # support-search programs in both forms: pairwise "<=" rows, and
        # tied, with zero-rhs "=" rows
        for _ in range(12):
            rsup = tuple(sorted(rng.sample(range(4), rng.randint(1, 4))))
            csup = tuple(sorted(rng.sample(range(3), rng.randint(1, 3))))
            lps += p1_lps(u2, rsup, csup, [rng.uniform(-2, 2) for _ in rsup])
        lps += _deviation_lps(game, monkeypatch)
    return lps + _random_lps(rng, 300)


def test_kernel_matches_reference(monkeypatch):
    corpus = _corpus(monkeypatch)
    results = [_same_as_reference(lp) for lp in corpus]
    statuses = [res["status"] for res in results]
    assert len(statuses) > 500
    assert {OPTIMAL, INFEASIBLE, _STALLED} <= set(statuses)
    # the programs the kernel leaves to exact mode include unbounded ones
    left = [lp for lp, res in zip(corpus, results) if res["status"] is _STALLED]
    assert UNBOUNDED in {reference_simplex_float(_standardize(lp, "float"))["status"]
                         for lp in left}
    # rows whose artificials stay basic on all-zero rows stay in the tableau,
    # out of the basis list
    assert any(
        res["status"] == OPTIMAL and len(res["basis"]) < len(res["duals"]) for res in results
    )


def test_hand_built_lps_match_reference():
    cases = [
        LinearProgram((1, 1), (((-1, 1), "<=", 2), ((1, 2), "<=", 6)), 2),
        LinearProgram((1, 2, 3), (((1, 1, 1), "=", 1), ((2, 2, 2), "=", 2),
                                  ((1, -1, 0), "<=", 0)), 3),
        LinearProgram((1, 1, 0), (((1, 1, 0), "<=", 1), ((1, 1, -1), "=", 2)), 3),
        LinearProgram((1, 0), (((1, -1), "<=", 1),), 2),
        LinearProgram((0, 1, 0), (((-1, 1, 0), "=", 1), ((1, 0, -1), "=", 1)), 3),
        LinearProgram((-1, 1), (), 2),
    ]
    statuses = [_same_as_reference(lp)["status"] for lp in cases]
    assert statuses == [OPTIMAL, OPTIMAL, INFEASIBLE, _STALLED, _STALLED, _STALLED]
    statuses = [solve_lp(lp, "float").status for lp in cases[:3]]
    assert statuses == [OPTIMAL, OPTIMAL, INFEASIBLE]
    for lp in cases[3:]:
        with pytest.raises(RuntimeError, match="the program is unbounded"):
            solve_lp(lp, "float")


def _certificates(monkeypatch):
    for lp in _corpus(monkeypatch)[:200]:
        out = solve_lp(lp, "float")
        if out.status == OPTIMAL:
            yield out._certificate


def _verdict(cert, **changes) -> bool:
    """``cert.check()`` with some fields replaced, asserted equal to the
    loop check's verdict."""
    cert = dataclasses.replace(cert, **changes)
    want = reference_certificate_check(
        cert.matrix.tolist(), cert.rhs.tolist(), cert.cost.tolist(),
        cert.x_std.tolist(), cert.duals.tolist(), cert.artificials,
    )
    assert cert.check() is want
    return want


def test_certificate_verdicts_match_reference(monkeypatch):
    rng = np.random.default_rng(3)
    noisy = []
    for cert in _certificates(monkeypatch):
        assert _verdict(cert)
        x, cost = cert.x_std, cert.cost
        nonbasic = [j for j in np.flatnonzero(x == 0) if j not in cert.artificials]
        if nonbasic:
            j = nonbasic[0]
            negative = x.copy()
            negative[j] = -2e-9
            assert not _verdict(cert, x_std=negative)
            # a negative reduced cost at a nonbasic column
            rc = cost[j] - cert.duals @ cert.matrix[:, j]
            cheaper = cost.copy()
            cheaper[j] -= rc + 1e-3
            assert not _verdict(cert, cost=cheaper)
        residual = cert.rhs.copy()
        residual[0] += 2e-9
        assert not _verdict(cert, rhs=residual)
        # a duality gap: a basic column made dearer raises the primal value only
        j = int(x.argmax())
        if x[j] > 0:
            dearer = cost.copy()
            dearer[j] += 1e-3 / x[j]
            assert not _verdict(cert, cost=dearer)
        # noise near the tolerances, where the verdicts go both ways
        noisy.append(_verdict(cert, x_std=x + rng.normal(0, 4e-10, len(x))))
        noisy.append(_verdict(cert, duals=cert.duals + rng.normal(0, 4e-10, len(cert.duals))))
    assert True in noisy and False in noisy


def test_sums_add_in_python_order():
    # terms of mixed magnitude, so the addition order shows in the last bits
    rng = np.random.default_rng(5)
    terms = rng.normal(size=(30, 40)) * 10.0 ** rng.integers(-12, 3, size=(30, 40))
    rows, cols = terms.tolist(), terms.T.tolist()
    assert _sum_in_order(terms, 1).tolist() == [sum(row) for row in rows]
    assert _sum_in_order(terms, 0).tolist() == [sum(col) for col in cols]
    assert _sum_in_order(terms[0], 0) == sum(rows[0])
    assert terms.sum(1).tolist() != [sum(row) for row in rows]  # numpy adds pairwise
    assert _sum_in_order(terms[:0], 0).tolist() == [0.0] * 40


def test_fallback_certificate_is_checked_on_arrays():
    # the float optimum of this signal LP fails its certificate, so the LP is
    # re-solved exactly: the outcome is the exact one rounded, and it keeps
    # the exact certificate, which the check reads as object arrays
    game = gen_random(4, 4, 1, seed=derive_seed(6707571899452336207, 4, 4, 0))
    u1, u2 = game.payoffs_in_mode("float")
    lp = _seslo_lp(u1, u2, game.partition, 4, 4)
    std = _standardize(lp, "float")
    assert reference_simplex_float(std)["status"] == OPTIMAL
    out = solve_lp(lp, "float")
    exact = solve_lp(lp, "exact")
    assert out == dataclasses.replace(
        exact,
        value=float(exact.value),
        solution=tuple(float(x) for x in exact.solution),
        duals=tuple(float(y) for y in exact.duals),
    )
    assert out._certificate.mode == "exact"
    assert out.check_certificate()
    assert _exact_verdict(out._certificate)


def _exact_verdict(cert, **changes) -> bool:
    """``cert.check()`` on an exact certificate with some fields replaced,
    asserted equal to the exact loop check's verdict."""
    cert = dataclasses.replace(cert, **changes)
    want = reference_exact_certificate_check(
        cert.matrix, cert.rhs, cert.cost, cert.x_std, cert.duals, cert.artificials,
    )
    assert cert.check() is want
    return want


def _exact_lps(monkeypatch) -> list[LinearProgram]:
    """The exact SESLO, CE, Stackelberg, SELO and no-reveal deviation LPs of
    random games whose payoffs have denominators of at most 100."""
    lps = []
    for seed in range(6):
        game = gen_random(4, 3, 2, seed=seed)
        u1, u2 = ([[F(x).limit_denominator(100) for x in row] for row in u]
                  for u in (game.u1, game.u2))
        game = Game(u1, u2, game.partition)
        lps += _captured_lps(solvers, monkeypatch, lambda: [
            solve_seslo(game), solve_max_ce(game), solve_stackelberg(game), solve_selo(game),
        ])
        witness = solve_seslo(game).witness
        lps += _captured_lps(
            deviations, monkeypatch,
            lambda: find_deviation(game, witness, SignalModel.NO_REVEAL, "exact"),
        )
    return lps


def test_exact_certificate_verdicts_match_reference(monkeypatch):
    tiny = F(1, 10**15)
    verdicts = []
    for lp in _exact_lps(monkeypatch):
        out = solve_lp(lp, "exact")
        if out.status != OPTIMAL:
            continue
        cert = out._certificate
        verdicts.append(_exact_verdict(cert))
        assert verdicts[-1]
        x, cost, art = cert.x_std, cert.cost, cert.artificials
        nonbasic = [j for j, v in enumerate(x) if v == 0 and j not in art]
        if nonbasic:
            j = nonbasic[0]
            verdicts.append(_exact_verdict(cert, x_std=[F(-1, 10**12) if i == j else v
                                                        for i, v in enumerate(x)]))
            # a negative reduced cost at a nonbasic column
            rc = cost[j] - sum(y * row[j] for y, row in zip(cert.duals, cert.matrix))
            verdicts.append(_exact_verdict(cert, cost=[v - rc - tiny if i == j else v
                                                       for i, v in enumerate(cost)]))
        verdicts.append(_exact_verdict(cert, rhs=[cert.rhs[0] + tiny, *cert.rhs[1:]]))
        verdicts.append(_exact_verdict(cert, duals=[cert.duals[0] + tiny, *cert.duals[1:]]))
        if art:
            # a nonzero artificial, with its row's right-hand side to match
            k = next(i for i, row in enumerate(cert.matrix) if row[art[0]])
            verdicts.append(_exact_verdict(
                cert,
                x_std=[tiny if i == art[0] else v for i, v in enumerate(x)],
                rhs=[b + tiny if i == k else b for i, b in enumerate(cert.rhs)],
            ))
    assert verdicts.count(False) > 100 and True in verdicts


def test_float_outcomes_at_large_payoffs_pass_their_certificates():
    # at payoffs x1e8, under absolute 1e-9 tolerances, the float kernel
    # settles none of these signal LPs (it stalls, or its optimum fails its
    # certificate), so each is re-solved exactly; the rounded answers must
    # pass their own check (a float certificate rebuilt from the exact solve
    # fails on 21 of them)
    for seed in range(40):
        game = gen_random(5, 5, 2, seed=seed)
        u1, u2 = ([[x * 1e8 for x in row] for row in u] for u in (game.u1, game.u2))
        out = solve_lp(_seslo_lp(u1, u2, game.partition, 5, 5), "float")
        assert out.status == OPTIMAL and out.check_certificate(), seed
