"""Solvers for the commitment solution concepts.

Two engines carry all five concepts; the other three are their partition
special cases (singleton cells: everything observable; one cell: nothing).

* ``solve_seslo``: one LP over joint recommendation distributions — the
  row-deviation constraints only range over each indistinguishability cell.
* ``solve_selo``: exact support enumeration.  For every support pair (rows
  R_sup, columns C_sup) the feasible profiles form a product of two
  polytopes, P1 (row mixtures keeping every supported column a best
  response) and P2 (column mixtures keeping every supported row a best
  response within its cell).  Both state one tie rule, built by
  ``_tie_rows``: the supported responses of a cell tie, so each one after
  the cell's first gives an equality row and each unsupported response an
  inequality row against it (P1 has one cell holding every column).  The
  bilinear row payoff attains its maximum at a vertex pair, so we
  enumerate P2's vertices and solve one LP over P1 per vertex.
* ``solve_stackelberg``: the signal LP with singleton cells, which is the
  correlated-commitment LP of Conitzer & Korzhyk (AAAI 2011).
* ``solve_max_ce``: ``solve_seslo`` with all rows merged into one cell.
* ``solve_best_nash``: ``solve_selo`` with all rows merged into one cell.

Support pairs are visited in increasing total cardinality, lexicographic
within, and the reported witness is the first optimum in that order; in
float mode a later optimum replaces the best only when it is larger by more
than rounding (``FLOAT_TOL``, relative).  The search skips a pair only when
a proven upper bound for it cannot beat the best value already found:

* the rectangle bound, the largest row payoff on rows R_sup x columns C_sup;
* the column-set caps, the best row payoff in a column over row mixtures
  (on all rows) keeping that column, and then all of C_sup, best responses;
  cached per column set, and an empty set of such mixtures empties the pair;
* the Stackelberg ceiling, the largest single-column cap (the multiple-LPs
  method of Conitzer & Sandholm, EC 2006): a SELO value
  Σ_c y_c·(x·u1[:,c]) is at most cap((c,)) for some supported c, so once
  the best value reaches the ceiling every later pair fails the caps and
  the search stops.

So the pruned search reports the value and witness of the unpruned one, in
both modes; ``tests/test_solvers.py`` keeps the unpruned search as its
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .deviations import verify_correlated, verify_mixed
from .errors import ScaleGuardExceeded, SolverFailure
from .games import (
    FLOAT_TOL,
    CorrelatedProfile,
    Game,
    MixedProfile,
    Number,
    SISPartition,
    to_mode,
)
from .linprog import (
    INFEASIBLE,
    OPTIMAL,
    LinearProgram,
    Polytope,
    enumerate_vertices,
    solve_lp,
)

SESLO = "SESLO"
SELO = "SELO"
STACKELBERG = "STACKELBERG"
BEST_NASH = "BEST_NASH"
MAX_CE = "MAX_CE"

#: support enumeration refuses games with more than this many actions total
#: unless explicitly overridden
SCALE_GUARD = 14


@dataclass
class SearchStats:
    supports_examined: int = 0
    lps_solved: int = 0


@dataclass
class SolveReport:
    concept: str
    mode: str
    value: Number
    witness: MixedProfile | CorrelatedProfile
    verifier_passed: bool
    stats: SearchStats = field(default_factory=SearchStats)


# ---------------------------------------------------------------------------
# SESLO (single LP)


def _seslo_lp(u1, u2, partition: SISPartition, m: int, n: int) -> LinearProgram:
    nv = m * n

    def var(r, c):
        return r * n + c

    cons = []
    for cell in partition.cells:
        for r in cell:
            for r2 in cell:
                if r2 == r:
                    continue
                row = [0] * nv
                for c in range(n):
                    row[var(r, c)] = u1[r2][c] - u1[r][c]
                cons.append((tuple(row), "<=", 0))
    for c in range(n):
        for c2 in range(n):
            if c2 == c:
                continue
            row = [0] * nv
            for r in range(m):
                row[var(r, c)] = u2[r][c2] - u2[r][c]
            cons.append((tuple(row), "<=", 0))
    cons.append((tuple([1] * nv), "=", 1))
    obj = tuple(u1[r][c] for r in range(m) for c in range(n))
    return LinearProgram(obj, tuple(cons), nv)


def _seslo_optimum(game: Game, mode: str):
    """Optimal value and joint distribution ``p[r][c]`` of the signal LP."""
    u1, u2 = game.payoffs_in_mode(mode)
    m, n = game.num_rows, game.num_cols
    out = solve_lp(_seslo_lp(u1, u2, game.partition, m, n), mode)
    if out.status != OPTIMAL:
        raise SolverFailure(f"signal LP unexpectedly {out.status}")
    return out.value, [[out.solution[r * n + c] for c in range(n)] for r in range(m)]


def solve_seslo(game: Game, mode: str = "exact") -> SolveReport:
    """Best row payoff over signal distributions with no undetectable
    beneficial deviations; always feasible (any correlated equilibrium is)."""
    value, p = _seslo_optimum(game, mode)
    witness = CorrelatedProfile(p, mode)
    report = verify_correlated(game, witness, mode)
    return SolveReport(
        concept=SESLO,
        mode=mode,
        value=value,
        witness=witness,
        verifier_passed=report.passed,
        stats=SearchStats(supports_examined=0, lps_solved=1),
    )


def solve_max_ce(game: Game, mode: str = "exact") -> SolveReport:
    """Row-optimal correlated equilibrium: the one-cell special case."""
    merged = game.with_partition(SISPartition.one_cell(game.num_rows))
    report = solve_seslo(merged, mode)
    report.concept = MAX_CE
    return report


def solve_stackelberg(game: Game, mode: str = "exact") -> SolveReport:
    """Full-commitment optimum, ties broken in the row player's favor: the
    signal LP with singleton cells (the partition of ``game`` plays no role).

    The witness commits to the row mixture conditional on the column with
    the most mass (lowest index on ties) and induces that column.  Every
    column with positive mass would do in exact arithmetic; the heaviest
    one keeps float noise out of the conditional.
    """
    m, n = game.num_rows, game.num_cols
    singletons = game.with_partition(SISPartition.singletons(m))
    value, p = _seslo_optimum(singletons, mode)
    mass = [sum(p[r][c] for r in range(m)) for c in range(n)]
    cstar = max(range(n), key=mass.__getitem__)
    sigma2 = [to_mode(0, mode)] * n
    sigma2[cstar] = to_mode(1, mode)
    witness = MixedProfile([p[r][cstar] / mass[cstar] for r in range(m)], sigma2, mode)
    report = verify_mixed(singletons, witness, mode)
    return SolveReport(
        concept=STACKELBERG,
        mode=mode,
        value=value,
        witness=witness,
        verifier_passed=report.passed,
        stats=SearchStats(supports_examined=0, lps_solved=1),
    )


# ---------------------------------------------------------------------------
# support enumeration core (SELO, and best Nash through it)


def _support_pairs(m: int, n: int):
    """Support pairs (rows, columns) in increasing total size, lexicographic
    within."""
    for total in range(2, m + n + 1):
        for a in range(max(1, total - n), min(m, total - 1) + 1):
            for rsup in combinations(range(m), a):
                for csup in combinations(range(n), total - a):
                    yield rsup, csup


def _tie_rows(pay, over, sup, cells) -> tuple:
    """Rows of the mixtures over ``over`` under which every response in
    ``sup`` is a best response within its cell, ``pay[a][j]`` being the
    payoff of response ``a`` against pure action ``j``.  The supported
    responses of a cell tie: each one after the cell's first supported
    response ``a0`` gives an ``=`` row against ``a0``, and each unsupported
    response of the cell a ``<=`` row against ``a0``.  Then ``Σ = 1``."""
    sset = set(sup)
    rows = []
    for cell in cells:
        tied = [a for a in cell if a in sset]
        if not tied:
            continue
        a0 = tied[0]
        for a in cell:
            if a != a0:
                coefs = tuple(pay[a][j] - pay[a0][j] for j in over)
                rows.append((coefs, "=" if a in sset else "<=", 0))
    rows.append((tuple([1] * len(over)), "=", 1))
    return tuple(rows)


class _SupportSearch:
    """Vertex-pair search over support pairs with sound pruning."""

    def __init__(self, game: Game, mode: str):
        self.game = game
        self.mode = mode
        self.u1, self.u2 = game.payoffs_in_mode(mode)
        self.u2t = tuple(zip(*self.u2))  # column player's payoff, column first
        self.m, self.n = game.num_rows, game.num_cols
        self.stats = SearchStats()
        self.best = None
        self.witness = None
        self._csup_cap: dict = {}
        # None when no column is ever a best response; then no pair survives
        caps = [self.csup_cap((c,)) for c in range(self.n)]
        self.ceiling = max((cap for cap in caps if cap is not None), default=None)

    def _p1_lp(self, rsup, csup, objective) -> LinearProgram:
        """Row mixtures over rsup under which every csup column is a best
        response, maximizing ``objective``."""
        rows = _tie_rows(self.u2t, rsup, csup, (range(self.n),))
        return LinearProgram(tuple(objective), rows, len(rsup))

    def _p2_polytope(self, rsup, csup) -> Polytope:
        """Column mixtures over csup under which every supported row is a
        best response within its cell."""
        rows = _tie_rows(self.u1, csup, rsup, self.game.partition.cells)
        return Polytope(num_vars=len(csup), constraints=rows)

    def csup_cap(self, csup):
        """Best row payoff in any csup column over mixtures (on all rows)
        keeping all of csup simultaneously best responses; None when that
        set is empty."""
        if csup not in self._csup_cap:
            rows = tuple(range(self.m))
            cap = None
            for c in csup:
                out = solve_lp(self._p1_lp(rows, csup, [self.u1[r][c] for r in rows]), self.mode)
                self.stats.lps_solved += 1
                if out.status != OPTIMAL:
                    break  # the region is empty (it is bounded), whatever c is
                if cap is None or out.value > cap:
                    cap = out.value
            self._csup_cap[csup] = cap
        return self._csup_cap[csup]

    # -- main loop ----------------------------------------------------------

    def _improves(self, value) -> bool:
        """True when ``value`` replaces the best so far.  A float optimum must
        beat it by more than rounding, so a later tie keeps the earlier
        witness and the pruned search agrees with the unpruned one."""
        if self.best is None:
            return True
        tol = 0 if self.mode == "exact" else FLOAT_TOL * (1 + abs(self.best))
        return value - self.best > tol

    def run(self):
        for rsup, csup in _support_pairs(self.m, self.n):
            self.stats.supports_examined += 1
            if self._handle_pair(rsup, csup):
                break
        if self.best is None:
            raise SolverFailure("support search found no feasible profile")
        return self.best, self.witness, self.stats

    def _handle_pair(self, rsup, csup) -> bool:
        """Evaluate one support pair; returns True to stop the whole search."""
        best = self.best
        if best is not None and max(self.u1[r][c] for r in rsup for c in csup) <= best:
            return False
        # a column that is never a best response on its own empties the pair
        if any(self.csup_cap((c,)) is None for c in csup):
            return False
        if best is not None and max(self.csup_cap((c,)) for c in csup) <= best:
            return False
        cap = self.csup_cap(csup)
        if cap is None or (best is not None and cap <= best):
            return False

        for vert in enumerate_vertices(self._p2_polytope(rsup, csup), self.mode):
            weights = [sum(self.u1[r][c] * vert[j] for j, c in enumerate(csup)) for r in rsup]
            out = solve_lp(self._p1_lp(rsup, csup, weights), self.mode)
            self.stats.lps_solved += 1
            if out.status == INFEASIBLE:
                break  # P1 does not depend on the vertex
            if out.status != OPTIMAL:
                raise SolverFailure(f"support LP unexpectedly {out.status}")
            if self._improves(out.value):
                zero = to_mode(0, self.mode)
                sigma1 = [zero] * self.m
                for i, r in enumerate(rsup):
                    sigma1[r] = out.solution[i]
                sigma2 = [zero] * self.n
                for j, c in enumerate(csup):
                    sigma2[c] = vert[j]
                self.best = out.value
                self.witness = MixedProfile(sigma1, sigma2, self.mode)
                if self.best >= self.ceiling:
                    return True  # every later pair fails the column caps
        return False


def _check_scale(game: Game, allow_large: bool) -> None:
    size = game.num_rows + game.num_cols
    if size > SCALE_GUARD and not allow_large:
        raise ScaleGuardExceeded(
            f"game has {size} actions; support enumeration is exponential "
            f"(guard {SCALE_GUARD}; pass allow_large=True, or --allow-large on the "
            "command line, to override)"
        )


def solve_selo(game: Game, mode: str = "exact", allow_large: bool = False) -> SolveReport:
    """Best row payoff over uncorrelated profiles with no undetectable
    beneficial deviations."""
    _check_scale(game, allow_large)
    search = _SupportSearch(game, mode)
    value, witness, stats = search.run()
    report = verify_mixed(game, witness, mode)
    return SolveReport(
        concept=SELO,
        mode=mode,
        value=value,
        witness=witness,
        verifier_passed=report.passed,
        stats=stats,
    )


def solve_best_nash(game: Game, mode: str = "exact", allow_large: bool = False) -> SolveReport:
    """Row-optimal Nash equilibrium: the one-cell special case of SELO
    (every supported row must be a global best response)."""
    merged = game.with_partition(SISPartition.one_cell(game.num_rows))
    report = solve_selo(merged, mode, allow_large=allow_large)
    report.concept = BEST_NASH
    return report
