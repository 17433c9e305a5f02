"""Solvers for the commitment solution concepts.

Two engines carry all five concepts; the other three are their partition
special cases (singleton cells: everything observable; one cell: nothing).

* ``solve_seslo``: one LP over joint recommendation distributions — the
  row-deviation constraints only range over each indistinguishability cell.
* ``solve_selo``: exact support enumeration.  For every support pair (rows
  R_sup, columns C_sup) the feasible profiles form a product of two
  polytopes, P1 (row mixtures keeping every supported column a best
  response) and P2 (column mixtures keeping every supported row undominated
  within its cell).  The bilinear row payoff attains its maximum at a vertex
  pair, so we enumerate P2's vertices and solve one LP over P1 per vertex.
* ``solve_stackelberg``: the signal LP with singleton cells, which is the
  correlated-commitment LP of Conitzer & Korzhyk (AAAI 2011).
* ``solve_max_ce``: ``solve_seslo`` with all rows merged into one cell.
* ``solve_best_nash``: ``solve_selo`` with all rows merged into one cell.

Support pairs are visited in increasing total cardinality, lexicographic
within, and the reported witness is the first optimum in that order.  The
search skips a pair only when a proven upper bound for it cannot beat the
best value already found, so values and witnesses are identical to the
unpruned enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

from .deviations import verify_correlated, verify_mixed
from .errors import ScaleGuardExceeded, SolverFailure
from .games import (
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

#: run the per-pair bound gate before vertex enumeration once the number of
#: candidate tight-constraint subsets passes this
_GATE_THRESHOLD = 3000


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


class _SupportSearch:
    """Vertex-pair search over support pairs with sound pruning."""

    def __init__(self, game: Game, mode: str, upper_bound=None, prune: bool = True):
        self.game = game
        self.mode = mode
        self.prune = prune  # False exercises the raw enumeration in tests
        self.upper_bound = None if upper_bound is None else to_mode(upper_bound, mode)
        self.u1, self.u2 = game.payoffs_in_mode(mode)
        self.m, self.n = game.num_rows, game.num_cols
        self.stats = SearchStats()
        self.best = None
        self.witness = None
        self._rowmax: dict = {}
        self._single_cap: dict = {}
        self._csup_info: dict = {}

    # -- cached bounds ------------------------------------------------------

    def _row_maxima(self, csup):
        got = self._rowmax.get(csup)
        if got is None:
            got = [max(self.u1[r][c] for c in csup) for r in range(self.m)]
            self._rowmax[csup] = got
        return got

    def _p1_lp(self, rsup, csup, objective) -> LinearProgram:
        cons = []
        for c in csup:
            for c2 in range(self.n):
                if c2 == c:
                    continue
                cons.append(
                    (tuple(self.u2[r][c2] - self.u2[r][c] for r in rsup), "<=", 0)
                )
        cons.append((tuple([1] * len(rsup)), "=", 1))
        return LinearProgram(tuple(objective), tuple(cons), len(rsup))

    def single_cap(self, c: int):
        """Best row payoff in column c over mixtures making c a best response;
        None when c can never be a best response."""
        if c not in self._single_cap:
            lp = self._p1_lp(tuple(range(self.m)), (c,), [self.u1[r][c] for r in range(self.m)])
            out = solve_lp(lp, self.mode)
            self.stats.lps_solved += 1
            self._single_cap[c] = out.value if out.status == OPTIMAL else None
        return self._single_cap[c]

    def csup_cap(self, csup):
        """Best row payoff in any csup column over mixtures keeping all of
        csup simultaneously best responses; None when that set is empty."""
        if csup not in self._csup_info:
            cap = None
            feasible = True
            allrows = tuple(range(self.m))
            for c in csup:
                lp = self._p1_lp(allrows, csup, [self.u1[r][c] for r in range(self.m)])
                out = solve_lp(lp, self.mode)
                self.stats.lps_solved += 1
                if out.status != OPTIMAL:
                    feasible = False
                    break
                if cap is None or out.value > cap:
                    cap = out.value
            self._csup_info[csup] = cap if feasible else None
        return self._csup_info[csup]

    # -- the P2 side --------------------------------------------------------

    def _p2_polytope(self, rsup, csup) -> Polytope:
        """Column mixtures over csup keeping every supported row undominated
        within its cell."""
        rset = set(rsup)
        rows = [
            (tuple(self.u1[r2][c] - self.u1[r][c] for c in csup), "<=", 0)
            for cell in self.game.partition.cells
            for r in cell if r in rset
            for r2 in cell if r2 != r
        ]
        rows.append((tuple([1] * len(csup)), "=", 1))
        return Polytope(num_vars=len(csup), constraints=tuple(rows))

    def _pair_gate(self, rsup, csup, poly) -> bool:
        """True when the pair can still beat the current best (may solve up
        to |rsup| LPs over the column polytope, which also detects emptiness)."""
        bound = None
        for r in rsup:
            lp = LinearProgram(
                objective=tuple(self.u1[r][c] for c in csup),
                constraints=poly.constraints,
                num_vars=len(csup),
            )
            out = solve_lp(lp, self.mode)
            self.stats.lps_solved += 1
            if out.status == INFEASIBLE:
                return False  # the polytope is empty: same for every r
            if out.status == OPTIMAL and (bound is None or out.value > bound):
                bound = out.value
        return not (self.best is not None and bound is not None and bound <= self.best)

    # -- main loop ----------------------------------------------------------

    def run(self):
        m, n = self.m, self.n
        done = False
        for total in range(2, m + n + 1):
            if done:
                break
            for a in range(max(1, total - n), min(m, total - 1) + 1):
                if done:
                    break
                for rsup in combinations(range(m), a):
                    if done:
                        break
                    for csup in combinations(range(n), total - a):
                        self.stats.supports_examined += 1
                        if self._handle_pair(rsup, csup):
                            done = True
                            break
        if self.best is None:
            raise SolverFailure("support search found no feasible profile")
        return self.best, self.witness, self.stats

    def _handle_pair(self, rsup, csup) -> bool:
        """Evaluate one support pair; returns True to stop the whole search."""
        best = self.best
        if self.prune:
            rowmax = self._row_maxima(csup)
            rect = max(rowmax[r] for r in rsup)
            if best is not None and rect <= best:
                return False
            caps = []
            for c in csup:
                cap = self.single_cap(c)
                if cap is None:
                    return False  # some column in csup can never be a best response
                caps.append(cap)
            if best is not None and max(caps) <= best:
                return False
            cap = self.csup_cap(csup)
            if cap is None:
                return False
            if best is not None and cap <= best:
                return False

        poly = self._p2_polytope(rsup, csup)
        n_ineq = len(poly.constraints) - 1 + len(csup)  # plus nonnegativity rows
        need = len(csup) - 1
        if self.prune and 0 <= need <= n_ineq and math.comb(n_ineq, need) > _GATE_THRESHOLD:
            if not self._pair_gate(rsup, csup, poly):
                return False
        vertices = enumerate_vertices(poly, self.mode)
        for vert in vertices:
            weights = [
                sum(self.u1[r][c] * vert[j] for j, c in enumerate(csup)) for r in rsup
            ]
            out = solve_lp(self._p1_lp(rsup, csup, weights), self.mode)
            self.stats.lps_solved += 1
            if out.status == INFEASIBLE:
                break  # P1 does not depend on the vertex
            if out.status != OPTIMAL:
                raise SolverFailure(f"support LP unexpectedly {out.status}")
            if self.best is None or out.value > self.best:
                zero = to_mode(0, self.mode)
                sigma1 = [zero] * self.m
                for i, r in enumerate(rsup):
                    sigma1[r] = out.solution[i]
                sigma2 = [zero] * self.n
                for j, c in enumerate(csup):
                    sigma2[c] = vert[j]
                self.best = out.value
                self.witness = MixedProfile(sigma1, sigma2, self.mode)
                if self.upper_bound is not None and self.best >= self.upper_bound:
                    return True
        return False


def _check_scale(game: Game, allow_large: bool) -> None:
    size = game.num_rows + game.num_cols
    if size > SCALE_GUARD and not allow_large:
        raise ScaleGuardExceeded(
            f"game has {size} actions; support enumeration is exponential "
            f"(guard {SCALE_GUARD}, pass allow_large=True to override)"
        )


def solve_selo(
    game: Game,
    mode: str = "exact",
    upper_bound=None,
    allow_large: bool = False,
) -> SolveReport:
    """Best row payoff over uncorrelated profiles with no undetectable
    beneficial deviations.

    ``upper_bound`` (for instance a known signaling optimum, which always
    dominates) stops the search as soon as it is attained.
    """
    _check_scale(game, allow_large)
    search = _SupportSearch(game, mode, upper_bound)
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
