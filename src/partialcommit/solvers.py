"""Solvers for the commitment solution concepts.

Two engines carry all five concepts; the other three are their partition
special cases (singleton cells: everything observable; one cell: nothing).

* ``solve_seslo``: one LP over joint recommendation distributions, the
  support search's tie rule (``_tie_rows``) applied to each recommendation,
  so a recommended row need only be a best response within its cell.
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

* the per-column bound, max over c in C_sup of min(cap((c,)), the largest
  row payoff on rows R_sup in column c), cap being the next bullet's;
* the column-set cap ``cap(C_sup)``, one LP: the best of
  Σ_r x_r·max_{c∈C_sup} u1[r][c] over row mixtures x (on all rows) keeping
  all of C_sup best responses, cached; None, emptying the pair, if no x is;
* the Stackelberg ceiling, the largest single-column cap (the multiple-LPs
  method of Conitzer & Sandholm, EC 2006): a SELO value
  Σ_c y_c·(x·u1[:,c]) is at most cap((c,)) for some supported c, so no
  later pair's value exceeds the ceiling, and the search stops once the
  ceiling itself could not replace the best value.

Both pair bounds hold since a profile's row part lies in P1(all rows, C_sup).
Two shortcuts change no outcome.  A pair (R', C') inside a pair (R, C) whose
P2 came out empty is not walked: P2(R', C') embeds into P2(R, C) when R' ⊇ R
and C' ⊆ C, since a supported row only adds ties at its cell's maximum and
dropping columns takes a face.  A one-row P1 is the point x = e_r, so its tie
rows are tested at x = 1 with no LP.  So the pruned search reports the value
and witness of the unpruned one, in both modes; ``tests/test_solvers.py``
keeps the unpruned search as its oracle.
"""

from __future__ import annotations

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
    tolerance,
)
from .linprog import (
    INFEASIBLE,
    OPTIMAL,
    LinearProgram,
    LpOutcome,
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
    """The signal LP over joint distributions ``p[r][c]`` (variable
    ``r * n + c``): the support search's tie rule applied to each
    recommendation.  Row ``r`` is a best response within its cell against
    ``p[r][·]`` and column ``c`` a best response against ``p[·][c]``."""
    nv = m * n
    u2t = tuple(zip(*u2))
    blocks = [(u1, range(n), (r,), (cell,), slice(r * n, (r + 1) * n))
              for cell in partition.cells for r in cell]
    blocks += [(u2t, range(m), (c,), (range(n),), slice(c, nv, n)) for c in range(n)]
    cons = []
    for pay, over, sup, cells, place in blocks:
        for coefs, rel, rhs in _tie_rows(pay, over, sup, cells):
            row = [0] * nv
            row[place] = coefs
            cons.append((tuple(row), rel, rhs))
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


def _tie_rows(pay, over, sup, cells) -> list:
    """Rows of the mixtures over ``over`` under which every response in
    ``sup`` is a best response within its cell, ``pay[a][j]`` being the
    payoff of response ``a`` against pure action ``j``.  The supported
    responses of a cell tie: each one after the cell's first supported
    response ``a0`` gives an ``=`` row against ``a0``, and each unsupported
    response of the cell a ``<=`` row against ``a0``."""
    sset = set(sup)
    rows = []
    for cell in cells:
        tied = [a for a in cell if a in sset]
        for a in cell:
            if tied and a != tied[0]:
                pa, p0 = pay[a], pay[tied[0]]
                rows.append((tuple([pa[j] - p0[j] for j in over]), "=" if a in sset else "<=", 0))
    return rows


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
        self._empty: list = []  # (row mask, column mask) of each pair with an empty P2
        # None when no column is ever a best response; then no pair survives
        caps = [self.csup_cap((c,)) for c in range(self.n)]
        self.ceiling = max((cap for cap in caps if cap is not None), default=None)

    def _p1_lp(self, rsup, csup, objective) -> LinearProgram:
        """Row mixtures over rsup under which every csup column is a best
        response, maximizing ``objective``."""
        rows = _tie_rows(self.u2t, rsup, csup, (range(self.n),))
        rows.append((tuple([1] * len(rsup)), "=", 1))
        return LinearProgram(tuple(objective), tuple(rows), len(rsup))

    def _p2_polytope(self, rsup, csup) -> Polytope:
        """Column mixtures over csup under which every supported row is a
        best response within its cell."""
        rows = _tie_rows(self.u1, csup, rsup, self.game.partition.cells)
        rows.append((tuple([1] * len(csup)), "=", 1))
        return Polytope(num_vars=len(csup), constraints=tuple(rows))

    def csup_cap(self, csup):
        """Best of Σ_r x_r·max_{c∈csup} u1[r][c] over mixtures x (on all rows)
        keeping all of csup best responses, from one LP (for one column, the
        best row payoff in it); None when that set is empty."""
        if csup not in self._csup_cap:
            rows = range(self.m)
            weights = [max(self.u1[r][c] for c in csup) for r in rows]
            out = self._solve_p1(rows, csup, weights)
            self._csup_cap[csup] = out.value if out.status == OPTIMAL else None
        return self._csup_cap[csup]

    def _solve_p1(self, rsup, csup, weights) -> LpOutcome:
        """P1 over rsup maximizing ``weights``.  One row is the point e_r, its
        weight the value, tested with ``enumerate_vertices``' tolerances."""
        if len(rsup) > 1:
            self.stats.lps_solved += 1
            return solve_lp(self._p1_lp(rsup, csup, weights), self.mode)
        tol = tolerance(self.mode)
        rows = _tie_rows(self.u2t, rsup, csup, (range(self.n),))
        if any(a > tol if rel == "<=" else abs(a) > tol for (a,), rel, _ in rows):
            return LpOutcome(INFEASIBLE)
        return LpOutcome(OPTIMAL, weights[0], (to_mode(1, self.mode),))

    # -- main loop ----------------------------------------------------------

    def _improves(self, value) -> bool:
        """True when ``value`` replaces the best so far.  A float optimum must
        beat it by more than rounding, so a later tie keeps the earlier
        witness and the pruned search agrees with the unpruned one."""
        if self.best is None:
            return True
        return value - self.best > tolerance(self.mode) * (1 + abs(self.best))

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
        caps = [self.csup_cap((c,)) for c in csup]
        if None in caps:
            return False  # a column that is never a best response empties the pair
        bound = max(min(cap, max(self.u1[r][c] for r in rsup)) for cap, c in zip(caps, csup))
        if best is not None and bound <= best:
            return False
        cap = self.csup_cap(csup)
        if cap is None or (best is not None and cap <= best):
            return False

        rbits, cbits = (sum(1 << a for a in sup) for sup in (rsup, csup))
        if any(not r & ~rbits and not cbits & ~c for r, c in self._empty):
            return False  # inside a recorded empty P2
        verts = enumerate_vertices(self._p2_polytope(rsup, csup), self.mode)
        if not verts:
            self._empty.append((rbits, cbits))
        for vert in verts:
            weights = [sum(self.u1[r][c] * vert[j] for j, c in enumerate(csup)) for r in rsup]
            out = self._solve_p1(rsup, csup, weights)
            if out.status == INFEASIBLE:
                break  # P1 does not depend on the vertex
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
                if not self._improves(self.ceiling):
                    return True  # no later pair can replace the best
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
