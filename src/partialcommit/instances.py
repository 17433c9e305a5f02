"""Built-in games: worked examples, hardness-reduction games, extreme
families, and seeded random games for experiments.

All example and family games carry exact integer/rational payoffs; only
``gen_random`` produces float payoffs.  The random generator is a stdlib
``random.Random`` (Mersenne Twister) seeded per call: payoffs are drawn
uniformly from [0, 1), filling u1 row by row and then u2 row by row, so the
payoff stream never depends on the requested cell count.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidInstance, InvalidParams, ScaleGuardExceeded, UnknownExample
from .games import Game, SISPartition

EXAMPLE_4X2 = "example_4x2"
SHAPLEY = "shapley"
SIGNALING_5X4 = "signaling_5x4"
WEAKSIG_6X4 = "weaksig_6x4"

EXAMPLE_NAMES = (EXAMPLE_4X2, SHAPLEY, SIGNALING_5X4, WEAKSIG_6X4)


def gen_example(name: str) -> Game:
    """One of the built-in worked-example games, exact payoffs."""
    if name == EXAMPLE_4X2:
        # four rows in two indistinguishable pairs, two columns
        u1 = [[7, 2], [6, 0], [5, 0], [4, 1]]
        u2 = [[0, 1], [1, 0], [0, 1], [1, 0]]
        part = SISPartition([[0, 1], [2, 3]], 4)
        return Game(u1, u2, part, ("a", "b", "c", "d"), ("A", "B"))
    if name == SHAPLEY:
        # cyclic win/lose game; matching the opponent loses for both
        u1 = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
        u2 = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
        part = SISPartition.one_cell(3)
        return Game(u1, u2, part, ("a", "b", "c"), ("A", "B", "C"))
    if name == SIGNALING_5X4:
        u1 = [
            [0, 12, 0, 0],
            [0, 0, 12, 0],
            [12, 0, 0, 0],
            [5, 5, 5, 0],
            [7, 7, 7, 1],
        ]
        u2 = [
            [0, 0, 1, 0],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 0, 1],
        ]
        part = SISPartition([[0, 1, 2, 3], [4]], 5)
        return Game(u1, u2, part, ("a", "b", "c", "d", "e"), ("A", "B", "C", "D"))
    if name == WEAKSIG_6X4:
        u1 = [
            [1, 4, 1, 1],
            [1, 1, 4, 1],
            [4, 1, 1, 1],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
        ]
        u2 = [
            [0, 0, 1, 1],
            [1, 0, 0, 1],
            [0, 1, 0, 1],
            [1, 1, 0, 0],
            [0, 1, 1, 0],
            [1, 0, 1, 0],
        ]
        part = SISPartition([[0, 1, 2], [3, 4, 5]], 6)
        return Game(u1, u2, part, ("a", "b", "c", "d", "e", "f"), ("A", "B", "C", "D"))
    raise UnknownExample(f"no built-in example named {name!r}")


def nine_atom_profile(name: str):
    """The uniform nine-recommendation joint profile used with a built-in game."""
    from .games import CorrelatedProfile

    w = Fraction(1, 9)
    if name == SIGNALING_5X4:
        p = [[0] * 4 for _ in range(5)]
        for r, c in [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1), (4, 0), (4, 1), (4, 2)]:
            p[r][c] = w
        return CorrelatedProfile(p)
    if name == WEAKSIG_6X4:
        p = [[0] * 4 for _ in range(6)]
        for r, c in [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1), (3, 0), (4, 1), (5, 2)]:
            p[r][c] = w
        return CorrelatedProfile(p)
    raise UnknownExample(f"no nine-atom profile for {name!r}")


# ---------------------------------------------------------------------------
# exact-cover reduction


@dataclass(frozen=True)
class X3CInstance:
    """Exact-cover-by-3-sets instance: ``num_elements`` items (divisible by
    3) and a list of 3-element subsets."""

    num_elements: int
    subsets: tuple[tuple[int, ...], ...]

    def __init__(self, num_elements: int, subsets):
        if num_elements <= 0 or num_elements % 3 != 0:
            raise InvalidInstance("element count must be a positive multiple of 3")
        canon = []
        for s in subsets:
            t = tuple(sorted(set(s)))
            if len(t) != 3:
                raise InvalidInstance(f"subset {s!r} must have exactly 3 distinct elements")
            if any(not (0 <= e < num_elements) for e in t):
                raise InvalidInstance(f"subset {s!r} has out-of-range elements")
            canon.append(t)
        if not canon:
            raise InvalidInstance("need at least one subset")
        object.__setattr__(self, "num_elements", num_elements)
        object.__setattr__(self, "subsets", tuple(canon))


#: ``solve_x3c_bruteforce`` refuses instances with more subsets than this
X3C_BRUTEFORCE_GUARD = 20


def solve_x3c_bruteforce(inst: X3CInstance) -> bool:
    """Exhaustively decide whether m/3 pairwise-disjoint subsets cover everything."""
    k = len(inst.subsets)
    if k > X3C_BRUTEFORCE_GUARD:
        raise ScaleGuardExceeded(
            f"{k} subsets exceeds the brute-force guard of {X3C_BRUTEFORCE_GUARD}"
        )
    want = inst.num_elements // 3
    if k < want:
        return False
    universe = frozenset(range(inst.num_elements))
    for combo in itertools.combinations(range(k), want):
        union = set()
        ok = True
        for j in combo:
            s = inst.subsets[j]
            if union & set(s):
                ok = False
                break
            union.update(s)
        if ok and union == universe:
            return True
    return False


def gen_x3c_game(inst: X3CInstance) -> Game:
    """Game whose positive-value no-deviation profiles encode exact covers.

    Rows come in indistinguishable pairs (one "cover" row and one "safe" row
    per subset); columns are one per subset followed by one per element.
    """
    k = len(inst.subsets)
    m3 = Fraction(inst.num_elements, 3)
    rows = 2 * k
    cols = k + inst.num_elements
    u1 = [[Fraction(0)] * cols for _ in range(rows)]
    u2 = [[Fraction(0)] * cols for _ in range(rows)]
    for j in range(k):
        plus, minus = 2 * j, 2 * j + 1
        u1[plus][j] = m3
        for j2 in range(k):
            u1[minus][j2] = Fraction(1)
    for r in range(rows):
        for j in range(k):
            u2[r][j] = m3 - 1
    for t in range(inst.num_elements):
        col = k + t
        for j in range(k):
            plus, minus = 2 * j, 2 * j + 1
            u2[plus][col] = Fraction(0) if t in inst.subsets[j] else m3
            u2[minus][col] = m3
    part = SISPartition([[2 * j, 2 * j + 1] for j in range(k)], rows)
    row_labels = tuple(
        lab for j in range(k) for lab in (f"cover{j}", f"safe{j}")
    )
    col_labels = tuple(f"set{j}" for j in range(k)) + tuple(
        f"elem{t}" for t in range(inst.num_elements)
    )
    return Game(u1, u2, part, row_labels, col_labels)


def gen_x3c_satisfiable(num_elements: int, extra_subsets: int, seed: int) -> X3CInstance:
    """Plant a disjoint cover, then add random distractor subsets."""
    if num_elements <= 0 or num_elements % 3 != 0:
        raise InvalidInstance("element count must be a positive multiple of 3")
    rng = random.Random(seed)
    elems = list(range(num_elements))
    rng.shuffle(elems)
    subsets = [tuple(sorted(elems[i : i + 3])) for i in range(0, num_elements, 3)]
    seen = set(subsets)
    while len(subsets) < num_elements // 3 + extra_subsets:
        cand = tuple(sorted(rng.sample(range(num_elements), 3)))
        if cand not in seen:
            seen.add(cand)
            subsets.append(cand)
    rng.shuffle(subsets)
    return X3CInstance(num_elements, subsets)


def gen_x3c_unsatisfiable(num_elements: int, subset_count: int, seed: int) -> X3CInstance:
    """No subset ever contains the last element, so no cover exists."""
    if num_elements < 6 or num_elements % 3 != 0:
        raise InvalidInstance("need at least 6 elements to omit one and stay coverable-looking")
    rng = random.Random(seed)
    seen = set()
    subsets = []
    while len(subsets) < subset_count:
        cand = tuple(sorted(rng.sample(range(num_elements - 1), 3)))
        if cand not in seen:
            seen.add(cand)
            subsets.append(cand)
    return X3CInstance(num_elements, subsets)


# ---------------------------------------------------------------------------
# commitment-power gap families


def _check_family_params(n, eps) -> Fraction:
    eps = Fraction(eps)
    if n <= 1:
        raise InvalidParams("n must be at least 2")
    if not (0 < eps < 1):
        raise InvalidParams("eps must lie strictly between 0 and 1")
    return eps


def gen_close_to_full(n: int, eps) -> Game:
    """n x (n+1) game where full distinguishability is worth almost 1 and
    anything less is worth almost nothing.

    Rows are increasingly attractive copies; the last column is a safe
    column the column player only accepts when every row stays plausible.
    """
    eps = _check_family_params(n, eps)
    u1 = [[Fraction(0)] * (n + 1) for _ in range(n)]
    u2 = [[Fraction(0)] * (n + 1) for _ in range(n)]
    for i0 in range(n):
        i = i0 + 1
        for j0 in range(n):
            u1[i0][j0] = Fraction(i) * eps / n
            u2[i0][j0] = Fraction(0) if i0 == j0 else (1 + Fraction(1, n)) / 2
        u1[i0][n] = 1 - Fraction(n - i) * eps / n
        u2[i0][n] = Fraction(1, 2)
    return Game(u1, u2, SISPartition.singletons(n))


def gen_close_to_none(n: int, eps) -> Game:
    """n x (n+1) game where any distinguishability at all is worth almost 1
    and none is worth exactly 0."""
    eps = _check_family_params(n, eps)
    u1 = [[Fraction(0)] * (n + 1) for _ in range(n)]
    u2 = [[Fraction(0)] * (n + 1) for _ in range(n)]
    for i0 in range(n):
        for j0 in range(n):
            u1[i0][j0] = Fraction(1) if i0 == j0 else 1 - eps
            u2[i0][j0] = Fraction(0) if i0 == j0 else Fraction(1)
        u1[i0][n] = Fraction(0)
        u2[i0][n] = Fraction(n - Fraction(1, 2), n)
    return Game(u1, u2, SISPartition.singletons(n))


# ---------------------------------------------------------------------------
# random games


def gen_random(m: int, n: int, sis_count: int, seed: int) -> Game:
    """Uniform [0,1) float payoffs with a round-robin cell assignment.

    The same (m, n, seed) always produces the same payoffs regardless of
    ``sis_count``, so sweeps over cell counts reuse identical games.
    """
    if m < 1 or n < 1:
        raise InvalidParams("need at least one row and one column")
    if not (1 <= sis_count <= m):
        raise InvalidParams(f"sis_count {sis_count} not in 1..{m}")
    rng = random.Random(seed)
    u1 = [[rng.random() for _ in range(n)] for _ in range(m)]
    u2 = [[rng.random() for _ in range(n)] for _ in range(m)]
    return Game(u1, u2, SISPartition.round_robin(m, sis_count))
