"""Core game types: payoff bimatrix, row partition, strategy profiles.

A game is a pair of m-by-n payoff matrices (row player, column player)
together with a partition of the rows into cells of mutually
indistinguishable actions.  All values are immutable after construction and
every operation here is a pure function, so everything is safe to share
across threads.

Numbers come in two modes.  Exact mode works on :class:`fractions.Fraction`
(and ints); float mode works on binary floats with a 1e-9 tolerance.  The
JSON file formats defined at the bottom of this module always parse to exact
rationals (decimal tokens like ``0.25`` mean 1/4, string tokens must look
like ``"19/3"``); callers convert to floats when they want float mode.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import (
    DimensionMismatch,
    EmptyGame,
    NonFiniteNumber,
    PartitionInvalid,
    UniverseMismatch,
)

Number = Fraction | int | float

#: absolute tolerance used everywhere float mode needs a zero test
FLOAT_TOL = 1e-9


# ---------------------------------------------------------------------------
# number parsing / formatting


def parse_number(token) -> Fraction:
    """Parse a JSON payoff/probability token to an exact rational.

    Accepted: ints, Fractions, floats produced by ``json`` (converted via
    their decimal string, so ``0.1`` means 1/10), and strings matching
    ``"p/q"`` with a positive integer denominator.
    """
    if isinstance(token, bool):
        raise ValueError(f"not a number token: {token!r}")
    if isinstance(token, (int, Fraction)):
        return Fraction(token)
    if isinstance(token, float):
        if not math.isfinite(token):
            raise NonFiniteNumber(f"not a finite number: {token!r}")
        # repr() round-trips the shortest decimal form, which is what the
        # user wrote in the file for ordinary literals.
        return Fraction(repr(token))
    if isinstance(token, str):
        parts = token.split("/")
        if len(parts) != 2:
            raise ValueError(f"string token must look like 'p/q': {token!r}")
        num, den = int(parts[0]), int(parts[1])
        if den <= 0:
            raise ValueError(f"denominator must be positive: {token!r}")
        return Fraction(num, den)
    raise ValueError(f"not a number token: {token!r}")


def format_number(x: Number) -> str:
    """Render a value for reports: ``p/q`` for rationals, repr for floats."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
    if isinstance(x, int):
        return str(x)
    return repr(x)


def to_mode(x: Number, mode: str) -> Fraction | float:
    """Convert one number to the arithmetic of ``mode`` ('exact'|'float');
    a number beyond the float range, or a float that is not finite, is a
    :class:`NonFiniteNumber`."""
    if mode == "exact":
        if isinstance(x, float) and not math.isfinite(x):
            # only float arithmetic makes one: a payoff difference overflowed
            raise NonFiniteNumber(
                f"a float computation reached {x}; solve with --mode exact instead"
            )
        return x if isinstance(x, Fraction) else Fraction(x)
    if mode == "float":
        try:
            return float(x)
        except OverflowError:
            raise NonFiniteNumber("a number is beyond the float range") from None
    raise ValueError(f"unknown mode: {mode!r}")


def matrix_to_mode(rows: Sequence[Sequence[Number]], mode: str) -> tuple[tuple, ...]:
    return tuple(tuple(to_mode(x, mode) for x in row) for row in rows)


# ---------------------------------------------------------------------------
# partition


def _row_index(r) -> int:
    # JSON ``true``/``false`` load as bools, which ``operator.index`` accepts
    if isinstance(r, bool):
        raise TypeError(f"{r!r} is not a row index")
    return operator.index(r)


@dataclass(frozen=True)
class SISPartition:
    """Partition of row indices into cells the column player cannot tell apart.

    Cells are stored canonically: each cell sorted, cells ordered by their
    smallest member.  Construction validates disjointness and exhaustiveness
    against ``num_rows``.
    """

    cells: tuple[tuple[int, ...], ...]
    num_rows: int

    def __init__(self, cells: Iterable[Iterable[int]], num_rows: int):
        try:
            canon = [tuple(sorted({_row_index(r) for r in c})) for c in cells]
        except TypeError as exc:
            raise PartitionInvalid(f"partition cells must be lists of row indices: {exc}") from exc
        canon = tuple(sorted(canon, key=lambda c: (c[0] if c else -1)))
        seen: set[int] = set()
        for cell in canon:
            if not cell:
                raise PartitionInvalid("empty partition cell")
            for r in cell:
                if not (0 <= r < num_rows):
                    raise PartitionInvalid(f"row index {r} out of range 0..{num_rows - 1}")
                if r in seen:
                    raise PartitionInvalid(f"row {r} appears in more than one cell")
                seen.add(r)
        if len(seen) != num_rows:
            missing = sorted(set(range(num_rows)) - seen)
            raise PartitionInvalid(f"rows not covered by any cell: {missing}")
        object.__setattr__(self, "cells", canon)
        object.__setattr__(self, "num_rows", num_rows)

    @classmethod
    def singletons(cls, num_rows: int) -> "SISPartition":
        return cls([[r] for r in range(num_rows)], num_rows)

    @classmethod
    def one_cell(cls, num_rows: int) -> "SISPartition":
        return cls([list(range(num_rows))], num_rows)

    @classmethod
    def round_robin(cls, num_rows: int, cell_count: int) -> "SISPartition":
        """Cell k gets the rows congruent to k modulo ``cell_count``."""
        if not (1 <= cell_count <= num_rows):
            raise PartitionInvalid(f"cell count {cell_count} not in 1..{num_rows}")
        return cls(
            [[r for r in range(num_rows) if r % cell_count == k] for k in range(cell_count)],
            num_rows,
        )

    def cell_index_of(self, row: int) -> int:
        for k, cell in enumerate(self.cells):
            if row in cell:
                return k
        raise IndexError(row)

    def cell_of(self, row: int) -> tuple[int, ...]:
        return self.cells[self.cell_index_of(row)]

    def __len__(self) -> int:
        return len(self.cells)


def is_refinement(fine: SISPartition, coarse: SISPartition) -> bool:
    """True iff every cell of ``fine`` sits inside some cell of ``coarse``."""
    if fine.num_rows != coarse.num_rows:
        raise UniverseMismatch(
            f"partitions over different row counts: {fine.num_rows} vs {coarse.num_rows}"
        )
    coarse_sets = [set(c) for c in coarse.cells]
    return all(any(set(cell) <= cs for cs in coarse_sets) for cell in fine.cells)


# ---------------------------------------------------------------------------
# game


@dataclass(frozen=True)
class Game:
    """Two-player normal-form game with a row-indistinguishability partition."""

    u1: tuple[tuple[Number, ...], ...]
    u2: tuple[tuple[Number, ...], ...]
    partition: SISPartition
    row_labels: tuple[str, ...] | None = None
    col_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "u1", tuple(tuple(row) for row in self.u1))
        object.__setattr__(self, "u2", tuple(tuple(row) for row in self.u2))
        if self.row_labels is not None:
            object.__setattr__(self, "row_labels", tuple(self.row_labels))
        if self.col_labels is not None:
            object.__setattr__(self, "col_labels", tuple(self.col_labels))
        m = len(self.u1)
        if m == 0 or any(len(row) == 0 for row in self.u1):
            raise EmptyGame("game must have at least one row and one column")
        n = len(self.u1[0])
        if any(len(row) != n for row in self.u1):
            raise DimensionMismatch("ragged u1 matrix")
        if len(self.u2) != m or any(len(row) != n for row in self.u2):
            raise DimensionMismatch("u1 and u2 must have identical shapes")
        if self.partition.num_rows != m:
            raise PartitionInvalid(
                f"partition covers {self.partition.num_rows} rows, game has {m}"
            )
        if self.row_labels is not None and len(self.row_labels) != m:
            raise DimensionMismatch("row_labels length must equal the row count")
        if self.col_labels is not None and len(self.col_labels) != n:
            raise DimensionMismatch("col_labels length must equal the column count")
        for name, matrix in (("u1", self.u1), ("u2", self.u2)):
            for row in matrix:
                for x in row:
                    try:
                        finite = math.isfinite(x)
                    except OverflowError:  # an exact payoff that no float holds
                        finite = False
                    if not finite:
                        # every concept also reports its value as a float
                        raise NonFiniteNumber(f"{name} has a payoff that is not a finite float")

    @property
    def num_rows(self) -> int:
        return len(self.u1)

    @property
    def num_cols(self) -> int:
        return len(self.u1[0])

    def with_partition(self, partition: SISPartition) -> "Game":
        return Game(self.u1, self.u2, partition, self.row_labels, self.col_labels)

    def payoffs_in_mode(self, mode: str) -> tuple[tuple[tuple, ...], tuple[tuple, ...]]:
        return matrix_to_mode(self.u1, mode), matrix_to_mode(self.u2, mode)


def validate_game(raw: Mapping) -> Game:
    """Build a canonical :class:`Game` from an untyped description.

    ``raw`` uses the JSON file schema: keys ``u1``, ``u2``, ``partition``,
    optional ``row_labels``/``col_labels``.  Raises a :class:`GameError`
    subclass on any structural defect.
    """
    if not isinstance(raw, Mapping):
        raise DimensionMismatch("a game must be a JSON object")
    try:
        u1_raw = raw["u1"]
        u2_raw = raw["u2"]
        part_raw = raw["partition"]
    except KeyError as exc:
        raise DimensionMismatch(f"missing required game field: {exc}") from exc
    try:
        if not u1_raw or not all(u1_raw):
            raise EmptyGame("game must have at least one row and one column")
        u1 = tuple(tuple(parse_number(x) for x in row) for row in u1_raw)
        u2 = tuple(tuple(parse_number(x) for x in row) for row in u2_raw)
    except (ValueError, TypeError) as exc:
        raise DimensionMismatch(str(exc)) from exc
    partition = SISPartition(part_raw, len(u1))
    return Game(u1, u2, partition, _labels(raw, "row_labels"), _labels(raw, "col_labels"))


def _labels(raw: Mapping, key: str) -> tuple[str, ...] | None:
    labels = raw.get(key)
    if labels is None or labels == []:
        return None
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise DimensionMismatch(f"{key} must be a list of strings")
    return tuple(labels)


# ---------------------------------------------------------------------------
# profiles


def _check_distribution(values: tuple, what: str, mode: str) -> tuple:
    total = sum(values)
    if mode == "exact":
        if any(v < 0 for v in values):
            raise DimensionMismatch(f"{what} has a negative entry")
        if total != 1:
            raise DimensionMismatch(f"{what} must sum to exactly 1, got {total}")
        return values
    # float mode: allow 1e-9 slack, then renormalize
    if any(v < -FLOAT_TOL for v in values):
        raise DimensionMismatch(f"{what} has a negative entry")
    if abs(total - 1.0) > FLOAT_TOL:
        raise DimensionMismatch(f"{what} must sum to 1 within {FLOAT_TOL}, got {total}")
    return tuple(max(v, 0.0) / total for v in values)


def _all_in_mode(values, mode: str) -> bool:
    """Are ``values`` already numbers of ``mode``?  A profile that is gets
    returned as it is by ``in_mode``: converting it again would renormalize
    a float profile and change its last bits."""
    kind = {"exact": Fraction, "float": float}.get(mode)
    return kind is not None and all(isinstance(x, kind) for x in values)


@dataclass(frozen=True)
class MixedProfile:
    """Independent mixed strategies for the two players."""

    sigma1: tuple[Number, ...]
    sigma2: tuple[Number, ...]

    def __init__(self, sigma1: Sequence[Number], sigma2: Sequence[Number], mode: str = "exact"):
        s1 = tuple(to_mode(x, mode) for x in sigma1)
        s2 = tuple(to_mode(x, mode) for x in sigma2)
        s1 = _check_distribution(s1, "sigma1", mode)
        s2 = _check_distribution(s2, "sigma2", mode)
        object.__setattr__(self, "sigma1", s1)
        object.__setattr__(self, "sigma2", s2)

    def in_mode(self, mode: str) -> "MixedProfile":
        if _all_in_mode(self.sigma1 + self.sigma2, mode):
            return self
        return MixedProfile(self.sigma1, self.sigma2, mode)


@dataclass(frozen=True)
class CorrelatedProfile:
    """Joint distribution over action pairs; entry (r, c) is the chance the
    mediator recommends row r and column c."""

    p: tuple[tuple[Number, ...], ...]

    def __init__(self, p: Sequence[Sequence[Number]], mode: str = "exact"):
        rows = tuple(tuple(to_mode(x, mode) for x in row) for row in p)
        if any(len(row) != len(rows[0]) for row in rows[1:]):
            raise DimensionMismatch("ragged p matrix")
        flat = tuple(x for row in rows for x in row)
        flat = _check_distribution(flat, "p", mode)
        n = len(rows[0])
        rows = tuple(tuple(flat[i * n + j] for j in range(n)) for i in range(len(rows)))
        object.__setattr__(self, "p", rows)

    @property
    def num_rows(self) -> int:
        return len(self.p)

    @property
    def num_cols(self) -> int:
        return len(self.p[0])

    def in_mode(self, mode: str) -> "CorrelatedProfile":
        if _all_in_mode([x for row in self.p for x in row], mode):
            return self
        return CorrelatedProfile(self.p, mode)

    def column_marginal(self, c: int) -> Number:
        return sum(row[c] for row in self.p)


# ---------------------------------------------------------------------------
# utility computations


def _require_profile_shape(game: Game, m: int, n: int) -> None:
    if game.num_rows != m or game.num_cols != n:
        raise DimensionMismatch(
            f"profile shape {m}x{n} does not match game {game.num_rows}x{game.num_cols}"
        )


def expected_utilities(game: Game, profile: MixedProfile) -> tuple[Number, Number]:
    """Bilinear expected payoffs (row player, column player)."""
    _require_profile_shape(game, len(profile.sigma1), len(profile.sigma2))
    s1, s2 = profile.sigma1, profile.sigma2
    pairs = [
        (r, c)
        for r in range(game.num_rows)
        for c in range(game.num_cols)
        if s1[r] != 0 and s2[c] != 0
    ]
    v1 = sum(s1[r] * s2[c] * game.u1[r][c] for r, c in pairs)
    v2 = sum(s1[r] * s2[c] * game.u2[r][c] for r, c in pairs)
    return v1, v2


def correlated_utilities(game: Game, profile: CorrelatedProfile) -> tuple[Number, Number]:
    """Expected payoffs under a joint recommendation distribution."""
    _require_profile_shape(game, profile.num_rows, profile.num_cols)
    v1 = sum(
        profile.p[r][c] * game.u1[r][c]
        for r in range(game.num_rows)
        for c in range(game.num_cols)
    )
    v2 = sum(
        profile.p[r][c] * game.u2[r][c]
        for r in range(game.num_rows)
        for c in range(game.num_cols)
    )
    return v1, v2


def sis_mass(weights: Sequence[Number], partition: SISPartition) -> list[Number]:
    """Total weight landing in each cell, in canonical cell order."""
    if len(weights) != partition.num_rows:
        raise DimensionMismatch(
            f"weight vector length {len(weights)} vs partition over {partition.num_rows} rows"
        )
    if any(w < 0 for w in weights):
        raise DimensionMismatch("weights must be nonnegative")
    return [sum(weights[r] for r in cell) for cell in partition.cells]


def conditional_sis_given_column(
    profile: CorrelatedProfile, partition: SISPartition, c: int
) -> list[Number] | None:
    """Distribution over cells the column player observes given signal ``c``.

    Returns ``None`` when column ``c`` has zero marginal (there is nothing to
    condition on).
    """
    if not (0 <= c < profile.num_cols):
        raise DimensionMismatch(f"column {c} out of range")
    if partition.num_rows != profile.num_rows:
        raise DimensionMismatch("partition and profile row counts differ")
    total = profile.column_marginal(c)
    if total == 0:
        return None
    return [sum(profile.p[r][c] for r in cell) / total for cell in partition.cells]


# ---------------------------------------------------------------------------
# JSON file formats (shared with the CLI)


def _plain(x: Number):
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else format_number(x)
    return x


def game_to_dict(game: Game) -> dict:
    out = {
        "u1": [[_plain(x) for x in row] for row in game.u1],
        "u2": [[_plain(x) for x in row] for row in game.u2],
        "partition": [list(cell) for cell in game.partition.cells],
    }
    if game.row_labels:
        out["row_labels"] = list(game.row_labels)
    if game.col_labels:
        out["col_labels"] = list(game.col_labels)
    return out


def profile_to_dict(profile: MixedProfile | CorrelatedProfile) -> dict:
    if isinstance(profile, MixedProfile):
        return {
            "sigma1": [_plain(x) for x in profile.sigma1],
            "sigma2": [_plain(x) for x in profile.sigma2],
        }
    return {"p": [[_plain(x) for x in row] for row in profile.p]}


def _read_json(path):
    """The parsed file, decimals as exact ``Fraction``s; bad JSON is a
    :class:`DimensionMismatch`, like any other malformed input."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_float=Fraction)
        except ValueError as exc:
            raise DimensionMismatch(f"{path} is not valid JSON: {exc}") from exc


def load_game(path) -> Game:
    return validate_game(_read_json(path))


def save_game(game: Game, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(game_to_dict(game), fh, indent=2)
        fh.write("\n")


def load_profile(path, mode: str = "exact") -> MixedProfile | CorrelatedProfile:
    return profile_from_dict(_read_json(path), mode)


def profile_from_dict(raw: Mapping, mode: str = "exact") -> MixedProfile | CorrelatedProfile:
    if not isinstance(raw, Mapping):
        raise DimensionMismatch("a profile must be a JSON object")
    try:
        if "p" in raw:
            return CorrelatedProfile([[parse_number(x) for x in row] for row in raw["p"]], mode)
        if "sigma1" in raw and "sigma2" in raw:
            return MixedProfile(
                [parse_number(x) for x in raw["sigma1"]],
                [parse_number(x) for x in raw["sigma2"]],
                mode,
            )
    except (ValueError, TypeError) as exc:
        raise DimensionMismatch(str(exc)) from exc
    raise DimensionMismatch("profile file needs either 'p' or 'sigma1'/'sigma2'")


def save_profile(profile: MixedProfile | CorrelatedProfile, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(profile_to_dict(profile), fh, indent=2)
        fh.write("\n")
