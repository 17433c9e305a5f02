"""Random-game sweep: row value as a function of observability.

For each (m, n) size and each cell count k, ``games_per_point`` games are drawn
with payoffs uniform on [0, 1); the payoffs for game index i depend only on
(base_seed, m, n, i) — the per-game seed is the first 8 bytes of
SHA-256(``"{base_seed}:{m}:{n}:{i}"``) — so the same game is re-solved under
every cell count and any single game can be re-materialized from the CSV
row's seed column plus its index.  Each game is solved with the signaling LP
in float mode and aggregated into mean/sample-standard-deviation rows.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from .errors import GameError, InvalidParams
from .games import SISPartition
from .instances import gen_random
from .solvers import solve_seslo


@dataclass(frozen=True)
class ExperimentConfig:
    sizes: tuple[tuple[int, int], ...]
    games_per_point: int = 1000
    sis_counts: tuple[int, ...] | None = None  # default: 1..m per size
    base_seed: int = 0

    def __post_init__(self):
        if self.games_per_point < 1:
            raise InvalidParams("games_per_point must be at least 1")
        if not self.sizes:
            raise InvalidParams("need at least one (m, n) size")
        for m, n in self.sizes:
            if m < 1 or n < 1:
                raise InvalidParams(f"bad size {m}x{n}")
            counts = self.counts_for(m)
            for k in counts:
                if not (1 <= k <= m):
                    raise InvalidParams(f"sis_count {k} not in 1..{m}")
            if len(set(counts)) < len(counts):
                raise InvalidParams(f"sis_counts {counts} repeat a count")

    def counts_for(self, m: int) -> tuple[int, ...]:
        return self.sis_counts if self.sis_counts is not None else tuple(range(1, m + 1))


@dataclass(frozen=True)
class ExperimentRow:
    m: int
    n: int
    sis_count: int
    games: int
    mean: float
    std: float
    seed: int


def derive_seed(base_seed: int, m: int, n: int, index: int) -> int:
    digest = hashlib.sha256(f"{base_seed}:{m}:{n}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def experiment_values(config: ExperimentConfig) -> dict[tuple[int, int, int], list[float]]:
    """Per-point value lists keyed by (m, n, sis_count), game order preserved."""
    out: dict[tuple[int, int, int], list[float]] = {}
    for m, n in config.sizes:
        counts = config.counts_for(m)
        for k in counts:
            out[(m, n, k)] = [0.0] * config.games_per_point
        for i in range(config.games_per_point):
            seed = derive_seed(config.base_seed, m, n, i)
            base = gen_random(m, n, 1, seed)
            for k in counts:
                game = base.with_partition(SISPartition.round_robin(m, k))
                try:
                    report = solve_seslo(game, "float")
                except Exception as exc:
                    # a GameError keeps its class, so the CLI reports it
                    cls = type(exc) if isinstance(exc, GameError) else RuntimeError
                    raise cls(
                        f"solver failed on game seed={seed} (m={m}, n={n}, "
                        f"index={i}, sis_count={k}): {exc}"
                    ) from exc
                out[(m, n, k)][i] = float(report.value)
    return out


def run_experiment(config: ExperimentConfig) -> list[ExperimentRow]:
    values = experiment_values(config)
    rows = []
    for m, n in config.sizes:
        for k in config.counts_for(m):
            vals = values[(m, n, k)]
            mean = sum(vals) / len(vals)
            if len(vals) > 1:
                std = math.sqrt(sum((v - mean) ** 2 for v in vals) / (len(vals) - 1))
            else:
                std = 0.0
            rows.append(
                ExperimentRow(m=m, n=n, sis_count=k, games=len(vals),
                              mean=mean, std=std, seed=config.base_seed)
            )
    return rows


# ---------------------------------------------------------------------------
# output files


def emit_csv(rows: list[ExperimentRow], path) -> None:
    if not rows:
        raise InvalidParams("no experiment rows to write")
    lines = ["m,n,sis_count,games,mean,std,seed"]
    for row in rows:
        lines.append(
            f"{row.m},{row.n},{row.sis_count},{row.games},"
            f"{row.mean:.12g},{row.std:.12g},{row.seed}"
        )
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def emit_svg(rows: list[ExperimentRow], path) -> None:
    """One polyline per (m, n): cell count on x, mean row value on y."""
    if not rows:
        raise InvalidParams("no experiment rows to write")
    width, height = 640, 420
    left, right, top, bottom = 60, 20, 20, 50
    plot_w, plot_h = width - left - right, height - top - bottom
    xs = sorted({r.sis_count for r in rows})
    ymax = max(max(r.mean for r in rows), 1e-9) * 1.05
    xmin, xmax = min(xs), max(xs)
    xspan = max(xmax - xmin, 1)

    def px(x):
        return left + (x - xmin) / xspan * plot_w

    def py(y):
        return top + plot_h - y / ymax * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" y2="{top + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
    ]
    for x in xs:
        parts.append(
            f'<text x="{px(x):.1f}" y="{top + plot_h + 18}" font-size="12" '
            f'text-anchor="middle">{x}</text>'
        )
    for frac in (0, 0.25, 0.5, 0.75, 1.0):
        y = ymax * frac
        parts.append(
            f'<text x="{left - 8}" y="{py(y) + 4:.1f}" font-size="12" '
            f'text-anchor="end">{y:.2f}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 12}" font-size="13" '
        f'text-anchor="middle">number of indistinguishability cells</text>'
    )
    sizes = []
    for row in rows:
        if (row.m, row.n) not in sizes:
            sizes.append((row.m, row.n))
    for idx, (m, n) in enumerate(sizes):
        pts = [(r.sis_count, r.mean) for r in rows if (r.m, r.n) == (m, n)]
        pts.sort()
        coords = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in pts)
        color = _PALETTE[idx % len(_PALETTE)]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{coords}"/>'
        )
        parts.append(
            f'<text x="{left + plot_w - 4}" y="{top + 16 + 16 * idx}" font-size="12" '
            f'text-anchor="end" fill="{color}">{m}x{n}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join(parts) + "\n")
