"""Basin-of-attraction rasterization.

Each grid cell's center is iterated forward; a cell is assigned to a
registered attractor once its orbit stays within ``prox_tol`` of that
attractor's point set for one full period (guarding against slow passes
near saddles).  Orbits exceeding the escape radius are divergent; orbits
that exhaust the iteration budget are unknown.

All per-point arithmetic is elementwise, so labels are independent of how
the grid is batched across rows or threads.
"""
from __future__ import annotations

import colorsys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import InvalidWindowError, SrkLabError
from .mapcore import Point2, Rect, eval_map, eval_map_arrays
from .orbits import SRkOrbit, newton_periodic
from .params import MapParams
from .stability import StabilityClass

__all__ = [
    "UNKNOWN",
    "DIVERGENT",
    "Attractor",
    "AttractorRegistry",
    "ClassifyLimits",
    "IterationStats",
    "BasinGrid",
    "classify_point",
    "classify_batch",
    "raster",
    "grid_centers",
    "write_ppm",
    "legend_csv",
    "labels_csv",
]

UNKNOWN = -1
DIVERGENT = -2

_REGISTRY_RESIDUAL_TOL = 1e-10

# Early retirement of cells that settle on stable cycles outside the
# registry.  Every _CYCLE_CHECK_EVERY steps the running cells are mapped
# _CYCLE_MAX_PERIOD more times on the side; a cell whose smallest return
# time p closes to _CYCLE_CLOSE_TOL is retired as UNKNOWN once Newton
# polishes its period-p cycle to an asymptotically stable one that lies
# within _CYCLE_ON_TOL of the cell and keeps _CYCLE_CLEARANCE * prox_tol
# away from every registry point.  Such a cell can never be labelled, so
# retiring it changes only its iteration count.
_CYCLE_CHECK_EVERY = 500
_CYCLE_MAX_PERIOD = 32
_CYCLE_CLOSE_TOL = 1e-9
_CYCLE_ON_TOL = 1e-7
_CYCLE_CLEARANCE = 10.0


@dataclass(frozen=True)
class ClassifyLimits:
    max_iter: int = 20000
    escape_radius: float = 10.0
    prox_tol: float = 1e-5


@dataclass(frozen=True)
class Attractor:
    id: int
    label: str
    points: np.ndarray  # (period, 2)
    period: int
    color: tuple[int, int, int]


def _palette_color(index: int) -> tuple[int, int, int]:
    """Deterministic distinct colors, never black or white."""
    hue = (index * 0.61803398875) % 1.0
    sat = 0.85 if index % 2 == 0 else 0.6
    val = 0.95 if index % 3 else 0.75
    r, g, b = colorsys.hsv_to_rgb(hue, sat, val)
    return (int(round(r * 255)), int(round(g * 255)), int(round(b * 255)))


class AttractorRegistry:
    """Registered periodic attractors with unique ids and colors."""

    def __init__(self) -> None:
        self.entries: list[Attractor] = []

    def add(
        self,
        params: MapParams,
        points: list[Point2] | np.ndarray,
        label: str | None = None,
        color: tuple[int, int, int] | None = None,
    ) -> Attractor:
        """Register one periodic orbit; re-verifies periodicity under the map."""
        pts = np.asarray([(p[0], p[1]) for p in points], dtype=float)
        period = pts.shape[0]
        p = Point2(float(pts[0, 0]), float(pts[0, 1]))
        for _ in range(period):
            p = eval_map(params, p)
        residual = max(abs(p.x - pts[0, 0]), abs(p.y - pts[0, 1]))
        if residual > _REGISTRY_RESIDUAL_TOL:
            raise ValueError(
                f"orbit is not periodic under the map (residual {residual:.3e})"
            )
        new_id = len(self.entries)
        if color is None:
            color = _palette_color(new_id)
        if color in {(0, 0, 0), (255, 255, 255)}:
            raise ValueError("attractor colors must differ from black and white")
        if any(color == e.color for e in self.entries):
            raise ValueError(f"duplicate attractor color {color}")
        attractor = Attractor(
            id=new_id,
            label=label if label is not None else f"attr{new_id}",
            points=pts,
            period=period,
            color=color,
        )
        self.entries.append(attractor)
        return attractor

    @classmethod
    def from_orbits(
        cls, params: MapParams, orbits: list[SRkOrbit]
    ) -> "AttractorRegistry":
        """Registry of the asymptotically stable orbits in a scan result."""
        registry = cls()
        for orbit in orbits:
            if orbit.stability is not StabilityClass.ASYMPTOTICALLY_STABLE:
                continue
            registry.add(params, list(orbit.points), label=f"sr{orbit.k}")
        return registry

    def __len__(self) -> int:
        return len(self.entries)

    def all_points(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(points, owner attractor id, period of owner) stacked over entries."""
        pts = np.concatenate([e.points for e in self.entries])
        owner = np.concatenate(
            [np.full(e.period, e.id, dtype=np.int64) for e in self.entries]
        )
        period = np.concatenate(
            [np.full(e.period, e.period, dtype=np.int64) for e in self.entries]
        )
        return pts, owner, period


@dataclass
class IterationStats:
    total_points: int = 0
    classified: int = 0
    divergent: int = 0
    unknown: int = 0
    max_iterations: int = 0
    mean_iterations: float = 0.0
    # Unknown cells retired early on an unregistered stable cycle, by period.
    cycle_cells: dict[int, int] = field(default_factory=dict)


@dataclass
class BasinGrid:
    window: Rect
    nx: int
    ny: int
    labels: np.ndarray  # (nx, ny) int32; [ix, iy] with iy increasing upward
    stats: IterationStats


def _axis_near(sorted_coords: np.ndarray, v: np.ndarray, bound: float) -> np.ndarray:
    """Whether some registry coordinate lies within ``bound`` of each v.

    The nearest coordinate in value is one of the two sorted neighbours of
    v's insertion point, and rounded subtraction is monotone, so this is
    exactly the one-axis part of the max-norm distance.
    """
    i = np.searchsorted(sorted_coords, v)
    below = sorted_coords[np.maximum(i - 1, 0)]
    above = sorted_coords[np.minimum(i, sorted_coords.size - 1)]
    return np.minimum(np.abs(v - below), np.abs(above - v)) <= bound


def _return_periods(params: MapParams, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Smallest p <= _CYCLE_MAX_PERIOD with |f^p(x) - x| < _CYCLE_CLOSE_TOL, else 0."""
    period = np.zeros(x.size, dtype=np.int64)
    sx, sy = x, y
    with np.errstate(over="ignore", invalid="ignore"):
        for p in range(1, _CYCLE_MAX_PERIOD + 1):
            sx, sy = eval_map_arrays(params, sx, sy)
            closed = np.maximum(np.abs(sx - x), np.abs(sy - y)) < _CYCLE_CLOSE_TOL
            period[closed & (period == 0)] = p
    return period


def _near_cycle(x: np.ndarray, y: np.ndarray, cycle: np.ndarray) -> np.ndarray:
    """Whether each (x, y) lies within _CYCLE_ON_TOL of a point of the cycle."""
    dist = np.maximum(np.abs(x[:, None] - cycle[:, 0]), np.abs(y[:, None] - cycle[:, 1]))
    return dist.min(axis=1) < _CYCLE_ON_TOL


def _polish_cycle(
    params: MapParams, p: Point2, period: int, reg_pts: np.ndarray, clearance: float
) -> tuple[np.ndarray, bool] | None:
    """The cycle Newton polishes from p, and whether cells on it may retire.

    Cells may retire when the cycle is asymptotically stable and every
    point of it stays more than ``clearance`` from every registry point.
    None when Newton fails.
    """
    try:
        orbit = newton_periodic(params, p, period)
    except SrkLabError:
        return None
    cycle = np.array(orbit.points, dtype=float)
    gap = np.abs(cycle[:, None, :] - reg_pts[None, :, :]).max(axis=2).min()
    stable = orbit.stability is StabilityClass.ASYMPTOTICALLY_STABLE
    return cycle, bool(stable and gap > clearance)


def classify_batch(
    params: MapParams,
    registry: AttractorRegistry,
    points: np.ndarray,
    limits: ClassifyLimits = ClassifyLimits(),
    cycle_cells: dict[int, int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Labels and iteration counts for an (N, 2) batch of start points.

    Labels are attractor ids, or UNKNOWN / DIVERGENT.  Cells that settle
    on a stable cycle outside the registry stop early as UNKNOWN, with
    the step they stopped at as their count; when ``cycle_cells`` is
    given, it is incremented by the number of such cells per period.
    """
    if len(registry) == 0:
        raise ValueError("registry must contain at least one attractor")
    reg_pts, owner, owner_period = registry.all_points()
    tree = cKDTree(reg_pts)
    reg_x, reg_y = np.sort(reg_pts[:, 0]), np.sort(reg_pts[:, 1])
    bound = limits.prox_tol * (1.0 + 1e-12)
    clearance = _CYCLE_CLEARANCE * limits.prox_tol
    cycles: list[tuple[np.ndarray, bool]] = []  # polished cycles, and whether cells retire on them
    if cycle_cells is None:
        cycle_cells = {}

    n = points.shape[0]
    labels = np.full(n, UNKNOWN, dtype=np.int32)
    iters = np.zeros(n, dtype=np.int64)

    x = points[:, 0].astype(float).copy()
    y = points[:, 1].astype(float).copy()
    idx = np.arange(n)
    candidate = np.full(n, -1, dtype=np.int64)
    run = np.zeros(n, dtype=np.int64)

    def retire(done: np.ndarray, label, step: int) -> None:
        """Give the running points in ``done`` their label and drop them."""
        nonlocal x, y, idx, candidate, run
        labels[idx[done]] = label
        iters[idx[done]] = step
        keep = ~done
        x, y, idx = x[keep], y[keep], idx[keep]
        candidate, run = candidate[keep], run[keep]

    def check_proximity(step: int) -> None:
        """Update candidate/run and retire points that completed a period."""
        nonlocal candidate, run
        # Only points near a registry coordinate on both axes can be hits.
        maybe = np.flatnonzero(_axis_near(reg_x, x, bound) & _axis_near(reg_y, y, bound))
        att = np.full(x.size, -1, dtype=np.int64)
        need = np.zeros(x.size, dtype=np.int64)
        if maybe.size:
            dist, nearest = tree.query(
                np.column_stack((x[maybe], y[maybe])),
                k=1,
                p=np.inf,
                distance_upper_bound=bound,
            )
            hit = np.isfinite(dist)
            att[maybe[hit]] = owner[nearest[hit]]
            need[maybe[hit]] = owner_period[nearest[hit]]
        near = att >= 0
        run = np.where(near & (att == candidate), run + 1, np.where(near, 1, 0))
        candidate = att
        done = near & (run >= need)
        if done.any():
            retire(done, candidate[done].astype(np.int32), step)

    def check_cycles(step: int) -> None:
        """Retire points sitting on a stable cycle outside the registry."""
        period = _return_periods(params, x, y)
        on_cycle = np.zeros(x.size, dtype=bool)

        def settle(pending: np.ndarray, cycle: np.ndarray, ok: bool) -> np.ndarray:
            on = (period[pending] == len(cycle)) & _near_cycle(x[pending], y[pending], cycle)
            on_cycle[pending[on]] = ok
            return pending[~on]

        pending = np.flatnonzero(period)
        for cycle, ok in cycles:
            pending = settle(pending, cycle, ok)
        while pending.size:
            i = pending[0]
            found = _polish_cycle(
                params, Point2(float(x[i]), float(y[i])), int(period[i]), reg_pts, clearance
            )
            if found is not None:
                cycles.append(found)
                pending = settle(pending, *found)
            pending = pending[pending != i]
        if on_cycle.any():
            for p, count in zip(*np.unique(period[on_cycle], return_counts=True)):
                cycle_cells[int(p)] = cycle_cells.get(int(p), 0) + int(count)
            retire(on_cycle, UNKNOWN, step)

    # Initial escape check (step 0) before any iteration.
    escaped = (np.abs(x) > limits.escape_radius) | (np.abs(y) > limits.escape_radius)
    if escaped.any():
        retire(escaped, DIVERGENT, 0)
    check_proximity(0)

    for step in range(1, limits.max_iter + 1):
        if idx.size == 0:
            break
        x, y = eval_map_arrays(params, x, y)
        bad = ~(np.isfinite(x) & np.isfinite(y))
        escaped = bad | (np.abs(x) > limits.escape_radius) | (
            np.abs(y) > limits.escape_radius
        )
        if escaped.any():
            retire(escaped, DIVERGENT, step)
        if idx.size == 0:
            break
        check_proximity(step)
        if step % _CYCLE_CHECK_EVERY == 0 and step < limits.max_iter and idx.size:
            check_cycles(step)

    iters[idx] = limits.max_iter
    return labels, iters


def classify_point(
    params: MapParams,
    registry: AttractorRegistry,
    p: Point2,
    limits: ClassifyLimits = ClassifyLimits(),
) -> int:
    """Label of a single start point (same engine as the raster)."""
    labels, _ = classify_batch(
        params, registry, np.array([[p[0], p[1]]], dtype=float), limits
    )
    return int(labels[0])


def grid_centers(window: Rect, nx: int, ny: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell-center coordinates (1D arrays of length nx and ny)."""
    xs = window.xmin + (np.arange(nx) + 0.5) * (window.width / nx)
    ys = window.ymin + (np.arange(ny) + 0.5) * (window.height / ny)
    return xs, ys


def raster(
    params: MapParams,
    registry: AttractorRegistry,
    window: Rect,
    nx: int,
    ny: int,
    limits: ClassifyLimits = ClassifyLimits(),
    threads: int = 1,
) -> BasinGrid:
    """Classify every cell center of an nx-by-ny grid over the window.

    Rows are independent work units; the result is identical for any
    thread count because every cell's orbit is computed elementwise.
    """
    if window.is_empty():
        raise InvalidWindowError(f"empty raster window {window}")
    if nx < 2 or ny < 2:
        raise InvalidWindowError("resolution must be at least 2x2")
    xs, ys = grid_centers(window, nx, ny)
    labels = np.empty((nx, ny), dtype=np.int32)
    iter_sum = 0
    iter_max = 0
    cycle_cells: dict[int, int] = {}
    row_ids = list(range(ny))

    def run_rows(rows: list[int]) -> tuple[int, int, dict[int, int]]:
        # One batch for the whole chunk; per-cell results are elementwise,
        # so chunking does not affect any label.
        chunk_cycles: dict[int, int] = {}
        if not rows:
            return 0, 0, chunk_cycles
        pts = np.concatenate(
            [np.column_stack((xs, np.full(nx, ys[iy]))) for iy in rows]
        )
        chunk_labels, chunk_iters = classify_batch(
            params, registry, pts, limits, cycle_cells=chunk_cycles
        )
        for pos, iy in enumerate(rows):
            labels[:, iy] = chunk_labels[pos * nx : (pos + 1) * nx]
        return int(chunk_iters.sum()), int(chunk_iters.max()), chunk_cycles

    if threads <= 1:
        parts = [run_rows(row_ids)]
    else:
        chunks = [row_ids[i::threads] for i in range(threads)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run_rows, chunks))
    for part_sum, part_max, part_cycles in parts:
        iter_sum += part_sum
        iter_max = max(iter_max, part_max)
        for period, count in part_cycles.items():
            cycle_cells[period] = cycle_cells.get(period, 0) + count

    total = nx * ny
    stats = IterationStats(
        total_points=total,
        classified=int((labels >= 0).sum()),
        divergent=int((labels == DIVERGENT).sum()),
        unknown=int((labels == UNKNOWN).sum()),
        max_iterations=iter_max,
        mean_iterations=iter_sum / total,
        cycle_cells=dict(sorted(cycle_cells.items())),
    )
    return BasinGrid(window=window, nx=nx, ny=ny, labels=labels, stats=stats)


# -- output -------------------------------------------------------------------


def write_ppm(grid: BasinGrid, registry: AttractorRegistry, path: str) -> None:
    """Binary P6 pixmap; row 0 is the top of the window (largest y).

    Unknown cells are black, divergent cells white, attractor cells use
    their registry color.  Byte-exact for identical grids.
    """
    color_table = np.zeros((len(registry) + 2, 3), dtype=np.uint8)
    color_table[0] = (0, 0, 0)  # UNKNOWN

    color_table[1] = (255, 255, 255)  # DIVERGENT
    for entry in registry.entries:
        color_table[entry.id + 2] = entry.color
    index = np.where(
        grid.labels == UNKNOWN,
        0,
        np.where(grid.labels == DIVERGENT, 1, grid.labels + 2),
    )
    # labels[ix, iy] -> image rows top to bottom: iy = ny-1 .. 0.
    image = color_table[index.T[::-1]]
    header = f"P6\n{grid.nx} {grid.ny}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(image.tobytes())


def legend_csv(registry: AttractorRegistry) -> str:
    lines = ["id,label,r,g,b,period"]
    for e in registry.entries:
        lines.append(f"{e.id},{e.label},{e.color[0]},{e.color[1]},{e.color[2]},{e.period}")
    return "\n".join(lines) + "\n"


def labels_csv(grid: BasinGrid) -> str:
    """Raw label grid, one row per iy (bottom to top), comma-separated ix."""
    lines = ["# rows are iy = 0..ny-1 (bottom to top), columns ix = 0..nx-1"]
    for iy in range(grid.ny):
        lines.append(",".join(str(int(v)) for v in grid.labels[:, iy]))
    return "\n".join(lines) + "\n"


def basin_fractions(grid: BasinGrid) -> dict[int, float]:
    """Fraction of cells per label (including UNKNOWN and DIVERGENT)."""
    total = grid.nx * grid.ny
    values, counts = np.unique(grid.labels, return_counts=True)
    return {int(v): int(c) / total for v, c in zip(values, counts)}
