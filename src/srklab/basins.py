"""Basin-of-attraction rasterization.

Each grid cell's center is iterated forward; a cell is assigned to a
registered attractor once its orbit stays within ``prox_tol`` of that
attractor's point set for one full period (guarding against slow passes
near saddles).  Orbits exceeding the escape radius are divergent; orbits
that exhaust the iteration budget are unknown.

The running points are stepped in blocks: each pass maps them several
steps (more the fewer of them run), then tests the whole block for escape
and for registry proximity (a run table per axis, then a pair-key lookup)
at once.  All per-point arithmetic is elementwise and each point's first
ending step in a block is the one it keeps, so a cell's label and its
iteration count depend only on its center point, not on its batch.
"""
from __future__ import annotations

import colorsys
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidWindowError, SrkLabError
from .mapcore import Point2, Rect, eval_map, eval_map_arrays
from .orbits import CLOSING_TOL, SRkOrbit, _same_orbit, newton_periodic
from .params import MapParams
from .stability import StabilityClass, classify, orbit_jacobian

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
    "basin_fractions",
]

UNKNOWN = -1
DIVERGENT = -2

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

# Point-steps the step loop maps before it does its bookkeeping once.
_BLOCK_POINT_STEPS = 8192

# Upper bound on the cells of one proximity run table: 1 MiB while it has at
# most 255 runs (one byte a cell), 2 MiB up to 65,535.
_TABLE_CELLS = 2**20
# Entries of the run-pair lookup that name no single registry point.
_AMBIGUOUS = -1  # two or more registry points share the pair
_NO_POINT = -2  # no registry point has the pair


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
    ) -> Attractor:
        """Register one periodic orbit, given as points or as a (period, 2)
        array; re-verifies it under the map: the walk from point 0 must
        pass every listed point in order and close on point 0."""
        pts = np.array(points, dtype=float)
        period = pts.shape[0]
        p = Point2(float(pts[0, 0]), float(pts[0, 1]))
        for j in range(1, period + 1):
            p = eval_map(params, p)
            # The max-norm residual, NaN when either coordinate is NaN.
            residual = float(np.abs(np.subtract(p, pts[j % period])).max())
            if not residual <= CLOSING_TOL:
                if j == period:
                    msg = "orbit is not periodic under the map"
                else:
                    msg = f"orbit point {j} is not point 0 mapped {j} times"
                raise ValueError(f"{msg} (residual {residual:.3e})")
        new_id = len(self.entries)
        used = {e.color for e in self.entries}
        # The palette repeats (index 611 has index 1's color): skip ahead
        # to the first color not in use.
        index = new_id
        while _palette_color(index) in used:
            index += 1
        attractor = Attractor(
            id=new_id,
            label=label if label is not None else f"attr{new_id}",
            points=pts,
            period=period,
            color=_palette_color(index),
        )
        self.entries.append(attractor)
        return attractor

    @classmethod
    def from_orbits(
        cls, params: MapParams, orbits: list[SRkOrbit]
    ) -> "AttractorRegistry":
        """Registry of the asymptotically stable orbits among ``orbits``, a
        scan's or a registry CSV's alike.

        Each orbit is checked in turn, and the first check it fails raises
        ``ValueError`` naming it.  A stable orbit must not repeat one
        registered before it (``_same_orbit``: any rotation, within 1e-8),
        and must pass ``add``.  Then every orbit's label must be ``classify``
        of its points' ``orbit_jacobian``: a saddle labelled stable would
        register, and a stable orbit labelled otherwise would be passed over.
        """
        registry = cls()
        registered: list[SRkOrbit] = []
        for orbit in orbits:
            branch = orbit.branch.value if orbit.branch is not None else ""
            name = f"orbit k={orbit.k} branch {branch!r}"
            if orbit.stability is StabilityClass.ASYMPTOTICALLY_STABLE:
                if any(_same_orbit(orbit, old) for old in registered):
                    raise ValueError(f"{name} repeats the points of an earlier orbit")
                try:
                    registry.add(params, orbit.points.array(), label=f"sr{orbit.k}")
                except ValueError as err:
                    raise ValueError(f"{name}: {err}") from err
                registered.append(orbit)
            jac = orbit_jacobian(params, orbit.points)
            stability = classify(jac.trace, jac.det)
            if stability is not orbit.stability:
                raise ValueError(
                    f"{name} is labelled {orbit.stability.value!r}, "
                    f"but its points are {stability.value!r}"
                )
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
    # Unknown cells that ran the whole iteration budget; with the cycle
    # cells they make up every unknown cell.
    budget_spent: int = 0


@dataclass
class BasinGrid:
    nx: int
    ny: int
    labels: np.ndarray  # (nx, ny) int32; [ix, iy] with iy increasing upward
    stats: IterationStats


class _AxisTable:
    """Run table of one axis: the proximity prefilter.

    The axis is cut into cells of width h from ``lo``; a cell is marked when
    it lies within one cell of [c - bound, c + bound] for some registry
    coordinate c.  Every index is computed as ``(t - lo) * inv_h``, which is
    monotone in t and off by far less than a cell (h is at least 2**20 ulps
    of the largest coordinate), so the one-cell margin marks the cell of
    every v with |v - c| <= bound for some c: the table flags a superset of
    the KD-tree's hits, never a miss.  ``coords`` need not be sorted.  At
    most _TABLE_CELLS + 8 cells, whatever ``bound`` is; a bound so near the
    float limit that the cell indices would overflow gives a one-cell table
    that flags every finite value.

    ``runs`` holds, for each cell, the number of its run of marked cells
    (1, 2, ... in axis order), or 0 when the cell is unmarked; ``comp``
    holds the run of each registry coordinate.  Since the marked cells
    around c form one interval, every v within ``bound`` of c reads c's
    run.  The first and last cells read 0, so clipped out-of-range values
    do too.  The one-cell table is one run holding every coordinate.
    """

    def __init__(self, coords: np.ndarray, bound: float) -> None:
        low, high = coords.min() - bound, coords.max() + bound
        scale = max(abs(low), abs(high))
        with np.errstate(over="ignore"):
            h = max((high - low) / _TABLE_CELLS, bound / 2, np.spacing(scale) * _TABLE_CELLS)
            self.lo = low - 4 * h
            fits = np.isfinite(high + 4 * h - self.lo)
        if not fits:
            self.lo, self.inv_h, self.runs = 0.0, 0.0, np.ones(1, dtype=np.uint8)
        else:
            self.inv_h = 1.0 / h
            size = int((high - low) * self.inv_h) + 8
            first = np.floor((coords - bound - self.lo) * self.inv_h).astype(np.intp) - 1
            last = np.floor((coords + bound - self.lo) * self.inv_h).astype(np.intp) + 1
            # Merge the marked intervals: one starts a new run when it begins
            # past the cell after the furthest end of those before it.
            order = np.argsort(first)
            first, last = first[order], last[order]
            run = np.cumsum(np.r_[True, first[1:] > np.maximum.accumulate(last)[:-1] + 1])
            self.runs = np.zeros(size, dtype=np.min_scalar_type(run[-1]))
            # h >= bound / 2, so an interval spans at most 8 cells.
            for offset in range(int((last - first).max()) + 1):
                self.runs[np.minimum(first + offset, last)] = run
        self.comp = self.runs[self.cell(coords)]

    def cell(self, v: np.ndarray) -> np.ndarray:
        """Cell index of each finite v, clipped to the table."""
        return np.clip((v - self.lo) * self.inv_h, 0, self.runs.size - 1).astype(np.intp)


def cKDTree(data: np.ndarray):
    """scipy's KD-tree over ``data``; scipy is imported on the first call."""
    from scipy.spatial import cKDTree as tree

    return tree(data)


class _RegistryLookup:
    """The registry point within ``bound`` of each point, in the max norm.

    ``hits`` answers what ``cKDTree(reg_pts).query(..., k=1, p=np.inf,
    distance_upper_bound=bound)`` answers, row by row.  One run table
    lookup per axis (``_AxisTable``) drops the points that are not near a
    registry coordinate on both axes.  A survivor's runs on the two axes
    form a pair key, looked up in the sorted keys of the registry points'
    pairs.  Any registry point within ``bound`` of the survivor shares its
    pair, so a pair that holds no point is a miss, and a pair that holds
    one point q is a hit exactly when max(|x - qx|, |y - qy|) < bound
    (strict, as the tree's bound is).  Only survivors in pairs that two or
    more points share go to the KD-tree, which settles ties; it is built
    only when such a pair exists.
    """

    def __init__(self, reg_pts: np.ndarray, bound: float) -> None:
        self.bound = bound
        self.reg_x, self.reg_y = reg_pts[:, 0].copy(), reg_pts[:, 1].copy()
        self.table_x = _AxisTable(self.reg_x, bound)
        self.table_y = _AxisTable(self.reg_y, bound)
        # Pair keys, sorted, and the one registry point of each (or
        # _AMBIGUOUS); a trailing key above every pair key holds _NO_POINT.
        self.span = int(self.table_y.runs.max()) + 1
        keys, first, count = np.unique(
            self.table_x.comp.astype(np.int64) * self.span + self.table_y.comp,
            return_index=True,
            return_counts=True,
        )
        self.keys = np.append(keys, np.iinfo(np.int64).max)
        self.pair_point = np.append(np.where(count == 1, first, _AMBIGUOUS), _NO_POINT)
        self.tree = cKDTree(reg_pts) if (count > 1).any() else None

    def hits(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Indices of the finite points (x, y) within ``bound`` of a registry
        point, ascending, and the index of that registry point."""
        table_x, table_y = self.table_x, self.table_y
        run_x, run_y = table_x.runs[table_x.cell(x)], table_y.runs[table_y.cell(y)]
        maybe = np.flatnonzero(np.logical_and(run_x, run_y))
        key = run_x[maybe].astype(np.int64) * self.span + run_y[maybe]
        pos = np.searchsorted(self.keys, key)
        point = self.pair_point[pos]
        # A key missing from ``keys`` reads another pair's entry.  A single
        # point there lies farther than bound (it would share the pair
        # otherwise), so the distance test rejects it; a shared entry goes
        # to the tree only when its key matches.
        q = np.maximum(point, 0)
        dist = np.maximum(np.abs(x[maybe] - self.reg_x[q]), np.abs(y[maybe] - self.reg_y[q]))
        found = (point >= 0) & (dist < self.bound)
        tied = np.flatnonzero(point == _AMBIGUOUS)
        tied = tied[self.keys[pos[tied]] == key[tied]]
        if tied.size:
            at = maybe[tied]
            tree_dist, point[tied] = self.tree.query(
                np.column_stack((x[at], y[at])),
                k=1,
                p=np.inf,
                distance_upper_bound=self.bound,
            )
            found[tied] = np.isfinite(tree_dist)
        return maybe[found], point[found]


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
    cycle = orbit.points.array()
    gap = np.abs(cycle[:, None, :] - reg_pts[None, :, :]).max(axis=2).min()
    stable = orbit.stability is StabilityClass.ASYMPTOTICALLY_STABLE
    return cycle, bool(stable and gap > clearance)


def _first_of_each(keys: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal values in ``keys``."""
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return first


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

    The running points are mapped in blocks of m steps, m about
    _BLOCK_POINT_STEPS over their number (1 while many run), never more
    than the steps run so far, and never past the next cycle check or
    ``max_iter``.  Each block, held as (running, m) arrays, gets one
    escape test, and ``_RegistryLookup.hits`` finds the registry point
    within ``prox_tol`` (plus a relative 1e-12) of every entry before a
    point's first escape: per-axis run tables, then one pair-key
    lookup, a strict distance test, and the KD-tree only for pairs that
    two or more registry points share.  A segmented scan over the hits,
    in (point, step) order, gives each point's runs on one attractor,
    carried across blocks; a point ends at its first completed run or its
    first escape, whichever comes first, with that step as its count.
    Points that end inside a block are mapped to its end but never read,
    so labels and counts do not depend on the batch.
    """
    if len(registry) == 0:
        raise ValueError("registry must contain at least one attractor")
    reg_pts, owner, owner_period = registry.all_points()
    lookup = _RegistryLookup(reg_pts, limits.prox_tol * (1.0 + 1e-12))
    radius = limits.escape_radius
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
    # Length of the run each point is on after the last step, and its
    # attractor (stale where the length is 0).
    candidate = np.full(n, -1, dtype=np.int64)
    run = np.zeros(n, dtype=np.int64)

    def drop(gone: np.ndarray) -> None:
        """Drop the running points in ``gone``; their labels are set."""
        nonlocal x, y, idx, candidate, run
        keep = ~gone
        x, y, idx = x[keep], y[keep], idx[keep]
        candidate, run = candidate[keep], run[keep]

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
            labels[idx[on_cycle]] = UNKNOWN
            iters[idx[on_cycle]] = step
            drop(on_cycle)

    # Row i of a block holds running point i at steps first_step + offset,
    # offset = 0 .. m - 1; the start points are a block of one step, step 0.
    block_x, block_y = x[:, None], y[:, None]
    m, first_step, step = 1, 0, 0
    while True:
        # The offset of each point's first escape, m when it stays inside;
        # NaN and inf escape too.  Entries from there on are never read, so
        # zeros stand in for them in the lookup, and their hits are dropped.
        inside = (np.abs(block_x) <= radius) & (np.abs(block_y) <= radius)
        escape = None
        if not inside.all():
            out = ~inside
            out_point, out_offset = np.divmod(np.flatnonzero(out), m)
            first_out = _first_of_each(out_point)
            escape = np.full(idx.size, m)
            escape[out_point[first_out]] = out_offset[first_out]
            block_x[out] = block_y[out] = 0.0
        hit, nearest = lookup.hits(block_x.ravel(), block_y.ravel())
        block_x = block_y = None  # so that drop() frees the block
        # The hits come in (point, step) order.  A hit continues the run of
        # the entry before it when that is the same point one step earlier
        # on the same attractor; a hit at offset 0 continues the run the
        # point carries in (``run`` is 0 when it carries none).
        point = hit // m
        offset = hit - point * m
        if escape is not None:
            before = offset < escape[point]
            hit, nearest, point, offset = hit[before], nearest[before], point[before], offset[before]
        att = owner[nearest]
        carried = np.where((offset == 0) & (candidate[point] == att), run[point], 0)
        if m == 1:  # every hit is the first of its run
            length = carried + 1
        else:
            cont = np.zeros(hit.size, dtype=bool)
            cont[1:] = (hit[1:] - hit[:-1] == 1) & (offset[1:] > 0) & (att[1:] == att[:-1])
            start = np.maximum.accumulate(np.where(cont, 0, np.arange(hit.size)))
            length = np.arange(1, hit.size + 1) - start + carried[start]
        # A point ends at its first completed run, or else at its first escape.
        end = np.flatnonzero(length >= owner_period[nearest])
        if m > 1:
            end = end[_first_of_each(point[end])]
        ended = point[end]
        if escape is None:
            gone = np.zeros(idx.size, dtype=bool)
        else:
            gone = escape < m
            labels[idx[gone]] = DIVERGENT
            iters[idx[gone]] = first_step + escape[gone]
        labels[idx[ended]] = att[end]
        iters[idx[ended]] = first_step + offset[end]
        gone[ended] = True
        last = offset == m - 1
        candidate[point[last]] = att[last]
        run.fill(0)
        run[point[last]] = length[last]
        if gone.any():
            drop(gone)

        if idx.size and step % _CYCLE_CHECK_EVERY == 0 and 0 < step < limits.max_iter:
            check_cycles(step)
        if idx.size == 0 or step == limits.max_iter:
            break
        # A block is never longer than the steps run so far, so the steps
        # mapped past a point's end never outnumber those before it.
        m = min(
            _CYCLE_CHECK_EVERY - step % _CYCLE_CHECK_EVERY,
            limits.max_iter - step,
            max(1, min(step, _BLOCK_POINT_STEPS // idx.size)),
        )
        # Points that escape inside the block are mapped on; their overflow
        # is never read.
        with np.errstate(over="ignore", invalid="ignore"):
            if m == 1:
                x, y = eval_map_arrays(params, x, y)
                block_x, block_y = x[:, None], y[:, None]
            else:
                block_x, block_y = np.empty((idx.size, m)), np.empty((idx.size, m))
                for j in range(m):
                    x, y = eval_map_arrays(params, x, y)
                    block_x[:, j], block_y[:, j] = x, y
        first_step, step = step + 1, step + m

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

    All cells go through one ``classify_batch`` call in the calling thread.
    ``threads`` accepts only 1: the benchmark harness under ``perfbench/``
    still passes ``threads=1``, and the keyword goes once that call drops it.
    """
    if window.is_empty():
        raise InvalidWindowError(f"empty raster window {window}")
    if nx < 2 or ny < 2:
        raise InvalidWindowError("resolution must be at least 2x2")
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads}")
    xs, ys = grid_centers(window, nx, ny)
    total = nx * ny
    # Cell (ix, iy) is entry iy * nx + ix.
    points = np.column_stack((np.tile(xs, ny), np.repeat(ys, nx)))
    cycle_cells: dict[int, int] = {}
    labels, iters = classify_batch(params, registry, points, limits, cycle_cells=cycle_cells)

    stats = IterationStats(
        total_points=total,
        classified=int((labels >= 0).sum()),
        divergent=int((labels == DIVERGENT).sum()),
        unknown=int((labels == UNKNOWN).sum()),
        max_iterations=int(iters.max()),
        mean_iterations=int(iters.sum()) / total,
        cycle_cells=dict(sorted(cycle_cells.items())),
        budget_spent=int(((labels == UNKNOWN) & (iters == limits.max_iter)).sum()),
    )
    grid_labels = np.ascontiguousarray(labels.reshape(ny, nx).T)
    return BasinGrid(nx=nx, ny=ny, labels=grid_labels, stats=stats)


# -- output -------------------------------------------------------------------


def write_ppm(grid: BasinGrid, registry: AttractorRegistry, path: str) -> None:
    """Binary P6 pixmap; row 0 is the top of the window (largest y).

    Unknown cells are black, divergent cells white, attractor cells use
    their registry color.  Byte-exact for identical grids.
    """
    # Row label + 2: divergent white, unknown black, then attractors by id.
    color_table = np.array(
        [(255, 255, 255), (0, 0, 0)] + [e.color for e in registry.entries], dtype=np.uint8
    )
    # labels[ix, iy] -> image rows top to bottom: iy = ny-1 .. 0.
    image = color_table[grid.labels.T[::-1] + 2]
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
    lines.extend(",".join(map(str, row)) for row in grid.labels.T.tolist())
    return "\n".join(lines) + "\n"


def basin_fractions(grid: BasinGrid) -> dict[int, float]:
    """Fraction of cells per label (including UNKNOWN and DIVERGENT)."""
    total = grid.nx * grid.ny
    values, counts = np.unique(grid.labels, return_counts=True)
    return {int(v): int(c) / total for v, c in zip(values, counts)}
