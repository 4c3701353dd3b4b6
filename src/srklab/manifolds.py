"""Growing the one-dimensional invariant manifolds of the origin.

The unstable manifold is grown by mapping a fundamental segment of the
local unstable axis forward, inserting seed-parameter midpoints wherever
an image gap or turning angle exceeds tolerance.  The stable set is grown
backwards as a preimage tree, branching over the analytic inverses of the
two map pieces and a Newton inverse inside the blend strip (the map is
non-invertible, so the stable set has several branches).

Tangential touches of the x-axis are located on the traced curve and
sharpened by golden-section search on the seed parameter.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCoefficientsError, SingularJacobianError
from .mapcore import (
    Point2,
    Rect,
    Region,
    eval_map,
    eval_map_arrays,
    jacobian,
    region_of,
)
from .params import MapParams

__all__ = [
    "ManifoldCurve",
    "TangencyHit",
    "RefinementStats",
    "trace_unstable",
    "trace_stable",
    "invert_saddle",
    "invert_return",
    "invert_blend",
    "detect_tangencies",
    "curves_to_csv",
    "tangencies_to_csv",
]

DEFAULT_MAX_GAP = 1e-2
DEFAULT_MAX_ANGLE = 0.2
DEFAULT_POINT_BUDGET = 2_000_000
DEFAULT_UNSTABLE_SEED = 1e-4
DEFAULT_STABLE_SEED = 1.0
_PAD_FRACTION = 0.1
_FREEZE_RADIUS = 1e9
_MAX_ROUNDS = 60
_BLEND_NEWTON_TOL = 1e-10
_BLEND_NEWTON_MAX_ITER = 30


@dataclass
class RefinementStats:
    inserted_points: int = 0
    max_gap: float = 0.0
    budget_exhausted: bool = False


@dataclass
class ManifoldCurve:
    """Ordered polyline approximating one manifold branch.

    ``joined[i]`` says whether points i and i+1 are adjacent on the curve
    (clipping can drop intermediate points).  Unstable curves carry their
    provenance (seed parameter and generation per point) so tangency hits
    can be re-sharpened by re-iterating the seed.
    """

    points: np.ndarray
    kind: str  # "unstable" | "stable"
    branch_index: int
    arc_length: float
    refinement: RefinementStats
    joined: np.ndarray | None = None
    seed_t: np.ndarray | None = None
    generation: np.ndarray | None = None
    params: MapParams | None = None
    depth: int = 0


@dataclass(frozen=True)
class TangencyHit:
    location: Point2
    contact: str  # "transversal" | "tangential"
    curvature_sign: float


# -- analytic inverses --------------------------------------------------------


def invert_saddle(params: MapParams, q: Point2) -> Point2:
    """Exact inverse of the linear saddle piece; floats or arrays alike."""
    return Point2(q.x / params.lam, q.y / params.sigma)


def invert_return(params: MapParams, q: Point2) -> Point2:
    """Exact inverse of the return piece; floats or arrays alike.

    Solves the x-row q.x = x_star + c2*u for u = y - y_star, then the
    y-row for x.  Exact only for c2 != 0, d1 != 0 and the pure-family
    shape c1 = d3 = d4 = 0; raises ``DegenerateCoefficientsError``
    otherwise.
    """
    if params.c2 == 0.0 or params.d1 == 0.0:
        raise DegenerateCoefficientsError("invert_return requires c2 != 0 and d1 != 0")
    if params.c1 != 0.0 or params.d3 != 0.0 or params.d4 != 0.0:
        raise DegenerateCoefficientsError(
            "invert_return supports only c1 = d3 = d4 = 0"
        )
    u = (q.x - params.x_star) / params.c2
    return Point2((q.y - params.d2 * u - params.d5 * u * u) / params.d1, params.y_star + u)


def _newton_preimage(
    params: MapParams, q: Point2, guess: Point2
) -> tuple[Point2, int, float]:
    """2D Newton on f(p) - q from one guess; returns (point, iters, residual)."""
    p = Point2(float(guess[0]), float(guess[1]))
    img = eval_map(params, p)
    res = max(abs(img.x - q.x), abs(img.y - q.y))
    for iteration in range(_BLEND_NEWTON_MAX_ITER):
        if res <= _BLEND_NEWTON_TOL:
            return p, iteration, res
        try:
            dx, dy = jacobian(params, p).solve(q.x - img.x, q.y - img.y)
        except SingularJacobianError:
            return p, iteration, res
        p = Point2(p.x + dx, p.y + dy)
        if not (math.isfinite(p.x) and math.isfinite(p.y)):
            return p, iteration + 1, math.inf
        img = eval_map(params, p)
        res = max(abs(img.x - q.x), abs(img.y - q.y))
    return p, _BLEND_NEWTON_MAX_ITER, res


def _piece_inverses(params: MapParams, q: Point2) -> list[Point2]:
    """The saddle inverse of q, then its return inverse where one exists."""
    out = [invert_saddle(params, q)]
    try:
        out.append(invert_return(params, q))
    except DegenerateCoefficientsError:
        pass
    return out


def invert_blend(
    params: MapParams, q: Point2, guesses: list[Point2] | None = None
) -> list[Point2]:
    """Preimages of q inside the blend strip, found by Newton iteration.

    Default guesses are the two analytic piece inverses.  Solutions are
    kept when the residual is at most 1e-10 and the point lies strictly
    inside the strip; duplicates are merged.  May be empty.
    """
    if guesses is None:
        guesses = _piece_inverses(params, q)
    solutions: list[Point2] = []
    for guess in guesses:
        p, _, res = _newton_preimage(params, q, guess)
        if not (res <= _BLEND_NEWTON_TOL):  # also rejects NaN residuals
            continue
        if not (math.isfinite(p.x) and math.isfinite(p.y)):
            continue
        if region_of(params, p.y) is not Region.BLEND:
            continue
        if any(max(abs(p.x - s.x), abs(p.y - s.y)) < 1e-9 for s in solutions):
            continue
        solutions.append(p)
    return solutions


# -- unstable manifold --------------------------------------------------------


def _iterate_seeds(
    params: MapParams, ts: np.ndarray, generation: int
) -> np.ndarray:
    """f^generation applied to the axis seeds (0, t), vectorized.

    Points whose max-norm exceeds a large freeze radius stop being
    iterated (their last finite value is kept); they lie far outside any
    reasonable clip window.
    """
    x = np.zeros_like(ts)
    y = ts.astype(float).copy()
    for _ in range(generation):
        alive = (np.abs(x) <= _FREEZE_RADIUS) & (np.abs(y) <= _FREEZE_RADIUS)
        alive &= np.isfinite(x) & np.isfinite(y)
        if not alive.any():
            break
        nx, ny = eval_map_arrays(params, x, y)
        x = np.where(alive, nx, x)
        y = np.where(alive, ny, y)
    return np.column_stack((x, y))


def _inside(points: np.ndarray, rect: Rect) -> np.ndarray:
    """Mask of the rows of ``points`` inside ``rect``; NaN rows never are."""
    x, y = points[:, 0], points[:, 1]
    return (x >= rect.xmin) & (x <= rect.xmax) & (y >= rect.ymin) & (y <= rect.ymax)


def _clip_polyline(points: np.ndarray, rect: Rect) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the polyline points kept by clipping, and their ``joined`` flags.

    A finite point is kept when it or a neighbour lies inside ``rect``, so
    curve pieces keep their window-crossing anchors; ``joined[i]`` says
    whether kept points i and i+1 were adjacent.
    """
    inside = _inside(points, rect)
    keep = inside.copy()
    keep[:-1] |= inside[1:]
    keep[1:] |= inside[:-1]
    keep &= np.isfinite(points).all(axis=1)
    kept_idx = np.flatnonzero(keep)
    return kept_idx, np.diff(kept_idx) == 1


def _needs_refinement(
    pts: np.ndarray, window: Rect, max_gap: float, max_angle: float
) -> np.ndarray:
    """Boolean mask over segments [i, i+1] that should be split."""
    n = pts.shape[0]
    seg = np.zeros(n - 1, dtype=bool)
    finite = np.isfinite(pts).all(axis=1)
    inside = _inside(pts, window)
    relevant = finite[:-1] & finite[1:] & (inside[:-1] | inside[1:])

    deltas = np.diff(pts, axis=0)
    gaps = np.hypot(deltas[:, 0], deltas[:, 1])
    seg |= relevant & (gaps > max_gap)

    # Turning angle at interior vertices: refine both adjacent segments.
    a, b = deltas[:-1], deltas[1:]
    cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    dot = (a * b).sum(axis=1)
    angles = np.abs(np.arctan2(cross, dot))
    big_angle = angles > max_angle
    # Ignore vertices whose segments are already tiny (curvature limit).
    tiny = (gaps[:-1] <= max_gap * 1e-3) & (gaps[1:] <= max_gap * 1e-3)
    big_angle &= ~tiny
    vertex_relevant = relevant[:-1] | relevant[1:]
    big_angle &= vertex_relevant
    seg[:-1] |= big_angle
    seg[1:] |= big_angle
    return seg


def _refine_generation(
    params: MapParams,
    generation: int,
    t_lo: float,
    t_hi: float,
    window: Rect,
    max_gap: float,
    max_angle: float,
    budget: int,
    stats: RefinementStats,
) -> tuple[np.ndarray, np.ndarray]:
    """Adaptively sampled image of the seed segment under f^generation."""
    ts = np.linspace(t_lo, t_hi, 33)
    pts = _iterate_seeds(params, ts, generation)
    for _ in range(_MAX_ROUNDS):
        if ts.size >= budget:
            stats.budget_exhausted = True
            break
        seg = _needs_refinement(pts, window, max_gap, max_angle)
        if not seg.any():
            break
        idx = np.flatnonzero(seg)
        if ts.size + idx.size > budget:
            idx = idx[: max(0, budget - ts.size)]
            stats.budget_exhausted = True
            if idx.size == 0:
                break
        mids = 0.5 * (ts[idx] + ts[idx + 1])
        fresh = (mids != ts[idx]) & (mids != ts[idx + 1])
        mids = mids[fresh]
        if mids.size == 0:
            break
        new_pts = _iterate_seeds(params, mids, generation)
        ts = np.concatenate((ts, mids))
        order = np.argsort(ts, kind="stable")
        ts = ts[order]
        pts = np.concatenate((pts, new_pts))[order]
        stats.inserted_points += mids.size
    return ts, pts


def trace_unstable(
    params: MapParams,
    n_images: int,
    clip: Rect,
    seed_scale: float = DEFAULT_UNSTABLE_SEED,
    max_gap: float = DEFAULT_MAX_GAP,
    max_angle: float = DEFAULT_MAX_ANGLE,
    point_budget: int = DEFAULT_POINT_BUDGET,
) -> ManifoldCurve:
    """Unstable-manifold branch of the origin after n_images forward maps.

    The fundamental segment spans [seed_scale, sigma*seed_scale] on the
    local unstable axis (the y-axis); for sigma < 0 it spans the origin
    and both half-axes grow.  Consecutive forward images concatenate into
    one polyline (generation g ends where generation g+1 begins).
    """
    if n_images < 1:
        raise ValueError("n_images must be >= 1")
    y0 = seed_scale
    if params.sigma > 0:
        t_lo, t_hi = y0, params.sigma * y0
    else:
        t_lo, t_hi = params.sigma * y0, y0
    window = clip.padded(_PAD_FRACTION)
    stats = RefinementStats()

    pieces: list[tuple[np.ndarray, np.ndarray, int]] = []
    remaining = point_budget
    generations = range(n_images + 1)
    for g in generations:
        ts, pts = _refine_generation(
            params, g, t_lo, t_hi, window, max_gap, max_angle, remaining, stats
        )
        pieces.append((ts, pts, g))
        remaining = max(1, remaining - ts.size)
        if stats.budget_exhausted:
            break

    if params.sigma < 0:
        pieces = pieces[::-1]

    all_pts: list[np.ndarray] = []
    all_t: list[np.ndarray] = []
    all_gen: list[np.ndarray] = []
    for i, (ts, pts, g) in enumerate(pieces):
        if i > 0:
            ts, pts = ts[1:], pts[1:]  # junction point equals previous end
        all_t.append(ts)
        all_pts.append(pts)
        all_gen.append(np.full(ts.size, g, dtype=int))
    points = np.concatenate(all_pts)
    seed_t = np.concatenate(all_t)
    generation = np.concatenate(all_gen)

    kept_idx, joined = _clip_polyline(points, window)
    points = points[kept_idx]
    seed_t = seed_t[kept_idx]
    generation = generation[kept_idx]

    deltas = np.diff(points, axis=0)
    gaps = np.hypot(deltas[:, 0], deltas[:, 1])
    in_clip = _inside(points, clip)
    counted = joined & in_clip[:-1] & in_clip[1:]
    arc_length = float(gaps[counted].sum()) if counted.any() else 0.0
    stats.max_gap = float(gaps[counted].max()) if counted.any() else 0.0

    return ManifoldCurve(
        points=points,
        kind="unstable",
        branch_index=0,
        arc_length=arc_length,
        refinement=stats,
        joined=joined,
        seed_t=seed_t,
        generation=generation,
        params=params,
    )


# -- stable set (preimage tree) ----------------------------------------------


def _preimage_points(
    params: MapParams, pts: np.ndarray, branch: str, prev: np.ndarray | None
) -> np.ndarray:
    """Candidate preimages of each point under one inverse branch.

    ``prev`` (same shape) supplies continuity guesses for the blend
    branch.  Invalid candidates are returned as NaN.
    """
    n = pts.shape[0]
    out = np.full((n, 2), np.nan)
    if branch == "saddle":
        out[:, 0], out[:, 1] = invert_saddle(params, Point2(pts[:, 0], pts[:, 1]))
        valid = out[:, 1] <= params.h0
    elif branch == "return":
        out[:, 0], out[:, 1] = invert_return(params, Point2(pts[:, 0], pts[:, 1]))
        valid = out[:, 1] >= params.h1
    elif branch == "blend":
        for i in range(n):
            q = Point2(float(pts[i, 0]), float(pts[i, 1]))
            guesses = _piece_inverses(params, q)
            if prev is not None and np.isfinite(prev[i]).all():
                guesses.insert(0, Point2(float(prev[i, 0]), float(prev[i, 1])))
            sols = invert_blend(params, q, guesses)
            if sols:
                out[i] = (sols[0].x, sols[0].y)
        valid = np.isfinite(out).all(axis=1)
    else:  # pragma: no cover
        raise ValueError(branch)
    valid &= np.isfinite(out).all(axis=1)
    out[~valid] = np.nan
    return out


def _split_runs(valid: np.ndarray) -> list[np.ndarray]:
    runs: list[np.ndarray] = []
    idx = np.flatnonzero(valid)
    if idx.size == 0:
        return runs
    breaks = np.flatnonzero(np.diff(idx) > 1)
    start = 0
    for b in list(breaks) + [idx.size - 1]:
        chunk = idx[start : b + 1]
        if chunk.size >= 2:
            runs.append(chunk)
        start = b + 1
    return runs


@dataclass
class _Node:
    """Preimage-tree node: every stage of the pull-back chain, aligned 1:1.

    ``chain[0]`` holds points on the seed segment, ``chain[j]`` their
    preimages after the first j inverse branches; ``chain[-1]`` is this
    node's curve.  Keeping the whole chain makes refinement exact: a new
    sample is pulled back from the (straight) seed segment through every
    stage instead of interpolating chords on a curved parent.
    """

    chain: list[np.ndarray]
    branches: tuple[str, ...]

    @property
    def points(self) -> np.ndarray:
        return self.chain[-1]

    @property
    def depth(self) -> int:
        return len(self.branches)


def _pull_back_column(
    params: MapParams, node: _Node, idx: np.ndarray
) -> np.ndarray | None:
    """New chain columns between idx and idx+1, pulled back from the seed.

    Returns an array of shape (len(chain), len(idx), 2), or None when
    nothing could be inserted.  Entries that fail a stage are NaN.
    """
    cols = [0.5 * (node.chain[0][idx] + node.chain[0][idx + 1])]
    for stage, branch in enumerate(node.branches, start=1):
        prev_level = cols[-1]
        guesses = 0.5 * (node.chain[stage][idx] + node.chain[stage][idx + 1])
        nxt = _preimage_points(params, prev_level, branch, guesses)
        cols.append(nxt)
    return np.stack(cols)


def trace_stable(
    params: MapParams,
    depth: int,
    clip: Rect,
    seed_scale: float = DEFAULT_STABLE_SEED,
    max_gap: float = DEFAULT_MAX_GAP,
    point_budget: int = DEFAULT_POINT_BUDGET,
) -> list[ManifoldCurve]:
    """Stable set of the origin as a preimage tree of an x-axis segment.

    The fundamental segment spans [seed_scale, seed_scale/lam] on the
    local stable axis (both half-axes when lam < 0), which covers the
    homoclinic point (x_star, 0) with the default scale.  Every node is
    expanded through the three inverse branches (saddle piece, return
    piece, blend Newton), keeping preimages that land in the matching
    region and inside the clip window.  One curve per surviving branch.
    Raises ``DegenerateCoefficientsError`` for depth >= 1 when the return
    piece has no exact inverse (see ``invert_return``).
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    x0 = seed_scale * params.x_star
    if params.lam > 0:
        a, b = x0, x0 / params.lam
    else:
        a, b = x0 / params.lam, x0
    window = clip.padded(_PAD_FRACTION)
    n_seed = max(9, int(math.ceil((b - a) / max_gap)) + 1)
    seed = np.column_stack((np.linspace(a, b, n_seed), np.zeros(n_seed)))

    stats_total = 0
    curves: list[ManifoldCurve] = []
    budget_flag = False

    def emit(node: _Node, inserted: int) -> None:
        nonlocal stats_total
        kept_idx, joined = _clip_polyline(node.points, window)
        if kept_idx.size < 2:
            return
        kept = node.points[kept_idx]
        deltas = np.diff(kept, axis=0)
        gaps = np.hypot(deltas[:, 0], deltas[:, 1])
        stats = RefinementStats(
            inserted_points=inserted,
            max_gap=float(gaps[joined].max()) if joined.any() else 0.0,
            budget_exhausted=budget_flag,
        )
        curves.append(
            ManifoldCurve(
                points=kept,
                kind="stable",
                branch_index=len(curves),
                arc_length=float(gaps[joined].sum()) if joined.any() else 0.0,
                refinement=stats,
                joined=joined,
                params=params,
                depth=node.depth,
            )
        )
        stats_total += kept.shape[0]

    root = _Node([seed], ())
    emit(root, 0)
    frontier: list[_Node] = [root]
    while frontier:
        node = frontier.pop(0)
        if node.depth >= depth:
            continue
        for branch in ("saddle", "return", "blend"):
            child_pts = _preimage_points(params, node.points, branch, None)
            chain = [arr.copy() for arr in node.chain] + [child_pts]
            child = _Node(chain, node.branches + (branch,))
            inserted = 0
            for _ in range(_MAX_ROUNDS):
                if stats_total + child.points.shape[0] > point_budget:
                    budget_flag = True
                    break
                idx = np.flatnonzero(_needs_refinement(child.points, window, max_gap, math.inf))
                if idx.size == 0:
                    break
                cols = _pull_back_column(params, child, idx)
                ok = np.isfinite(cols).all(axis=(0, 2))
                idx, cols = idx[ok], cols[:, ok]
                if idx.size == 0:
                    break
                insert_at = idx + 1
                child.chain = [
                    np.insert(arr, insert_at, cols[level], axis=0)
                    for level, arr in enumerate(child.chain)
                ]
                inserted += idx.size
            valid = np.isfinite(child.points).all(axis=1)
            for run in _split_runs(valid):
                sub = _Node([arr[run].copy() for arr in child.chain], child.branches)
                emit(sub, inserted)
                frontier.append(sub)
    return curves


# -- tangency detection --------------------------------------------------------


def _golden_min(fun, lo: float, hi: float, tol: float) -> float:
    """Golden-section minimizer of a unimodal scalar function."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while abs(b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return (a + b) / 2.0


def _reiterate(params: MapParams, t: float, generation: int) -> Point2:
    p = Point2(0.0, t)
    for _ in range(generation):
        p = eval_map(params, p)
    return p


def detect_tangencies(curve: ManifoldCurve, axis_tol: float) -> list[TangencyHit]:
    """Scan a curve for x-axis crossings and tangential touches.

    Sign changes of y along joined polyline segments are transversal
    hits.  Interior local minima of |y| below ``axis_tol`` without a sign
    change are tangential; when the curve carries seed provenance the
    touch point is sharpened by golden-section search on the seed
    parameter.
    """
    pts = curve.points
    n = pts.shape[0]
    if n == 0:
        raise ValueError("curve is empty")
    y = pts[:, 1]
    joined = (
        curve.joined
        if curve.joined is not None
        else np.ones(max(0, n - 1), dtype=bool)
    )
    hits: list[TangencyHit] = []
    can_refine = (
        curve.seed_t is not None
        and curve.generation is not None
        and curve.params is not None
    )

    for i in range(n - 1):
        if not joined[i]:
            continue
        if y[i] == 0.0:
            continue  # exact hits handled by the minimum scan
        if y[i] * y[i + 1] < 0.0:
            frac = y[i] / (y[i] - y[i + 1])
            loc = Point2(
                float(pts[i, 0] + frac * (pts[i + 1, 0] - pts[i, 0])),
                0.0,
            )
            if i + 2 < n:
                curv = float(y[i] - 2.0 * y[i + 1] + y[min(i + 2, n - 1)])
            else:
                curv = 0.0
            hits.append(TangencyHit(loc, "transversal", math.copysign(1.0, curv) if curv else 0.0))

    for i in range(1, n - 1):
        if not (joined[i - 1] and joined[i]):
            continue
        ya, yb, yc = abs(y[i - 1]), abs(y[i]), abs(y[i + 1])
        if not (yb <= ya and yb <= yc and yb < axis_tol):
            continue
        if y[i] == 0.0 and y[i - 1] * y[i + 1] < 0.0:
            # The polyline passes through the axis exactly at a vertex.
            hits.append(
                TangencyHit(Point2(float(pts[i, 0]), 0.0), "transversal", 0.0)
            )
            continue
        if y[i - 1] * y[i + 1] < 0.0 or y[i - 1] * y[i] < 0.0:
            continue  # sign change: transversal, already recorded
        if yb == ya and yb == yc:
            continue  # flat segment, not an isolated touch
        curvature = float(y[i - 1] - 2.0 * y[i] + y[i + 1])
        sign = math.copysign(1.0, curvature) if curvature != 0.0 else 0.0
        location = Point2(float(pts[i, 0]), float(pts[i, 1]))
        if can_refine and curve.generation[i - 1] == curve.generation[i + 1]:
            g = int(curve.generation[i])
            t_lo = float(curve.seed_t[i - 1])
            t_hi = float(curve.seed_t[i + 1])
            lo, hi = min(t_lo, t_hi), max(t_lo, t_hi)
            fun = lambda t: abs(_reiterate(curve.params, t, g).y)
            t_best = _golden_min(fun, lo, hi, 1e-10 * max(abs(lo), abs(hi), 1e-30))
            refined = _reiterate(curve.params, t_best, g)
            if abs(refined.y) <= abs(y[i]):
                location = refined
        hits.append(TangencyHit(location, "tangential", sign))

    return hits


# -- CSV export ---------------------------------------------------------------


def curves_to_csv(curves: list[ManifoldCurve]) -> str:
    lines = ["branch_id,point_index,x,y"]
    for curve in curves:
        for i, (x, y) in enumerate(curve.points):
            lines.append(f"{curve.branch_index},{i},{float(x)!r},{float(y)!r}")
    return "\n".join(lines) + "\n"


def tangencies_to_csv(hits: list[TangencyHit]) -> str:
    lines = ["x,y,contact,curvature_sign"]
    for hit in hits:
        lines.append(
            f"{hit.location.x!r},{hit.location.y!r},{hit.contact},{hit.curvature_sign!r}"
        )
    return "\n".join(lines) + "\n"
