"""Growing the one-dimensional invariant manifolds of the origin.

The unstable manifold is grown by mapping a fundamental segment of the
local unstable axis forward.  Every seed of every generation, refinement
midpoints included, walks from generation 0 as one batch.  That walk
starts with the saddle passage: while the whole batch lies below the
switching strip, f is the linear saddle piece, so it steps by
``eval_saddle`` alone and takes only the steps after it through the
full map.  The one-seed re-walks of tangency sharpening step by
``eval_map`` alone, which picks the saddle piece itself.
The stable set is grown backwards as a preimage tree, branching over the
analytic inverses of the two map pieces and a Newton inverse inside the
blend strip (the map is non-invertible, so the stable set has several
branches); the blend inverse runs as one masked Newton over all points
of a tree level.  Both are refined by one loop, ``_refine``: it bisects
the straight seed segment wherever a curve gap or turning angle exceeds
tolerance and maps each midpoint through the known stages to the curve.
``_finish`` clips and measures both.

Tangential touches of the x-axis are located on the traced curve and
sharpened by golden-section search on the seed parameter.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DegenerateCoefficientsError
from .mapcore import (
    Point2,
    Rect,
    eval_map,
    eval_map_arrays,
    eval_saddle,
    jacobian_arrays,
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

    ``refinement.max_gap`` is the largest segment length over the joined
    segments with both ends inside the clip window (not its padded
    refinement window).
    ``refinement.inserted_points`` counts the midpoints added to the
    unstable curve, or to the preimage branch that a stable curve was cut
    from.  Every sample made counts against the point budget: the
    refinement round or new stage that would cross it is cut to fit, no
    stage is started after it, and ``refinement.budget_exhausted`` is set
    on the unstable curve, or on every curve of the stable set.
    """

    points: np.ndarray
    refinement: RefinementStats
    joined: np.ndarray
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


def _blend_newton(
    params: MapParams, q: Point2, guess: Point2
) -> tuple[Point2, np.ndarray, np.ndarray]:
    """Newton on f(p) = q from parallel guess arrays; returns (points, iters, residuals).

    Every row runs the one-point Newton, float operation for float
    operation, for at most 30 steps.  At each step a row:
    - stops when its residual max(|f(p).x - q.x|, |f(p).y - q.y|) is at
      most 1e-10, taken in Python ``max`` order (a NaN first term gives
      NaN, a NaN second term is passed over);
    - stops where ``Jacobian2.solve`` rejects its Jacobian;
    - else steps, and stops with residual inf once p is not finite.
    Overflow gives inf without a warning, as it does for Python floats.
    """
    x = np.array(guess.x, dtype=float)
    y = np.array(guess.y, dtype=float)
    iters = np.full(x.size, _BLEND_NEWTON_MAX_ITER)
    res = np.empty(x.size)
    live = np.arange(x.size)
    with np.errstate(all="ignore"):
        for step in range(_BLEND_NEWTON_MAX_ITER + 1):
            px, py = x[live], y[live]
            ix, iy = eval_map_arrays(params, px, py)
            rx, ry = q.x[live] - ix, q.y[live] - iy
            ax, ay = np.abs(rx), np.abs(ry)
            res[live] = r = np.where(ay > ax, ay, ax)
            if step == _BLEND_NEWTON_MAX_ITER:
                break
            go = ~(r <= _BLEND_NEWTON_TOL)
            iters[live[~go]] = step
            live, px, py, rx, ry = (a[go] for a in (live, px, py, rx, ry))
            ok, dx, dy = jacobian_arrays(params, px, py).solve_arrays(rx, ry)
            iters[live[~ok]] = step
            live = live[ok]
            x[live] = px[ok] + dx
            y[live] = py[ok] + dy
            finite = np.isfinite(x[live]) & np.isfinite(y[live])
            iters[live[~finite]] = step + 1
            res[live[~finite]] = math.inf
            live = live[finite]
            if live.size == 0:
                break
    return Point2(x, y), iters, res


def _blend_preimages(
    params: MapParams, q: Point2, guesses: list[tuple[Point2, np.ndarray]]
) -> np.ndarray:
    """Preimages inside the blend strip of the points q (parallel arrays).

    Each (guess, rows) pair is tried in list order on the marked rows that
    no earlier guess has solved: a row is solved by the point its Newton
    reaches when the residual is at most 1e-10 and the point lies strictly
    inside the strip.  Returns an (n, 2) array, NaN on unsolved rows.
    """
    out = np.full((q.x.size, 2), np.nan)
    todo = np.ones(q.x.size, dtype=bool)
    for guess, rows in guesses:
        idx = np.flatnonzero(todo & rows)
        if idx.size == 0:
            continue
        p, _, res = _blend_newton(
            params, Point2(q.x[idx], q.y[idx]), Point2(guess.x[idx], guess.y[idx])
        )
        solved = (res <= _BLEND_NEWTON_TOL) & (p.y > params.h0) & (p.y < params.h1)
        out[idx[solved]] = np.column_stack(p)[solved]
        todo[idx[solved]] = False
    return out


# -- one refinement engine for both manifolds ----------------------------------


def _inside(points: np.ndarray, rect: Rect) -> np.ndarray:
    """Mask of the rows of ``points`` inside ``rect``; NaN rows never are."""
    x, y = points[:, 0], points[:, 1]
    return (x >= rect.xmin) & (x <= rect.xmax) & (y >= rect.ymin) & (y <= rect.ymax)


def _needs_refinement(
    pts: np.ndarray, window: Rect, max_gap: float, max_angle: float
) -> np.ndarray:
    """Boolean mask over segments [i, i+1] that should be split."""
    finite = np.isfinite(pts).all(axis=1)
    inside = _inside(pts, window)
    relevant = finite[:-1] & finite[1:] & (inside[:-1] | inside[1:])

    deltas = np.diff(pts, axis=0)
    gaps = np.hypot(deltas[:, 0], deltas[:, 1])
    seg = relevant & (gaps > max_gap)

    # Turning angle at interior vertices: refine both adjacent segments.
    # Far-out segments overflow to inf or NaN here, without a warning.
    a, b = deltas[:-1], deltas[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
        dot = (a * b).sum(axis=1)
        big_angle = np.abs(np.arctan2(cross, dot)) > max_angle
    # Ignore vertices whose segments are already tiny (curvature limit).
    tiny = (gaps[:-1] <= max_gap * 1e-3) & (gaps[1:] <= max_gap * 1e-3)
    big_angle &= ~tiny & (relevant[:-1] | relevant[1:])
    seg[:-1] |= big_angle
    seg[1:] |= big_angle
    return seg


def _allow(wanted: int, left: int, stats: RefinementStats) -> int:
    """How many of ``wanted`` new samples fit in ``left``; a cut flags ``stats``."""
    if wanted <= left:
        return wanted
    stats.budget_exhausted = True
    return max(left, 0)


def _refine(
    chain: list[np.ndarray],
    extend: Callable[[list[np.ndarray], np.ndarray, np.ndarray], list[np.ndarray]],
    window: Rect,
    max_gap: float,
    max_angle: float,
    budget: int,
    stats: RefinementStats,
) -> list[np.ndarray]:
    """Bisect the seed stage until the curve stage is resolved in ``window``.

    ``chain[0]`` holds seed parameters along a straight segment, in curve
    order, and every later stage their images through one more known
    step, row for row; ``chain[-1]`` is the curve.  Each round flags curve
    segments with ``_needs_refinement``, bisects their seed intervals and
    calls ``extend(chain, idx, mids)`` for the midpoints' rows in every
    stage after the seed.  Midpoints that do not split their interval, or
    whose curve row is not finite, are dropped; the rest go between rows
    idx and idx + 1 of every stage.  The chain never grows past ``budget``
    rows: the round that would cross it is cut to fit and flags ``stats``.
    """
    for _ in range(_MAX_ROUNDS):
        seeds = chain[0]
        idx = np.flatnonzero(_needs_refinement(chain[-1], window, max_gap, max_angle))
        idx = idx[: _allow(idx.size, budget - seeds.size, stats)]
        lo, hi = seeds[idx], seeds[idx + 1]
        mids = 0.5 * (lo + hi)
        fresh = (mids != lo) & (mids != hi)
        idx, mids = idx[fresh], mids[fresh]
        if idx.size == 0:
            break
        rows = [mids, *extend(chain, idx, mids)]
        ok = np.isfinite(rows[-1]).all(axis=1)
        idx, rows = idx[ok], [r[ok] for r in rows]
        if idx.size == 0:
            break
        at = idx + np.arange(1, idx.size + 1)
        old = np.ones(seeds.size + idx.size, dtype=bool)
        old[at] = False
        for level, new in enumerate(rows):
            merged = np.empty((old.size,) + new.shape[1:])
            merged[old] = chain[level]
            merged[at] = new
            chain[level] = merged
        stats.inserted_points += idx.size
    return chain


def _finish(
    points: np.ndarray, clip: Rect, window: Rect
) -> tuple[np.ndarray, np.ndarray, float]:
    """Clip a polyline to ``window`` and measure it inside ``clip``.

    A finite point is kept when it or a neighbour lies inside ``window``,
    so curve pieces keep their window-crossing anchors; ``joined[i]`` says
    whether kept points i and i+1 were adjacent.  Returns the kept
    indices, ``joined``, and the largest gap over the joined segments with
    both ends inside ``clip``.
    """
    inside = _inside(points, window)
    keep = inside.copy()
    keep[:-1] |= inside[1:]
    keep[1:] |= inside[:-1]
    keep &= np.isfinite(points).all(axis=1)
    kept_idx = np.flatnonzero(keep)
    joined = np.diff(kept_idx) == 1
    deltas = np.diff(points[kept_idx], axis=0)
    in_clip = _inside(points[kept_idx], clip)
    gaps = np.hypot(deltas[:, 0], deltas[:, 1])[joined & in_clip[:-1] & in_clip[1:]]
    return kept_idx, joined, float(gaps.max(initial=0.0))


# -- unstable manifold --------------------------------------------------------


def _step_seeds(
    params: MapParams, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One map step of seed images given as parallel coordinate arrays.

    Points whose max-norm exceeds a large freeze radius, or that are not
    finite, stop being iterated (their last value is kept); they lie far
    outside any reasonable clip window.
    """
    alive = (np.abs(x) <= _FREEZE_RADIUS) & (np.abs(y) <= _FREEZE_RADIUS)
    # Only rows that the freeze rule discards can overflow; they warn nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        nx, ny = eval_map_arrays(params, x, y)
    return np.where(alive, nx, x), np.where(alive, ny, y)


def _iterate_seeds(params: MapParams, ts: np.ndarray, generation: int) -> np.ndarray:
    """f^generation applied to the axis seeds (0, t), vectorized.

    The walk starts with the saddle passage: while every point lies below
    the strip and inside the freeze radius, it steps by ``eval_saddle``,
    whose products are what ``_step_seeds`` would keep there.  Every row
    starts on the axis, so x is one float until the passage ends.  A step
    multiplies every y by sigma, which keeps the rows' order (sigma < 0
    reverses it), so the rows of the lowest and highest seed are the first
    to leave [-radius, min(h0, radius)] and only they are tested; a NaN
    seed is both and ends the passage at once.  The steps that remain go
    through ``_step_seeds``.
    """
    if ts.size == 0:
        return np.empty((0, 2))
    lo, hi = int(ts.argmin()), int(ts.argmax())
    bottom, top = -_FREEZE_RADIUS, min(params.h0, _FREEZE_RADIUS)
    x, y = 0.0, ts
    steps = generation
    while steps > 0 and bottom <= y[lo] <= top and bottom <= y[hi] <= top:
        x, y = eval_saddle(params, Point2(x, y))
        steps -= 1
    x = np.full(ts.shape, x)
    for _ in range(steps):
        x, y = _step_seeds(params, x, y)
    return np.column_stack((x, y))


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
    and both half-axes grow.  Generation g is the image under f^g of 33
    seeds on that segment, refined by ``_refine``; consecutive generations
    concatenate into one polyline (generation g ends where generation g+1
    begins).  Every seed walks from generation 0 (``_iterate_seeds``).
    No generation is started once the budget has run out.
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

    pieces: list[tuple[np.ndarray, ...]] = []
    used = 0
    for g in range(n_images + 1):
        images = partial(_iterate_seeds, params, generation=g)
        left = point_budget - used
        ts = np.linspace(t_lo, t_hi, 33)[: _allow(33, left, stats)]
        ts, pts = _refine(
            [ts, images(ts)],
            lambda chain, idx, mids: [images(mids)],
            window, max_gap, max_angle, left, stats,
        )
        pieces.append((ts, pts, np.full(ts.size, g, dtype=int)))
        used += ts.size
        if stats.budget_exhausted:
            break

    # Each generation after the first repeats the previous one's end point.
    first, *rest = pieces[::-1] if params.sigma < 0 else pieces
    seed_t, points, generation = (
        np.concatenate([first[j], *(piece[j][1:] for piece in rest)]) for j in range(3)
    )
    kept_idx, joined, stats.max_gap = _finish(points, clip, window)
    return ManifoldCurve(
        points=points[kept_idx],
        refinement=stats,
        joined=joined,
        seed_t=seed_t[kept_idx],
        generation=generation[kept_idx],
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
    if branch == "blend":
        if pts.shape[0] == 0:
            return np.full((0, 2), np.nan)
        q = Point2(pts[:, 0], pts[:, 1])
        every = np.ones(pts.shape[0], dtype=bool)
        guesses = [(invert_saddle(params, q), every), (invert_return(params, q), every)]
        if prev is not None:
            guesses.insert(0, (Point2(prev[:, 0], prev[:, 1]), np.isfinite(prev).all(axis=1)))
        return _blend_preimages(params, q, guesses)
    if branch == "saddle":
        out = np.column_stack(invert_saddle(params, Point2(pts[:, 0], pts[:, 1])))
        in_piece = out[:, 1] <= params.h0
    else:
        out = np.column_stack(invert_return(params, Point2(pts[:, 0], pts[:, 1])))
        in_piece = out[:, 1] >= params.h1
    out[~(in_piece & np.isfinite(out).all(axis=1))] = np.nan
    return out


def _split_runs(valid: np.ndarray) -> list[np.ndarray]:
    """Index arrays of the runs of at least two consecutive valid rows."""
    idx = np.flatnonzero(valid)
    runs = np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1)
    return [run for run in runs if run.size >= 2]


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
    homoclinic point (x_star, 0) with the default scale.  Every node down
    to ``depth`` is expanded whole through the three inverse branches
    (saddle piece, return piece, blend Newton), keeping the preimages that
    land in the matching region; only the returned curves are clipped,
    one per run of valid preimages that reaches the clip window.
    ``_refine`` pulls each new sample back from the seed segment through
    every stage.  No branch is started once the budget has run out.
    Raises ``DegenerateCoefficientsError`` for depth >= 1 when the return
    piece has no exact inverse (see ``invert_return``), and ``ValueError``
    when the segment length over ``max_gap`` overflows a double, or when
    the budget runs out before any branch reaches the clip window.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    x0 = seed_scale * params.x_star
    if params.lam > 0:
        a, b = x0, x0 / params.lam
    else:
        a, b = x0 / params.lam, x0
    window = clip.padded(_PAD_FRACTION)
    cut = RefinementStats()
    span = (b - a) / max_gap
    if not math.isfinite(span):
        msg = f"seed segment [{a:g}, {b:g}] over max_gap {max_gap:g} is not a finite sample count"
        raise ValueError(msg)
    n_seed = max(9, int(math.ceil(span)) + 1)
    # max_gap may ask for far more seeds than the budget keeps: build only the
    # kept prefix of linspace(a, b, n_seed), whose steps and endpoint these are.
    xs = a + np.arange(_allow(n_seed, point_budget, cut)) * ((b - a) / (n_seed - 1))
    xs[n_seed - 1 :] = b
    used = xs.size
    curves: list[ManifoldCurve] = []

    def emit(chain: list[np.ndarray], branches: tuple[str, ...], inserted: int) -> None:
        kept_idx, joined, gap = _finish(chain[-1], clip, window)
        if kept_idx.size >= 2:
            curves.append(
                ManifoldCurve(
                    points=chain[-1][kept_idx],
                    refinement=RefinementStats(inserted, gap),
                    joined=joined,
                    params=params,
                    depth=len(branches),
                )
            )

    def pull_back(branches, chain, idx, mids):
        """Rows of seed abscissae ``mids`` in every stage after the seed; the
        blend branch guesses the midpoint of the rows it goes between."""
        stages = [np.column_stack((mids, np.zeros_like(mids)))]
        for branch, stage in zip(branches, chain[2:]):
            guesses = 0.5 * (stage[idx] + stage[idx + 1])
            stages.append(_preimage_points(params, stages[-1], branch, guesses))
        return stages

    root = [xs, np.column_stack((xs, np.zeros_like(xs)))]
    emit(root, (), 0)
    frontier = [(root, ())]
    while frontier and not cut.budget_exhausted:
        chain, branches = frontier.pop(0)
        if len(branches) >= depth:
            continue
        for branch in ("saddle", "return", "blend"):
            child = branches + (branch,)
            left = point_budget - used
            stats = RefinementStats()
            n = _allow(chain[0].size, left, stats)
            grown = [arr[:n] for arr in chain]
            grown.append(_preimage_points(params, grown[-1], branch, None))
            grown = _refine(
                grown, partial(pull_back, child), window, max_gap, math.inf, left, stats
            )
            used += grown[0].size
            cut.budget_exhausted |= stats.budget_exhausted
            for run in _split_runs(np.isfinite(grown[-1]).all(axis=1)):
                sub = [arr[run] for arr in grown]
                emit(sub, child, stats.inserted_points)
                frontier.append((sub, child))
            if cut.budget_exhausted:
                break
    if cut.budget_exhausted and not curves:
        raise ValueError(
            f"point budget {point_budget} ran out before any stable branch reached 'clip'"
        )
    for curve in curves:
        curve.refinement.budget_exhausted = cut.budget_exhausted
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
    """f^generation of the axis seed (0, t) in plain floats, one
    ``eval_map`` call per step."""
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
    hits: list[TangencyHit] = []
    # trace_unstable sets seed_t, generation and params together.
    can_refine = curve.seed_t is not None

    # Exact zeros are left to the minimum scan.
    crossings = curve.joined & (y[:-1] != 0.0) & (y[:-1] * y[1:] < 0.0)
    for i in np.flatnonzero(crossings):
        frac = y[i] / (y[i] - y[i + 1])
        loc = Point2(
            float(pts[i, 0] + frac * (pts[i + 1, 0] - pts[i, 0])),
            0.0,
        )
        if i + 2 < n:
            curv = float(y[i] - 2.0 * y[i + 1] + y[i + 2])
        else:
            curv = 0.0
        hits.append(TangencyHit(loc, "transversal", math.copysign(1.0, curv) if curv else 0.0))

    ay = np.abs(y)
    minima = (
        curve.joined[:-1]
        & curve.joined[1:]
        & (ay[1:-1] <= ay[:-2])
        & (ay[1:-1] <= ay[2:])
        & (ay[1:-1] < axis_tol)
    )
    for i in np.flatnonzero(minima) + 1:
        ya, yb, yc = ay[i - 1], ay[i], ay[i + 1]
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
    for branch, curve in enumerate(curves):
        lines.extend(f"{branch},{i},{x!r},{y!r}" for i, (x, y) in enumerate(curve.points.tolist()))
    return "\n".join(lines) + "\n"


def tangencies_to_csv(hits: list[TangencyHit]) -> str:
    lines = ["x,y,contact,curvature_sign"]
    for hit in hits:
        lines.append(
            f"{hit.location.x!r},{hit.location.y!r},{hit.contact},{hit.curvature_sign!r}"
        )
    return "\n".join(lines) + "\n"
