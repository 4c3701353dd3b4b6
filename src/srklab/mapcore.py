"""Exact evaluation of the piecewise map, its pieces, and Jacobians.

Each formula of the map is written here once.  The piece functions
(``eval_saddle``, ``eval_return``, ``blend_weight``, ``blend``) use plain
operators, so they take a ``Point2`` of floats or of numpy arrays alike.
The piece rule lives here too: at or below h0 the saddle piece, else at
or above h1 the return piece, else (a NaN height among them) the blend.
``eval_map`` and ``jacobian`` apply it to one point with two
comparisons, and every scalar map step of the lab goes through them;
``eval_map_arrays`` and ``jacobian_arrays`` apply it row by row, so
rasters and manifold tracing can batch-iterate large point sets with
scalar results.  ``eval_map_arrays`` evaluates each piece only on the
rows it applies to (most rows of a basin step lie below the strip),
with the same bits as evaluating every piece on every row.
``region_of`` names a height's region for itinerary reports.
"""
from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ResonanceFormUnavailableError, SingularJacobianError
from .params import MapParams

__all__ = [
    "Point2",
    "Jacobian2",
    "Region",
    "Rect",
    "smoothstep",
    "smoothstep_deriv",
    "blend_weight",
    "blend_weight_deriv",
    "blend",
    "eval_saddle",
    "eval_return",
    "region_of",
    "eval_map",
    "jacobian",
    "saddle_power",
    "eval_map_arrays",
    "jacobian_arrays",
]

_RESONANCE_TOL = 1e-12
_SINGULAR_TOL = 1e-14


class Point2(NamedTuple):
    x: float
    y: float


class Jacobian2(NamedTuple):
    """2x2 matrix in row-major order: [[a, b], [c, d]]."""

    a: float
    b: float
    c: float
    d: float

    @property
    def trace(self) -> float:
        return self.a + self.d

    @property
    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def matmul(self, other: "Jacobian2") -> "Jacobian2":
        return Jacobian2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    @staticmethod
    def identity() -> "Jacobian2":
        return Jacobian2(1.0, 0.0, 0.0, 1.0)

    def solve(self, rx: float, ry: float) -> tuple[float, float]:
        """The (dx, dy) that this matrix maps to (rx, ry), by Cramer's rule.

        Raises ``SingularJacobianError`` (``at_iterate`` None) when the
        determinant is not finite or below 1e-14 in magnitude.
        """
        det = self.det
        if not (math.isfinite(det) and abs(det) >= _SINGULAR_TOL):
            raise SingularJacobianError(at_iterate=None)
        return self._cramer(det, rx, ry)

    def solve_arrays(
        self, rx: np.ndarray, ry: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``solve`` for a ``Jacobian2`` of arrays, row by row.

        Returns ``(ok, dx, dy)``: ``ok`` is False on the rows whose matrix
        ``solve`` rejects, and dx, dy are the steps of the other rows only.
        """
        det = self.det
        ok = np.isfinite(det) & (np.abs(det) >= _SINGULAR_TOL)
        return (ok, *Jacobian2(*(c[ok] for c in self))._cramer(det[ok], rx[ok], ry[ok]))

    def _cramer(self, det, rx, ry):
        return (self.d * rx - self.b * ry) / det, (self.a * ry - self.c * rx) / det


class Region(Enum):
    LOWER = "lower"
    BLEND = "blend"
    UPPER = "upper"


class Rect(NamedTuple):
    """Axis-aligned window (xmin, xmax, ymin, ymax)."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    def is_empty(self) -> bool:
        return not (self.xmin < self.xmax and self.ymin < self.ymax)

    def padded(self, fraction: float) -> "Rect":
        dx = self.width * fraction
        dy = self.height * fraction
        return Rect(self.xmin - dx, self.xmax + dx, self.ymin - dy, self.ymax + dy)


def smoothstep(z: float) -> float:
    """Cubic smoothstep 3*z**2 - 2*z**3 (ramps 0 -> 1 with flat ends)."""
    return 3.0 * z * z - 2.0 * z * z * z


def smoothstep_deriv(z: float) -> float:
    return 6.0 * z * (1.0 - z)


def blend_weight(params: MapParams, y: float) -> float:
    """Convex blend weight r(y); 0 at y=h0, 1 at y=h1, flat at both."""
    z = (y - params.h0) / (params.h1 - params.h0)
    return smoothstep(z)


def blend_weight_deriv(params: MapParams, y: float) -> float:
    width = params.h1 - params.h0
    z = (y - params.h0) / width
    return smoothstep_deriv(z) / width


def blend(r, p0, p1):
    """Convex blend (1 - r)*p0 + r*p1, field by field, of two ``Point2``
    or two ``Jacobian2`` values (floats or arrays)."""
    s = 1.0 - r
    return type(p0)(*(s * a + r * b for a, b in zip(p0, p1)))


def eval_saddle(params: MapParams, p: Point2) -> Point2:
    """The linear piece (lam*x, sigma*y), active below the strip."""
    return Point2(params.lam * p.x, params.sigma * p.y)


def eval_return(params: MapParams, p: Point2) -> Point2:
    """The quadratic return piece, active above the strip."""
    u = p.y - params.y_star
    x_new = params.x_star + params.c1 * p.x + params.c2 * u
    y_new = (
        params.d1 * p.x
        + params.d2 * u
        + params.d3 * p.x * p.x
        + params.d4 * p.x * u
        + params.d5 * u * u
    )
    return Point2(x_new, y_new)


def region_of(params: MapParams, y: float) -> Region:
    """Region tag for a given height; boundaries belong to the pure pieces."""
    if y <= params.h0:
        return Region.LOWER
    if y >= params.h1:
        return Region.UPPER
    return Region.BLEND


def eval_map(params: MapParams, p: Point2) -> Point2:
    if p.y <= params.h0:
        return eval_saddle(params, p)
    if p.y >= params.h1:
        return eval_return(params, p)
    return blend(blend_weight(params, p.y), eval_saddle(params, p), eval_return(params, p))


def _saddle_jacobian(params: MapParams) -> Jacobian2:
    return Jacobian2(params.lam, 0.0, 0.0, params.sigma)


def _return_jacobian(params: MapParams, p: Point2) -> Jacobian2:
    u = p.y - params.y_star
    return Jacobian2(
        params.c1,
        params.c2,
        params.d1 + 2.0 * params.d3 * p.x + params.d4 * u,
        params.d2 + params.d4 * p.x + 2.0 * params.d5 * u,
    )


def jacobian(params: MapParams, p: Point2) -> Jacobian2:
    """Analytic Jacobian of the active branch.

    Inside the strip the y-column picks up the blend-weight derivative
    times the difference of the two pieces; at y=h0 and y=h1 that term
    vanishes, so the one-sided limits agree with the pure pieces.
    """
    if p.y <= params.h0:
        return _saddle_jacobian(params)
    if p.y >= params.h1:
        return _return_jacobian(params, p)
    return _strip_jacobian(params, p)


def _strip_jacobian(params: MapParams, p: Point2) -> Jacobian2:
    """Jacobian of the blend inside the strip; floats or arrays alike."""
    r = blend_weight(params, p.y)
    dr = blend_weight_deriv(params, p.y)
    j = blend(r, _saddle_jacobian(params), _return_jacobian(params, p))
    p0 = eval_saddle(params, p)
    p1 = eval_return(params, p)
    return Jacobian2(j.a, j.b + dr * (p1.x - p0.x), j.c, j.d + dr * (p1.y - p0.y))


def saddle_power(params: MapParams, p: Point2, k: int) -> Point2:
    """k-fold iterate of the resonance-truncated near-saddle normal form.

    Valid only in the orientation-preserving resonance case lam*sigma = 1,
    where the normal form truncated at first order in k*x*y reads

        (x, y) -> (lam**k * x * (1 + k*a1*x*y),
                   lam**(-k) * y * (1 + k*b1*x*y)).
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if abs(params.lam * params.sigma - 1.0) > _RESONANCE_TOL:
        raise ResonanceFormUnavailableError(
            f"requires lam*sigma = 1, got {params.lam * params.sigma}"
        )
    if k == 0:
        return Point2(float(p[0]), float(p[1]))
    lamk = params.lam**k
    xy = p.x * p.y
    return Point2(
        lamk * p.x * (1.0 + k * params.a1 * xy),
        p.y * (1.0 + k * params.b1 * xy) / lamk,
    )


def eval_map_arrays(
    params: MapParams, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ``eval_map`` over parallel 1-D coordinate arrays.

    Elementwise identical to the scalar path: each piece function runs
    only on the rows it applies to, as ``region_of`` tags them.  The
    saddle piece runs on every row; the return piece replaces it on the
    rows not below the strip (NaN heights among them), and the blend on
    those of them not above it.  So results do not depend on batching,
    and the input arrays are never written.
    """
    out_x, out_y = eval_saddle(params, Point2(x, y))
    above = np.flatnonzero(~(y <= params.h0))
    if above.size:
        p = Point2(x[above], y[above])
        new_x, new_y = eval_return(params, p)
        mid = np.flatnonzero(~(p.y >= params.h1))
        if mid.size:
            q = Point2(p.x[mid], p.y[mid])
            new_x[mid], new_y[mid] = blend(
                blend_weight(params, q.y),
                eval_saddle(params, q),
                Point2(new_x[mid], new_y[mid]),
            )
        out_x[above] = new_x
        out_y[above] = new_y
    return out_x, out_y


def jacobian_arrays(params: MapParams, x: np.ndarray, y: np.ndarray) -> Jacobian2:
    """Vectorized ``jacobian``: a ``Jacobian2`` of arrays over parallel
    coordinate arrays, selected per point by region masks, so each entry
    has the bits of the scalar path."""
    p = Point2(x, y)
    lower = y <= params.h0
    in_strip = ~(lower | (y >= params.h1))
    pieces = zip(_saddle_jacobian(params), _return_jacobian(params, p))
    out = [np.where(lower, a, b) for a, b in pieces]
    if in_strip.any():
        out = [np.where(in_strip, a, b) for a, b in zip(_strip_jacobian(params, p), out)]
    return Jacobian2(*out)
