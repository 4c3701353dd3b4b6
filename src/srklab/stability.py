"""Orbit Jacobian products, trace/determinant classification, and the
predicted large-k limits of trace and determinant.

A period-n orbit of a planar map is asymptotically stable iff the trace
``tau`` and determinant ``delta`` of the Jacobian of the n-fold composition
lie strictly inside the triangle

    delta < 1,    delta > tau - 1,    delta > -tau - 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import NegativeDiscriminantError
from .mapcore import Jacobian2, Point2, jacobian
from .params import MapParams

__all__ = [
    "StabilityClass",
    "AsymptoticPrediction",
    "orbit_jacobian",
    "classify",
    "predict_asymptotics",
]

#: Boundary tolerance: points this close to a triangle edge or the unit
#: circle of eigenvalue moduli are reported as non-hyperbolic.
BOUNDARY_TOL = 1e-9


class StabilityClass(Enum):
    ASYMPTOTICALLY_STABLE = "asymptotically-stable"
    SADDLE = "saddle"
    SOURCE = "source"
    NON_HYPERBOLIC = "non-hyperbolic"


@dataclass(frozen=True)
class AsymptoticPrediction:
    """Large-k limits of orbit trace and determinant for the two branches."""

    tau_inf_minus: float
    tau_inf_plus: float
    delta_inf: float


def orbit_jacobian(params: MapParams, points: Sequence[Point2]) -> Jacobian2:
    """Ordered Jacobian product Df(p_{n-1}) ... Df(p_0) over one period.

    The empty product is the identity; the product is only as accurate
    as the points.  Newton and the registry's label check use it; a
    closed-form SR_k orbit's values come from its root instead, as its
    walked points carry rounding amplified by |sigma|**k.
    """
    total = Jacobian2.identity()
    for p in points:
        total = jacobian(params, p).matmul(total)
    return total


def classify(tau: float, delta: float) -> StabilityClass:
    """Classify a (trace, determinant) pair against the stability triangle."""
    inside = (
        delta < 1.0 - BOUNDARY_TOL
        and delta > tau - 1.0 + BOUNDARY_TOL
        and delta > -tau - 1.0 + BOUNDARY_TOL
    )
    if inside:
        return StabilityClass.ASYMPTOTICALLY_STABLE

    disc = tau * tau - 4.0 * delta
    if disc > 0.0:
        root = math.sqrt(disc)
        m1 = abs((tau - root) / 2.0)
        m2 = abs((tau + root) / 2.0)
        lo, hi = min(m1, m2), max(m1, m2)
        if lo > 1.0 + BOUNDARY_TOL:
            return StabilityClass.SOURCE
        if hi > 1.0 + BOUNDARY_TOL and lo < 1.0 - BOUNDARY_TOL:
            return StabilityClass.SADDLE
        return StabilityClass.NON_HYPERBOLIC
    modulus = math.sqrt(max(delta, 0.0))
    if modulus > 1.0 + BOUNDARY_TOL:
        return StabilityClass.SOURCE
    return StabilityClass.NON_HYPERBOLIC


def predict_asymptotics(params: MapParams) -> AsymptoticPrediction:
    """Predicted limits tau_inf = 1 - c2*y*/x* +- sqrt(D), delta_inf = -c2*y*/x*.

    ``D`` is the single-round root discriminant; the same formula covers
    both the orientation-preserving and orientation-reversing cases.
    """
    disc = params.discriminant()
    if disc < 0.0:
        raise NegativeDiscriminantError(f"discriminant is negative: {disc}")
    root = math.sqrt(disc)
    base = 1.0 - params.c2 * params.y_star / params.x_star
    return AsymptoticPrediction(
        tau_inf_minus=base - root,
        tau_inf_plus=base + root,
        delta_inf=-params.c2 * params.y_star / params.x_star,
    )
