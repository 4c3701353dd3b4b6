"""Parameterization of the piecewise-smooth planar map family.

The map acts as a linear saddle ``(x, y) -> (lam*x, sigma*y)`` below the
switching strip ``h0 < y < h1``, as a quadratic return map near the line
``y = y_star`` above the strip, and as a C1 convex blend of the two inside
the strip.  ``MapParams`` carries the full coefficient set plus the
optional first-order resonance coefficients of the general near-saddle
normal form.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any

__all__ = ["MapParams", "EXAMPLE_CASES"]

# JSON key for the contraction eigenvalue ("lambda" is reserved in Python).
_LAM_KEY = "lambda"


@dataclass(frozen=True)
class MapParams:
    """Full parameter set of the piecewise map family.

    ``lam`` and ``sigma`` are the saddle eigenvalues (0 < |lam| < 1 < |sigma|).
    ``c2``, ``d1``, ``d5`` are the leading coefficients of the return piece

        (x, y) -> (x_star + c1*x + c2*(y - y_star),
                   d1*x + d2*(y - y_star) + d3*x**2
                   + d4*x*(y - y_star) + d5*(y - y_star)**2),

    whose remaining Taylor coefficients ``c1``, ``d2``, ``d3``, ``d4``
    default to zero (the example family) and exist so that condition
    violations can be injected.  ``h0``/``h1`` are the switching
    thresholds; when omitted they default to the standard construction
    (2|lam|+1)/3 and (|lam|+2)/3.  ``a1``/``b1`` are resonance
    coefficients of the general near-saddle normal form; the piecewise
    family has an exactly linear saddle piece, so they default to zero
    and only feed the truncated normal-form iterate and the theory
    checks.
    """

    lam: float
    sigma: float
    c2: float
    d1: float
    d5: float
    h0: float | None = None
    h1: float | None = None
    x_star: float = 1.0
    y_star: float = 1.0
    a1: float = 0.0
    b1: float = 0.0
    c1: float = 0.0
    d2: float = 0.0
    d3: float = 0.0
    d4: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 < abs(self.lam) < 1.0):
            raise ValueError(f"lam must satisfy 0 < |lam| < 1, got {self.lam}")
        if not (abs(self.sigma) > 1.0):
            raise ValueError(f"sigma must satisfy |sigma| > 1, got {self.sigma}")
        if self.h0 is None:
            object.__setattr__(self, "h0", (2.0 * abs(self.lam) + 1.0) / 3.0)
        if self.h1 is None:
            object.__setattr__(self, "h1", (abs(self.lam) + 2.0) / 3.0)
        if not (abs(self.lam) < self.h0 < self.h1):
            raise ValueError(
                f"thresholds must satisfy |lam| < h0 < h1, got h0={self.h0}, h1={self.h1}"
            )
        if self.x_star <= 0.0 or self.y_star <= 0.0:
            raise ValueError("x_star and y_star must be positive")

    # -- derived quantities -------------------------------------------------

    @property
    def eigenvalue_product(self) -> float:
        return self.lam * self.sigma

    def discriminant(self) -> float:
        """Root discriminant of the single-round fixed-point problem.

        Equals ``(1 - c2*y_star/x_star - d4*y_star/d1)**2
        - 4*d5*(d3*x_star**2 + c1*d1*x_star)``.  Requires ``d1 != 0``.
        """
        if self.d1 == 0.0:
            raise ZeroDivisionError("discriminant requires d1 != 0")
        head = (
            1.0
            - self.c2 * self.y_star / self.x_star
            - self.d4 * self.y_star / self.d1
        )
        return head * head - 4.0 * self.d5 * (
            self.d3 * self.x_star**2 + self.c1 * self.d1 * self.x_star
        )

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for f in fields(self):
            key = _LAM_KEY if f.name == "lam" else f.name
            out[key] = float(getattr(self, f.name))
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MapParams":
        """Build params from a flat key/value mapping.

        ``h0``/``h1`` are recomputed from ``lambda`` unless the mapping
        overrides them explicitly.  Unknown keys are rejected.
        """
        known = {_LAM_KEY if f.name == "lam" else f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown parameter keys: {sorted(unknown)}")
        kwargs: dict[str, float] = {}
        for f in fields(cls):
            key = _LAM_KEY if f.name == "lam" else f.name
            if key in data:
                kwargs[f.name] = float(data[key])
        if "lam" not in kwargs or "sigma" not in kwargs:
            raise ValueError("parameter mapping must define 'lambda' and 'sigma'")
        for required in ("c2", "d1", "d5"):
            if required not in kwargs:
                raise ValueError(f"parameter mapping must define '{required}'")
        return cls(**kwargs)

    def replace(self, **overrides: float) -> "MapParams":
        """Return new params with given fields replaced.

        Takes the keys of ``from_dict``; ``lam`` also names ``lambda``.
        Changing it without giving thresholds recomputes ``h0``/``h1``.
        """
        given = {(_LAM_KEY if k == "lam" else k): v for k, v in overrides.items()}
        if len(given) < len(overrides):
            raise ValueError("'lam' and 'lambda' name the same parameter")
        data = self.to_dict()
        if _LAM_KEY in given and "h0" not in given and "h1" not in given:
            del data["h0"], data["h1"]
        return MapParams.from_dict({**data, **given})


#: The four reference parameter cases, keyed by the eigenvalue sign pattern
#: (lam sign then sigma sign).  "pp" and "nn" are orientation-preserving
#: (lam*sigma = 1); "pn" and "np" are orientation-reversing (lam*sigma = -1)
#: with stable single-round orbits at even and odd k respectively.
EXAMPLE_CASES: dict[str, MapParams] = {
    "pp": MapParams(lam=0.8, sigma=1.25, c2=-0.5, d1=1.0, d5=1.0),
    "nn": MapParams(lam=-0.8, sigma=-1.25, c2=-0.5, d1=1.0, d5=1.0),
    "pn": MapParams(lam=0.8, sigma=-1.25, c2=-0.5, d1=1.0, d5=1.0),
    "np": MapParams(lam=-0.8, sigma=1.25, c2=-0.5, d1=-1.0, d5=1.0),
}
