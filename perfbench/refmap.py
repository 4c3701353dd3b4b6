"""Reference computations for checking srklab's outputs.

Everything here is written from the map formulas in the paper summary
(PAPER.md) in plain Python and imports nothing from ``srklab``:

    U0(x, y) = (lam x, sigma y)                                  y <= h0
    U1(x, y) = (x* + c1 x + c2 (y - y*),
                d1 x + d2 (y - y*) + d3 x^2 + d4 x (y - y*) + d5 (y - y*)^2)
                                                                 y >= h1
    f        = (1 - r) U0 + r U1,  r = s((y - h0)/(h1 - h0)),  s(z) = 3z^2 - 2z^3

with h0 = (2|lam| + 1)/3 and h1 = (|lam| + 2)/3 unless given.  The map is
evaluated in double precision in the order the formulas are written; the
single-round labels are recomputed in ``decimal`` arithmetic.
"""
from __future__ import annotations

import json
import math
from decimal import Decimal, localcontext

COEFFS = ("c1", "c2", "d1", "d2", "d3", "d4", "d5")
_LOWER, _BLEND, _UPPER = 0, 1, 2

STABLE = "asymptotically-stable"


def read_params(path: str, exact: bool = False) -> dict:
    """The ``params`` block of a config; decimals kept exact when asked."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh, parse_float=Decimal if exact else float)
    return raw["params"]


class RefMap:
    """The piecewise map in double precision."""

    def __init__(self, params: dict) -> None:
        p = {k: float(v) for k, v in params.items()}
        self.lam = p["lambda"]
        self.sigma = p["sigma"]
        self.c1, self.c2, self.d1, self.d2, self.d3, self.d4, self.d5 = (
            p.get(name, 0.0) for name in COEFFS
        )
        self.xs = p.get("x_star", 1.0)
        self.ys = p.get("y_star", 1.0)
        self.h0 = p["h0"] if "h0" in p else (2.0 * abs(self.lam) + 1.0) / 3.0
        self.h1 = p["h1"] if "h1" in p else (abs(self.lam) + 2.0) / 3.0

    def region(self, y: float) -> int:
        if y <= self.h0:
            return _LOWER
        if y >= self.h1:
            return _UPPER
        return _BLEND

    def _u1(self, x: float, y: float) -> tuple[float, float]:
        u = y - self.ys
        return (
            self.xs + self.c1 * x + self.c2 * u,
            self.d1 * x + self.d2 * u + self.d3 * x * x + self.d4 * x * u + self.d5 * u * u,
        )

    def step(self, x: float, y: float) -> tuple[float, float]:
        region = self.region(y)
        if region == _LOWER:
            return self.lam * x, self.sigma * y
        if region == _UPPER:
            return self._u1(x, y)
        z = (y - self.h0) / (self.h1 - self.h0)
        r = 3.0 * z * z - 2.0 * z * z * z
        x1, y1 = self._u1(x, y)
        return (1.0 - r) * (self.lam * x) + r * x1, (1.0 - r) * (self.sigma * y) + r * y1

    def iterate(self, x: float, y: float, n: int) -> tuple[float, float]:
        for _ in range(n):
            x, y = self.step(x, y)
        return x, y

    def jacobian(self, x: float, y: float) -> tuple[float, float, float, float]:
        """Row-major Df(x, y), including the blend-weight derivative term."""
        u = y - self.ys
        ja = (self.c1, self.c2,
              self.d1 + 2.0 * self.d3 * x + self.d4 * u,
              self.d2 + self.d4 * x + 2.0 * self.d5 * u)
        region = self.region(y)
        if region == _UPPER:
            return ja
        j0 = (self.lam, 0.0, 0.0, self.sigma)
        if region == _LOWER:
            return j0
        width = self.h1 - self.h0
        z = (y - self.h0) / width
        r = 3.0 * z * z - 2.0 * z * z * z
        dr = 6.0 * z * (1.0 - z) / width
        x1, y1 = self._u1(x, y)
        gx, gy = x1 - self.lam * x, y1 - self.sigma * y
        a, b, c, d = ((1.0 - r) * s0 + r * s1 for s0, s1 in zip(j0, ja))
        return a, b + dr * gx, c, d + dr * gy

    def orbit_trace_det(self, points) -> tuple[float, float]:
        a, b, c, d = 1.0, 0.0, 0.0, 1.0
        for x, y in points:
            ja, jb, jc, jd = self.jacobian(x, y)
            a, b, c, d = ja * a + jb * c, ja * b + jb * d, jc * a + jd * c, jc * b + jd * d
        return a + d, a * d - b * c


def stability_label(trace, det, tol=1e-9) -> str:
    """Label of a period map from its trace and determinant.

    Works on floats and Decimals: eigenvalue moduli strictly inside the
    unit circle give asymptotically stable, one on each side a saddle,
    both outside a source; within ``tol`` of the circle, non-hyperbolic.
    """
    one = type(trace)(1)
    tol = type(trace)(tol)
    disc = trace * trace - 4 * det
    if disc >= 0:
        root = disc.sqrt() if isinstance(disc, Decimal) else math.sqrt(disc)
        lo, hi = sorted((abs((trace - root) / 2), abs((trace + root) / 2)))
    else:
        lo = hi = det.sqrt() if isinstance(det, Decimal) else math.sqrt(det)
    if hi < one - tol:
        return STABLE
    if lo > one + tol:
        return "source"
    if lo < one - tol and hi > one + tol:
        return "saddle"
    return "non-hyperbolic"


def exact_srk_labels(params: dict, k_max: int, digits: int = 80) -> dict:
    """Stability label of both single-round branches for k = 0..k_max.

    ``params`` holds Decimals.  The above-strip point (x, y* + u) of SR_k
    solves a u^2 + b u + c = 0 with x = A + B u, and the period Jacobian
    is diag(lam^k, sigma^k) DR(x, u), DR being the derivative of U1.
    Returns {(k, "minus" | "plus"): label} for every k with real roots.
    """
    g = {name: Decimal(params.get(name, 0)) for name in COEFFS}
    lam, sig = Decimal(params["lambda"]), Decimal(params["sigma"])
    xs = Decimal(params.get("x_star", 1))
    ys = Decimal(params.get("y_star", 1))
    c1, c2, d1, d2, d3, d4, d5 = (g[name] for name in COEFFS)
    labels = {}
    with localcontext() as ctx:
        ctx.prec = digits
        for k in range(k_max + 1):
            lk, sk, pk = lam**k, sig**k, (lam * sig) ** k
            den = 1 - c1 * lk
            big_a, big_b = lk * xs / den, lk * c2 / den
            a_s, b_s = pk * xs / den, pk * c2 / den
            qa = sk * d5 + d3 * big_b * b_s + d4 * b_s
            qb = d1 * b_s + sk * d2 + 2 * d3 * big_a * b_s + d4 * a_s - 1
            qc = d1 * a_s + d3 * big_a * a_s - ys
            disc = qb * qb - 4 * qa * qc
            if disc < 0:
                continue
            root = disc.sqrt()
            for branch, u in (("minus", (-qb - root) / (2 * qa)), ("plus", (-qb + root) / (2 * qa))):
                x = big_a + big_b * u
                dr_c = d1 + 2 * d3 * x + d4 * u
                dr_d = d2 + d4 * x + 2 * d5 * u
                trace = lk * c1 + sk * dr_d
                det = pk * (c1 * dr_d - c2 * dr_c)
                labels[(k, branch)] = stability_label(trace, det)
    return labels
