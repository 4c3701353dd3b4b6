"""Shared fixtures and independent numerical oracles.

The oracles here (finite differences, direct truncated-map iteration,
eigenvalue classification, 80-digit SR_k values) deliberately avoid the
code paths they check.
"""
from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from srklab import EXAMPLE_CASES, MapParams, Point2, eval_map


@pytest.fixture(scope="session")
def pp() -> MapParams:
    return EXAMPLE_CASES["pp"]


@pytest.fixture(scope="session")
def nn() -> MapParams:
    return EXAMPLE_CASES["nn"]


@pytest.fixture(scope="session")
def pn() -> MapParams:
    return EXAMPLE_CASES["pn"]


@pytest.fixture(scope="session")
def np_case() -> MapParams:
    return EXAMPLE_CASES["np"]


@pytest.fixture(scope="session")
def all_cases() -> dict[str, MapParams]:
    return dict(EXAMPLE_CASES)


def fd_jacobian(params: MapParams, p: Point2, step: float = 1e-6) -> np.ndarray:
    """Central finite-difference Jacobian of the map at p."""
    out = np.empty((2, 2))
    for col, delta in enumerate(((step, 0.0), (0.0, step))):
        plus = eval_map(params, Point2(p.x + delta[0], p.y + delta[1]))
        minus = eval_map(params, Point2(p.x - delta[0], p.y - delta[1]))
        out[0, col] = (plus.x - minus.x) / (2.0 * step)
        out[1, col] = (plus.y - minus.y) / (2.0 * step)
    return out


def walk(params: MapParams, p: Point2, n: int, radius: float = 10.0) -> list[Point2]:
    """The orbit [p, f(p), ..., f^n(p)] by scalar ``eval_map``, cut short
    after the first point that is not within ``radius`` in the max norm."""
    pts = [p]
    while len(pts) <= n and max(abs(p.x), abs(p.y)) <= radius:
        p = eval_map(params, p)
        pts.append(p)
    return pts


def truncated_saddle_step(params: MapParams, p: Point2) -> Point2:
    """One step of the resonance-truncated near-saddle map (lam*sigma = 1)."""
    xy = p.x * p.y
    return Point2(
        params.lam * p.x * (1.0 + params.a1 * xy),
        p.y * (1.0 + params.b1 * xy) / params.lam,
    )


def eigen_classify(tau, delta, tol: float = 1e-9) -> str:
    """Classification oracle via the quadratic formula on (tau, delta):
    floats, or Decimals at the context's precision."""
    sqrt = Decimal.sqrt if isinstance(tau, Decimal) else math.sqrt
    one, tol = type(tau)(1), type(tau)(tol)
    disc = tau * tau - 4 * delta
    if disc >= 0:
        root = sqrt(disc)
        moduli = sorted((abs((tau - root) / 2), abs((tau + root) / 2)))
    else:
        m = sqrt(delta)
        moduli = [m, m]
    lo, hi = moduli
    if hi < one - tol:
        return "asymptotically-stable"
    if lo > one + tol:
        return "source"
    if disc > 0 and hi > one + tol and lo < one - tol:
        return "saddle"
    return "non-hyperbolic"


def exact_srk(params: MapParams, k_max: int, digits: int = 80) -> dict:
    """{(k, "minus" | "plus"): (trace, det, label)} of both single-round
    branches for every k = 0..k_max with real roots, in ``digits``-digit
    ``decimal`` arithmetic on the ``repr`` of each parameter.

    The above-strip point (x, y* + u) solves a u^2 + b u + c = 0 with
    x = A + B u, and the period Jacobian is diag(lam^k, sigma^k) DU1(x, u),
    as in ``perfbench/refmap.exact_srk_labels``, which gives labels only.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        p = {name: Decimal(repr(v)) for name, v in params.to_dict().items()}
        lam, sig, xs, ys = p["lambda"], p["sigma"], p["x_star"], p["y_star"]
        c1, c2 = p["c1"], p["c2"]
        d1, d2, d3, d4, d5 = (p[f"d{i}"] for i in range(1, 6))
        out = {}
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
            for branch, sign in (("minus", -1), ("plus", 1)):
                u = (-qb + sign * root) / (2 * qa)
                x = big_a + big_b * u
                dy = d2 + d4 * x + 2 * d5 * u
                trace = lk * c1 + sk * dy
                det = pk * (c1 * dy - c2 * (d1 + 2 * d3 * x + d4 * u))
                out[(k, branch)] = (trace, det, eigen_classify(trace, det))
    return out
