"""Shared fixtures and independent numerical oracles.

The oracles here (finite differences, direct truncated-map iteration,
eigenvalue classification) deliberately avoid the code paths they check.
"""
from __future__ import annotations

import math

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


def eigen_classify(tau: float, delta: float, tol: float = 1e-9) -> str:
    """Classification oracle via the quadratic formula on (tau, delta)."""
    disc = tau * tau - 4.0 * delta
    if disc >= 0.0:
        root = math.sqrt(disc)
        moduli = sorted((abs((tau - root) / 2.0), abs((tau + root) / 2.0)))
    else:
        m = math.sqrt(delta)
        moduli = [m, m]
    lo, hi = moduli
    if hi < 1.0 - tol:
        return "asymptotically-stable"
    if lo > 1.0 + tol:
        return "source"
    if disc > 0.0 and hi > 1.0 + tol and lo < 1.0 - tol:
        return "saddle"
    return "non-hyperbolic"
