"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest -s tests/test_acceptance.py`` to see them).

Two sub-criteria are strict expected failures because the map's exact
dynamics contradict the stated numbers; each has a passing companion test
asserting the observed behavior:

* criterion 2: single-round saddles do not exist for k = 5..9 (below the
  switching strip the map is exactly linear, so a valid single-round
  orbit must equal the closed form, whose tail leaves the lower region
  for k <= 12), and the k = 10..12 saddles cross the blend strip where
  the orbit determinant is far from 0.5;
* criterion 4 (broken global resonance): over k = 6..16 the minus-branch
  trace is exactly 1.495 - sqrt(1.495**2 + 0.04*sigma**k), whose fitted
  growth ratio is 1.2363 -- the sqrt|sigma| asymptotics only take over
  once 0.04*sigma**k dominates the constant term, i.e. for k >~ 18.
"""
from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from srklab import (
    Branch,
    EXAMPLE_CASES,
    Point2,
    Rect,
    StabilityClass,
    detect_tangencies,
    eval_map,
    jacobian,
    scan_srk,
    srk_quadratic,
    saddle_power,
    trace_unstable,
)
from srklab.basins import (
    AttractorRegistry,
    ClassifyLimits,
    basin_fractions,
    classify_point,
    raster,
)
from srklab.theory import full_report, trace_growth_experiment

from conftest import fd_jacobian, truncated_saddle_step

WINDOW = Rect(-0.5, 1.5, -0.5, 1.5)


@contextmanager
def criterion(number: str, description: str, runtime_limit: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number} [{description}]: FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < runtime_limit, (
        f"criterion {number} exceeded its runtime bound: "
        f"{elapsed:.2f}s >= {runtime_limit}s"
    )
    print(f"ACCEPTANCE {number} [{description}]: PASS ({elapsed:.2f}s)")


def test_criterion_1_stable_family_pp():
    params = EXAMPLE_CASES["pp"]
    with criterion("1", "16 coexisting stable single-round orbits", 1.0):
        result = scan_srk(params, 0, 15)
        stable = {o.k: o for o in result.stable_orbits()}
        assert sorted(stable) == list(range(16))
        for k, orbit in stable.items():
            assert abs(orbit.trace) <= 1e-10
            assert abs(orbit.det - 0.5) <= 1e-10
            # Closed form with u = 0: above-strip point (lam**k, 1), then
            # the return and saddle pieces.
            assert abs(orbit.points[0].x - 0.8**k) <= 1e-10
            assert abs(orbit.points[0].y - 1.0) <= 1e-10
            roots = srk_quadratic(params, k)
            assert abs(roots.u_minus) <= 1e-12


@pytest.mark.xfail(
    strict=True,
    reason=(
        "single-round saddles do not exist for k = 5..9 (the closed form is "
        "forced below the strip and its tail leaves the lower region), and "
        "the k = 10..12 saddles cross the blend strip with det != 0.5; see "
        "test_criterion_2_saddle_branch_observed for the true behavior"
    ),
)
def test_criterion_2_saddle_branch_as_stated():
    params = EXAMPLE_CASES["pp"]
    with criterion("2", "saddle branch k=5..15 as stated", 1.0):
        result = scan_srk(params, 5, 15)
        saddles = {}
        for k in range(5, 16):
            orbit = result.orbit(k, Branch.PLUS)
            assert orbit is not None, f"saddle missing at k={k}"
            saddles[k] = orbit
        for k, orbit in saddles.items():
            assert abs(orbit.det - 0.5) <= 1e-10, f"det off at k={k}"
        gaps = [abs(saddles[k].trace - 3.0) for k in range(5, 16)]
        assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert abs(saddles[15].trace - 3.0) <= 0.25


def test_criterion_2_saddle_branch_observed():
    params = EXAMPLE_CASES["pp"]
    with criterion("2*", "saddle branch, observed behavior", 1.0):
        result = scan_srk(params, 5, 15)
        found = {
            r.k: r
            for r in result.records
            if r.branch is Branch.PLUS and r.orbit is not None
        }
        # Saddles exist exactly for k = 10..15 in this range: Newton
        # orbits crossing the blend strip at 10..12, exact closed forms
        # at 13..15.
        assert sorted(found) == list(range(10, 16))
        for k in (10, 11, 12):
            assert found[k].status == "newton"
            assert found[k].orbit.stability is StabilityClass.SADDLE
        for k in (13, 14, 15):
            assert found[k].status == "closed-form"
            orbit = found[k].orbit
            assert abs(orbit.det - 0.5) <= 1e-10
            assert abs(orbit.trace - 3.0) <= 1e-10
        gaps = [abs(found[k].orbit.trace - 3.0) for k in sorted(found)]
        assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert abs(found[15].orbit.trace - 3.0) <= 0.25


def test_criterion_3_parity():
    with criterion("3", "parity of stable k in the reversing cases", 1.0):
        even = scan_srk(EXAMPLE_CASES["pn"], 0, 15)
        assert sorted(o.k for o in even.stable_orbits()) == [0, 2, 4, 6, 8, 10, 12, 14]
        odd = scan_srk(EXAMPLE_CASES["np"], 0, 15)
        assert sorted(o.k for o in odd.stable_orbits()) == [1, 3, 5, 7, 9, 11, 13, 15]


@pytest.mark.xfail(
    strict=True,
    reason=(
        "over k = 6..16 the exact minus-branch trace under d1 = 0.99 is "
        "1.495 - sqrt(1.495**2 + 0.04*sigma**k) with fitted ratio 1.2363, "
        "outside the 10% band around sqrt|sigma| = 1.118 (the asymptotic "
        "regime starts near k = 18); see the companion test below"
    ),
)
def test_criterion_4_growth_broken_resonance_as_stated():
    params = EXAMPLE_CASES["pp"].replace(d1=0.99)
    with criterion("4a", "trace growth ratio sqrt|sigma| at k=6..16", 5.0):
        diag = trace_growth_experiment(params, 6, 16)
        assert abs(diag.fitted_ratio / math.sqrt(1.25) - 1.0) <= 0.10


def test_criterion_4_growth_broken_resonance_asymptotic():
    params = EXAMPLE_CASES["pp"].replace(d1=0.99)
    with criterion("4a*", "trace growth, asymptotic window", 5.0):
        diag = trace_growth_experiment(params, 6, 16)
        assert diag.fitted_ratio == pytest.approx(1.2363, abs=2e-4)
        asym = trace_growth_experiment(params, 25, 40)
        assert abs(asym.fitted_ratio / math.sqrt(1.25) - 1.0) <= 0.10


def test_criterion_4_growth_injected_d2():
    params = EXAMPLE_CASES["pp"].replace(d2=0.05)
    with criterion("4b", "trace growth ratio |sigma| under d2 injection", 5.0):
        diag = trace_growth_experiment(params, 6, 16)
        assert abs(diag.fitted_ratio / 1.25 - 1.0) <= 0.10


def test_criterion_5_existence_cutoff():
    params = EXAMPLE_CASES["pp"].replace(d1=1.01)
    with criterion("5", "root existence cutoff at k=19 under d1=1.01", 1.0):
        for k in range(0, 19):
            roots = srk_quadratic(params, k)
            assert roots.u_minus is not None and roots.u_plus is not None
        for k in range(19, 30):
            roots = srk_quadratic(params, k)
            assert roots.u_minus is None and roots.u_plus is None


def test_criterion_6_theory_checker():
    with criterion("6", "hypothesis checker on all cases and violations", 1.0):
        for name in ("pp", "nn"):
            report = full_report(EXAMPLE_CASES[name])
            assert report.orientation == "preserving"
            assert report.parity == "all"
            assert report.hypotheses_pass()
            assert abs(report.discriminant.value - 2.25) <= 1e-12
        for name, parity in (("pn", "even"), ("np", "odd")):
            report = full_report(EXAMPLE_CASES[name])
            assert report.orientation == "reversing"
            assert report.parity == parity
            assert report.hypotheses_pass()
            assert abs(report.discriminant.value - 2.25) <= 1e-12

        # Margin inequality reduces to |c2| < 1 for the example family.
        pp = EXAMPLE_CASES["pp"]
        for c2 in np.linspace(-1.4, 0.99, 40):
            report = full_report(pp.replace(c2=float(c2)))
            assert report.stability_margin.passed == (abs(c2) < 1.0)

        # Single-parameter violations flag exactly their condition.
        expectations = {
            "eigenvalue_product": pp.replace(sigma=1.3),
            "global_resonance": pp.replace(d1=1.1),
            "quadratic_coefficient": pp.replace(d5=0.0),
            "stability_margin": pp.replace(c2=1.1),
        }
        for condition, params in expectations.items():
            report = full_report(params)
            assert report.failed_conditions() == [condition]


def test_criterion_7_tangency_recovery():
    clip = Rect(-1.0, 2.5, -1.5, 2.0)
    for name, params in EXAMPLE_CASES.items():
        with criterion("7", f"primary tangency at (1,0), case {name}", 30.0):
            curve = trace_unstable(params, 45, clip)
            hits = detect_tangencies(curve, 1e-3)
            near = [
                h
                for h in hits
                if h.contact == "tangential"
                and abs(h.location.x - 1.0) <= 1e-6
                and abs(h.location.y) <= 1e-6
            ]
            assert near, f"{name}: tangency at (1, 0) not recovered"


@pytest.mark.parametrize("name", ["pp", "nn", "pn", "np"])
def test_criterion_8_basin_properties(name, tmp_path):
    from srklab.basins import write_ppm

    params = EXAMPLE_CASES[name]
    with criterion("8", f"basin raster properties, case {name}", 120.0):
        result = scan_srk(params, 0, 15)
        registry = AttractorRegistry.from_orbits(params, result.orbits)
        grid = raster(params, registry, WINDOW, 200, 200)

        # Every registered attractor self-classifies at its own points.
        for entry in registry.entries:
            for j in range(entry.period):
                p = Point2(float(entry.points[j, 0]), float(entry.points[j, 1]))
                assert classify_point(params, registry, p) == entry.id

        # Intermingling witness: at least 3 attractor labels each hold
        # >= 0.1% of cells.
        fractions = basin_fractions(grid)
        big = [k for k, v in fractions.items() if k >= 0 and v >= 0.001]
        assert len(big) >= 3

        # Determinism: byte-identical output across runs
        # (full size for the fast case, reduced size for the slow ones;
        # the per-cell arithmetic is identical in either setting).
        if name == "pp":
            det_grids = [raster(params, registry, WINDOW, 200, 200) for _ in range(2)]
            det_grids.append(grid)
        else:
            limits = ClassifyLimits(max_iter=4000)
            det_grids = [
                raster(params, registry, WINDOW, 60, 60, limits) for _ in range(3)
            ]
        paths = []
        for i, g in enumerate(det_grids):
            path = tmp_path / f"{name}_{i}.ppm"
            write_ppm(g, registry, str(path))
            paths.append(path.read_bytes())
        assert paths[0] == paths[1] == paths[2]


def test_criterion_9_numerical_hygiene():
    with criterion("9", "Jacobians, smoothness, orbit bounds, truncation", 10.0):
        rng = np.random.default_rng(17)
        pp = EXAMPLE_CASES["pp"]

        # Analytic Jacobian vs central differences at 1000 random points.
        pts = rng.uniform(-2.0, 2.0, size=(1000, 2))
        for x, y in pts:
            p = Point2(float(x), float(y))
            jac = np.array(jacobian(pp, p)).reshape(2, 2)
            fd = fd_jacobian(pp, p)
            scale = max(1.0, np.abs(jac).max())
            assert np.abs(jac - fd).max() / scale < 1e-5

        # C0 at the switching lines: branch dispatch equals the blend
        # formula exactly at both thresholds.
        from srklab import blend_weight, eval_return, eval_saddle

        for x in rng.uniform(-2.0, 2.0, size=200):
            for y0 in (pp.h0, pp.h1):
                p = Point2(float(x), y0)
                branch = eval_map(pp, p)
                r = blend_weight(pp, y0)
                s, q = eval_saddle(pp, p), eval_return(pp, p)
                blended = Point2((1 - r) * s.x + r * q.x, (1 - r) * s.y + r * q.y)
                assert branch == blended

        # C1 across the thresholds via 3-point one-sided differences.
        h = 1e-6
        for y0 in (pp.h0, pp.h1):
            for x in (-1.0, 0.4, 1.3):
                cols = []
                for sign in (-1.0, 1.0):
                    col = []
                    for dx, dy in ((h, 0.0), (0.0, sign * h)):
                        f0 = eval_map(pp, Point2(x, y0))
                        f1 = eval_map(pp, Point2(x + dx, y0 + dy))
                        f2 = eval_map(pp, Point2(x + 2 * dx, y0 + 2 * dy))
                        scale = sign if dy else 1.0
                        col.append(
                            (
                                (-3 * f0.x + 4 * f1.x - f2.x) / (2 * h) * scale,
                                (-3 * f0.y + 4 * f1.y - f2.y) / (2 * h) * scale,
                            )
                        )
                    cols.append(np.array(col))
                assert np.abs(cols[0] - cols[1]).max() < 1e-5

        # Smallest |y| along every stable orbit respects the contraction
        # bound 2*y_star*|sigma|**(-k/2).
        for params in EXAMPLE_CASES.values():
            result = scan_srk(params, 0, 15)
            for orbit in result.stable_orbits():
                y_min = min(abs(p.y) for p in orbit.points)
                bound = 2.0 * params.y_star * abs(params.sigma) ** (-orbit.k / 2.0)
                assert y_min <= bound

        # Resonance-truncated power vs direct iteration, k*|xy| <= 0.1.
        for _ in range(300):
            k = int(rng.integers(1, 12))
            limit = 0.1 / k
            x = float(rng.uniform(0.01, math.sqrt(limit)))
            y = float(rng.uniform(0.01, limit / x))
            params = pp.replace(
                a1=float(rng.uniform(-0.5, 0.5)), b1=float(rng.uniform(-0.5, 0.5))
            )
            p = Point2(x, y)
            direct = p
            for _ in range(k):
                direct = truncated_saddle_step(params, direct)
            expanded = saddle_power(params, p, k)
            bound = 10.0 * (k * x * y) ** 2
            assert abs(expanded.x - direct.x) / abs(direct.x) <= bound
            assert abs(expanded.y - direct.y) / abs(direct.y) <= bound
