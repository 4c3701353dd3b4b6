from __future__ import annotations

import dataclasses
import importlib
import math
import re
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from srklab import (
    EXAMPLE_CASES,
    Branch,
    DegenerateCoefficientsError,
    EscapeError,
    ItineraryInvalidError,
    NoConvergenceError,
    NotMinimalError,
    OrbitPoints,
    Point2,
    Region,
    SingularJacobianError,
    StabilityClass,
    assemble_orbit,
    eval_map,
    newton_periodic,
    orbits_from_csv,
    orbits_to_csv,
    region_of,
    scan_srk,
    srk_quadratic,
)
from srklab.mapcore import eval_return, eval_saddle
from srklab.orbits import CLOSING_TOL, _point_above_strip, _walk
from srklab.stability import orbit_jacobian

from conftest import walk


def _itinerary(params, points):
    """Deviations of the points' regions from [upper, lower, ..., lower]."""
    regions = [region_of(params, p.y) for p in points]
    want = [Region.UPPER] + [Region.LOWER] * (len(points) - 1)
    return [(j, r) for j, (r, w) in enumerate(zip(regions, want)) if r is not w]


def reference_csv(orbits):
    """The orbit CSV formatted row by row, each value by its own ``repr``."""
    lines = ["k,period,branch,j,x_j,y_j,trace,det,stability,residual"]
    for orbit in orbits:
        branch = orbit.branch.value if orbit.branch is not None else ""
        for j, p in enumerate(orbit.points):
            lines.append(
                f"{orbit.k},{orbit.period},{branch},{j},{p.x!r},{p.y!r},"
                f"{orbit.trace!r},{orbit.det!r},{orbit.stability.value},"
                f"{orbit.residual!r}"
            )
    return "\n".join(lines) + "\n"


class TestQuadratic:
    def test_pp_roots_all_k(self, pp):
        # u_minus = 0 exactly; u_plus = 1.5 * lam**k (verified by
        # substitution into the map below).
        for k in range(0, 16):
            roots = srk_quadratic(pp, k)
            assert roots.u_minus == 0.0
            assert roots.u_plus == pytest.approx(1.5 * 0.8**k, rel=1e-12)

    def test_pp_k3_plus_root_value(self, pp):
        roots = srk_quadratic(pp, 3)
        assert roots.u_plus == pytest.approx(0.768, rel=1e-13)

    def test_plus_root_satisfies_piece_composition(self, pp):
        # Substitute the root into saddle^k(return(p)) and require closure.
        from srklab import eval_return, eval_saddle

        for k in (1, 4, 9, 15):
            u = srk_quadratic(pp, k).u_plus
            p_up = Point2(0.8**k * (1.0 + pp.c2 * u), 1.0 + u)
            q = eval_return(pp, p_up)
            for _ in range(k):
                q = eval_saddle(pp, q)
            assert q.x == pytest.approx(p_up.x, abs=1e-12)
            assert q.y == pytest.approx(p_up.y, abs=1e-12)

    def test_perturbed_d1_discriminant_cutoff(self, pp):
        # With d1 = 1.01 the discriminant changes sign once
        # sigma**k > 1.505**2/0.04 ~ 56.6, i.e. at k = 19.
        params = pp.replace(d1=1.01)
        for k in range(0, 19):
            roots = srk_quadratic(params, k)
            assert roots.u_minus is not None and roots.u_plus is not None
        for k in range(19, 26):
            roots = srk_quadratic(params, k)
            assert roots.u_minus is None and roots.u_plus is None

    def test_reversing_even_k(self, pn):
        roots = srk_quadratic(pn, 4)
        assert roots.u_minus == 0.0
        assert roots.u_plus == pytest.approx(1.5 / 1.25**4, rel=1e-12)

    def test_d5_zero_rejected(self, pp):
        from srklab import DegenerateCoefficientsError

        with pytest.raises(DegenerateCoefficientsError):
            srk_quadratic(pp.replace(d5=0.0), 3)


class TestAssembleOrbit:
    def test_k3_stable(self, pp):
        orbit = assemble_orbit(pp, 3, 0.0, Branch.MINUS)
        expected = [
            Point2(0.512, 1.0),
            Point2(1.0, 0.512),
            Point2(0.8, 0.64),
            Point2(0.64, 0.8),
        ]
        for got, want in zip(orbit.points, expected):
            assert got.x == pytest.approx(want.x, abs=1e-15)
            assert got.y == pytest.approx(want.y, abs=1e-15)
        assert orbit.residual <= 1e-15
        assert orbit.trace == pytest.approx(0.0, abs=1e-15)
        assert orbit.det == pytest.approx(0.5, rel=1e-14)
        assert orbit.stability is StabilityClass.ASYMPTOTICALLY_STABLE
        assert _itinerary(pp, orbit.points) == []

    def test_k0_fixed_point(self, pp):
        orbit = assemble_orbit(pp, 0, 0.0, Branch.MINUS)
        assert orbit.period == 1
        assert orbit.points[0] == Point2(1.0, 1.0)
        assert orbit.trace == 0.0
        assert orbit.det == 0.5
        assert orbit.stability is StabilityClass.ASYMPTOTICALLY_STABLE

    def test_k3_saddle_root_not_a_real_orbit(self, pp):
        # The plus root at k = 3 has intermediate points in the blend
        # strip and above it, so the closed form does not apply; the
        # would-be orbit built from the pure pieces classifies as a
        # saddle, which is what the scanner reports further out in k.
        u = srk_quadratic(pp, 3).u_plus
        assert u == pytest.approx(0.768, rel=1e-13)
        with pytest.raises(ItineraryInvalidError) as err:
            assemble_orbit(pp, 3, u, Branch.PLUS)
        regions = {region for _, region in err.value.violations}
        assert Region.UPPER in regions

        # Idealized piece composition (ignoring regions): upper point and
        # trace/det as the quadratic predicts.
        p_up = Point2(0.8**3 * (1.0 + pp.c2 * u), 1.0 + u)
        assert p_up.x == pytest.approx(0.315392, rel=1e-12)
        assert p_up.y == pytest.approx(1.768, rel=1e-13)

    def test_residuals_under_full_map(self, all_cases):
        for params in all_cases.values():
            result = scan_srk(params, 0, 15)
            for orbit in result.orbits:
                assert orbit.residual <= 1e-12


def walk_from(params, k, up):
    """The points of candidate (k, up) built one piece call at a time:
    ``up``, its return image, then k - 1 saddle images."""
    points = [up]
    if k > 0:
        points.append(eval_return(params, up))
        for _ in range(k - 1):
            points.append(eval_saddle(params, points[-1]))
    return points


def piecewise_walk(params, k, u):
    """The closed-form points built one piece call at a time."""
    return walk_from(params, k, _point_above_strip(params, k, u))


LOW_K, HIGH_K = range(0, 61), range(390, 401)
FUSED_WALK_SETS = {
    "pp": (EXAMPLE_CASES["pp"], [LOW_K, HIGH_K]),
    "nn": (EXAMPLE_CASES["nn"], [LOW_K, HIGH_K]),
    "pn": (EXAMPLE_CASES["pn"], [LOW_K, HIGH_K]),
    "np": (EXAMPLE_CASES["np"], [LOW_K, HIGH_K]),
    "pp-perturbed": (
        EXAMPLE_CASES["pp"].replace(c1=0.1, c2=-0.3, d3=0.05, d4=0.05),
        [LOW_K, HIGH_K],
    ),
}
FUSED_WALK_SETS_PARAMS = {name: params for name, (params, _) in FUSED_WALK_SETS.items()}


class TestFusedWalk:
    """The scan's batched walk checks the itinerary and forms the period
    Jacobian, and the kept orbits' points follow its products; each must
    equal the separate per-point computation bit for bit.  On nn
    (lam < 0, c1 = 0) the first Jacobian entry is a zero whose sign
    follows c, so the repr comparison pins signed zeros."""

    @pytest.mark.parametrize(
        "params, ranges", list(FUSED_WALK_SETS.values()), ids=list(FUSED_WALK_SETS)
    )
    def test_matches_per_point_walk(self, params, ranges):
        checked = {"closed-form": 0, "itinerary-invalid": 0}
        for ks in ranges:
            for record in scan_srk(params, ks.start, ks.stop - 1).records:
                if record.status not in checked:
                    continue
                checked[record.status] += 1
                u = srk_quadratic(params, record.k).get(record.branch)
                points = piecewise_walk(params, record.k, u)
                violations = _itinerary(params, points)
                if record.status == "itinerary-invalid":
                    assert record.detail == str(ItineraryInvalidError(violations))
                    continue
                orbit = record.orbit
                assert orbit.points == tuple(points)
                assert violations == []
                jac = orbit_jacobian(params, orbit.points)
                assert (repr(orbit.trace), repr(orbit.det)) == (repr(jac.trace), repr(jac.det))
        assert checked["closed-form"] > 0

    @pytest.mark.parametrize(
        "params", list(FUSED_WALK_SETS_PARAMS.values()), ids=list(FUSED_WALK_SETS_PARAMS)
    )
    def test_itinerary_verdicts_match_per_point_walk(self, params):
        # The walk checks every recorded point; every record of k <= 400
        # must follow the per-point region test.
        seen = set()
        for record in scan_srk(params, 0, 400).records:
            if record.status == "no-real-root":
                continue
            u = srk_quadratic(params, record.k).get(record.branch)
            violations = _itinerary(params, piecewise_walk(params, record.k, u))
            seen.add(record.status)
            if record.status == "itinerary-invalid":
                assert record.detail == str(ItineraryInvalidError(violations))
            elif record.status in ("newton", "newton-failed") or record.detail.startswith("newton"):
                assert violations and all(r is Region.BLEND for _, r in violations)
                if record.status == "newton":
                    assert record.detail == str(ItineraryInvalidError(violations))
            else:
                assert violations == [], (record.k, record.branch, record.status)
        assert {"closed-form", "precision-limited"} <= seen


def _edge_candidates():
    """Hand-made candidates at the itinerary's boundaries, as name ->
    (params, k, up, violated steps).  For pp and pn at y = y_star the
    return image's height is x exactly, and the heights after it are x
    times powers of sigma."""
    pp, pn = EXAMPLE_CASES["pp"], EXAMPLE_CASES["pn"]
    h0, h1 = pp.h0, pp.h1
    on_h0 = h0 / pp.sigma**2  # (x*sigma)*sigma rounds to h0 exactly
    return {
        "up at h1": (pp, 3, Point2(0.512, h1), []),
        "up one ulp below h1": (pp, 3, Point2(0.512, math.nextafter(h1, 0.0)), [0]),
        "up NaN": (pp, 2, Point2(0.5, math.nan), [0, 1, 2]),
        "step k at h0": (pp, 3, Point2(on_h0, 1.0), []),
        "step k one ulp above h0": (pp, 3, Point2(math.nextafter(on_h0, 1.0), 1.0), [3]),
        "k = 0 fixed point": (pp, 0, Point2(1.0, 1.0), []),
        "k = 0 below h1": (pp, 0, Point2(1.0, 0.9), [0]),
        "k = 1 orbit": (pp, 1, Point2(0.8, 1.0), []),
        "k = 1 one ulp above h0": (pp, 1, Point2(math.nextafter(h0, 1.0), 1.0), [1]),
        # sigma < 0: step k - 1 is the highest positive height, and step
        # k lies far below the strip.
        "pn step k - 1 only": (pn, 4, Point2(0.57, 1.0), [3]),
    }


EDGE_CANDIDATES = _edge_candidates()


class TestWalkItineraryEdges:
    """``_walk`` checks the itinerary on every recorded point.  At the
    region boundaries its violations, points and closing residual must
    equal the one-point walk's, whether a candidate is walked alone or
    in a batch with longer and shorter ones."""

    @staticmethod
    def _assert_matches_one_point_walk(params, walks, row, k, up):
        points = walk_from(params, k, up)
        assert walks.violations.get(row, []) == _itinerary(params, points)
        got = walks.points(row)
        assert list(map(repr, got.xs)) == [repr(p.x) for p in points]
        assert list(map(repr, got.ys)) == [repr(p.y) for p in points]
        closing = eval_map(params, points[-1])
        residual = max(abs(closing.x - up.x), abs(closing.y - up.y))
        assert repr(walks.residual(params, row)) == repr(residual)

    @pytest.mark.parametrize(
        "params, k, up, steps",
        list(EDGE_CANDIDATES.values()),
        ids=list(EDGE_CANDIDATES),
    )
    def test_single_candidate(self, params, k, up, steps):
        walks = _walk(params, [k], [up])
        assert [j for j, _ in walks.violations.get(0, [])] == steps
        self._assert_matches_one_point_walk(params, walks, 0, k, up)

    def test_boundary_heights_are_exact(self):
        pp = EXAMPLE_CASES["pp"]
        on_h0 = walk_from(pp, 3, EDGE_CANDIDATES["step k at h0"][2])[-1].y
        above = walk_from(pp, 3, EDGE_CANDIDATES["step k one ulp above h0"][2])[-1].y
        assert on_h0 == pp.h0 and above == math.nextafter(pp.h0, 1.0)

    @pytest.mark.parametrize("name", ["pp", "pn"])
    def test_batch_equals_single_walks(self, name):
        params = EXAMPLE_CASES[name]
        cases = sorted(
            [(k, up) for p, k, up, _ in EDGE_CANDIDATES.values() if p is params],
            key=lambda case: -case[0],
        )
        # A longer candidate keeps every row of the record live past the
        # hand-made ones' k.
        cases.insert(0, (8, _point_above_strip(params, 8, srk_quadratic(params, 8).u_minus)))
        walks = _walk(params, [k for k, _ in cases], [up for _, up in cases])
        for row, (k, up) in enumerate(cases):
            self._assert_matches_one_point_walk(params, walks, row, k, up)


def _bits(values):
    return np.array(values, dtype=float).tobytes()


class TestBatchInvariance:
    """An orbit does not depend on the batch it was walked in."""

    @pytest.mark.parametrize(
        "params", list(FUSED_WALK_SETS_PARAMS.values()), ids=list(FUSED_WALK_SETS_PARAMS)
    )
    def test_scan_orbits_equal_single_walks(self, params):
        checked = 0
        for record in scan_srk(params, 0, 400).records:
            if record.status != "closed-form":
                continue
            orbit = record.orbit
            u = srk_quadratic(params, record.k).get(record.branch)
            alone = assemble_orbit(params, record.k, u, record.branch)
            assert _bits(orbit.points.xs) == _bits(alone.points.xs), record.k
            assert _bits(orbit.points.ys) == _bits(alone.points.ys), record.k
            got = (repr(orbit.trace), repr(orbit.det), repr(orbit.residual))
            assert got == (repr(alone.trace), repr(alone.det), repr(alone.residual))
            assert (orbit.stability, orbit.branch) == (alone.stability, alone.branch)
            checked += 1
        assert checked > 0

    def test_split_range_gives_the_same_records(self, pp):
        whole = scan_srk(pp, 0, 40).records
        split = scan_srk(pp, 0, 19).records + scan_srk(pp, 20, 40).records
        assert [(r.k, r.branch, r.status, r.detail) for r in whole] == [
            (r.k, r.branch, r.status, r.detail) for r in split
        ]
        assert [r.orbit for r in whole] == [r.orbit for r in split]
        assert {r.status for r in whole} >= {"closed-form", "newton", "itinerary-invalid"}


class TestOrbitPoints:
    """``SRkOrbit.points`` holds two coordinate columns and reads as a
    tuple of ``Point2``: the benchmark's checks rebuild orbits with
    ``dataclasses.replace`` and read points by attribute."""

    @pytest.fixture
    def orbit(self, pp):
        return scan_srk(pp, 6, 6).records[0].orbit

    def test_reads_as_a_tuple_of_points(self, orbit):
        assert orbit.points == tuple(orbit.points)
        assert tuple(orbit.points) == orbit.points
        assert len({orbit.points, tuple(orbit.points)}) == 1
        assert orbit.points[0].x == orbit.points.xs[0]
        assert orbit.points[-1] == Point2(orbit.points.xs[-1], orbit.points.ys[-1])
        assert orbit.points[1:3] == (orbit.points[1], orbit.points[2])
        xs, ys = orbit.points.xs, orbit.points.ys
        assert list(orbit.points) == [Point2(x, y) for x, y in zip(xs, ys)]
        assert orbit.points.array().tolist() == [[x, y] for x, y in zip(xs, ys)]

    def test_replace_with_a_moved_point_rebuilds_the_columns(self, orbit):
        p0 = orbit.points[0]
        moved = dataclasses.replace(
            orbit, points=(Point2(p0.x + 1e-6, p0.y),) + orbit.points[1:]
        )
        assert moved.points.xs == (p0.x + 1e-6,) + orbit.points.xs[1:]
        assert moved.points.ys == orbit.points.ys
        assert moved.points != orbit.points
        rows = orbits_to_csv([moved]).splitlines()
        assert rows[1].split(",")[4] == repr(p0.x + 1e-6)
        assert rows[2:] == orbits_to_csv([orbit]).splitlines()[2:]


class TestNewton:
    def test_recovers_closed_form_from_noisy_seed(self, pp):
        target = assemble_orbit(pp, 3, 0.0, Branch.MINUS)
        seed = Point2(0.512 + 1e-3, 1.0 - 1e-3)
        orbit = newton_periodic(pp, seed, 4)
        assert orbit.residual <= 1e-12
        dists = [
            max(abs(a.x - b.x), abs(a.y - b.y))
            for a, b in zip(orbit.points, target.points)
        ]
        assert max(dists) <= 1e-10

    def test_fixed_point_immediate(self, pp):
        orbit = newton_periodic(pp, Point2(1.0, 1.0), 1)
        assert orbit.points[0] == Point2(1.0, 1.0)
        assert orbit.residual == 0.0

    def test_no_period2_far_away(self, pp):
        # No period-2 orbit exists near (5, 5); the iteration either
        # diverges or slides onto a fixed point, which the minimality
        # check refuses to report as period 2.
        with pytest.raises(
            (NoConvergenceError, SingularJacobianError, EscapeError, NotMinimalError)
        ):
            newton_periodic(pp, Point2(5.0, 5.0), 2)

    def test_singular_jacobian_reports_iterate(self, pp):
        # With c2 = 0, at (x, 1.5) above the strip D(f - id) = [[-1, 0], [d1, 0]].
        seed = Point2(0.3, 1.5)
        with pytest.raises(SingularJacobianError) as err:
            newton_periodic(pp.replace(c2=0.0), seed, 1)
        assert err.value.at_iterate == seed

    def test_nonminimal_period_rejected(self, pp):
        with pytest.raises(NotMinimalError):
            newton_periodic(pp, Point2(1.0 + 1e-4, 1.0 - 1e-4), 4)

    def test_agreement_with_closed_form_all_cases(self, all_cases):
        rng = np.random.default_rng(23)
        for params in all_cases.values():
            result = scan_srk(params, 0, 12)
            for record in result.records:
                orbit = record.orbit
                if orbit is None or record.status != "closed-form":
                    continue
                angle = rng.uniform(0.0, 2.0 * math.pi)
                seed = Point2(
                    orbit.points[0].x + 1e-3 * math.cos(angle),
                    orbit.points[0].y + 1e-3 * math.sin(angle),
                )
                refound = newton_periodic(params, seed, orbit.period)
                dists = [
                    max(abs(a.x - b.x), abs(a.y - b.y))
                    for a, b in zip(refound.points, orbit.points)
                ]
                assert max(dists) <= 1e-10


class TestSingleWalk:
    """Each orbit's points come from one walk; the residual and the
    minimality test reuse them instead of mapping the orbit again."""

    @pytest.fixture
    def eval_map_calls(self, monkeypatch):
        import srklab.orbits as orbits

        calls = []

        def counting(params, p):
            calls.append(p)
            return eval_map(params, p)

        monkeypatch.setattr(orbits, "eval_map", counting)
        return calls

    def test_newton_maps_the_converged_orbit_once(self, pp, eval_map_calls):
        orbit = newton_periodic(pp, Point2(0.512, 1.0), 4)
        assert orbit.residual <= 1e-12
        assert len(eval_map_calls) == orbit.period == 4

    def test_newton_takes_every_step_through_eval_map(self, all_cases, eval_map_calls):
        # From an exact SR_k point, below the strip too: k of each walk's
        # k + 1 steps lie there.
        for params in all_cases.values():
            found = [o for o in scan_srk(params, 0, 30).orbits if o.method == "closed-form"]
            assert len(found) >= 10
            for orbit in found:
                eval_map_calls.clear()
                newton_periodic(params, orbit.points[0], orbit.period)
                assert eval_map_calls and len(eval_map_calls) % orbit.period == 0

    def test_closed_form_takes_no_per_point_product(self, pp, monkeypatch):
        import srklab.orbits as orbits

        def refuse(params, points):
            raise AssertionError("closed form must not call orbit_jacobian")

        monkeypatch.setattr(orbits, "orbit_jacobian", refuse)
        orbit = assemble_orbit(pp, 6, srk_quadratic(pp, 6).u_minus)
        jac = orbit_jacobian(pp, orbit.points)
        assert (orbit.trace, orbit.det) == (jac.trace, jac.det)

    def test_closed_form_makes_one_map_call(self, pp, eval_map_calls):
        orbit = assemble_orbit(pp, 6, srk_quadratic(pp, 6).u_minus)
        assert len(eval_map_calls) == 1
        assert eval_map_calls == [orbit.points[-1]]
        walked = walk(pp, orbit.points[0], orbit.period)
        assert tuple(walked[:-1]) == orbit.points
        assert orbit.residual == max(
            abs(walked[-1].x - walked[0].x), abs(walked[-1].y - walked[0].y)
        )


class TestScan:
    def test_pp_stable_family_complete(self, pp):
        result = scan_srk(pp, 0, 15)
        stable = result.stable_orbits()
        assert sorted(o.k for o in stable) == list(range(16))
        for orbit in stable:
            assert orbit.branch is Branch.MINUS
            assert _itinerary(pp, orbit.points) == []

    def test_pp_saddle_landscape(self, pp):
        # Closed-form saddles require the whole tail below the strip,
        # which holds only for k = 0 and k >= 13; at k = 10..12 the seed
        # strays into the blend strip only, and Newton refines it to a
        # genuine orbit whose last point is in the strip.  For k = 1..9
        # the closed-form tail has points above the strip: no
        # single-round saddle exists there (below the strip the map is
        # exactly linear, so any single-round orbit must be the closed
        # form).
        result = scan_srk(pp, 0, 15)
        by_status = {}
        for r in result.records:
            if r.branch is Branch.PLUS:
                by_status.setdefault(r.status, []).append(r.k)
        assert by_status["closed-form"] == [0, 13, 14, 15]
        assert by_status["newton"] == [10, 11, 12]
        assert by_status["itinerary-invalid"] == list(range(1, 10))
        for r in result.records:
            if r.branch is Branch.PLUS and r.status == "newton":
                assert r.orbit.stability is StabilityClass.SADDLE
                assert region_of(pp, r.orbit.points[-1].y) is Region.BLEND

    def test_parity_reversing_even(self, pn):
        result = scan_srk(pn, 0, 15)
        stable_k = sorted(o.k for o in result.stable_orbits())
        assert stable_k == [0, 2, 4, 6, 8, 10, 12, 14]

    def test_parity_reversing_odd(self, np_case):
        result = scan_srk(np_case, 0, 15)
        stable_k = sorted(o.k for o in result.stable_orbits())
        assert stable_k == [1, 3, 5, 7, 9, 11, 13, 15]

    def test_very_large_k_recorded_not_raised(self, pp):
        # Near k = 3175 the Newton seed's orbit escapes; from k = 3181
        # sigma**k overflows the double range.
        result = scan_srk(pp, 3170, 3190)
        by_status = {}
        for r in result.records:
            by_status.setdefault(r.status, set()).add(r.k)
        assert 3175 in by_status["newton-failed"]
        assert set(range(3181, 3191)) <= by_status["precision-limited"]
        assert all(r.detail for r in result.records if r.status == "precision-limited")
        # Below the overflow only the plus branch is flagged: it rounds onto
        # the minus orbit's points.
        for r in result.records:
            if r.status == "precision-limited" and r.k < 3181:
                assert r.branch is Branch.PLUS and "same points" in r.detail

    def test_degenerate_coefficients_recorded_not_raised(self, pp):
        # d5 = 0 leaves no quadratic at any k; c1 = 1 zeroes 1 - c1*lam**k
        # at k = 0 only.
        result = scan_srk(pp.replace(d5=0.0), 0, 5)
        assert {r.status for r in result.records} == {"degenerate"}
        assert all("d5" in r.detail for r in result.records)
        assert result.orbits == []
        result = scan_srk(pp.replace(c1=1.0), 0, 5)
        degenerate = [r for r in result.records if r.status == "degenerate"]
        assert [(r.k, r.branch) for r in degenerate] == [(0, Branch.MINUS), (0, Branch.PLUS)]
        assert all("c1*lam**k" in r.detail for r in degenerate)
        assert {r.k for r in result.records} == set(range(6))
        # The quadratic's leading coefficient d5 + d4*c2 vanishes at k = 0.
        qa_zero = pp.replace(c2=0.5, d4=0.2, d5=-0.1)
        with pytest.raises(DegenerateCoefficientsError):
            srk_quadratic(qa_zero, 0)
        result = scan_srk(qa_zero, 0, 5)
        degenerate = [r for r in result.records if r.status == "degenerate"]
        assert [(r.k, r.branch) for r in degenerate] == [(0, Branch.MINUS), (0, Branch.PLUS)]
        assert all("vanishing leading coefficient" in r.detail for r in degenerate)
        assert len(result.stable_orbits()) == 5

    def test_preserving_negative_eigenvalues(self, nn):
        result = scan_srk(nn, 0, 15)
        stable_k = sorted(o.k for o in result.stable_orbits())
        assert stable_k == list(range(16))

    def test_stable_orbits_attract_saddles_repel(self, pp):
        rng = np.random.default_rng(5)
        result = scan_srk(pp, 0, 15)
        for record in result.records:
            orbit = record.orbit
            if orbit is None:
                continue
            angle = float(rng.uniform(0.0, 2.0 * math.pi))
            start = Point2(
                orbit.points[0].x + 1e-8 * math.cos(angle),
                orbit.points[0].y + 1e-8 * math.sin(angle),
            )
            n_steps = orbit.period * 200

            def min_dist(p: Point2) -> float:
                return min(
                    max(abs(p.x - q.x), abs(p.y - q.y)) for q in orbit.points
                )

            # A walk cut short by escape ends more than 8 away from the orbit.
            pts = walk(pp, start, n_steps)
            if orbit.stability is StabilityClass.ASYMPTOTICALLY_STABLE:
                assert min_dist(pts[-1]) <= 1e-6
            else:
                assert max(min_dist(p) for p in pts) > 1e-3

    def test_contraction_bound_smallest_y(self, all_cases):
        # Along each stable orbit the smallest |y| is exactly |sigma|**-k,
        # well inside the guaranteed bound 2*y_star*|sigma|**(-k/2).
        for params in all_cases.values():
            result = scan_srk(params, 0, 15)
            for orbit in result.stable_orbits():
                y_min = min(abs(p.y) for p in orbit.points)
                k = orbit.k
                assert y_min <= 2.0 * params.y_star * abs(params.sigma) ** (-k / 2.0)
                assert y_min == pytest.approx(abs(params.sigma) ** (-k), rel=1e-12)

    def test_contraction_bound_whole_orbit(self, all_cases):
        # |x_j| <= w*|lam|**j and |y_j| <= w*|sigma|**(j-k) with
        # w = 2*max(x_star, y_star), indexing the k near-saddle points as
        # j = 0..k-1 and the above-strip point as j = k.
        for params in all_cases.values():
            w = 2.0 * max(params.x_star, params.y_star)
            result = scan_srk(params, 0, 15)
            for orbit in result.stable_orbits():
                k = orbit.k
                reordered = list(orbit.points[1:]) + [orbit.points[0]]
                for j, p in enumerate(reordered):
                    assert abs(p.x) <= w * abs(params.lam) ** j + 1e-12
                    assert abs(p.y) <= w * abs(params.sigma) ** (j - k) + 1e-12


LARGE_K_SETS = {
    **EXAMPLE_CASES,
    "pp-perturbed": EXAMPLE_CASES["pp"].replace(c1=0.1, c2=-0.3, d3=0.05, d4=0.05),
}


@pytest.fixture
def refmap(monkeypatch):
    """The benchmark's 80-digit reference, imported read-only."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    return importlib.import_module("refmap")


class TestLargeK:
    """Past k ~ 120 doubles cannot carry every closed-form orbit: the scan
    must flag those, never accept or label them."""

    @pytest.mark.parametrize("name", sorted(LARGE_K_SETS))
    def test_accepted_orbits_close_are_distinct_and_labelled_right(self, name, refmap):
        params = LARGE_K_SETS[name]
        result = scan_srk(params, 0, 400)
        exact = refmap.exact_srk_labels(
            {key: Decimal(repr(v)) for key, v in params.to_dict().items()}, 400
        )
        assert all(o.residual <= CLOSING_TOL for o in result.orbits)
        keys = [(o.k, o.points) for o in result.orbits]
        assert len(set(keys)) == len(keys)
        for o in result.orbits:
            if o.method == "closed-form":
                assert o.stability.value == exact[(o.k, o.branch.value)], (o.k, o.branch)
        assert any(r.status == "precision-limited" for r in result.records)

    def test_non_closing_orbits_flagged(self, np_case):
        records = scan_srk(np_case, 100, 400).records
        flagged = [r for r in records if "closing residual" in r.detail]
        assert flagged and all(r.status == "precision-limited" for r in flagged)

    def test_exact_double_root_is_a_duplicate(self, pp):
        # At k = 0, d1 = 1 and c2 + d2 = 1 zero both qc and qb: u = 0 twice.
        result = scan_srk(pp.replace(c2=0.5, d2=0.5), 0, 0)
        minus, plus = result.records
        assert minus.status == "closed-form"
        assert (plus.status, plus.detail) == ("duplicate", "double root")


class TestOrbitCsv:
    def test_round_trip(self, pp):
        result = scan_srk(pp, 0, 6)
        text = orbits_to_csv(result.orbits)
        parsed = orbits_from_csv(text)
        assert len(parsed) == len(result.orbits)
        by_key = {(o.k, o.branch): o for o in parsed}
        for orbit in result.orbits:
            entry = by_key[(orbit.k, orbit.branch)]
            assert entry.period == orbit.period
            assert entry.trace == orbit.trace
            assert entry.det == orbit.det
            assert entry.stability is orbit.stability
            for got, want in zip(entry.points, orbit.points):
                assert got.x == want.x and got.y == want.y

    def test_matches_per_row_formatting(self, pp):
        scanned = scan_srk(pp, 0, 60).orbits
        assert sum(o.method == "newton" for o in scanned) == 3
        bare = newton_periodic(pp, Point2(0.512, 1.0), 4)
        assert bare.branch is None
        orbits = [*scanned, bare]
        assert orbits_to_csv(orbits) == reference_csv(orbits)
        assert orbits_to_csv([]) == reference_csv([])

    @pytest.mark.parametrize("case", ["pp", "np_case"])
    def test_matches_per_row_formatting_large_k(self, case, request):
        # Out to k = 400 most coordinates repeat across orbits.
        orbits = scan_srk(request.getfixturevalue(case), 0, 400).orbits
        xs = [x for o in orbits for x in o.points.xs]
        assert len(set(xs)) < len(xs) / 2
        assert orbits_to_csv(orbits) == reference_csv(orbits)

    @pytest.mark.parametrize(
        "columns",
        [
            ((0.0, -0.0), (-0.0, 0.0)),
            ((-0.0, 0.0, -0.0), (0.0, 0.0, -0.0)),
            ((math.nan, math.inf, -math.inf), (-math.inf, math.nan, math.nan)),
            ((np.float64(0.5), 0.5), (0.5, np.float64(0.5))),
            ((0.5, np.float64(0.5), 0.5), (np.float64(-0.0), -0.0, 1)),
        ],
    )
    def test_repeated_values_format_by_type_and_sign(self, pp, columns):
        base = scan_srk(pp, 1, 1).orbits[0]
        orbit = dataclasses.replace(base, points=OrbitPoints(*columns))
        # The pair's second orbit repeats the first one's values with
        # every zero's sign flipped and each column reversed.
        flipped = tuple(
            tuple(-v if v == 0 else v for v in reversed(col)) for col in columns
        )
        odd = dataclasses.replace(
            base, points=OrbitPoints(*flipped), residual=math.nan, trace=math.inf, det=-0.0
        )
        for orbits in ([orbit], [orbit, odd], [odd, orbit]):
            assert orbits_to_csv(orbits) == reference_csv(orbits)

    def test_orbits_sharing_k_and_branch_stay_apart(self, pp):
        orbit = dataclasses.replace(scan_srk(pp, 8, 8).orbit(8, Branch.MINUS), branch=None)
        parsed = orbits_from_csv(orbits_to_csv([orbit, orbit]))
        assert len(parsed) == 2
        for entry in parsed:
            assert (entry.k, entry.period, entry.branch) == (8, 9, None)
            assert tuple(entry.points) == orbit.points

    @pytest.mark.parametrize(
        "edit",
        [
            lambda rows: rows[:1] + rows[2:],  # starts at j = 1
            lambda rows: rows[:3] + rows[4:],  # skips a point
            lambda rows: rows[:-1],  # last orbit cut short
            lambda rows: rows[:2] + rows[2:3] + rows[2:],  # repeats a point
            lambda rows: rows[:2] + [rows[2].replace(",2,", ",3,", 1)] + rows[3:],  # period
            lambda rows: rows[:2] + [rows[2].replace(",minus,", ",plus,", 1)] + rows[3:],
        ],
        ids=["no-start", "gap", "short", "repeat", "period", "branch"],
    )
    def test_rows_out_of_sequence_rejected(self, pp, edit):
        rows = orbits_to_csv(scan_srk(pp, 1, 2).orbits).splitlines()
        head = [row.split(",")[:4] for row in rows[1:3]]
        assert head == [["1", "2", "minus", "0"], ["1", "2", "minus", "1"]]
        with pytest.raises(ValueError):
            orbits_from_csv("\n".join(edit(rows)) + "\n")

    def test_numpy_and_int_coordinates_write_as_floats(self, pp):
        base = scan_srk(pp, 2, 2).orbits[0]
        xs = tuple(np.array(base.points.xs))  # np.float64 values
        ys = base.points.ys[:-1] + (1,)
        orbit = dataclasses.replace(base, points=OrbitPoints(xs, ys))
        moved = dataclasses.replace(base, points=(Point2(np.float64(0.5), 2), *base.points[1:]))
        for o in (orbit, moved):
            assert {type(v) for v in o.points.xs + o.points.ys} == {float}
        text = orbits_to_csv([orbit, moved])
        assert "np." not in text and text == reference_csv([orbit, moved])
        parsed = orbits_from_csv(text)
        assert list(parsed[0].points) == list(zip(base.points.xs, ys))
        assert parsed[1].points[0] == (0.5, 2.0)

    def test_numpy_trace_det_and_residual_write_as_floats(self, pp):
        base = scan_srk(pp, 2, 2).orbits[0]
        orbit = dataclasses.replace(
            base, trace=np.float64(0.0), det=np.float32(0.5), residual=np.float64(-0.0)
        )
        assert {type(v) for v in (orbit.trace, orbit.det, orbit.residual)} == {float}
        text = orbits_to_csv([orbit])
        assert "np." not in text and text == reference_csv([orbit])
        (entry,) = orbits_from_csv(text)
        assert (entry.trace, entry.det) == (0.0, 0.5)
        assert math.copysign(1.0, entry.residual) == -1.0

    def test_header_enforced(self):
        with pytest.raises(ValueError):
            orbits_from_csv("a,b,c\n1,2,3\n")

    def test_reads_back_the_orbits_it_wrote(self, pp):
        # The reprs hold every bit: signed zeros and NaNs count.
        scanned = scan_srk(pp, 0, 60).orbits
        assert sum(o.method == "newton" for o in scanned) == 3
        bare = newton_periodic(pp, Point2(0.512, 1.0), 4)
        assert bare.branch is None
        orbits = [*scanned, bare]
        parsed = orbits_from_csv(orbits_to_csv(orbits))
        assert {o.method for o in parsed} == {"csv"}
        assert repr(parsed) == repr([dataclasses.replace(o, method="csv") for o in orbits])

    @pytest.mark.parametrize(
        "column, value, message",
        [
            (2, "middle", "orbit k=1 branch 'middle': branch is not '', 'minus' or 'plus'"),
            (8, "stable", "orbit k=1 branch 'minus' has unknown stability 'stable'"),
            (1, "3", "orbit k=1 branch 'minus' has period 3, not k + 1"),
        ],
        ids=["branch", "stability", "period"],
    )
    def test_unknown_branch_stability_or_period_rejected(self, pp, column, value, message):
        rows = orbits_to_csv(scan_srk(pp, 1, 1).orbits).splitlines()
        edited = [rows[0]]
        for row in rows[1:]:
            fields = row.split(",")
            if fields[2] == "minus":
                fields[column] = value
            edited.append(",".join(fields))
        if column == 1:  # a period-3 orbit needs a third point
            edited.insert(3, edited[2].replace(",minus,1,", ",minus,2,", 1))
        with pytest.raises(ValueError, match=re.escape(message)):
            orbits_from_csv("\n".join(edited) + "\n")
