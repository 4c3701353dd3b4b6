from __future__ import annotations

import json
import math

import numpy as np
import pytest

from srklab import (
    DegenerateCoefficientsError,
    ManifoldCurve,
    Point2,
    Rect,
    Region,
    detect_tangencies,
    eval_map,
    eval_return,
    eval_saddle,
    invert_return,
    invert_saddle,
    region_of,
    trace_stable,
    trace_unstable,
)
from srklab.cli import EXIT_CONFIG, EXIT_OK, main
from srklab.manifolds import (
    DEFAULT_MAX_GAP,
    RefinementStats,
    _blend_newton,
    _blend_preimages,
    _reiterate,
    curves_to_csv,
)

CLIP = Rect(-1.0, 2.5, -1.5, 2.0)


def _one_row(p) -> Point2:
    """``p`` as a Point2 of one-element arrays, the blend Newton's input."""
    return Point2(np.array([float(p[0])]), np.array([float(p[1])]))


def invert_blend(params, q, guesses):
    """The preimage of q inside the blend strip from the first guess that
    reaches one (``_blend_preimages`` on one row), or None."""
    out = _blend_preimages(params, _one_row(q), [_one_row(g) for g in guesses])[0]
    return None if np.isnan(out).any() else Point2(float(out[0]), float(out[1]))


def synthetic_curve(points: np.ndarray) -> ManifoldCurve:
    return ManifoldCurve(
        points=points,
        refinement=RefinementStats(),
        joined=np.ones(max(0, points.shape[0] - 1), dtype=bool),
    )


def assert_array_path_matches_scalar(invert, params, rng):
    """``invert`` on a Point2 of 1,000-element arrays equals the per-point calls bit for bit."""
    xs, ys = rng.uniform(-2.0, 2.0, size=(2, 1000))
    ax, ay = invert(params, Point2(xs, ys))
    scalar = [invert(params, Point2(float(x), float(y))) for x, y in zip(xs, ys)]
    assert ax.tolist() == [q.x for q in scalar]
    assert ay.tolist() == [q.y for q in scalar]


class TestInverses:
    def test_saddle_inverse_example(self, pp):
        assert invert_saddle(pp, Point2(0.8, 0.0)) == Point2(1.0, 0.0)

    def test_saddle_inverse_origin(self, pp):
        assert invert_saddle(pp, Point2(0.0, 0.0)) == Point2(0.0, 0.0)

    def test_saddle_round_trip(self, all_cases):
        rng = np.random.default_rng(2)
        for params in all_cases.values():
            for x, y in rng.uniform(-3.0, 3.0, size=(100, 2)):
                p = Point2(float(x), float(y))
                back = invert_saddle(params, eval_saddle(params, p))
                assert abs(back.x - p.x) <= 1e-12 and abs(back.y - p.y) <= 1e-12
                fwd = eval_saddle(params, invert_saddle(params, p))
                assert abs(fwd.x - p.x) <= 1e-12 and abs(fwd.y - p.y) <= 1e-12
            assert_array_path_matches_scalar(invert_saddle, params, rng)

    def test_return_inverse_homoclinic_step(self, pp):
        assert invert_return(pp, Point2(1.0, 0.0)) == Point2(0.0, 1.0)

    def test_return_inverse_fixed_point(self, pp):
        assert invert_return(pp, Point2(1.0, 1.0)) == Point2(1.0, 1.0)

    def test_return_inverse_generic(self, pp):
        assert invert_return(pp, Point2(0.75, 0.25)) == Point2(0.0, 1.5)

    def test_return_round_trip(self, all_cases):
        rng = np.random.default_rng(4)
        for params in all_cases.values():
            for x, y in rng.uniform(-2.0, 2.0, size=(1000, 2)):
                p = Point2(float(x), float(y))
                back = invert_return(params, eval_return(params, p))
                assert abs(back.x - p.x) <= 1e-11 and abs(back.y - p.y) <= 1e-12
            assert_array_path_matches_scalar(invert_return, params, rng)

    def test_return_inverse_requires_coefficients(self, pp):
        with pytest.raises(DegenerateCoefficientsError):
            invert_return(pp.replace(c2=0.0), Point2(1.0, 0.0))
        with pytest.raises(DegenerateCoefficientsError):
            invert_return(pp.replace(d3=0.1), Point2(1.0, 0.0))


class TestBlendInverse:
    def test_round_trip_with_noisy_guess(self, pp):
        # Sample the central band of the strip: near its edges the map
        # folds and a 1e-3-perturbed guess can legitimately land on a
        # second preimage.
        rng = np.random.default_rng(6)
        width = pp.h1 - pp.h0
        for _ in range(50):
            p = Point2(
                float(rng.uniform(-1.5, 1.5)),
                float(rng.uniform(pp.h0 + 0.25 * width, pp.h1 - 0.25 * width)),
            )
            q = eval_map(pp, p)
            guess = Point2(p.x + 1e-3 * rng.standard_normal(), p.y + 1e-3 * rng.standard_normal())
            got = invert_blend(pp, q, [guess])
            assert got is not None, f"no preimage recovered for {p}"
            assert max(abs(got.x - p.x), abs(got.y - p.y)) <= 1e-9

        # q has a second preimage in the strip near (1.02, 0.875); both
        # guesses converge, and the first one in the list wins.
        p = Point2(1.0, 0.88)
        q = eval_map(pp, p)
        other = invert_blend(pp, q, [Point2(1.04, 0.87)])
        assert region_of(pp, other.y) is Region.BLEND
        assert max(abs(other.x - p.x), abs(other.y - p.y)) > 1e-2
        assert invert_blend(pp, q, [p, other]) == p
        assert invert_blend(pp, q, [other, p]) == other

    def test_far_point_has_no_blend_preimage(self, pp):
        q = Point2(50.0, -50.0)
        assert invert_blend(pp, q, [invert_saddle(pp, q), invert_return(pp, q)]) is None
        # An exact guess below the strip converges at once but is not in it.
        low = Point2(0.3, 0.5)
        assert invert_blend(pp, eval_map(pp, low), [low]) is None

    def test_singular_jacobian_stops_at_iteration_zero(self, pp):
        # With c2 = 0 the return piece's Jacobian has a zero first row.
        params = pp.replace(c2=0.0)
        guess = Point2(0.3, 1.5)
        q = Point2(2.0, 2.0)
        p, iterations, residual = _blend_newton(params, _one_row(q), _one_row(guess))
        assert (Point2(p.x[0], p.y[0]), iterations[0]) == (guess, 0)
        image = eval_map(params, guess)
        assert residual[0] == max(abs(image.x - q.x), abs(image.y - q.y)) > 1e-10

    def test_exact_guess_converges_immediately(self, pp):
        p = Point2(0.3, 0.9)
        q = eval_map(pp, p)
        _, iterations, residual = _blend_newton(pp, _one_row(q), _one_row(p))
        assert iterations[0] <= 2
        assert residual[0] <= 1e-10


class TestTraceUnstable:
    def test_single_image_is_scaled_segment(self, pp):
        curve = trace_unstable(pp, 1, CLIP)
        assert np.all(curve.points[:, 0] == 0.0)
        gen1 = curve.points[curve.generation == 1]
        seeds = curve.seed_t[curve.generation == 1]
        assert np.allclose(gen1[:, 1], pp.sigma * seeds, rtol=0, atol=0)

    def test_first_tangency_arc(self, pp):
        # Enough images for the segment to cross the strip once: the
        # image contains the parabolic arc through (1, 0).
        curve = trace_unstable(pp, 43, CLIP)
        d = np.hypot(curve.points[:, 0] - 1.0, curve.points[:, 1])
        assert d.min() <= 1e-3
        near = curve.points[d < 0.05]
        assert near.size and near[:, 1].min() >= -1e-12

    def test_negative_sigma_grows_both_half_axes(self, nn):
        # |sigma|**45 * 1e-4 ~ 2.3, so 45 images carry the seed segment
        # past |y| = 1 along both half-axes.
        curve = trace_unstable(nn, 45, CLIP)
        ys = curve.points[curve.points[:, 0] == 0.0][:, 1]
        assert ys.max() > 0.5
        assert ys.min() < -0.5

    def test_forward_self_consistency(self, pp):
        # Mapping any generation-g point once lands within max_gap of the
        # generation-(g+1) polyline.
        curve = trace_unstable(pp, 25, CLIP, max_gap=1e-2)
        rng = np.random.default_rng(9)
        idx_all = np.flatnonzero(curve.generation < curve.generation.max())
        sample = rng.choice(idx_all, size=min(200, idx_all.size), replace=False)
        for i in sample:
            g = curve.generation[i]
            p = Point2(float(curve.points[i, 0]), float(curve.points[i, 1]))
            if not (CLIP.xmin <= p.x <= CLIP.xmax and CLIP.ymin <= p.y <= CLIP.ymax):
                continue
            image = eval_map(pp, p)
            nxt = curve.points[curve.generation == g + 1]
            if nxt.size == 0:
                continue
            d = segment_distance(image, nxt)
            assert d <= 1e-2 + 1e-9, (i, g, d)

    def test_point_budget_flag(self, pp):
        curve = trace_unstable(pp, 30, CLIP, point_budget=500)
        assert curve.refinement.budget_exhausted

    def test_far_seed_gives_the_empty_curve_without_warnings(self, pp):
        # The segment starts beyond the freeze radius: the products that
        # overflow belong to frozen rows or far-out segments, and none warns.
        curve = trace_unstable(pp, 45, CLIP, seed_scale=1e160)
        assert curve.points.shape == (0, 2)
        assert curve.joined.size == curve.seed_t.size == curve.generation.size == 0

    def test_negative_seed_scale_keeps_curve_order(self, all_cases):
        # A negative seed runs the seed parameter downwards along the curve;
        # midpoints must still go in between their neighbours, not be sorted.
        for name, params in all_cases.items():
            curve = trace_unstable(params, 45, CLIP, seed_scale=-1e-4)
            assert curve.refinement.max_gap <= 1e-2, name

    def test_provenance_bit_for_bit(self, all_cases):
        # Tangency sharpening re-iterates (0, seed_t) generation times, so
        # every point must be exactly that scalar iterate.
        for name, params in all_cases.items():
            curve = trace_unstable(params, 45, CLIP)
            mismatched = [
                i
                for i, ((x, y), t, g) in enumerate(
                    zip(curve.points.tolist(), curve.seed_t, curve.generation)
                )
                if tuple(_reiterate(params, float(t), int(g))) != (x, y)
            ]
            assert mismatched == [], f"{name}: {len(mismatched)} points off their seed"


def segment_distance(p: Point2, polyline: np.ndarray) -> float:
    """Distance from p to a polyline given as an (N, 2) array."""
    a = polyline[:-1]
    b = polyline[1:]
    ab = b - a
    ap = np.array([p.x, p.y]) - a
    denom = (ab * ab).sum(axis=1)
    denom[denom == 0.0] = 1.0
    t = np.clip((ap * ab).sum(axis=1) / denom, 0.0, 1.0)
    proj = a + t[:, None] * ab
    d = np.hypot(proj[:, 0] - p.x, proj[:, 1] - p.y)
    return float(d.min())


class TestTraceStable:
    def test_depth_zero_is_fundamental_segment(self, pp):
        curves = trace_stable(pp, 0, CLIP)
        assert len(curves) == 1
        seg = curves[0]
        assert np.all(seg.points[:, 1] == 0.0)
        assert seg.points[:, 0].min() == pytest.approx(1.0)
        assert seg.points[:, 0].max() == pytest.approx(1.25)

    def test_depth_one_branches(self, pp):
        curves = trace_stable(pp, 1, CLIP)
        # The saddle-piece preimage continues the x-axis.
        axis = [
            c
            for c in curves
            if c.depth == 1 and np.all(np.abs(c.points[:, 1]) < 1e-14)
        ]
        assert axis and axis[0].points[:, 0].max() == pytest.approx(1.5625)
        # The return-piece preimage is a parabolic arc containing (0, 1).
        axis_ids = {id(c) for c in axis}
        others = [c for c in curves if c.depth == 1 and id(c) not in axis_ids]
        assert others
        d = min(
            np.hypot(c.points[:, 0], c.points[:, 1] - 1.0).min() for c in others
        )
        assert d <= 1e-9

    def test_depth_two_contains_backward_homoclinic_point(self, pp):
        curves = trace_stable(pp, 2, CLIP)
        d = min(
            np.hypot(c.points[:, 0] - 0.0, c.points[:, 1] - 0.8).min()
            for c in curves
        )
        assert d <= 1e-6

    @pytest.mark.parametrize("override", [{"c1": 0.1}, {"d3": 0.05}, {"d4": 0.05}])
    def test_no_closed_form_return_inverse_rejected(self, pp, override):
        # Outside c1 = d3 = d4 = 0 the closed-form return inverse misses its
        # target, so no preimage tree is grown; the seed segment needs none.
        params = pp.replace(**override)
        with pytest.raises(DegenerateCoefficientsError):
            trace_stable(params, 1, CLIP)
        assert len(trace_stable(params, 0, CLIP)) == 1

    def test_point_budget(self, np_case, pp, tmp_path, capsys):
        # Unlimited, depth 3 returns more than 3,000 points.  With that
        # budget every sample made counts, so the points returned (a subset
        # of them) stay within it, and every curve of the cut set is flagged.
        # A max_gap of 1e-300 asks for about 1e297 seed samples: only the
        # budget's share of them may be built.  A segment over max_gap that
        # overflows a double counts no samples at all, and a cut set of which
        # no branch reaches the clip window has nothing to flag: config errors.
        assert sum(c.points.shape[0] for c in trace_stable(np_case, 3, CLIP)) > 3000
        for params, depth, max_gap, budget in (
            (np_case, 3, DEFAULT_MAX_GAP, 3000),
            (pp, 2, 1e-300, 1000),
        ):
            curves = trace_stable(params, depth, CLIP, max_gap=max_gap, point_budget=budget)
            assert curves and all(c.refinement.budget_exhausted for c in curves)
            assert sum(c.points.shape[0] for c in curves) <= budget

        for seed_scale, max_gap in ((1.0, 5e-324), (1e300, 1e-9)):
            with pytest.raises(ValueError, match="not a finite sample count"):
                trace_stable(pp, 1, CLIP, seed_scale=seed_scale, max_gap=max_gap)
        with pytest.raises(ValueError, match="point budget 1000 ran out"):
            trace_stable(pp, 1, CLIP, seed_scale=1e300, point_budget=1000)

        config = tmp_path / "manifolds.json"
        for section, code, message in (
            ({"max_gap": 1e-300, "point_budget": 1000}, EXIT_OK, "point budget exhausted"),
            ({"max_gap": 5e-324}, EXIT_CONFIG, "not a finite sample count"),
            ({"stable_seed": 1e300, "max_gap": 1e-9}, EXIT_CONFIG, "not a finite sample count"),
            ({"stable_seed": 1e300, "depth": 1}, EXIT_CONFIG, "point budget 2000000 ran out"),
        ):
            config.write_text(json.dumps({
                "params": pp.to_dict(),
                "output_dir": str(tmp_path / "out"),
                "manifolds": {"n_images": 3, **section},
            }))
            assert main(["manifolds", "--config", str(config)]) == code
            assert message in capsys.readouterr().err

    def test_forward_consistency(self, all_cases):
        # Iterating any branch point forward by its depth lands on the
        # local stable axis within the fundamental wedge.
        for params in all_cases.values():
            curves = trace_stable(params, 3, CLIP)
            for curve in curves:
                for x, y in curve.points[:: max(1, curve.points.shape[0] // 7)]:
                    p = Point2(float(x), float(y))
                    for _ in range(curve.depth):
                        p = eval_map(params, p)
                    assert abs(p.y) <= 1e-6
                    assert abs(p.x) <= params.x_star / abs(params.lam) + 1e-6


class TestDetectTangencies:
    def test_line_crossing_is_transversal(self):
        xs = np.linspace(-1.0, 1.0, 41)
        curve = synthetic_curve(np.column_stack((xs, xs)))
        hits = detect_tangencies(curve, 1e-3)
        assert len(hits) == 1
        assert hits[0].contact == "transversal"
        assert abs(hits[0].location.x) <= 1e-12

    def test_far_parabola_has_no_hits(self):
        xs = np.linspace(-1.0, 1.0, 41)
        curve = synthetic_curve(np.column_stack((xs, xs**2 + 1.0)))
        assert detect_tangencies(curve, 1e-3) == []

    def test_touching_parabola_is_tangential(self):
        xs = np.linspace(-1.0, 1.0, 41)
        curve = synthetic_curve(np.column_stack((xs, 0.5 * xs**2)))
        hits = detect_tangencies(curve, 1e-3)
        assert len(hits) == 1
        assert hits[0].contact == "tangential"
        assert hits[0].curvature_sign > 0

    def test_empty_curve_rejected(self):
        with pytest.raises(ValueError):
            detect_tangencies(synthetic_curve(np.zeros((0, 2))), 1e-3)

    def test_primary_tangency_recovered_all_cases(self, all_cases):
        for name, params in all_cases.items():
            curve = trace_unstable(params, 45, CLIP)
            hits = detect_tangencies(curve, 1e-3)
            tangential = [h for h in hits if h.contact == "tangential"]
            near = [
                h
                for h in tangential
                if abs(h.location.x - 1.0) <= 1e-6 and abs(h.location.y) <= 1e-6
            ]
            assert near, f"{name}: no tangential hit at (1, 0)"
            assert all(h.curvature_sign > 0 for h in near)


class TestCurvesCsv:
    @staticmethod
    def reference(curves):
        lines = ["branch_id,point_index,x,y"]
        for branch, curve in enumerate(curves):
            for i, (x, y) in enumerate(curve.points):
                lines.append(f"{branch},{i},{float(x)!r},{float(y)!r}")
        return "\n".join(lines) + "\n"

    def test_matches_per_row_formatting(self, pp):
        signed = synthetic_curve(np.array([[-0.0, 0.0], [0.1, -0.0], [np.inf, np.nan]]))
        empty = synthetic_curve(np.zeros((0, 2)))
        traced = trace_unstable(pp, 8, CLIP)
        for curves in ([signed, empty, traced], [empty], []):
            assert curves_to_csv(curves) == self.reference(curves)
        assert curves_to_csv([signed]).splitlines()[1:3] == ["0,0,-0.0,0.0", "0,1,0.1,-0.0"]
