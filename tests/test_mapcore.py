from __future__ import annotations

import math

import numpy as np
import pytest

from srklab import (
    Jacobian2,
    MapParams,
    Point2,
    Region,
    ResonanceFormUnavailableError,
    SingularJacobianError,
    blend_weight,
    eval_map,
    eval_map_arrays,
    eval_return,
    eval_saddle,
    jacobian,
    region_of,
    saddle_power,
    smoothstep,
)

from conftest import fd_jacobian, truncated_saddle_step, walk


class TestSmoothstep:
    def test_zero(self):
        assert smoothstep(0.0) == 0.0

    def test_one(self):
        assert smoothstep(1.0) == 1.0

    def test_half(self):
        assert smoothstep(0.5) == 0.5


class TestBlendWeight:
    def test_lower_threshold_exact(self, pp):
        assert blend_weight(pp, pp.h0) == 0.0

    def test_upper_threshold_exact(self, pp):
        assert blend_weight(pp, pp.h1) == 1.0

    def test_midpoint(self, pp):
        mid = (pp.h0 + pp.h1) / 2.0
        assert blend_weight(pp, mid) == pytest.approx(0.5, abs=1e-12)


class TestPieces:
    def test_saddle_piece(self, pp):
        assert eval_saddle(pp, Point2(1.0, 0.0)) == Point2(0.8, 0.0)

    def test_saddle_origin_fixed(self, pp):
        assert eval_saddle(pp, Point2(0.0, 0.0)) == Point2(0.0, 0.0)

    def test_saddle_negative_eigenvalues(self, nn):
        out = eval_saddle(nn, Point2(1.0, 1.0))
        assert out == Point2(-0.8, -1.25)

    def test_return_homoclinic_point(self, pp):
        # The point above the strip on the y-axis maps onto the x-axis.
        assert eval_return(pp, Point2(0.0, 1.0)) == Point2(1.0, 0.0)

    def test_return_fixed_point(self, pp):
        assert eval_return(pp, Point2(1.0, 1.0)) == Point2(1.0, 1.0)

    def test_return_generic(self, pp):
        assert eval_return(pp, Point2(0.0, 1.5)) == Point2(0.75, 0.25)


class TestRegion:
    def test_lower(self, pp):
        assert region_of(pp, 0.5) is Region.LOWER

    def test_blend(self, pp):
        assert region_of(pp, 0.9) is Region.BLEND

    def test_upper(self, pp):
        assert region_of(pp, 1.0) is Region.UPPER

    def test_boundaries_outside_blend(self, pp):
        assert region_of(pp, pp.h0) is Region.LOWER
        assert region_of(pp, pp.h1) is Region.UPPER

    def test_negative_y_is_lower(self, pp):
        assert region_of(pp, -3.0) is Region.LOWER


class TestEvalMap:
    def test_homoclinic_step(self, pp):
        assert eval_map(pp, Point2(0.0, 1.0)) == Point2(1.0, 0.0)

    def test_noninvertibility_witness(self, pp):
        assert eval_map(pp, Point2(1.25, 0.0)) == Point2(1.0, 0.0)

    def test_origin_fixed(self, pp):
        assert eval_map(pp, Point2(0.0, 0.0)) == Point2(0.0, 0.0)

    def test_noninvertibility_all_cases(self, all_cases):
        for params in all_cases.values():
            a = eval_map(params, Point2(0.0, 1.0))
            b = eval_map(params, Point2(1.0 / params.lam, 0.0))
            assert a.x == pytest.approx(b.x, abs=1e-14)
            assert a.y == pytest.approx(b.y, abs=1e-14)

    def test_continuity_at_thresholds(self, pp):
        # At y = h0 the blend formula collapses to the saddle piece
        # exactly, and at y = h1 to the return piece exactly.
        rng = np.random.default_rng(7)
        for x in rng.uniform(-2.0, 2.0, size=1000):
            p_lo = Point2(float(x), pp.h0)
            branch = eval_map(pp, p_lo)
            r = blend_weight(pp, pp.h0)
            s = eval_saddle(pp, p_lo)
            q = eval_return(pp, p_lo)
            blended = Point2((1 - r) * s.x + r * q.x, (1 - r) * s.y + r * q.y)
            assert branch.x == blended.x and branch.y == blended.y

            p_hi = Point2(float(x), pp.h1)
            branch = eval_map(pp, p_hi)
            r = blend_weight(pp, pp.h1)
            s = eval_saddle(pp, p_hi)
            q = eval_return(pp, p_hi)
            blended = Point2((1 - r) * s.x + r * q.x, (1 - r) * s.y + r * q.y)
            assert branch.x == blended.x and branch.y == blended.y

    def test_array_matches_scalar(self, all_cases):
        rng = np.random.default_rng(11)
        xs = rng.uniform(-2.0, 2.0, size=500)
        ys = rng.uniform(-2.0, 2.0, size=500)
        for params in all_cases.values():
            ax, ay = eval_map_arrays(params, xs, ys)
            for i in range(xs.size):
                scalar = eval_map(params, Point2(float(xs[i]), float(ys[i])))
                assert ax[i] == scalar.x
                assert ay[i] == scalar.y


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _result_bits(values) -> list[int]:
    """``_bits`` with every NaN as one NaN.  IEEE 754 leaves the sign of a
    NaN result unspecified: the return piece at x = inf makes -NaN from
    0 * inf, and a CPython float operation on two NaNs of opposite signs
    returns one or the other, depending on whether its generic or its
    specialised opcode runs."""
    values = np.array(values, dtype=float)
    values[np.isnan(values)] = math.nan
    return _bits(values)


def _mixed_batch(params: MapParams) -> tuple[np.ndarray, np.ndarray]:
    """Every pairing of special and ordinary coordinates: heights below h0,
    at h0, inside the strip, at h1 and above it, with NaN, +-inf and +-0.0
    in either coordinate."""
    h0, h1 = params.h0, params.h1
    xs = [-1.5, -0.0, 0.0, 0.3, 2.0, math.nan, math.inf, -math.inf]
    ys = [
        -2.0, -0.0, 0.0, 0.5 * h0, math.nextafter(h0, -math.inf), h0,
        math.nextafter(h0, math.inf), 0.5 * (h0 + h1), math.nextafter(h1, -math.inf),
        h1, math.nextafter(h1, math.inf), 1.4, 3.0, math.nan, math.inf, -math.inf,
    ]
    x, y = np.meshgrid(xs, ys)
    return x.ravel(), y.ravel()


class TestEvalMapArrays:
    """``eval_map_arrays`` evaluates each piece only on its own rows, with
    the bits of per-point ``eval_map``."""

    @pytest.fixture(params=["pp", "np", "pn", "nn", "perturbed"])
    def params(self, request, all_cases) -> MapParams:
        if request.param == "perturbed":
            return all_cases["pp"].replace(c1=0.1, c2=-0.3, d3=0.05, d4=0.05)
        return all_cases[request.param]

    @staticmethod
    def assert_matches_scalar(params: MapParams, x: np.ndarray, y: np.ndarray) -> None:
        x_in, y_in = x.copy(), y.copy()
        with np.errstate(all="ignore"):
            ax, ay = eval_map_arrays(params, x, y)
        want = [eval_map(params, Point2(float(a), float(b))) for a, b in zip(x, y)]
        assert _result_bits(ax) == _result_bits([p.x for p in want])
        assert _result_bits(ay) == _result_bits([p.y for p in want])
        assert _bits(x) == _bits(x_in) and _bits(y) == _bits(y_in)

    def test_mixed_batch_bit_for_bit(self, params):
        x, y = _mixed_batch(params)
        self.assert_matches_scalar(params, x, y)

    def test_empty_all_below_and_all_strip_batches(self, params):
        rng = np.random.default_rng(9)
        x = rng.uniform(-2.0, 2.0, size=50)
        below = rng.uniform(-2.0, params.h0, size=50)
        strip = rng.uniform(params.h0, params.h1, size=50)
        strip[strip == params.h0] = 0.5 * (params.h0 + params.h1)
        self.assert_matches_scalar(params, np.empty(0), np.empty(0))
        self.assert_matches_scalar(params, x, below)
        self.assert_matches_scalar(params, x, strip)

    def test_pieces_see_only_their_rows(self, pp, monkeypatch):
        import srklab.mapcore as mapcore

        seen = {"return": [], "weight": []}
        real_return, real_weight = mapcore.eval_return, mapcore.blend_weight

        def recording_return(params, p):
            seen["return"].extend(_bits(p.y))
            return real_return(params, p)

        def recording_weight(params, y):
            seen["weight"].extend(_bits(y))
            return real_weight(params, y)

        monkeypatch.setattr(mapcore, "eval_return", recording_return)
        monkeypatch.setattr(mapcore, "blend_weight", recording_weight)
        x, y = _mixed_batch(pp)
        with np.errstate(all="ignore"):
            eval_map_arrays(pp, x, y)
        above = [v for v in y.tolist() if not v <= pp.h0]
        assert seen["return"] == _bits(above)
        assert seen["weight"] == _bits([v for v in above if not v >= pp.h1])
        assert 0 < len(seen["weight"]) < len(seen["return"]) < y.size

        seen = {"return": [], "weight": []}
        eval_map_arrays(pp, x, np.full(x.size, pp.h0))
        assert seen == {"return": [], "weight": []}


class TestJacobian:
    def test_origin_diagonal(self, pp):
        jac = jacobian(pp, Point2(0.0, 0.0))
        assert (jac.a, jac.b, jac.c, jac.d) == (0.8, 0.0, 0.0, 1.25)

    def test_return_fixed_point(self, pp):
        jac = jacobian(pp, Point2(1.0, 1.0))
        assert (jac.a, jac.b, jac.c, jac.d) == (0.0, -0.5, 1.0, 0.0)

    def test_blend_point_vs_finite_differences(self, pp):
        p = Point2(0.5, 0.9)
        jac = np.array(jacobian(pp, p)).reshape(2, 2)
        fd = fd_jacobian(pp, p)
        scale = max(1.0, np.abs(jac).max())
        assert np.abs(jac - fd).max() / scale < 1e-6

    def test_random_points_vs_finite_differences(self, all_cases):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-2.0, 2.0, size=(1000, 2))
        for params in all_cases.values():
            for x, y in pts:
                p = Point2(float(x), float(y))
                jac = np.array(jacobian(params, p)).reshape(2, 2)
                fd = fd_jacobian(params, p)
                scale = max(1.0, np.abs(jac).max())
                assert np.abs(jac - fd).max() / scale < 1e-5

    def test_c1_matching_across_thresholds(self, pp):
        # One-sided finite differences of the map agree across both
        # switching lines because the blend weight has flat derivative
        # there (3-point stencils keep the truncation error below the
        # blend's large second derivative).
        h = 1e-6

        def one_sided(x, y0, sign):
            cols = []
            for dx, dy in ((h, 0.0), (0.0, sign * h)):
                f0 = eval_map(pp, Point2(x, y0))
                f1 = eval_map(pp, Point2(x + dx, y0 + dy))
                f2 = eval_map(pp, Point2(x + 2 * dx, y0 + 2 * dy))
                dxs = (-3 * f0.x + 4 * f1.x - f2.x) / (2 * h) * (sign if dy else 1)
                dys = (-3 * f0.y + 4 * f1.y - f2.y) / (2 * h) * (sign if dy else 1)
                cols.append((dxs, dys))
            return np.array(cols).T

        for y0 in (pp.h0, pp.h1):
            for x in (-1.0, 0.3, 1.7):
                below = one_sided(x, y0, -1.0)
                above = one_sided(x, y0, +1.0)
                assert np.abs(below - above).max() < 1e-5

    def test_solve_regular_exact(self):
        # [[2, 1], [1, 3]] (1, -2) = (0, -5); every step is exact in binary.
        assert Jacobian2(2.0, 1.0, 1.0, 3.0).solve(0.0, -5.0) == (1.0, -2.0)

    @pytest.mark.parametrize("matrix", [(1.0, 2.0, 2.0, 4.0), (math.nan, 0.0, 0.0, 1.0)])
    def test_solve_singular_or_nan_raises(self, matrix):
        with pytest.raises(SingularJacobianError) as err:
            Jacobian2(*matrix).solve(1.0, 1.0)
        assert err.value.at_iterate is None


class TestIterate:
    def test_fixed_point_orbit(self, pp):
        assert walk(pp, Point2(1.0, 1.0), 5) == [Point2(1.0, 1.0)] * 6

    def test_homoclinic_chain(self, pp):
        pts = walk(pp, Point2(0.0, 1.0), 2)
        assert pts == [Point2(0.0, 1.0), Point2(1.0, 0.0), Point2(0.8, 0.0)]


class TestSaddlePower:
    def test_zero_resonance_is_diagonal_power(self, pp):
        out = saddle_power(pp, Point2(1.0, 1.0), 2)
        assert out.x == pytest.approx(0.8**2, abs=0)
        assert out.y == pytest.approx(1.25**2, rel=1e-15)

    def test_zero_resonance_matches_exact_diagonal_iteration(self, pp, nn):
        for params in (pp, nn):
            for k in (1, 3, 7, 12):
                p = Point2(0.37, -0.81)
                out = saddle_power(params, p, k)
                assert out.x == pytest.approx(params.lam**k * p.x, rel=1e-13)
                assert out.y == pytest.approx(params.sigma**k * p.y, rel=1e-13)

    def test_k_zero_identity(self, all_cases):
        for params in all_cases.values():
            if abs(params.lam * params.sigma - 1.0) > 1e-12:
                continue
            p = Point2(0.3, -0.7)
            assert saddle_power(params, p, 0) == p

    def test_requires_unit_product(self, pn):
        with pytest.raises(ResonanceFormUnavailableError):
            saddle_power(pn, Point2(0.1, 0.1), 1)

    def test_matches_direct_iteration_within_bound(self, pp):
        params = pp.replace(a1=0.1, b1=-0.1)
        p = Point2(0.1, 0.1)
        k = 3
        direct = p
        for _ in range(k):
            direct = truncated_saddle_step(params, direct)
        expanded = saddle_power(params, p, k)
        bound = 10.0 * (k * p.x * p.y) ** 2
        assert abs(expanded.x - direct.x) / abs(direct.x) <= bound
        assert abs(expanded.y - direct.y) / abs(direct.y) <= bound

    def test_truncation_bound_over_small_products(self, pp):
        # Against direct iteration for a spread of points with k*|xy| <= 0.1.
        rng = np.random.default_rng(19)
        for _ in range(200):
            k = int(rng.integers(1, 12))
            limit = 0.1 / k
            x = float(rng.uniform(0.01, math.sqrt(limit)))
            y = float(rng.uniform(0.01, limit / x))
            a1 = float(rng.uniform(-0.5, 0.5))
            params = pp.replace(a1=a1, b1=float(rng.uniform(-0.5, 0.5)))
            p = Point2(x, y)
            direct = p
            for _ in range(k):
                direct = truncated_saddle_step(params, direct)
            expanded = saddle_power(params, p, k)
            bound = 10.0 * (k * x * y) ** 2
            assert abs(expanded.x - direct.x) / abs(direct.x) <= bound
            assert abs(expanded.y - direct.y) / abs(direct.y) <= bound


class TestParams:
    def test_thresholds_from_lambda(self):
        params = MapParams(lam=0.8, sigma=1.25, c2=-0.5, d1=1.0, d5=1.0)
        assert params.h0 == pytest.approx((2 * 0.8 + 1) / 3, abs=0)
        assert params.h1 == pytest.approx((0.8 + 2) / 3, abs=0)
        assert abs(params.lam) < params.h0 < params.h1 < 1.0

    def test_eigenvalue_bounds_enforced(self):
        with pytest.raises(ValueError):
            MapParams(lam=1.2, sigma=1.25, c2=-0.5, d1=1.0, d5=1.0)
        with pytest.raises(ValueError):
            MapParams(lam=0.8, sigma=0.9, c2=-0.5, d1=1.0, d5=1.0)

    def test_round_trip_dict(self, pp):
        data = pp.to_dict()
        again = MapParams.from_dict(data)
        assert again == pp

    def test_h_thresholds_recomputed_unless_overridden(self, pp):
        data = pp.to_dict()
        del data["h0"], data["h1"]
        assert MapParams.from_dict(data) == pp
        data["h0"] = 0.85
        data["h1"] = 0.95
        override = MapParams.from_dict(data)
        assert override.h0 == 0.85 and override.h1 == 0.95

    def test_unknown_keys_rejected(self, pp):
        data = pp.to_dict()
        data["bogus"] = 1.0
        with pytest.raises(ValueError, match="bogus"):
            MapParams.from_dict(data)

    def test_replace_recomputes_thresholds(self, pp):
        smaller = pp.replace(lam=0.5)
        assert smaller.h0 == pytest.approx(2.0 / 3.0)
        assert smaller.sigma == pp.sigma

    def test_replace_takes_the_json_lambda_key(self, pp):
        assert pp.replace(**{"lambda": 0.5}) == pp.replace(lam=0.5)
        assert pp.replace(**{"lambda": 0.9}).h0 == pytest.approx(2.8 / 3.0)
        with pytest.raises(ValueError, match="same parameter"):
            pp.replace(lam=0.5, **{"lambda": 0.5})
