"""Bit-for-bit checks of the array paths of manifold growth.

``trace_unstable`` carries each generation's seed images to the next with
one map step and walks only new seeds from generation 0; the blend-strip
preimages run as one masked Newton per tree level.  Both must give every
point the bits of the plain scalar computation, written out here.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

import srklab.manifolds as manifolds
from srklab import (
    DegenerateCoefficientsError,
    Point2,
    Rect,
    SingularJacobianError,
    eval_map,
    invert_return,
    invert_saddle,
    jacobian,
    trace_unstable,
)
from srklab.manifolds import _blend_newton, _preimage_points, _reiterate
from srklab.mapcore import jacobian_arrays

CLIP = Rect(-1.0, 2.5, -1.5, 2.0)

# Map point-steps of trace_unstable(params, 45, CLIP) when every seed of
# every refinement round walks from generation 0: the default seed scale,
# then seed_scale=-1e-4.
WALK_FROM_ZERO_STEPS = {
    "pp": (287_909, 35_575),
    "nn": (305_255, 415_120),
    "pn": (306_522, 429_390),
    "np": (389_132, 35_575),
}


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def off_seed(curve) -> list[int]:
    """Indices of curve points that are not the scalar iterate of their seed."""
    return [
        i
        for i, ((x, y), t, g) in enumerate(
            zip(curve.points.tolist(), curve.seed_t.tolist(), curve.generation.tolist())
        )
        if not same_bits(_reiterate(curve.params, t, g), (x, y))
    ]


@pytest.fixture
def step_counter(monkeypatch):
    """Counts the point-steps made through ``manifolds.eval_map_arrays``."""
    count = [0]
    kernel = manifolds.eval_map_arrays

    def counted(params, x, y):
        count[0] += x.size
        return kernel(params, x, y)

    monkeypatch.setattr(manifolds, "eval_map_arrays", counted)
    return count


class TestSeedPool:
    @pytest.mark.parametrize("case", sorted(WALK_FROM_ZERO_STEPS))
    def test_default_seed_reuses_previous_generation(self, all_cases, step_counter, case):
        curve = trace_unstable(all_cases[case], 45, CLIP)
        assert step_counter[0] <= 0.55 * WALK_FROM_ZERO_STEPS[case][0]
        assert off_seed(curve) == []

    @pytest.mark.parametrize("case", sorted(WALK_FROM_ZERO_STEPS))
    def test_negative_seed_scale(self, all_cases, step_counter, case):
        # The seed parameter then runs downwards along the curve; the pool
        # must still be found by value, not by an ascending search.
        curve = trace_unstable(all_cases[case], 45, CLIP, seed_scale=-1e-4)
        assert curve.seed_t[0] > curve.seed_t[-1]
        assert step_counter[0] <= 0.55 * WALK_FROM_ZERO_STEPS[case][1]
        assert off_seed(curve) == []

    def test_budget_cut_inside_a_generation(self, pp, monkeypatch):
        rounds = []
        refine = manifolds._refine

        def recorded(chain, extend, window, max_gap, max_angle, budget, stats):
            start = chain[0].size
            chain = refine(chain, extend, window, max_gap, max_angle, budget, stats)
            rounds.append((start, chain[0].size, budget))
            return chain

        monkeypatch.setattr(manifolds, "_refine", recorded)
        curve = trace_unstable(pp, 45, CLIP, point_budget=3000)
        assert curve.refinement.budget_exhausted
        # The last generation started with all 33 seeds and its refinement
        # was cut to the budget left.
        start, size, left = rounds[-1]
        assert start == 33 < size == left
        assert sum(size for _, size, _ in rounds) == 3000
        assert int(curve.generation.max()) == len(rounds) - 1 < 45
        assert off_seed(curve) == []

    @pytest.mark.parametrize("case", ["nn", "pn"])
    def test_negative_sigma_finer_gap(self, all_cases, case):
        # For sigma < 0 the segment spans the origin and the generations are
        # joined in reverse; a finer max_gap makes more new midpoints.
        params = all_cases[case]
        assert params.sigma < 0
        curve = trace_unstable(params, 45, CLIP, max_gap=5e-3)
        assert curve.refinement.inserted_points > 10_000
        assert off_seed(curve) == []

    def test_signed_zero_seeds_are_distinct(self, nn):
        # (0, +0.0) and (0, -0.0) are equal seeds with images of different sign.
        pool = (np.array([-0.0]), np.array([0]), np.array([[0.0, 0.0]]))
        got = manifolds._seed_images(nn, 1, pool, np.array([0.0, -0.0]))
        assert same_bits(got, [tuple(_reiterate(nn, 0.0, 1)), (0.0, 0.0)])


# -- saddle passage ----------------------------------------------------------


def plain_walk(params, t: float, g: int) -> Point2:
    """f^g of the axis seed (0, t) by g scalar ``eval_map`` calls."""
    p = Point2(0.0, t)
    for _ in range(g):
        p = eval_map(params, p)
    return p


def stepped_seeds(params, ts: np.ndarray, g: int) -> np.ndarray:
    """f^g of the axis seeds (0, t) by g calls of ``_step_seeds``."""
    x, y = np.zeros_like(ts), ts
    for _ in range(g):
        x, y = manifolds._step_seeds(params, x, y)
    return np.column_stack((x, y))


@pytest.fixture
def scalar_counter(monkeypatch):
    """Counts the calls of ``manifolds.eval_map``."""
    count = [0]
    kernel = manifolds.eval_map

    def counted(params, p):
        count[0] += 1
        return kernel(params, p)

    monkeypatch.setattr(manifolds, "eval_map", counted)
    return count


class TestSaddlePassage:
    @pytest.mark.parametrize("seed_scale", [1e-4, -1e-4])
    @pytest.mark.parametrize("case", sorted(WALK_FROM_ZERO_STEPS))
    def test_reiterate_is_the_plain_walk(self, all_cases, case, seed_scale):
        params = all_cases[case]
        curve = trace_unstable(params, 45, CLIP, seed_scale=seed_scale)
        pairs = zip(curve.seed_t.tolist(), curve.generation.tolist())
        differ = [
            i
            for i, (t, g) in enumerate(pairs)
            if not same_bits(_reiterate(params, t, g), plain_walk(params, t, g))
        ]
        assert differ == []

    @pytest.mark.parametrize("case", sorted(WALK_FROM_ZERO_STEPS))
    def test_iterate_seeds_is_the_stepped_walk(self, all_cases, case):
        params = all_cases[case]
        sigma, h0, radius = params.sigma, params.h0, manifolds._FREEZE_RADIUS
        # The largest seed reaches the strip before the others.
        m = 6
        late = h0 / abs(sigma) ** (m + 0.5)
        early = np.array([late, 0.9 * late, late * abs(sigma) ** 0.9])
        batches = {
            "generation 0": (np.linspace(-1e-4, 1e-4, 5), 0),
            "empty": (np.empty(0), 45),
            "largest seed early": (early, 45),
            "largest seed early, short": (early, m + 1),
            "spans 0 with signed zeros": (
                np.concatenate([np.linspace(sigma * 1e-4, 1e-4, 9), [0.0, -0.0]]), 45
            ),
            "below the strip, beyond the freeze radius": (
                np.array([1e-4, -2.0 * radius, -1e12]), 45
            ),
            "above the strip, beyond the freeze radius": (np.array([1e-4, 2.0 * radius]), 45),
            "a NaN seed": (np.array([1e-4, math.nan, -1e-4]), 45),
        }
        for name, (ts, g) in batches.items():
            got = manifolds._iterate_seeds(params, ts, g)
            assert same_bits(got, stepped_seeds(params, ts, g)), name

    def test_passage_takes_every_step_below_the_strip(self, pp, step_counter, scalar_counter):
        # 1.25**10 * 1e-4 is far below the strip: no step needs the full map.
        ts = np.array([1e-4, -1e-4])
        expected = stepped_seeds(pp, ts, 10)
        step_counter[0] = 0
        assert same_bits(manifolds._iterate_seeds(pp, ts, 10), expected)
        assert same_bits(_reiterate(pp, -1e-4, 10), plain_walk(pp, -1e-4, 10))
        assert step_counter[0] == scalar_counter[0] == 0

    def test_seed_on_h0_takes_the_saddle_step(self, pp, step_counter, scalar_counter):
        # region_of puts y == h0 below the strip; sigma * h0 lies above it,
        # so the other nine steps go through the full map.
        ts = np.array([pp.h0])
        expected = stepped_seeds(pp, ts, 10)
        step_counter[0] = 0
        assert same_bits(manifolds._iterate_seeds(pp, ts, 10), expected)
        assert step_counter[0] == 9
        assert same_bits(_reiterate(pp, pp.h0, 10), plain_walk(pp, pp.h0, 10))
        assert scalar_counter[0] == 9

    @pytest.mark.parametrize("case", sorted(WALK_FROM_ZERO_STEPS))
    def test_kernel_steps_after_the_passage(self, all_cases, step_counter, case):
        for sign, walk_from_zero in zip((1, -1), WALK_FROM_ZERO_STEPS[case]):
            step_counter[0] = 0
            trace_unstable(all_cases[case], 45, CLIP, seed_scale=sign * 1e-4)
            assert step_counter[0] <= 0.10 * walk_from_zero


# -- blend-strip Newton ----------------------------------------------------


def reference_newton(params, q: Point2, guess: Point2) -> tuple[Point2, int, float]:
    """The one-point Newton on f(p) - q in plain floats."""
    p = guess
    img = eval_map(params, p)
    res = max(abs(img.x - q.x), abs(img.y - q.y))
    for iteration in range(30):
        if res <= 1e-10:
            return p, iteration, res
        try:
            dx, dy = jacobian(params, p).solve(q.x - img.x, q.y - img.y)
        except SingularJacobianError:
            return p, iteration, res
        p = Point2(p.x + dx, p.y + dy)
        if not (math.isfinite(p.x) and math.isfinite(p.y)):
            return p, iteration + 1, math.inf
        img = eval_map(params, p)
        res = max(abs(img.x - q.x), abs(img.y - q.y))
    return p, 30, res


def reference_blend_preimages(params, pts, prev) -> np.ndarray:
    """Per point: the first of prev (if finite), the saddle inverse and the
    return inverse whose Newton ends within 1e-10 strictly inside the strip."""
    out = np.full((pts.shape[0], 2), np.nan)
    for i, (qx, qy) in enumerate(pts.tolist()):
        q = Point2(qx, qy)
        guesses = [invert_saddle(params, q), invert_return(params, q)]
        if prev is not None and np.isfinite(prev[i]).all():
            guesses.insert(0, Point2(*prev[i].tolist()))
        for guess in guesses:
            p, _, res = reference_newton(params, q, guess)
            if res <= 1e-10 and params.h0 < p.y < params.h1:
                out[i] = p
                break
    return out


def strip_problem(params, rng, n=1000):
    """Images q of n points in the strip, noisy continuity guesses, and rows
    that diverge, carry a NaN, or have no finite guess."""
    xs = rng.uniform(-1.5, 1.5, n)
    ys = rng.uniform(params.h0, params.h1, n)
    q = np.array([eval_map(params, Point2(x, y)) for x, y in zip(xs.tolist(), ys.tolist())])
    prev = np.column_stack((xs, ys)) + rng.normal(0.0, 0.05, (n, 2))
    prev[::7] = np.nan
    prev[1::11] = rng.uniform(-1e3, 1e3, (prev[1::11].shape[0], 2))
    q[2::13] = rng.uniform(-50.0, 50.0, (q[2::13].shape[0], 2))
    q[3::17, 1] = np.nan
    q[4::19, 0] = np.nan
    return q, prev


def assert_newton_rows_match(params, q, guess):
    p, iters, res = _blend_newton(
        params, Point2(q[:, 0], q[:, 1]), Point2(guess[:, 0], guess[:, 1])
    )
    ref = [
        reference_newton(params, Point2(*qi), Point2(*gi))
        for qi, gi in zip(q.tolist(), guess.tolist())
    ]
    assert same_bits(p.x, [r[0].x for r in ref])
    assert same_bits(p.y, [r[0].y for r in ref])
    assert iters.tolist() == [r[1] for r in ref]
    assert same_bits(res, [r[2] for r in ref])
    return iters, res


class TestBlendNewtonArrays:
    def test_jacobian_arrays_matches_scalar(self, all_cases):
        rng = np.random.default_rng(11)
        for params in all_cases.values():
            xs, ys = rng.uniform(-2.0, 2.0, (2, 2000))
            ys[::3] = rng.uniform(params.h0, params.h1, ys[::3].size)
            ys[1] = params.h0
            ys[4] = params.h1
            got = jacobian_arrays(params, xs, ys)
            ref = [jacobian(params, Point2(x, y)) for x, y in zip(xs.tolist(), ys.tolist())]
            for field in range(4):
                assert same_bits(got[field], [j[field] for j in ref])

    @pytest.mark.parametrize("case", ["pp", "nn", "pn", "np"])
    def test_every_row_takes_the_scalar_steps(self, all_cases, case):
        params = all_cases[case]
        rng = np.random.default_rng(sorted(all_cases).index(case))
        q, prev = strip_problem(params, rng)
        saddle = np.column_stack(invert_saddle(params, Point2(q[:, 0], q[:, 1])))
        assert_newton_rows_match(params, q, saddle)
        iters, res = assert_newton_rows_match(params, q, prev)
        assert (res <= 1e-10).sum() > 500
        assert np.isinf(res).any()  # some guesses diverge
        assert same_bits(
            _preimage_points(params, q, "blend", prev), reference_blend_preimages(params, q, prev)
        )
        assert same_bits(
            _preimage_points(params, q, "blend", None), reference_blend_preimages(params, q, None)
        )

    def test_nan_component_follows_python_max(self, pp):
        # A NaN in the second residual component is passed over, so an exact
        # x-match converges; a NaN in the first makes the residual NaN.
        p = Point2(0.4, 0.5 * (pp.h0 + pp.h1))
        image = eval_map(pp, p)
        q = np.array([[image.x, math.nan], [math.nan, image.y]])
        guess = np.array([p, p])
        iters, res = assert_newton_rows_match(pp, q, guess)
        assert iters.tolist() == [0, 1]
        assert res[0] == 0.0 and math.isinf(res[1])

    def test_singular_jacobian(self, pp):
        # With c2 = 0 the return piece's Jacobian has a zero first row, so
        # guesses above the strip stop where they start.
        params = pp.replace(c2=0.0)
        rng = np.random.default_rng(5)
        guess = np.column_stack((rng.uniform(-1.0, 1.0, 1000), rng.uniform(params.h1, 2.0, 1000)))
        guess[::2, 1] = rng.uniform(params.h0, params.h1, 500)
        q = rng.uniform(-1.0, 2.0, (1000, 2))
        iters, res = assert_newton_rows_match(params, q, guess)
        assert (iters[1::2] == 0).all() and (res[1::2] > 1e-10).all()

    def test_degenerate_return_raises_only_with_points(self, pp):
        params = pp.replace(c2=0.0)
        empty = np.empty((0, 2))
        assert _preimage_points(params, empty, "blend", None).shape == (0, 2)
        with pytest.raises(DegenerateCoefficientsError):
            _preimage_points(params, np.array([[0.5, 0.5]]), "blend", None)
