from __future__ import annotations

import dataclasses
import re
import warnings
from collections import Counter

import numpy as np
import pytest

from srklab import (
    EXAMPLE_CASES,
    InvalidWindowError,
    OrbitPoints,
    Point2,
    Rect,
    eval_map,
    newton_periodic,
    scan_srk,
)
from srklab import basins
from srklab.basins import (
    DIVERGENT,
    UNKNOWN,
    Attractor,
    AttractorRegistry,
    BasinGrid,
    ClassifyLimits,
    IterationStats,
    basin_fractions,
    classify_batch,
    classify_point,
    grid_centers,
    labels_csv,
    legend_csv,
    raster,
    write_ppm,
)
from srklab.stability import StabilityClass

from conftest import walk

WINDOW = Rect(-0.5, 1.5, -0.5, 1.5)


@pytest.fixture(scope="module")
def pp_registry(pp):
    result = scan_srk(pp, 0, 15)
    return AttractorRegistry.from_orbits(pp, result.orbits)


def reference_classify(params, registry, points, limits):
    """Per-cell scalar oracle: eval_map and a brute-force max-norm proximity
    run, with no early retirement of cycles and no proximity prefilter."""
    reg, owner, period = registry.all_points()
    bound = limits.prox_tol * (1.0 + 1e-12)
    radius = limits.escape_radius
    labels = np.full(len(points), UNKNOWN, dtype=np.int32)
    iters = np.full(len(points), limits.max_iter, dtype=np.int64)
    for i, (px, py) in enumerate(points):
        p = Point2(float(px), float(py))
        candidate, run = -1, 0
        for step in range(limits.max_iter + 1):
            if step:
                p = eval_map(params, p)
            if not (abs(p.x) <= radius and abs(p.y) <= radius):  # NaN escapes too
                labels[i], iters[i] = DIVERGENT, step
                break
            dist = np.maximum(np.abs(reg[:, 0] - p.x), np.abs(reg[:, 1] - p.y))
            j = int(np.argmin(dist))
            if dist[j] >= bound:
                candidate, run = -1, 0
                continue
            run = run + 1 if owner[j] == candidate else 1
            candidate = int(owner[j])
            if run >= period[j]:
                labels[i], iters[i] = candidate, step
                break
    return labels, iters


def read_ppm(path: str) -> tuple[int, int, np.ndarray]:
    """Minimal P6 reader (test utility)."""
    with open(path, "rb") as fh:
        data = fh.read()
    parts = data.split(b"\n", 3)
    assert parts[0] == b"P6"
    nx, ny = (int(v) for v in parts[1].split())
    assert parts[2] == b"255"
    pixels = np.frombuffer(parts[3], dtype=np.uint8).reshape(ny, nx, 3)
    return nx, ny, pixels


class TestRegistry:
    def test_from_orbits_registers_stable_only(self, pp, pp_registry):
        assert len(pp_registry) == 16
        assert sorted(e.period for e in pp_registry.entries) == list(range(1, 17))

    @pytest.mark.parametrize(
        "dy, message",
        [
            (0.0, "orbit k=1 branch 'minus' repeats the points of an earlier orbit"),
            # A NaN y difference is no match, so the copy reaches the walk.
            (np.nan, "orbit k=1 branch 'minus': orbit point 1 is not point 0 mapped 1 times"),
        ],
        ids=["shifted-x", "nan-y"],
    )
    def test_from_orbits_rejects_a_near_copy(self, pp, dy, message):
        orbits = scan_srk(pp, 0, 3).orbits
        sr1 = orbits[2]
        assert (sr1.k, sr1.stability) == (1, StabilityClass.ASYMPTOTICALLY_STABLE)
        xs = (sr1.points.xs[0] + 1e-13, *sr1.points.xs[1:])
        ys = tuple(y + dy for y in sr1.points.ys)
        copy = dataclasses.replace(sr1, points=OrbitPoints(xs, ys))
        with pytest.raises(ValueError, match=re.escape(message)):
            AttractorRegistry.from_orbits(pp, orbits + [copy])

    def test_colors_unique_and_reserved(self, pp_registry):
        colors = {e.color for e in pp_registry.entries}
        assert len(colors) == len(pp_registry)
        assert (0, 0, 0) not in colors
        assert (255, 255, 255) not in colors

    def test_auto_colors_stay_distinct_past_palette_repeat(self, pp):
        # The palette repeats from index 611 on; later entries skip ahead.
        registry = AttractorRegistry()
        for _ in range(700):
            registry.add(pp, [Point2(1.0, 1.0)])
        colors = [e.color for e in registry.entries]
        assert len(set(colors)) == 700
        assert colors[:611] == [basins._palette_color(i) for i in range(611)]
        assert (0, 0, 0) not in colors
        assert (255, 255, 255) not in colors

    def test_nonperiodic_points_rejected(self, pp):
        registry = AttractorRegistry()
        # A NaN point has a NaN closing residual, which must not pass the tolerance.
        for point in (Point2(0.3, 0.4), Point2(float("nan"), float("nan"))):
            with pytest.raises(ValueError, match="not periodic"):
                registry.add(pp, [point])
        assert len(registry) == 0

    @pytest.mark.parametrize("j", [1, 2])
    def test_listed_point_off_the_orbit_rejected(self, pp, j):
        # SR_2 still closes from its first point, but listed point j is not
        # its j-th image.
        sr2 = next(
            orbit
            for orbit in scan_srk(pp, 2, 2).orbits
            if orbit.stability is StabilityClass.ASYMPTOTICALLY_STABLE
        )
        points = list(sr2.points)
        points[j] = Point2(5.0, -7.0)
        registry = AttractorRegistry()
        with pytest.raises(ValueError, match=f"orbit point {j} is not point 0 mapped {j} times"):
            registry.add(pp, points)
        assert len(registry) == 0
        registry.add(pp, sr2.points)
        assert len(registry) == 1


class TestClassify:
    def test_on_attractor_points_self_classify(self, pp, pp_registry):
        for entry in pp_registry.entries:
            for j in range(entry.period):
                p = Point2(float(entry.points[j, 0]), float(entry.points[j, 1]))
                assert classify_point(pp, pp_registry, p) == entry.id

    def test_far_point_divergent(self, pp, pp_registry):
        assert classify_point(pp, pp_registry, Point2(100.0, 100.0)) == DIVERGENT

    def test_perturbed_stable_point_returns_home(self, pp, pp_registry):
        entry = next(e for e in pp_registry.entries if e.period == 6)  # sr5
        p = Point2(float(entry.points[0, 0]) + 1e-7, float(entry.points[0, 1]) + 1e-7)
        assert classify_point(pp, pp_registry, p) == entry.id

    def test_monotone_budget(self, pp, pp_registry):
        xs, ys = grid_centers(WINDOW, 25, 25)
        pts = np.column_stack([a.ravel() for a in np.meshgrid(xs, ys)])
        small, _ = classify_batch(pp, pp_registry, pts, ClassifyLimits(max_iter=300))
        large, _ = classify_batch(pp, pp_registry, pts, ClassifyLimits(max_iter=3000))
        # More budget can only resolve unknowns, never unclassify.
        changed = small != large
        assert np.all(small[changed] == UNKNOWN)


class TestEngineEquivalence:
    """Early cycle retirement and the proximity prefilter change no label."""

    @pytest.mark.parametrize("name", ["pn", "nn"])
    def test_labels_match_scalar_reference(self, name):
        params = EXAMPLE_CASES[name]
        registry = AttractorRegistry.from_orbits(params, scan_srk(params, 0, 15).orbits)
        limits = ClassifyLimits(max_iter=3000)
        xs, ys = grid_centers(WINDOW, 16, 16)
        pts = np.column_stack([a.ravel() for a in np.meshgrid(xs, ys)])
        cycle_cells = {}
        labels, iters = classify_batch(params, registry, pts, limits, cycle_cells=cycle_cells)
        expected, expected_iters = reference_classify(params, registry, pts, limits)
        assert np.array_equal(labels, expected)
        retired = (labels == UNKNOWN) & (iters < limits.max_iter)
        assert retired.any()
        assert sum(cycle_cells.values()) == int(retired.sum())
        # Retirement changes only the retired cells' counts, each to a
        # cycle-check step.
        assert np.array_equal(iters[~retired], expected_iters[~retired])
        assert np.all(iters[retired] % basins._CYCLE_CHECK_EVERY == 0)

    def test_registry_wins_over_retirement(self, pp, pp_registry):
        [sr8] = scan_srk(pp, 8, 8).stable_orbits()
        pts = np.array([(p.x, p.y) for p in sr8.points])
        limits = ClassifyLimits(max_iter=1000)

        low = AttractorRegistry.from_orbits(pp, scan_srk(pp, 0, 5).orbits)
        cycle_cells = {}
        labels, iters = classify_batch(pp, low, pts, limits, cycle_cells=cycle_cells)
        assert np.all(labels == UNKNOWN)
        assert np.all(iters < limits.max_iter)
        assert cycle_cells == {9: 9}

        # A registry point 5 * prox_tol from the cycle keeps its cells running.
        offset = 5 * limits.prox_tol
        low.entries.append(
            Attractor(len(low), "near", pts[:1] + offset, 1, (1, 2, 3))
        )
        cycle_cells = {}
        labels, iters = classify_batch(pp, low, pts, limits, cycle_cells=cycle_cells)
        assert np.all(labels == UNKNOWN)
        assert np.all(iters == limits.max_iter)
        assert cycle_cells == {}

        entry = next(e for e in pp_registry.entries if e.label == "sr8")
        cycle_cells = {}
        labels, _ = classify_batch(pp, pp_registry, pts, limits, cycle_cells=cycle_cells)
        assert np.all(labels == entry.id)
        assert cycle_cells == {}

    def test_prefilter_boundary(self, pp):
        tol = 2.0**-17  # exact sums with the coordinates below
        registry = AttractorRegistry()
        registry.add(pp, [Point2(1.0, 1.0)], label="fp")
        # Period-1 stand-ins: one sharing the fixed point's x, one far off.
        for i, (x, y) in enumerate([(1.0, 1.0 + 4 * tol), (1.5, 0.5)], start=1):
            registry.entries.append(
                Attractor(i, f"p{i}", np.array([[x, y]]), 1, (i, 3, 3))
            )
        beyond = tol + 4 * np.spacing(1.0)  # the next few doubles past 1 + tol
        offsets = [
            (d * sx, 0.0) for d in (tol, beyond) for sx in (1, -1)
        ] + [
            (0.0, -d) for d in (tol, beyond)
        ] + [
            (d * sx, -d) for d in (tol, beyond) for sx in (1, -1)
        ]
        pts = [(1.0 + dx, 1.0 + dy) for dx, dy in offsets]
        pts += [(1.0 + dx, 1.0 + 4 * tol - dy) for dx, dy in offsets]
        pts += [(1.0, 0.5), (1.5 + tol, 1.0 + 4 * tol)]  # x of one point, y of another
        pts = np.array(pts)
        limits = ClassifyLimits(max_iter=50, prox_tol=tol)
        labels, iters = classify_batch(pp, registry, pts, limits)
        expected, expected_iters = reference_classify(pp, registry, pts, limits)
        assert np.array_equal(labels, expected)
        assert np.array_equal(iters, expected_iters)
        hit_at_start = iters == 0
        at_tol = np.array([max(abs(dx), abs(dy)) == tol for dx, dy in offsets] * 2 + [False] * 2)
        assert np.array_equal(hit_at_start, at_tol)

    def test_run_restarts_on_another_attractor(self, pp):
        # Two period-2 stand-ins hold the 5th and 6th image of one start
        # point, both inside the block of steps 5..8 of a lone point: its
        # run on the first must not count toward the second.
        q = Point2(0.3, 0.2)
        images = [q]
        for _ in range(6):
            images.append(eval_map(pp, images[-1]))
        registry = AttractorRegistry()
        registry.add(pp, [Point2(1.0, 1.0)], label="fp")
        for i, p in enumerate(images[5:], start=1):
            registry.entries.append(
                Attractor(i, f"p{i}", np.array([[p.x, p.y], [5.0, 5.0]]), 2, (i, 3, 3))
            )
        pts = np.array([[q.x, q.y]])
        limits = ClassifyLimits(max_iter=50)
        labels, iters = classify_batch(pp, registry, pts, limits)
        expected, expected_iters = reference_classify(pp, registry, pts, limits)
        assert np.array_equal(labels, expected)
        assert np.array_equal(iters, expected_iters)
        assert (labels[0], iters[0]) != (2, 6)

    def test_no_hits_after_an_escape(self, pp):
        # Below the strip pp maps (x, y) to (0.8 x, 1.25 y): the start point
        # escapes at step 6, inside the block of steps 5..8 of a lone point.
        # The steps after it must not complete a run on the saddle fixed
        # point, registered here.
        registry = AttractorRegistry()
        registry.add(pp, [Point2(0.0, 0.0)], label="saddle")
        pts = np.array([[0.5, -10.0 / 1.25**6 * (1 + 1e-6)]])
        labels, iters = classify_batch(pp, registry, pts, ClassifyLimits(max_iter=50))
        assert (labels[0], iters[0]) == (DIVERGENT, 6)

    @pytest.mark.parametrize("name", ["pp", "np"])
    def test_labels_match_scalar_reference_deep_registry(self, name):
        # The benchmark's registry depth: SR_k for k = 0..30 on the shipped window.
        params = EXAMPLE_CASES[name]
        registry = AttractorRegistry.from_orbits(params, scan_srk(params, 0, 30).orbits)
        limits = ClassifyLimits(max_iter=800)
        xs, ys = grid_centers(WINDOW, 12, 12)
        pts = np.column_stack([a.ravel() for a in np.meshgrid(xs, ys)])
        labels, iters = classify_batch(params, registry, pts, limits)
        expected, expected_iters = reference_classify(params, registry, pts, limits)
        assert np.array_equal(labels, expected)
        assert np.array_equal(iters, expected_iters)
        assert (labels >= 0).sum() > 0

    def test_non_finite_start_diverges_at_step_zero(self, pp, pp_registry):
        inf, nan = float("inf"), float("nan")
        pts = np.array([[nan, 0.5], [0.5, nan], [inf, 0.5], [0.5, -inf], [nan, nan]])
        limits = ClassifyLimits(max_iter=50)
        labels, iters = classify_batch(pp, pp_registry, pts, limits)
        expected, expected_iters = reference_classify(pp, pp_registry, pts, limits)
        assert np.array_equal(labels, expected)
        assert np.array_equal(iters, expected_iters)
        assert np.all(labels == DIVERGENT)
        assert np.all(iters == 0)


class TestAxisTable:
    """The run table flags every value the exact axis test flags."""

    @pytest.mark.parametrize("prox_tol", [2.0**-60, 2.0**-40, 2.0**-17, 1e-5, 1e-3, 0.5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_superset_of_exact_axis_test(self, prox_tol, seed):
        rng = np.random.default_rng(seed)
        radius = ClassifyLimits().escape_radius
        bound = prox_tol * (1.0 + 1e-12)
        coords = rng.uniform(-0.8, 1.5, 60)
        coords = np.concatenate([coords, coords[:10], [-0.8, 0.0, -0.0, 1.5]])  # with duplicates
        # Coordinates on cell edges: new interior coordinates leave the cells as they are.
        plain = basins._AxisTable(coords, bound)
        on_edge = plain.lo + rng.integers(0, plain.runs.size, 20) / plain.inv_h
        coords = np.sort(np.concatenate([coords, on_edge[(on_edge > -0.8) & (on_edge < 1.5)]]))
        table = basins._AxisTable(coords, bound)
        assert (table.lo, table.inv_h) == (plain.lo, plain.inv_h)
        assert table.runs.size <= basins._TABLE_CELLS + 8
        assert table.runs[0] == 0 and table.runs[-1] == 0

        edges = np.concatenate([coords - bound, coords + bound, coords])
        steps = [edges]
        up, down = edges, edges
        for _ in range(4):  # the next few doubles either side
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            steps += [up, down]
        cells = table.lo + np.arange(table.runs.size) / table.inv_h  # cell edges
        values = np.concatenate(steps + [
            cells[rng.integers(0, cells.size, 2000)],
            coords[rng.integers(0, coords.size, 4000)] + rng.uniform(-3, 3, 4000) * bound,
            rng.uniform(-radius, radius, 4000),
            [-radius, radius],
        ])
        exact = np.abs(values[:, None] - coords).min(axis=1) <= bound
        assert exact.any()
        assert np.all(table.runs[table.cell(values)][exact] > 0)

    def test_tolerance_near_float_limit(self, pp, pp_registry):
        # Past about 5e307 the cell indices would overflow and the table flags
        # every finite value; labels stay those of an ordinary table.  (The
        # scalar oracle breaks max-norm ties differently from the KD-tree, and
        # at such tolerances every registry point is in range, so it does not
        # apply here.)
        coords = np.sort(pp_registry.all_points()[0][:, 0])
        values = np.random.default_rng(5).uniform(-10.0, 10.0, 1000)
        pts = np.array([[0.1, 0.2], [5.0, -3.0], [0.9, 0.95]])
        want = classify_batch(pp, pp_registry, pts, ClassifyLimits(max_iter=50, prox_tol=1e300))
        for prox_tol in (1e307, 5e307, 1e308, 1.7e308):
            table = basins._AxisTable(coords, prox_tol * (1.0 + 1e-12))
            assert np.all(table.runs[table.cell(values)] > 0)
            got = classify_batch(pp, pp_registry, pts, ClassifyLimits(max_iter=50, prox_tol=prox_tol))
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])

    def test_far_values_mostly_rejected(self):
        coords = np.sort(np.random.default_rng(3).uniform(-0.8, 1.5, 200))
        table = basins._AxisTable(coords, 1e-5)
        values = np.random.default_rng(4).uniform(-10.0, 10.0, 10000)
        assert (table.runs[table.cell(values)] > 0).mean() < 0.01


class TestRaster:
    def test_cells_containing_low_k_attractor_points_self_classify(self, pp, pp_registry):
        # The basins are heavily intermingled: for k >= 9 a cell center
        # up to half a cell away from an attractor point routinely sits
        # in another attractor's basin tube.  Cell-level
        # self-classification therefore holds only for the wide low-k
        # basins; the attractor points themselves always self-classify
        # (TestClassify above).
        grid = raster(pp, pp_registry, WINDOW, 50, 50, ClassifyLimits(max_iter=3000))
        for entry in pp_registry.entries:
            if entry.period > 9:
                continue
            for j in range(entry.period):
                px, py = entry.points[j]
                ix = int((px - WINDOW.xmin) / WINDOW.width * 50)
                iy = int((py - WINDOW.ymin) / WINDOW.height * 50)
                assert grid.labels[ix, iy] == entry.id, (entry.label, j)

    def test_single_attractor_local_box(self, pp):
        registry = AttractorRegistry()
        registry.add(pp, [Point2(1.0, 1.0)], label="fp")
        box = Rect(1.0 - 1e-3, 1.0 + 1e-3, 1.0 - 1e-3, 1.0 + 1e-3)
        grid = raster(pp, registry, box, 10, 10)
        assert np.all(grid.labels == 0)

    def test_degenerate_window_rejected(self, pp, pp_registry):
        with pytest.raises(InvalidWindowError):
            raster(pp, pp_registry, Rect(0.0, 0.0, 0.0, 1.0), 10, 10)

    def test_resolution_floor(self, pp, pp_registry):
        with pytest.raises(InvalidWindowError):
            raster(pp, pp_registry, WINDOW, 1, 10)

    def test_determinism_across_runs(self, pp, pp_registry):
        limits = ClassifyLimits(max_iter=2000)
        one = raster(pp, pp_registry, WINDOW, 40, 40, limits)
        two = raster(pp, pp_registry, WINDOW, 40, 40, limits)
        assert np.array_equal(one.labels, two.labels)
        assert two.stats == one.stats

    @pytest.mark.parametrize("threads", [0, -1, 2])
    def test_thread_count_other_than_one_rejected(self, pp, pp_registry, threads):
        with pytest.raises(ValueError, match="threads"):
            raster(pp, pp_registry, WINDOW, 4, 4, threads=threads)

    @pytest.mark.parametrize("max_iter", [20000, 700])
    def test_unknown_cells_are_cycle_cells_or_budget_spent(self, max_iter):
        params = EXAMPLE_CASES["pn"]
        registry = AttractorRegistry.from_orbits(params, scan_srk(params, 0, 15).orbits)
        stats = raster(params, registry, WINDOW, 40, 40, ClassifyLimits(max_iter=max_iter)).stats
        assert stats.unknown == stats.budget_spent + sum(stats.cycle_cells.values())
        assert stats.cycle_cells
        # Cells that retire at step 1000 run out of a 700-step budget.
        assert (stats.budget_spent > 0) == (max_iter == 700)

    def test_subsample_consistency(self, pp, pp_registry):
        # A cell's label depends only on its center point: classifying
        # the odd-index centers of a fine grid directly reproduces the
        # fine grid's labels at those cells.
        limits = ClassifyLimits(max_iter=2000)
        fine = raster(pp, pp_registry, WINDOW, 40, 40, limits)
        xs, ys = grid_centers(WINDOW, 40, 40)
        sub_x, sub_y = xs[1::2], ys[1::2]
        pts = np.column_stack([a.ravel() for a in np.meshgrid(sub_x, sub_y)])
        direct, _ = classify_batch(pp, pp_registry, pts, limits)
        coarse = direct.reshape(20, 20).T  # meshgrid xy-order -> [ix, iy]
        assert np.array_equal(coarse, fine.labels[1::2, 1::2])


def block_steps(iters: np.ndarray, max_iter: int) -> list[tuple[int, int]]:
    """First and last step of each block that ``classify_batch`` maps after
    step 0, rebuilt from the batch's counts: a point runs in every block up
    to the one that holds its count."""
    blocks, step = [], 0
    while step < max_iter and (iters > step).any():
        m = min(
            basins._CYCLE_CHECK_EVERY - step % basins._CYCLE_CHECK_EVERY,
            max_iter - step,
            max(1, min(step, basins._BLOCK_POINT_STEPS // int((iters > step).sum()))),
        )
        blocks.append((step + 1, step + m))
        step += m
    return blocks


class TestBatchIndependence:
    """A point's label, count and cycle period do not depend on the points
    that share its batch, so neither on the blocks it is stepped in."""

    def test_alone_in_a_batch_and_in_a_raster(self, monkeypatch):
        pn = EXAMPLE_CASES["pn"]
        registry = AttractorRegistry.from_orbits(pn, scan_srk(pn, 0, 10).orbits)
        # 743 is prime, so no block longer than one step divides it.
        limits = ClassifyLimits(max_iter=743, prox_tol=1e-3)
        # Start points that escape at these steps: the first and last steps
        # of the blocks 5..8, 9..16 and 17..32 of a batch of up to 512
        # points.  The last one escapes through the quadratic return piece,
        # and its images overflow at step 25.  The saddle fixed point runs
        # the whole budget.
        escape_steps = [5, 8, 16, 17]
        starts = [(0.0, -2.122875), (0.0, -2.072925), (-7.14285, 0.2997), (-9.3906, -0.274725)]
        starts.append((0.0, 0.0))
        xs, ys = grid_centers(WINDOW, 200, 200)
        cells = np.column_stack((np.tile(xs, 200), np.repeat(ys, 200)))
        rng = np.random.default_rng(7)
        sample = rng.choice(len(cells), 300 - len(starts), replace=False)
        pts = np.vstack([starts, cells[sample]])

        blocks_seen = []
        hits = basins._RegistryLookup.hits

        def counted_hits(lookup, x, y):
            blocks_seen[-1] += 1
            return hits(lookup, x, y)

        monkeypatch.setattr(basins._RegistryLookup, "hits", counted_hits)

        def run(batch):
            blocks_seen.append(0)
            cycle_cells = {}
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                labels, iters = classify_batch(pn, registry, batch, limits, cycle_cells)
            blocks = block_steps(iters, limits.max_iter)
            assert blocks_seen[-1] == len(blocks) + 1  # step 0 is a block too
            return labels, iters, Counter(cycle_cells), blocks

        alone = [run(pts[i : i + 1]) for i in range(len(pts))]
        labels, iters, cycle_cells, blocks = run(pts)
        assert np.array_equal(labels, np.concatenate([a[0] for a in alone]))
        assert np.array_equal(iters, np.concatenate([a[1] for a in alone]))
        assert cycle_cells == sum((a[2] for a in alone), Counter())
        assert cycle_cells and (labels >= 0).any()
        assert np.array_equal(iters[: len(escape_steps)], escape_steps)
        assert np.all(labels[: len(escape_steps)] == DIVERGENT)
        assert (labels[len(escape_steps)], iters[len(escape_steps)]) == (UNKNOWN, limits.max_iter)

        raster_labels, raster_iters, raster_cycles, raster_blocks = run(cells)
        big_labels, big_iters, big_cycles, big_blocks = run(np.vstack([cells, pts]))
        assert big_blocks[:3] == [(1, 1), (2, 2), (3, 3)]
        assert np.array_equal(big_labels, np.concatenate([raster_labels, labels]))
        assert np.array_equal(big_iters, np.concatenate([raster_iters, iters]))
        assert big_cycles == raster_cycles + cycle_cells

        runs = [(iters, labels, blocks)] + [(a[1], a[0], a[3]) for a in alone]
        # Blocks longer than one step, and the last one cut short by max_iter.
        lengths = {last - first + 1 for _, _, b in runs for first, last in b}
        assert max(lengths) > 1
        assert all(limits.max_iter % m for m in lengths if m > 1)
        assert any(b[-1][1] == limits.max_iter for _, _, b in runs)
        # Escapes on the first step and on the last step of a longer block.
        for end in (0, 1):
            assert any(
                set(it[lab == DIVERGENT]) & {block[end] for block in b if block[0] < block[1]}
                for it, lab, b in runs
            )
        # A registry run that starts in one block and completes in the next.
        period = np.array([e.period for e in registry.entries])
        done = labels >= 0
        first_steps = np.array([first for first, _ in blocks])
        start_block = np.searchsorted(first_steps, iters[done] - period[labels[done]] + 1, "right")
        assert (start_block < np.searchsorted(first_steps, iters[done], "right")).any()
        # The fourth start point escapes mid-block, and the rest of that
        # block overflows.
        block = next(b for b in blocks if b[0] <= iters[3] < b[1])
        x, y = pts[3:4, 0], pts[3:4, 1]
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(block[1]):
                x, y = basins.eval_map_arrays(pn, x, y)
        assert not np.isfinite(x[0] + y[0])


class TestDoubleRound:
    @pytest.mark.parametrize("name", ["nn", "pn"])
    def test_unknown_cells_resolve_after_double_round_registration(self, name):
        params = EXAMPLE_CASES[name]
        result = scan_srk(params, 0, 15)
        registry = AttractorRegistry.from_orbits(params, result.orbits)
        limits = ClassifyLimits(max_iter=3000)
        xs, ys = grid_centers(WINDOW, 40, 40)
        pts = np.column_stack([a.ravel() for a in np.meshgrid(xs, ys)])
        labels, _ = classify_batch(params, registry, pts, limits)
        unknown_idx = np.flatnonzero(labels == UNKNOWN)
        assert unknown_idx.size > 0

        orbit = None
        for idx in unknown_idx[:10]:
            seed = Point2(float(pts[idx, 0]), float(pts[idx, 1]))
            try:
                tail = walk(params, seed, 4000)[-1]
                if not max(abs(tail.x), abs(tail.y)) <= 10.0:
                    continue  # escaped
                candidate = newton_periodic(params, tail, 16)
            except Exception:
                continue
            if candidate.stability is StabilityClass.ASYMPTOTICALLY_STABLE:
                orbit = candidate
                break
        assert orbit is not None, "no stable period-16 orbit found from unknown cells"
        # Double-round witness: two excursions above the strip per period.
        uppers = sum(1 for p in orbit.points if p.y >= params.h1)
        assert uppers == 2

        registry.add(params, list(orbit.points), label="dr16")
        relabels, _ = classify_batch(params, registry, pts[unknown_idx], limits)
        assert np.any(relabels >= 0)
        first = classify_batch(params, registry, pts[unknown_idx[:1]], limits)[0][0]
        assert first == registry.entries[-1].id


class TestPpm:
    def test_spec_bytes(self, tmp_path, pp):
        registry = AttractorRegistry()
        registry.add(pp, [Point2(1.0, 1.0)], label="a")
        color = bytes(registry.entries[0].color)
        labels = np.empty((2, 2), dtype=np.int32)
        labels[0, 1] = 0  # top-left: attractor
        labels[1, 1] = UNKNOWN  # top-right
        labels[0, 0] = DIVERGENT  # bottom-left
        labels[1, 0] = 0  # bottom-right
        grid = BasinGrid(2, 2, labels, IterationStats())
        path = tmp_path / "tiny.ppm"
        write_ppm(grid, registry, str(path))
        # Rows top to bottom: attractor, unknown (black); divergent (white), attractor.
        expected = b"P6\n2 2\n255\n" + color + bytes(3) + b"\xff" * 3 + color
        assert path.read_bytes() == expected

    def test_single_unknown_pixel(self, tmp_path, pp):
        registry = AttractorRegistry()
        registry.add(pp, [Point2(1.0, 1.0)])
        labels = np.full((1, 1), UNKNOWN, dtype=np.int32)
        grid = BasinGrid(1, 1, labels, IterationStats())
        path = tmp_path / "one.ppm"
        write_ppm(grid, registry, str(path))
        assert path.read_bytes() == b"P6\n1 1\n255\n\x00\x00\x00"

    def test_round_trip_reproduces_labels(self, tmp_path, pp, pp_registry):
        grid = raster(pp, pp_registry, WINDOW, 20, 20, ClassifyLimits(max_iter=2000))
        path = tmp_path / "grid.ppm"
        write_ppm(grid, pp_registry, str(path))
        nx, ny, pixels = read_ppm(str(path))
        color_to_label = {e.color: e.id for e in pp_registry.entries}
        color_to_label[(0, 0, 0)] = UNKNOWN
        color_to_label[(255, 255, 255)] = DIVERGENT
        rebuilt = np.empty((nx, ny), dtype=np.int32)
        for row in range(ny):
            for col in range(nx):
                rebuilt[col, ny - 1 - row] = color_to_label[tuple(pixels[row, col])]
        assert np.array_equal(rebuilt, grid.labels)

    def test_legend_and_labels_csv(self, pp, pp_registry):
        legend = legend_csv(pp_registry)
        assert legend.splitlines()[0] == "id,label,r,g,b,period"
        assert len(legend.splitlines()) == len(pp_registry) + 1
        grid = BasinGrid(
            2,
            2,
            np.array([[0, 1], [UNKNOWN, DIVERGENT]], dtype=np.int32),
            IterationStats(),
        )
        text = labels_csv(grid)
        assert text.splitlines()[1] == "0,-1"
        assert text.splitlines()[2] == "1,-2"

    def test_labels_csv_matches_per_cell_formatting(self):
        labels = np.array(
            [[0, UNKNOWN, 3], [DIVERGENT, 12, UNKNOWN], [1, DIVERGENT, 0], [2, 2, 2]],
            dtype=np.int32,
        )
        grid = BasinGrid(4, 3, labels, IterationStats())
        want = ["# rows are iy = 0..ny-1 (bottom to top), columns ix = 0..nx-1"]
        want.extend(",".join(str(int(v)) for v in labels[:, iy]) for iy in range(3))
        assert labels_csv(grid) == "\n".join(want) + "\n"
        assert labels_csv(grid).splitlines()[2] == "-1,12,-2,2"


class TestFractions:
    def test_fractions_sum_to_one(self, pp, pp_registry):
        grid = raster(pp, pp_registry, WINDOW, 30, 30, ClassifyLimits(max_iter=2000))
        frac = basin_fractions(grid)
        assert sum(frac.values()) == pytest.approx(1.0)
