from __future__ import annotations

import numpy as np
import pytest

from srklab import (
    EXAMPLE_CASES,
    InvalidWindowError,
    Point2,
    Rect,
    eval_map,
    iterate,
    newton_periodic,
    scan_srk,
)
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

    def test_colors_unique_and_reserved(self, pp_registry):
        colors = {e.color for e in pp_registry.entries}
        assert len(colors) == len(pp_registry)
        assert (0, 0, 0) not in colors
        assert (255, 255, 255) not in colors

    def test_nonperiodic_points_rejected(self, pp):
        registry = AttractorRegistry()
        with pytest.raises(ValueError, match="not periodic"):
            registry.add(pp, [Point2(0.3, 0.4)])


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
        expected, _ = reference_classify(params, registry, pts, limits)
        assert np.array_equal(labels, expected)
        retired = (labels == UNKNOWN) & (iters < limits.max_iter)
        assert retired.any()
        assert sum(cycle_cells.values()) == int(retired.sum())

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

    def test_determinism_across_threads_and_runs(self, pp, pp_registry):
        limits = ClassifyLimits(max_iter=2000)
        one = raster(pp, pp_registry, WINDOW, 40, 40, limits, threads=1)
        two = raster(pp, pp_registry, WINDOW, 40, 40, limits, threads=1)
        four = raster(pp, pp_registry, WINDOW, 40, 40, limits, threads=4)
        assert np.array_equal(one.labels, two.labels)
        assert np.array_equal(one.labels, four.labels)

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
                tail = iterate(params, seed, 4000)[-1]
                candidate = newton_periodic(params, tail, 16)
            except Exception:
                continue
            if candidate.stability is StabilityClass.ASYMPTOTICALLY_STABLE:
                orbit = candidate
                break
        assert orbit is not None, "no stable period-16 orbit found from unknown cells"
        # Double-round witness: two excursions above the strip per period.
        uppers = sum(1 for r in orbit.regions if r.value == "upper")
        assert uppers == 2

        registry.add(params, list(orbit.points), label="dr16")
        relabels, _ = classify_batch(params, registry, pts[unknown_idx], limits)
        assert np.any(relabels >= 0)
        first = classify_batch(params, registry, pts[unknown_idx[:1]], limits)[0][0]
        assert first == registry.entries[-1].id


class TestPpm:
    def test_spec_bytes(self, tmp_path, pp):
        registry = AttractorRegistry()
        registry.add(pp, [Point2(1.0, 1.0)], label="a", color=(255, 0, 0))
        labels = np.empty((2, 2), dtype=np.int32)
        labels[0, 1] = 0  # top-left: attractor
        labels[1, 1] = UNKNOWN  # top-right
        labels[0, 0] = DIVERGENT  # bottom-left
        labels[1, 0] = 0  # bottom-right
        grid = BasinGrid(Rect(0, 1, 0, 1), 2, 2, labels, IterationStats())
        path = tmp_path / "tiny.ppm"
        write_ppm(grid, registry, str(path))
        expected = b"P6\n2 2\n255\n" + bytes.fromhex("ff0000000000ffffffff0000")
        assert path.read_bytes() == expected

    def test_single_unknown_pixel(self, tmp_path, pp):
        registry = AttractorRegistry()
        registry.add(pp, [Point2(1.0, 1.0)], color=(255, 0, 0))
        labels = np.full((1, 1), UNKNOWN, dtype=np.int32)
        grid = BasinGrid(Rect(0, 1, 0, 1), 1, 1, labels, IterationStats())
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
            Rect(0, 1, 0, 1),
            2,
            2,
            np.array([[0, 1], [UNKNOWN, DIVERGENT]], dtype=np.int32),
            IterationStats(),
        )
        text = labels_csv(grid)
        assert text.splitlines()[1] == "0,-1"
        assert text.splitlines()[2] == "1,-2"


class TestFractions:
    def test_fractions_sum_to_one(self, pp, pp_registry):
        grid = raster(pp, pp_registry, WINDOW, 30, 30, ClassifyLimits(max_iter=2000))
        frac = basin_fractions(grid)
        assert sum(frac.values()) == pytest.approx(1.0)
