"""The registry proximity lookup against the KD-tree it stands in for.

``basins._RegistryLookup.hits`` must give, row by row, the hit set and
nearest registry point of ``cKDTree(reg).query(q, k=1, p=np.inf,
distance_upper_bound=bound)``, and ``classify_batch`` must not even build
the tree on the shipped basin configs, whose registry pairs are all single.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

from srklab import Rect, basins, scan_srk
from srklab.basins import AttractorRegistry, ClassifyLimits, raster
from srklab.cli import load_config

CONFIG_ROOT = Path(__file__).resolve().parent.parent / "configs"


class CountingTree:
    """``cKDTree`` stand-in that counts the trees built and the rows queried."""

    trees = 0
    rows = 0

    def __init__(self, data) -> None:
        type(self).trees += 1
        self._tree = cKDTree(data)

    def query(self, pts, *args, **kwargs):
        type(self).rows += len(pts)
        return self._tree.query(pts, *args, **kwargs)


@pytest.fixture
def counting_tree(monkeypatch):
    tree = type("CountingTree", (CountingTree,), {})  # a fresh subclass: counts start at 0
    monkeypatch.setattr(basins, "cKDTree", tree)
    return tree


def tree_hits(reg: np.ndarray, bound: float, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    dist, nearest = cKDTree(reg).query(q, k=1, p=np.inf, distance_upper_bound=bound)
    found = np.isfinite(dist)
    return np.flatnonzero(found), nearest[found]


def assert_lookup_matches_tree(reg, bound, q):
    """Compare the two row by row; returns the tree's hits."""
    lookup = basins._RegistryLookup(reg, bound)
    hit, nearest = lookup.hits(q[:, 0], q[:, 1])
    want_hit, want_nearest = tree_hits(reg, bound, q)
    np.testing.assert_array_equal(hit, want_hit)
    np.testing.assert_array_equal(nearest, want_nearest)
    return want_hit


def queries(rng, reg, bound, n=4000):
    """Points around and between registry points, and scattered ones."""
    pick = rng.integers(0, len(reg), (3, n))
    near = reg[pick[0]] + rng.uniform(-2.5, 2.5, (n, 2)) * bound
    between = 0.5 * (reg[pick[1]] + reg[pick[2]])
    # Offsets of exactly bound along one axis, and the doubles next to them.
    edge = reg[pick[0]].copy()
    axis = rng.integers(0, 2, n)
    sign = rng.choice([-1.0, 1.0], n)
    edge[np.arange(n), axis] += sign * bound
    inward = edge.copy()
    inward[np.arange(n), axis] = np.nextafter(edge[np.arange(n), axis], reg[pick[0], axis])
    outward = edge.copy()
    outward[np.arange(n), axis] = np.nextafter(edge[np.arange(n), axis], edge[np.arange(n), axis] + sign)
    lo, hi = reg.min(axis=0) - 10 * bound, reg.max(axis=0) + 10 * bound
    scattered = rng.uniform(lo, hi, (n, 2))
    return np.concatenate([near, between, edge, inward, outward, scattered, reg])


def lattice(rng, n_x, n_y, count, step):
    """``count`` distinct points of an n_x-by-n_y lattice: many share an x or a y."""
    cells = rng.choice(n_x * n_y, count, replace=False)
    xs = 0.25 + step * rng.permutation(n_x)
    ys = 0.25 + step * rng.permutation(n_y)
    return np.column_stack((xs[cells % n_x], ys[cells // n_x]))


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_lattice_registry_never_queries_tree(self, seed, counting_tree):
        # Like pp's registry: few distinct coordinates, no two points close.
        rng = np.random.default_rng(seed)
        reg = lattice(rng, 35, 116, 496, 2.0**-8)
        bound = 1e-5 * (1.0 + 1e-12)
        hit = assert_lookup_matches_tree(reg, bound, queries(rng, reg, bound))
        assert hit.size > 1000
        assert counting_tree.trees == 0 and counting_tree.rows == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_close_pairs_go_to_tree(self, seed, counting_tree):
        # Pairs closer than 2 * bound (and exact duplicates) share a run
        # pair, so ties between them are the tree's to settle.
        rng = np.random.default_rng(seed)
        bound = 1e-3
        base = lattice(rng, 20, 20, 150, 0.01)
        partner = base[:60] + rng.uniform(-1.9, 1.9, (60, 2)) * bound
        reg = np.concatenate([base, partner, base[60:70]])
        q = queries(rng, reg, bound)
        hit = assert_lookup_matches_tree(reg, bound, q)
        assert hit.size > 1000
        assert 0 < counting_tree.rows < q.shape[0]

    @pytest.mark.parametrize("seed", range(2))
    def test_random_registry_over_tolerances(self, seed):
        rng = np.random.default_rng(seed)
        reg = rng.uniform(-0.8, 1.5, (300, 2))
        reg[100:150, 0] = reg[:50, 0]  # shared x coordinates
        for prox_tol in (2.0**-40, 1e-5, 1e-3, 0.05, 0.5):
            bound = prox_tol * (1.0 + 1e-12)
            assert_lookup_matches_tree(reg, bound, queries(rng, reg, bound, 1000))

    def test_bound_is_strict(self):
        # Dyadic coordinates and bound: p + bound is exact, so those queries
        # lie exactly bound away (a miss) and their inner neighbours one ulp
        # inside it (a hit).
        rng = np.random.default_rng(7)
        reg = lattice(rng, 24, 24, 200, 2.0**-6)
        bound = 2.0**-10
        n = len(reg)
        t = rng.integers(-63, 64, n) * (bound / 64)  # |t| < bound along the other axis
        exact = np.concatenate([
            np.column_stack((reg[:, 0] + bound, reg[:, 1] + t)),
            np.column_stack((reg[:, 0] - bound, reg[:, 1] + t)),
            np.column_stack((reg[:, 0] + t, reg[:, 1] + bound)),
            np.column_stack((reg[:, 0] + t, reg[:, 1] - bound)),
        ])
        inside = exact.copy()
        inside[:2 * n, 0] = np.nextafter(exact[:2 * n, 0], np.tile(reg[:, 0], 2))
        inside[2 * n:, 1] = np.nextafter(exact[2 * n:, 1], np.tile(reg[:, 1], 2))
        q = np.concatenate([exact, inside])
        hit = assert_lookup_matches_tree(reg, bound, q)
        np.testing.assert_array_equal(hit, np.arange(4 * n, 8 * n))

    @pytest.mark.parametrize("prox_tol", [1e307, 1e308, 1.7e308])
    @pytest.mark.parametrize("size", [1, 40])
    def test_tolerance_near_float_limit(self, prox_tol, size):
        # From about 5e307 each table is one cell and one run, so all
        # points share one pair: a single registry point is tested directly,
        # several go to the tree.
        rng = np.random.default_rng(size)
        reg = rng.uniform(-0.8, 1.5, (size, 2))
        bound = prox_tol * (1.0 + 1e-12)
        q = np.concatenate([
            rng.uniform(-10.0, 10.0, (500, 2)),
            [[-1.7e308, 0.0], [0.0, 1.7e308], [1e308, -1e308], [1.79e308, 1.79e308]],
        ])
        lookup = basins._RegistryLookup(reg, bound)
        if prox_tol > 5e307:
            assert lookup.table_x.runs.tolist() == lookup.table_y.runs.tolist() == [1]
        with np.errstate(over="ignore"):  # far values overflow to the clipped last cell
            assert_lookup_matches_tree(reg, bound, q)


class TestAxisComponents:
    @pytest.mark.parametrize("prox_tol", [2.0**-40, 1e-5, 1e-3, 0.5])
    def test_values_within_bound_share_the_coordinate_component(self, prox_tol):
        rng = np.random.default_rng(11)
        bound = prox_tol * (1.0 + 1e-12)
        coords = np.concatenate([rng.uniform(-0.8, 1.5, 80), [0.1, 0.1, 0.1 + bound]])
        table = basins._AxisTable(coords, bound)
        # Each stretch of marked cells holds one run number, and the stretches
        # are numbered 1..R in axis order; between two runs lies a 0 cell.
        runs = table.runs.astype(np.int64)
        marked = runs > 0
        starts = np.flatnonzero(marked[1:] & ~marked[:-1]) + 1
        np.testing.assert_array_equal(runs[starts], np.arange(1, starts.size + 1))
        inside = marked[1:] & marked[:-1]
        np.testing.assert_array_equal(runs[1:][inside], runs[:-1][inside])
        assert runs.max() == starts.size
        owner = rng.integers(0, coords.size, 5000)
        values = coords[owner] + rng.uniform(-1.0, 1.0, 5000) * bound
        values = np.concatenate([values, coords + bound, coords - bound])
        owner = np.concatenate([owner, np.arange(coords.size), np.arange(coords.size)])
        np.testing.assert_array_equal(table.runs[table.cell(values)], table.comp[owner])
        assert np.all(table.comp > 0)

    def test_overlapping_and_touching_intervals_share_a_run(self):
        # With a dyadic bound of 2 cells (h = bound / 2) and coordinates on
        # cell edges, coordinate j * h marks cells j + 3 .. j + 9 (the one-cell
        # margin included).  So offsets 0 and 6 overlap in one cell, 6 and 13
        # touch (16 follows 15), and 13 and 21 leave cell 23 free between them.
        h = 2.0**-11
        coords = 0.25 + h * np.array([13.0, 0.0, 21.0, 6.0])
        table = basins._AxisTable(coords, 2 * h)
        assert table.inv_h == 1 / h
        np.testing.assert_array_equal(table.comp, [1, 1, 2, 1])
        first, second = np.flatnonzero(table.runs == 1), np.flatnonzero(table.runs == 2)
        assert first.size == 20 and second.size == 7
        assert second[0] - first[-1] == 2


SHIPPED = [(case, None) for case in ("pp", "np", "pn", "nn")] + [("pp", 30), ("np", 30)]


@pytest.mark.parametrize("case,k_max", SHIPPED)
def test_shipped_rasters_never_query_tree(case, k_max, counting_tree):
    # A regression that made every run pair shared would still give the
    # right labels, only slowly; this catches it.
    config = load_config(str(CONFIG_ROOT / case / "basins.json"), "basins")
    section = config.section
    result = scan_srk(config.params, section["k_min"], k_max or section["k_max"])
    registry = AttractorRegistry.from_orbits(config.params, result.orbits)
    limits = ClassifyLimits(
        max_iter=section["max_iter"],
        escape_radius=section["escape_radius"],
        prox_tol=section["prox_tol"],
    )
    grid = raster(config.params, registry, Rect(*section["window"]), 40, 40, limits)
    assert grid.stats.classified > 0
    assert counting_tree.trees == 0 and counting_tree.rows == 0
