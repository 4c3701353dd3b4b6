"""Guard on the names that ``perfbench/spans.py`` wraps for ``--trace 1``.

``spans.install`` replaces module-level names of srklab (the map kernel,
``basins.classify_batch``, ``basins.cKDTree``, the CLI's cross-module
calls, ...) with timing wrappers.  A refactor that renames one of them
breaks the traced benchmark; this test fails first.
"""
from __future__ import annotations

import importlib
from pathlib import Path

import pytest

import srklab.basins
import srklab.cli
import srklab.manifolds
import srklab.orbits
import srklab.theory
from srklab import EXAMPLE_CASES, Rect
from srklab.basins import AttractorRegistry, ClassifyLimits, raster
from srklab.orbits import scan_srk

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = (srklab.basins, srklab.cli, srklab.manifolds, srklab.orbits, srklab.theory)


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def test_install_wraps_existing_names_and_uninstall_restores_them(spans):
    before = [dict(vars(module)) for module in MODULES]
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        patched = {
            (module.__name__, name)
            for module, names in zip(MODULES, before)
            for name, value in vars(module).items()
            if names.get(name, value) is not value
        }
        added = {
            (module.__name__, name)
            for module, names in zip(MODULES, before)
            for name in vars(module)
            if name not in names
        }
        assert not added
        assert {
            ("srklab.basins", "classify_batch"),
            ("srklab.basins", "eval_map_arrays"),
            ("srklab.basins", "cKDTree"),
        } <= patched

        # A traced raster records its one batch and its proximity queries.  At
        # this prox_tol, pp's k <= 5 registry points (0.082 apart at the
        # closest) share component pairs, so the KD-tree is queried.
        pp = EXAMPLE_CASES["pp"]
        registry = AttractorRegistry.from_orbits(pp, scan_srk(pp, 0, 5).orbits)
        with tracer.span("basins.raster") as raster_rec:
            raster(pp, registry, Rect(-0.5, 1.5, -0.5, 1.5), 4, 4,
                   ClassifyLimits(max_iter=200, prox_tol=0.05))
        batches = [rec for rec in tracer.spans if rec["name"] == "basins.classify_batch"]
        assert len(batches) == 1
        assert batches[0]["parent"] == raster_rec["id"]
        assert "basins.proximity" in batches[0]["leaves"]
    finally:
        uninstall()
    for module, names in zip(MODULES, before):
        assert vars(module).keys() == names.keys()
        assert all(vars(module)[name] is value for name, value in names.items())


def test_traced_map_steps_count_every_step(spans):
    # Newton's walk and the tangency re-walk step by eval_map alone, below
    # the strip too, so mapcore.eval_map counts every step they take.
    pp = EXAMPLE_CASES["pp"]
    orbit = scan_srk(pp, 12, 12).orbits[0]
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        srklab.orbits.newton_periodic(pp, orbit.points[0], orbit.period)
        with tracer.span("manifolds.detect_tangencies") as rewalk:
            srklab.manifolds._reiterate(pp, 1e-4, 10)
    finally:
        uninstall()
    [solve] = [rec for rec in tracer.spans if rec["name"] == "orbits.newton_periodic"]
    calls = solve["leaves"]["mapcore.eval_map"][0]
    assert calls > 0 and calls % orbit.period == 0
    assert rewalk["leaves"]["mapcore.eval_map"][0] == 10
