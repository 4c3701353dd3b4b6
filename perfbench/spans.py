"""In-memory spans around the calls between srklab's modules.

``install`` replaces the module-level names through which one srklab
module calls another (``srklab.basins.eval_map_arrays``,
``srklab.basins.cKDTree``, ``srklab.cli.trace_unstable``, ...) with
timing wrappers and returns a function that puts the originals back.
Coarse calls become spans (name, start, end, parent).  Hot leaf calls
(the map kernel, the proximity query, the scalar map and the orbit
Jacobian run up to millions of times per round) are aggregated per
parent span as call count, seconds and items, so the trace stays small;
their time still counts as child time of that span.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext

_clock = time.perf_counter


class NullTracer:
    """Stands in for ``Tracer`` in untraced runs: records nothing."""

    enabled = False

    def span(self, name: str):
        return nullcontext({"counts": {}})


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": _clock(),
            "end": None,
            "child_s": 0.0,
            "leaves": {},
            "counts": {},
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = _clock()
            self._stack.pop()
            if self._stack:
                self._stack[-1]["child_s"] += rec["end"] - rec["start"]

    def spanned(self, name: str, fn, counts=None):
        """Wrap ``fn`` so each call is a span; ``counts(result)`` names counts."""

        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if counts is not None:
                    rec["counts"] = counts(result)
            return result

        return wrapper

    def leaf(self, name: str, fn, items=None):
        """Wrap ``fn`` so calls are summed under the enclosing span."""
        stack = self._stack

        def wrapper(*args, **kwargs):
            t0 = _clock()
            result = fn(*args, **kwargs)
            dt = _clock() - t0
            if stack:
                top = stack[-1]
                top["child_s"] += dt
                agg = top["leaves"].get(name)
                if agg is None:
                    agg = top["leaves"][name] = [0, 0.0, 0]
                agg[0] += 1
                agg[1] += dt
                if items is not None:
                    agg[2] += items(*args)
            return result

        return wrapper

    def write(self, path: str, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "spans": self.spans}, fh)
            fh.write("\n")


class _TracedTree:
    """cKDTree stand-in whose ``query`` is a proximity leaf."""

    def __init__(self, tree, query) -> None:
        self._tree = tree
        self.query = query

    def __getattr__(self, name):
        return getattr(self._tree, name)


def status_counts(result) -> dict[str, int]:
    """``orbits.status.<status>`` counts of a ``ScanResult``."""
    counts: dict[str, int] = {}
    for record in result.records:
        key = f"orbits.status.{record.status}"
        counts[key] = counts.get(key, 0) + 1
    return counts


def install(tracer: Tracer):
    """Wrap srklab's cross-module names; returns the function that undoes it."""
    import srklab.basins as basins
    import srklab.cli as cli
    import srklab.manifolds as manifolds
    import srklab.orbits as orbits
    import srklab.theory as theory

    saved: list[tuple[object, str, object]] = []

    def patch(module, name, wrapper):
        saved.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    def kernel_points(params, x, y):
        return x.size

    def classify_counts(result):
        labels, iters = result
        return {"basins.point_steps.total": int(iters.sum()),
                "basins.point_steps.useful": int(iters[labels != basins.UNKNOWN].sum())}

    tree_cls = basins.cKDTree

    def traced_tree(*args, **kwargs):
        tree = tree_cls(*args, **kwargs)
        query = tracer.leaf("basins.proximity", tree.query, lambda pts, *a, **k: len(pts))
        return _TracedTree(tree, query)

    for module in (basins, manifolds):
        patch(module, "eval_map_arrays",
              tracer.leaf("mapcore.eval_map_arrays", module.eval_map_arrays, kernel_points))
    for module in (basins, orbits, manifolds):
        patch(module, "eval_map", tracer.leaf("mapcore.eval_map", module.eval_map))
    patch(basins, "cKDTree", traced_tree)
    patch(basins, "classify_batch",
          tracer.spanned("basins.classify_batch", basins.classify_batch, classify_counts))
    patch(orbits, "orbit_jacobian", tracer.leaf("stability.orbit_jacobian", orbits.orbit_jacobian))
    patch(orbits, "assemble_orbit", tracer.spanned("orbits.assemble_orbit", orbits.assemble_orbit))
    patch(orbits, "newton_periodic", tracer.spanned("orbits.newton_periodic", orbits.newton_periodic))
    for module in (theory, cli):
        patch(module, "scan_srk", tracer.spanned("orbits.scan_srk", module.scan_srk, status_counts))
    patch(cli, "orbits_to_csv", tracer.spanned(
        "orbits.orbits_to_csv", cli.orbits_to_csv, lambda s: {"orbits.orbits_to_csv.bytes": len(s)}))
    patch(cli, "load_config", tracer.spanned("cli.load_config", cli.load_config))
    patch(cli, "full_report", tracer.spanned("theory.full_report", cli.full_report))
    patch(cli, "trace_growth_experiment",
          tracer.spanned("theory.trace_growth_experiment", cli.trace_growth_experiment))
    patch(cli, "trace_unstable", tracer.spanned(
        "manifolds.trace_unstable", cli.trace_unstable,
        lambda c: {"manifolds.trace_unstable.points": int(c.points.shape[0]),
                   "manifolds.trace_unstable.inserted_points": c.refinement.inserted_points}))
    patch(cli, "trace_stable", tracer.spanned(
        "manifolds.trace_stable", cli.trace_stable,
        lambda cs: {"manifolds.trace_stable.points": sum(int(c.points.shape[0]) for c in cs)}))
    patch(cli, "detect_tangencies", tracer.spanned(
        "manifolds.detect_tangencies", cli.detect_tangencies,
        lambda hits: {"manifolds.detect_tangencies.hits": len(hits)}))
    patch(cli, "curves_to_csv", tracer.spanned(
        "manifolds.curves_to_csv", cli.curves_to_csv,
        lambda s: {"manifolds.curves_to_csv.bytes": len(s)}))

    def uninstall() -> None:
        for module, name, original in reversed(saved):
            setattr(module, name, original)

    return uninstall


# -- per-layer metrics ---------------------------------------------------------

STATUSES = ("closed-form", "newton", "no-real-root", "itinerary-invalid", "newton-failed", "duplicate")
SUBCOMMANDS = ("find-orbits", "check-theory", "manifolds")

# (name, unit, better) of every per-layer metric, in print order.
PER_LAYER = (
    [
        ("mapcore.eval_map_arrays.ns_per_point_step", "ns", "lower"),
        ("mapcore.eval_map_arrays.point_steps", "count", "lower"),
        ("mapcore.eval_map_arrays.s", "s", "lower"),
        ("mapcore.eval_map.calls", "count", "lower"),
        ("mapcore.eval_map.s", "s", "lower"),
        ("basins.proximity.s", "s", "lower"),
        ("basins.proximity.ns_per_point", "ns", "lower"),
        ("basins.proximity.points", "count", "lower"),
        ("basins.steps", "count", "lower"),
        ("basins.point_steps.useful_ratio", "ratio", "higher"),
        ("basins.raster.s", "s", "lower"),
        ("basins.bookkeeping.s", "s", "lower"),
        ("basins.cells.registered", "count", "higher"),
        ("basins.cells.divergent", "count", "higher"),
        ("basins.cells.unknown", "count", "lower"),
        ("basins.iterations.mean", "steps", "lower"),
        ("basins.registry.s", "s", "lower"),
        ("basins.write_ppm.s", "s", "lower"),
        ("basins.write_ppm.bytes", "bytes", "lower"),
        ("orbits.scan_srk.s", "s", "lower"),
        ("orbits.assemble_orbit.s", "s", "lower"),
        ("orbits.assemble_orbit.calls", "count", "lower"),
        ("orbits.newton_periodic.s", "s", "lower"),
        ("orbits.newton_periodic.calls", "count", "lower"),
    ]
    + [(f"orbits.status.{st}", "count", "higher" if st in ("closed-form", "newton") else "lower")
       for st in STATUSES]
    + [
        ("orbits.orbits_to_csv.s", "s", "lower"),
        ("orbits.orbits_to_csv.bytes", "bytes", "lower"),
        ("stability.orbit_jacobian.s", "s", "lower"),
        ("stability.orbit_jacobian.calls", "count", "lower"),
        ("theory.full_report.s", "s", "lower"),
        ("theory.trace_growth_experiment.s", "s", "lower"),
        ("manifolds.trace_unstable.s", "s", "lower"),
        ("manifolds.trace_unstable.points", "count", "lower"),
        ("manifolds.trace_unstable.inserted_points", "count", "lower"),
        ("manifolds.trace_stable.s", "s", "lower"),
        ("manifolds.trace_stable.points", "count", "lower"),
        ("manifolds.detect_tangencies.s", "s", "lower"),
        ("manifolds.detect_tangencies.hits", "count", "lower"),
        ("manifolds.curves_to_csv.s", "s", "lower"),
        ("manifolds.curves_to_csv.bytes", "bytes", "lower"),
        ("cli.load_config.s", "s", "lower"),
    ]
    + [(f"cli.command.{sub}.s", "s", "lower") for sub in SUBCOMMANDS]
    + [("trace.overhead_s", "s", "lower")]
)

# What the items counted by a leaf are called; every leaf also has .s and .calls.
_LEAF_ITEMS = {"mapcore.eval_map_arrays": "point_steps", "basins.proximity": "points"}
_RATIOS = ("mapcore.eval_map_arrays.ns_per_point_step", "basins.proximity.ns_per_point",
           "basins.point_steps.useful_ratio", "basins.iterations.mean", "trace.overhead_s")


def layer_metrics(spans: list[dict], rounds: int) -> dict[str, float]:
    """Per-layer values per traced round, from spans and leaf aggregates.

    Seconds and counts are totals over the traced rounds divided by
    ``rounds``; ``ns_per_*``, ``useful_ratio`` and ``iterations.mean``
    are ratios of totals.  ``basins.bookkeeping.s`` is the self time of
    ``basins.raster`` and ``basins.classify_batch``.  A layer the
    workload never reaches reads 0; ``trace.overhead_s`` is filled in by
    the caller.
    """
    s: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        s[key] = s.get(key, 0.0) + value

    for rec in spans:
        name, dt = rec["name"], rec["end"] - rec["start"]
        add(name + ".s", dt)
        add(name + ".calls", 1)
        for key, value in rec.get("counts", {}).items():
            add(key, value)
        if name in ("basins.raster", "basins.classify_batch"):
            add("basins.bookkeeping.s", dt - rec["child_s"])
        for lname, (calls, secs, items) in rec["leaves"].items():
            add(f"{lname}.s", secs)
            add(f"{lname}.calls", calls)
            if lname in _LEAF_ITEMS:
                add(f"{lname}.{_LEAF_ITEMS[lname]}", items)
            if name == "basins.classify_batch" and lname == "mapcore.eval_map_arrays":
                add("basins.steps", calls)

    out = {name: s.get(name, 0.0) / rounds for name, _, _ in PER_LAYER if name not in _RATIOS}
    kernel_pts = s.get("mapcore.eval_map_arrays.point_steps", 0.0)
    prox_pts = s.get("basins.proximity.points", 0.0)
    total_steps = s.get("basins.point_steps.total", 0.0)
    cells = sum(s.get(f"basins.cells.{kind}", 0.0) for kind in ("registered", "divergent", "unknown"))
    out["mapcore.eval_map_arrays.ns_per_point_step"] = (
        1e9 * s.get("mapcore.eval_map_arrays.s", 0.0) / kernel_pts if kernel_pts else 0.0)
    out["basins.proximity.ns_per_point"] = (
        1e9 * s.get("basins.proximity.s", 0.0) / prox_pts if prox_pts else 0.0)
    out["basins.point_steps.useful_ratio"] = (
        s.get("basins.point_steps.useful", 0.0) / total_steps if total_steps else 0.0)
    out["basins.iterations.mean"] = s.get("basins.iterations.total", 0.0) / cells if cells else 0.0
    return out
