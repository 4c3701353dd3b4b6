"""The four benchmark workloads and the checks on their outputs.

A workload is built from ``WORKLOADS`` and then driven in rounds:
``run_round(tracer, tick)`` does the timed work once, calling ``tick``
before each operation so that the machine's speed can be probed between
operations, and returns a ``Round``; ``check(round)`` compares that
round's outputs with the reference computations in ``refmap`` and
returns a list of problems (``orbits-largek`` checks each parameter set
within the round, outside its timed intervals, and keeps only the
problems).  The first round is checked in full; every
later round must reproduce the first round's outputs exactly.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import shutil
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import srklab.basins as basins
import srklab.cli as cli
import srklab.manifolds as manifolds
import srklab.orbits as orbits
from srklab.mapcore import Rect
from srklab.params import MapParams

from refmap import STABLE, RefMap, exact_srk_labels, read_params, stability_label
from spans import status_counts

_clock = time.perf_counter

CHECKED_CELLS = 40  # sampled cells per raster
CHECKED_ORBIT_ROWS = 20  # sampled orbits per case whose CSV rows are compared
CLOSURE_TOL = 1e-9
AXIS_TOL = 1e-9


@dataclass
class Round:
    ops: dict[str, tuple[float, float]]  # (start, end) of each operation, same names every round
    core: dict[str, tuple[float, float]]  # (start, end) of each operation's raster, scan or command
    items: int  # cells, k values or commands per round
    attempted: int
    failed: int
    outputs: dict = field(default_factory=dict)  # what check() needs

    @property
    def seconds(self) -> float:
        """Timed work of the round."""
        return sum(end - start for start, end in self.ops.values())


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _close(a: float, b: float, tol: float = CLOSURE_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _report_failure(what: str) -> None:
    print(f"operation failed: {what}", flush=True)
    traceback.print_exc()


# -- basin rasters --------------------------------------------------------------


@dataclass
class BasinCase:
    name: str
    params: MapParams
    ref: RefMap
    window: Rect
    nx: int
    ny: int
    k_min: int
    k_max: int
    limits: basins.ClassifyLimits
    ppm_path: str
    sample: list[tuple[int, int]]


class Basins:
    """Auto-registry basin rasters of two reference cases, one thread."""

    def __init__(self, root: str, tmp: str, seed: int, cases, resolution, k_max) -> None:
        rng = random.Random(seed)
        self.cases = []
        for case in cases:
            path = os.path.join(root, "configs", case, "basins.json")
            with open(path, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
            section = cfg["basins"]
            nx, ny = resolution or section["resolution"]
            defaults = basins.ClassifyLimits()
            limits = basins.ClassifyLimits(
                max_iter=section.get("max_iter", defaults.max_iter),
                escape_radius=section.get("escape_radius", defaults.escape_radius),
                prox_tol=section.get("prox_tol", defaults.prox_tol),
            )
            cells = [(ix, iy) for ix in range(nx) for iy in range(ny)]
            self.cases.append(BasinCase(
                name=case,
                params=MapParams.from_dict(cfg["params"]),
                ref=RefMap(cfg["params"]),
                window=Rect(*section["window"]),
                nx=nx,
                ny=ny,
                k_min=section.get("k_min", 0),
                k_max=section.get("k_max", 15) if k_max is None else k_max,
                limits=limits,
                ppm_path=os.path.join(tmp, f"{case}.ppm"),
                sample=rng.sample(cells, CHECKED_CELLS),
            ))
        rng.shuffle(self.cases)
        self.first: dict[str, tuple] = {}

    def run_round(self, tracer, tick) -> Round:
        ops, core, outputs = {}, {}, {}
        cells = failed = 0
        for c in self.cases:
            tick()
            op_start = _clock()
            try:
                with tracer.span("basins.registry"):
                    with tracer.span("orbits.scan_srk") as rec:
                        result = orbits.scan_srk(c.params, c.k_min, c.k_max)
                        if tracer.enabled:
                            rec["counts"] = status_counts(result)
                    registry = basins.AttractorRegistry.from_orbits(c.params, result.orbits)
                t0 = _clock()
                with tracer.span("basins.raster") as rec:
                    grid = basins.raster(c.params, registry, c.window, c.nx, c.ny, c.limits, threads=1)
                core[c.name] = (t0, _clock())
                with tracer.span("basins.write_ppm") as ppm_rec:
                    basins.write_ppm(grid, registry, c.ppm_path)
                ops[c.name] = (op_start, _clock())
            except Exception:
                _report_failure(f"basins raster of {c.name}")
                failed += 1
                continue
            if tracer.enabled:
                st = grid.stats
                rec["counts"] = {
                    "basins.cells.registered": st.classified,
                    "basins.cells.divergent": st.divergent,
                    "basins.cells.unknown": st.unknown,
                    "basins.iterations.total": st.mean_iterations * st.total_points,
                }
                ppm_rec["counts"] = {"basins.write_ppm.bytes": os.path.getsize(c.ppm_path)}
            cells += c.nx * c.ny
            outputs[c.name] = (registry, grid)
        return Round(ops, core, cells, len(self.cases), failed, outputs)

    def check(self, rnd: Round) -> list[str]:
        problems = []
        for c in self.cases:
            if c.name not in rnd.outputs:
                continue
            registry, grid = rnd.outputs[c.name]
            with open(c.ppm_path, "rb") as fh:
                ppm = fh.read()
            if c.name in self.first:
                labels, digest = self.first[c.name]
                if not np.array_equal(labels, grid.labels) or digest != _sha(ppm):
                    problems.append(f"{c.name}: raster differs from the first round")
                continue
            self.first[c.name] = (grid.labels.copy(), _sha(ppm))
            problems += check_registry(c, registry)
            problems += check_grid(c, registry, grid, ppm, c.sample)
        return problems


def check_registry(c: BasinCase, registry) -> list[str]:
    problems = []
    for e in registry.entries:
        pts = [(float(x), float(y)) for x, y in e.points]
        x, y = c.ref.iterate(*pts[0], e.period)
        if not (_close(x, pts[0][0]) and _close(y, pts[0][1])):
            problems.append(f"{c.name}: attractor {e.label} does not return after one period")
        trace, det = c.ref.orbit_trace_det(pts)
        if abs(trace) > 1e-8 or abs(det - 0.5) > 1e-8:
            problems.append(f"{c.name}: attractor {e.label} has trace {trace}, det {det}")
    return problems


def _cell_ok(c: BasinCase, registry, label: int, x: float, y: float) -> bool:
    """Follow one cell centre with the reference map and test its label."""
    lim = c.limits
    radius = lim.escape_radius
    step = c.ref.step
    if label == basins.DIVERGENT:
        for _ in range(lim.max_iter + 1):
            if not (abs(x) <= radius and abs(y) <= radius):  # NaN escapes too
                return True
            x, y = step(x, y)
        return False
    if label == basins.UNKNOWN:
        pts, _, _ = registry.all_points()
        tail = max(e.period for e in registry.entries)
        for i in range(lim.max_iter + 1):
            if not (abs(x) <= radius and abs(y) <= radius):
                return False
            if i >= lim.max_iter - tail:
                if (np.abs(pts - (x, y)).max(axis=1) <= lim.prox_tol).any():
                    return False
            x, y = step(x, y)
        return True
    entry = registry.entries[label]
    pts = [(float(px), float(py)) for px, py in entry.points]
    tol = lim.prox_tol
    xlo, xhi = min(p[0] for p in pts) - tol, max(p[0] for p in pts) + tol
    ylo, yhi = min(p[1] for p in pts) - tol, max(p[1] for p in pts) + tol
    run = 0
    for _ in range(lim.max_iter + 1):
        if not (abs(x) <= radius and abs(y) <= radius):
            return False
        near = (xlo <= x <= xhi and ylo <= y <= yhi
                and any(abs(x - px) <= tol and abs(y - py) <= tol for px, py in pts))
        run = run + 1 if near else 0
        if run >= entry.period:
            return True
        x, y = step(x, y)
    return False


def check_grid(c: BasinCase, registry, grid, ppm: bytes, sample) -> list[str]:
    problems = []
    labels = grid.labels
    counts = (int((labels >= 0).sum()), int((labels == basins.DIVERGENT).sum()),
              int((labels == basins.UNKNOWN).sum()))
    if sum(counts) != c.nx * c.ny:
        problems.append(f"{c.name}: cell counts {counts} do not add up to {c.nx * c.ny}")
    header = f"P6\n{c.nx} {c.ny}\n255\n".encode("ascii")
    if not ppm.startswith(header) or len(ppm) != len(header) + 3 * c.nx * c.ny:
        problems.append(f"{c.name}: malformed PPM")
        return problems
    colors = {basins.UNKNOWN: (0, 0, 0), basins.DIVERGENT: (255, 255, 255)}
    colors.update({e.id: e.color for e in registry.entries})
    dx, dy = c.window.width / c.nx, c.window.height / c.ny
    for ix, iy in sample:
        label = int(labels[ix, iy])
        x = c.window.xmin + (ix + 0.5) * dx
        y = c.window.ymin + (iy + 0.5) * dy
        if label not in colors or not _cell_ok(c, registry, label, x, y):
            problems.append(f"{c.name}: cell ({ix}, {iy}) labelled {label} disagrees with the reference map")
        pos = len(header) + 3 * ((c.ny - 1 - iy) * c.nx + ix)
        if tuple(ppm[pos:pos + 3]) != colors.get(label):
            problems.append(f"{c.name}: pixel of cell ({ix}, {iy}) has the wrong colour")
    return problems


# -- large-k orbit scans ----------------------------------------------------------

ORBIT_K_MAX = 400
PERTURBED = {"c1": "0.1", "c2": "-0.3", "d3": "0.05", "d4": "0.05"}


class OrbitsLargeK:
    """scan_srk(0, 400) for the four cases and a perturbed set, then CSV."""

    def __init__(self, root: str, tmp: str, seed: int, k_max: int = ORBIT_K_MAX) -> None:
        from decimal import Decimal

        self.k_max = k_max
        self.cases = []
        for case in ("pp", "nn", "pn", "np"):
            path = os.path.join(root, "configs", case, "orbits.json")
            self.cases.append((case, read_params(path), read_params(path, exact=True)))
        pp_float, pp_exact = self.cases[0][1], self.cases[0][2]
        self.cases.append((
            "pp-perturbed",
            {**pp_float, **{k: float(v) for k, v in PERTURBED.items()}},
            {**pp_exact, **{k: Decimal(v) for k, v in PERTURBED.items()}},
        ))
        self.params = {name: MapParams.from_dict(p) for name, p, _ in self.cases}
        self.refs = {name: RefMap(p) for name, p, _ in self.cases}
        self.exact = {name: p for name, _, p in self.cases}
        self.rng = random.Random(seed)
        self.rng.shuffle(self.cases)
        self.labels: dict[str, dict] = {}
        self.first: dict[str, tuple[str, int]] = {}

    def exact_labels(self, name: str) -> dict:
        if name not in self.labels:
            self.labels[name] = exact_srk_labels(self.exact[name], self.k_max)
        return self.labels[name]

    def run_round(self, tracer, tick) -> Round:
        """Each set's scan and CSV are checked as soon as they are made,
        outside the timed intervals, and then dropped: the process holds
        one scan and its CSV at a time, as ``find-orbits`` does."""
        ops, core, problems = {}, {}, {}
        attempted = failed = 0
        for name, _, _ in self.cases:
            tick()
            t0 = _clock()
            with tracer.span("orbits.scan_srk") as rec:
                result = orbits.scan_srk(self.params[name], 0, self.k_max)
                if tracer.enabled:
                    rec["counts"] = status_counts(result)
            ops[f"{name} scan"] = core[name] = (t0, _clock())
            tick()
            t1 = _clock()
            with tracer.span("orbits.orbits_to_csv") as rec:
                text = orbits.orbits_to_csv(result.orbits)
            ops[f"{name} csv"] = (t1, _clock())
            if tracer.enabled:
                rec["counts"] = {"orbits.orbits_to_csv.bytes": len(text)}
            attempted += sum(r.status == "closed-form" for r in result.records)
            wrong, problems[name] = self.check_set(name, result, text)
            failed += wrong
            del result, text
        items = len(self.cases) * (self.k_max + 1)
        return Round(ops, core, items, attempted, failed, problems)

    def check(self, rnd: Round) -> list[str]:
        return [p for name in sorted(rnd.outputs) for p in rnd.outputs[name]]

    def check_set(self, name: str, result, text: str) -> tuple[int, list[str]]:
        """(wrong closed-form orbits, problems) of one set's scan and CSV.

        A closed-form orbit is wrong when its label contradicts the exact
        one or its points are not a single-round orbit of the reference
        map.  Later rounds must give the first round's CSV.
        """
        digest = _sha(text.encode("ascii"))
        if name in self.first:
            first_digest, wrong = self.first[name]
            return wrong, [] if digest == first_digest else [f"{name}: orbit CSV differs from the first round"]
        mislabelled, not_orbits, problems = self.wrong_orbits(name, result.orbits)
        wrong = len(mislabelled | not_orbits)
        self.first[name] = (digest, wrong)
        print(f"{name}: {len(mislabelled)} closed-form orbits mislabelled, "
              f"{len(not_orbits)} not closing under the map")
        return wrong, problems + check_orbit_csv(name, result.orbits, text, self.rng)

    def wrong_orbits(self, name: str, orbit_list) -> tuple[set, set, list[str]]:
        """(k, branch) of the closed-form orbits whose label the exact one
        contradicts, of those that are not single-round orbits of the
        reference map, and the problems found with Newton orbits."""
        ref = self.refs[name]
        exact = self.exact_labels(name)
        mislabelled, not_orbits, problems = set(), set(), []
        for o in orbit_list:
            if o.method != "closed-form":
                if not _is_orbit(ref, o.points):
                    problems.append(f"{name}: Newton SR_{o.k} is not an orbit of the map")
                continue
            key = (o.k, o.branch.value)
            if exact.get(key) != o.stability.value:
                mislabelled.add(key)
            if not (_is_orbit(ref, o.points) and _single_round(ref, o.points)):
                not_orbits.add(key)
        return mislabelled, not_orbits, problems


def _is_orbit(ref: RefMap, pts) -> bool:
    """The reference map takes each point to the next and the last to the first."""
    for j, (x, y) in enumerate(pts):
        nx, ny = ref.step(x, y)
        tx, ty = pts[(j + 1) % len(pts)]
        if not (_close(nx, tx) and _close(ny, ty)):
            return False
    return True


def _single_round(ref: RefMap, pts) -> bool:
    regions = [ref.region(y) for _, y in pts]
    return regions[0] == 2 and all(r == 0 for r in regions[1:])


def check_orbit_csv(name: str, orbit_list, text: str, rng: random.Random) -> list[str]:
    """Header, row count and the rows of seed-drawn orbits, read line by
    line so that the check holds no second copy of the CSV."""
    header = "k,period,branch,j,x_j,y_j,trace,det,stability,residual\n"
    if not text.startswith(header):
        return [f"{name}: orbit CSV header is wrong"]
    offsets, row = [], 1
    for o in orbit_list:
        offsets.append(row)
        row += o.period
    newlines = text.count("\n")
    if newlines != row or not text.endswith("\n"):
        return [f"{name}: orbit CSV has {newlines - 1} rows, expected {row - 1}"]
    picks = rng.sample(range(len(orbit_list)), min(CHECKED_ORBIT_ROWS, len(orbit_list)))
    wanted = {offsets[i] + j for i in picks for j in range(orbit_list[i].period)}
    lines = {n: line.rstrip("\n") for n, line in enumerate(io.StringIO(text)) if n in wanted}
    problems = []
    for i in picks:
        o = orbit_list[i]
        for j, p in enumerate(o.points):
            f = lines[offsets[i] + j].split(",")
            if (int(f[0]), int(f[1]), f[2], int(f[3])) != (o.k, o.period, o.branch.value, j) or (
                float(f[4]), float(f[5]), float(f[6]), float(f[7]), f[8]
            ) != (p.x, p.y, o.trace, o.det, o.stability.value):
                problems.append(f"{name}: CSV row for SR_{o.k} {o.branch.value} point {j} is wrong")
                break
    return problems


# -- the interactive commands -----------------------------------------------------

LAB_CASES = ("pp", "nn", "pn", "np")
LAB_COMMANDS = (("find-orbits", "orbits"), ("check-theory", "theory"), ("manifolds", "manifolds"))
MIN_PASSES = 9  # 108 command latencies, so p90 has at least ten beyond it


class LabCommands:
    """The twelve shipped non-basin configs through ``srklab.cli.main``."""

    def __init__(self, root: str, tmp: str, seed: int) -> None:
        self.tmp = tmp
        self.rng = random.Random(seed)
        self.configs = {}
        for case in LAB_CASES:
            for sub, section in LAB_COMMANDS:
                path = os.path.join(root, "configs", case, f"{section}.json")
                with open(path, "r", encoding="utf-8") as fh:
                    self.configs[(case, sub)] = (path, json.load(fh))
        self.commands = list(self.configs)
        self.passes = 0
        self.first: dict[tuple, tuple[dict[str, str], list[str]]] = {}

    def run_round(self, tracer, tick) -> Round:
        self.passes += 1
        self.rng.shuffle(self.commands)
        ops, outputs = {}, {}
        failed = 0
        for case, sub in self.commands:
            tick()
            out = os.path.join(self.tmp, f"pass{self.passes}-{case}-{sub}")
            argv = [sub, "--config", self.configs[(case, sub)][0], "--out", out]
            sink = io.StringIO()
            t0 = _clock()
            try:
                with tracer.span(f"cli.command.{sub}"):
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                        code = cli.main(argv)
            except Exception:
                code = None
                _report_failure(" ".join(argv))
            ops[f"{case} {sub}"] = (t0, _clock())
            if code != 0:
                failed += 1
                print(f"command failed with exit code {code}: {' '.join(argv)}\n{sink.getvalue()}")
            else:
                outputs[(case, sub)] = out
        n = len(self.commands)
        return Round(ops, ops, n, n, failed, outputs)

    def check(self, rnd: Round) -> list[str]:
        """Also counts as failed each command that wrote a malformed CSV."""
        problems = []
        for key, out in rnd.outputs.items():
            files = {}
            for fname in sorted(os.listdir(out)):
                with open(os.path.join(out, fname), "rb") as fh:
                    files[fname] = fh.read()
            shutil.rmtree(out)
            digests = {fname: _sha(data) for fname, data in files.items()}
            if key in self.first:
                first_digests, malformed = self.first[key]
                if first_digests != digests:
                    problems.append(f"{key}: outputs differ from the first pass")
                rnd.failed += bool(malformed)
                continue
            text = {fname: data.decode("utf-8") for fname, data in files.items()}
            malformed = [fname for fname, body in text.items()
                         if fname.endswith(".csv") and not _plain_csv(body)]
            self.first[key] = (digests, malformed)
            if malformed:
                rnd.failed += 1
                print(f"operation failed: {' '.join(key)} wrote non-numeric fields in {malformed}")
            problems += check_command(key[0], key[1], self.configs[key][1], text)
        return problems


_CSV_FIELD = re.compile(r"[A-Za-z0-9_.+-]*")


def _plain_csv(text: str) -> bool:
    """Every field is a bare number or word, as a CSV reader expects."""
    return all(_CSV_FIELD.fullmatch(f) for line in text.splitlines() for f in line.split(","))


def _num(field: str) -> float:
    """A float field, also when written as numpy's ``np.float64(...)`` repr."""
    if field.startswith("np.float64(") and field.endswith(")"):
        field = field[len("np.float64("):-1]
    return float(field)


def _expected_stable_k(params: dict, k_min: int, k_max: int) -> set[int]:
    """Stable SR_k indices from the paper's table of the reference cases."""
    preserving = params["lambda"] * params["sigma"] > 0
    if preserving:
        return set(range(k_min, k_max + 1))
    parity = 0 if params["d1"] > 0 else 1
    return {k for k in range(k_min, k_max + 1) if k % 2 == parity}


def check_command(case: str, sub: str, cfg: dict, text: dict[str, str]) -> list[str]:
    where = f"{case} {sub}"
    ref = RefMap(cfg["params"])
    if sub == "find-orbits":
        section = cfg["orbits"]
        return check_orbits_csv(where, ref, cfg["params"], text.get("orbits.csv", ""),
                                section.get("k_min", 0), section.get("k_max", 15))
    if sub == "check-theory":
        return check_theory_json(where, text.get("theory.json", "{}"))
    section = cfg["manifolds"]
    return (check_unstable(where, cfg, text.get("unstable.csv", ""))
            + check_stable(where, ref, section.get("depth", 2), text.get("stable.csv", ""))
            + check_tangencies(where, section.get("axis_tol", 1e-3), text.get("tangencies.csv", "")))


def check_orbits_csv(where, ref, params, text, k_min, k_max) -> list[str]:
    """Orbit rows: chains of the reference map, labels that fit trace and
    determinant, and trace 0 / determinant 1/2 on every stable SR_k."""
    lines = text.strip().split("\n")
    if not lines or lines[0] != "k,period,branch,j,x_j,y_j,trace,det,stability,residual":
        return [f"{where}: orbits.csv header is wrong"]
    groups: dict[tuple, list] = {}
    for line in lines[1:]:
        f = line.split(",")
        groups.setdefault((int(f[0]), f[2]), []).append(f)
    problems = []
    stable_k = set()
    for (k, branch), rows in groups.items():
        pts = [(float(f[4]), float(f[5])) for f in rows]
        trace, det, label = float(rows[0][6]), float(rows[0][7]), rows[0][8]
        for j, (x, y) in enumerate(pts):
            nx, ny = ref.step(x, y)
            tx, ty = pts[(j + 1) % len(pts)]
            if not (_close(nx, tx) and _close(ny, ty)):
                problems.append(f"{where}: SR_{k} {branch} point {j} is not mapped to point {j + 1}")
                break
        ref_trace, ref_det = ref.orbit_trace_det(pts)
        if not (_close(trace, ref_trace, 1e-6) and _close(det, ref_det, 1e-6)):
            problems.append(f"{where}: SR_{k} {branch} trace/det {trace}, {det} != {ref_trace}, {ref_det}")
        if stability_label(trace, det) != label:
            problems.append(f"{where}: SR_{k} {branch} labelled {label}")
        if label == STABLE:
            stable_k.add(k)
            if abs(trace) > 1e-9 or abs(det - 0.5) > 1e-9:
                problems.append(f"{where}: stable SR_{k} has trace {trace}, det {det}")
    expected = _expected_stable_k(params, k_min, k_max)
    if stable_k != expected:
        problems.append(f"{where}: stable SR_k at k={sorted(stable_k)}, expected {sorted(expected)}")
    return problems


def check_theory_json(where: str, text: str) -> list[str]:
    report = json.loads(text).get("report", {})
    problems = []
    if report.get("hypotheses_pass") is not True:
        problems.append(f"{where}: hypotheses do not pass")
    for name, verdict in report.get("conditions", {}).items():
        if verdict["applicable"] and not verdict["passed"]:
            problems.append(f"{where}: condition {name} fails")
    predicted = report.get("predicted", {})
    for key, want in (("tau_inf_minus", 0.0), ("tau_inf_plus", 3.0), ("delta_inf", 0.5)):
        if abs(predicted.get(key, float("nan")) - want) > 1e-12 or key not in predicted:
            problems.append(f"{where}: predicted {key} = {predicted.get(key)}, expected {want}")
    return problems


def _curve_points(text: str) -> list[tuple[float, float]]:
    rows = (line.split(",") for line in text.strip().split("\n")[1:])
    return [(_num(f[2]), _num(f[3])) for f in rows]


def check_unstable(where: str, cfg: dict, text: str) -> list[str]:
    """Each unstable point is the reference map's g-fold image of (0, t).

    The seed parameter t and generation g of each point are not in the
    CSV; they come from tracing the same curve again with the library,
    whose points must equal the CSV's.
    """
    section = cfg["manifolds"]
    curve = manifolds.trace_unstable(
        MapParams.from_dict(cfg["params"]), section["n_images"], Rect(*section["clip"]))
    pts = _curve_points(text)
    if pts != [(float(x), float(y)) for x, y in curve.points]:
        return [f"{where}: unstable.csv differs from the traced curve"]
    ref = RefMap(cfg["params"])
    for (x, y), t, g in zip(pts, curve.seed_t, curve.generation):
        rx, ry = ref.iterate(0.0, float(t), int(g))
        if not (_close(rx, x) and _close(ry, y)):
            return [f"{where}: unstable point ({x}, {y}) is not f^{g}(0, {t})"]
    return []


def check_stable(where: str, ref: RefMap, depth: int, text: str) -> list[str]:
    for x, y in _curve_points(text):
        fx, fy = ref.iterate(x, y, depth)
        if not abs(fy) <= AXIS_TOL:
            return [f"{where}: stable point ({x}, {y}) has f^{depth} off the x-axis (y={fy})"]
    return []


def check_tangencies(where: str, axis_tol: float, text: str) -> list[str]:
    for line in text.strip().split("\n")[1:]:
        y = _num(line.split(",")[1])
        if not abs(y) <= axis_tol:
            return [f"{where}: tangency at y={y} is off the axis"]
    return []


# -- registry ----------------------------------------------------------------------

# name -> (constructor, percentile of command latency reported as the tail
# or None where one round is one command, fewest rounds in a run)
WORKLOADS = {
    "basins-unregistered": (
        lambda root, tmp, seed: Basins(root, tmp, seed, ("pn", "nn"), (40, 40), None), None, 1),
    "basins-registered": (
        lambda root, tmp, seed: Basins(root, tmp, seed, ("pp", "np"), None, 30), None, 1),
    "orbits-largek": (OrbitsLargeK, None, 1),
    "lab-commands": (LabCommands, 90, MIN_PASSES),
}
