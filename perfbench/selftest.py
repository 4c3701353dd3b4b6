"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Makes small real outputs with srklab, confirms that the checks accept
them, then corrupts one output of each kind and confirms that each
corruption is reported: a flipped basin label, an orbit point shifted by
1e-6, a swapped stability label, and a stable-set point moved off its
branch.  Exits 1 if any check misses its corruption.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import srklab.cli as cli  # noqa: E402
import srklab.orbits as orbits  # noqa: E402
from srklab.stability import StabilityClass  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from refmap import RefMap, read_params  # noqa: E402

failures = 0


def expect(name: str, clean: list[str], corrupted: list[str]) -> None:
    global failures
    ok = not clean and bool(corrupted)
    failures += not ok
    print(f"{'PASS' if ok else 'FAIL'} {name}: clean output {len(clean)} problems, "
          f"corrupted output {len(corrupted)} problems {corrupted[:1]}")


def run_cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise RuntimeError(f"srklab {' '.join(argv)} failed")


def read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def basin_label(tmp: str) -> None:
    wl = workloads.Basins(ROOT, tmp, 7, ("pp",), (24, 24), None)
    rnd = wl.run_round(spans.NullTracer(), lambda: None)
    c = wl.cases[0]
    registry, grid = rnd.outputs["pp"]
    with open(c.ppm_path, "rb") as fh:
        ppm = fh.read()
    ix, iy = next((ix, iy) for ix, iy in c.sample if grid.labels[ix, iy] >= 0)
    labels = grid.labels.copy()
    labels[ix, iy] = (labels[ix, iy] + 1) % len(registry)
    flipped = dataclasses.replace(grid, labels=labels)
    expect("flipped basin label",
           workloads.check_grid(c, registry, grid, ppm, c.sample),
           [p for p in workloads.check_grid(c, registry, flipped, ppm, c.sample) if "reference map" in p])


def orbit_rows(tmp: str) -> None:
    config = os.path.join(ROOT, "configs", "pp", "orbits.json")
    out = os.path.join(tmp, "orbits")
    run_cli(["find-orbits", "--config", config, "--out", out])
    params = read_params(config)
    text = read(os.path.join(out, "orbits.csv"))

    def check(body: str) -> list[str]:
        return workloads.check_orbits_csv("pp", RefMap(params), params, body, 0, 15)

    lines = text.split("\n")
    f = lines[5].split(",")
    f[4] = repr(float(f[4]) + 1e-6)
    shifted = "\n".join(lines[:5] + [",".join(f)] + lines[6:])
    expect("orbit point shifted by 1e-6 (orbits.csv)", check(text), check(shifted))

    stable = next(ln.split(",") for ln in lines[1:] if ",asymptotically-stable," in ln)
    key = ",".join(stable[:3]) + ","
    swapped = "\n".join(ln.replace(",asymptotically-stable,", ",saddle,") if ln.startswith(key) else ln
                        for ln in lines)
    expect("swapped stability label (orbits.csv)", check(text), check(swapped))


def large_k_orbit(tmp: str) -> None:
    wl = workloads.OrbitsLargeK(ROOT, tmp, 7, k_max=20)
    clean = orbits.scan_srk(wl.params["pp"], 0, 20).orbits
    i, o = next((i, o) for i, o in enumerate(clean) if o.k == 20 and o.method == "closed-form")

    def wrong(orbit_list) -> list:
        mislabelled, not_orbits, problems = wl.wrong_orbits("pp", orbit_list)
        return sorted(mislabelled | not_orbits) + problems

    p0 = o.points[0]
    shifted = dataclasses.replace(o, points=(type(p0)(p0.x + 1e-6, p0.y),) + o.points[1:])
    expect("orbit point shifted by 1e-6 (large-k scan)",
           wrong(clean), wrong(clean[:i] + [shifted] + clean[i + 1:]))
    other = next(s for s in StabilityClass if s is not o.stability)
    swapped = dataclasses.replace(o, stability=other)
    expect("swapped stability label (large-k scan)",
           wrong(clean), wrong(clean[:i] + [swapped] + clean[i + 1:]))


def stable_point(tmp: str) -> None:
    config = os.path.join(ROOT, "configs", "nn", "manifolds.json")
    out = os.path.join(tmp, "manifolds")
    run_cli(["manifolds", "--config", config, "--out", out])
    ref = RefMap(read_params(config))
    text = read(os.path.join(out, "stable.csv"))
    lines = text.split("\n")
    f = lines[len(lines) // 2].split(",")
    f[3] = repr(workloads._num(f[3]) + 1e-3)
    moved = "\n".join(lines[:len(lines) // 2] + [",".join(f)] + lines[len(lines) // 2 + 1:])
    expect("stable-set point moved off its branch",
           workloads.check_stable("nn", ref, 2, text), workloads.check_stable("nn", ref, 2, moved))


def main() -> int:
    tmp = os.path.join(ROOT, ".bench_tmp", f"selftest-{os.getpid()}")
    os.makedirs(tmp)
    try:
        basin_label(tmp)
        orbit_rows(tmp)
        large_k_orbit(tmp)
        stable_point(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
