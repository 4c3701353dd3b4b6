"""Benchmark of srklab: four closed-loop workloads, one caller, one thread.

    python3 perfbench/run.py --workload basins-unregistered --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Runs the workload in whole rounds until ``--seconds`` of timed work
have been done, checks every round's outputs (see ``workloads``), and
prints the machine block, every metric by name and unit, the operations
attempted and failed, and as the last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` spends the first half of
the time untraced and the second half with timing wrappers installed on
srklab's cross-module names, and reports the per-layer metrics.  The
spans are written to ``.bench_out/`` when the run ends.  ``--workload
all`` runs every workload in turn, each in its own process.

srklab is imported from ``src/`` of the checkout this file sits in.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5  # fresh interpreters that repeat the set-up
REFERENCE_IMPORT_S = 0.5
IMPORT_PROBE = "import time; t0 = time.perf_counter(); import numpy, scipy.spatial; print(time.perf_counter() - t0)"

# (name, unit) of every end-to-end metric.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("command_s_p50", "s"),
    ("command_s_tail", "s"),
    ("peak_rss_mib", "MiB"),
)


class SetupError(Exception):
    pass


def setup(workload: str, seed: int, tmp: str):
    """Import srklab, read the configs and build the inputs.

    Returns the workload and the set-up's seconds.
    """
    t0 = time.perf_counter()
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import srklab
    except ImportError as err:
        raise SetupError(f"cannot import srklab from {src}: {err}") from err
    if not os.path.abspath(srklab.__file__).startswith(src + os.sep):
        raise SetupError(f"srklab was imported from {srklab.__file__}, not from {src}")
    try:
        from workloads import WORKLOADS

        make = WORKLOADS[workload][0]
        wl = make(ROOT, tmp, seed)
    except (OSError, KeyError, ValueError) as err:
        raise SetupError(f"cannot build workload {workload}: {err!r}") from err
    return wl, time.perf_counter() - t0


def _child_seconds(argv: list[str], what: str) -> float:
    """Run a fresh interpreter and read the seconds it prints last."""
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise SetupError(f"{what} failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def setup_seconds(workload: str, seed: int) -> tuple[float, float, float]:
    """Median set-up seconds of fresh interpreters, raw and speed-scaled.

    The set-up is mostly the import of numpy and scipy.spatial, whose
    speed the operation probe of ``speed`` does not follow: on a shared
    2-core virtual machine that probe swung twice as far as the set-up
    did, and so did an import of standard-library modules.  So each
    set-up sample sits between two runs of an import probe, a fresh
    interpreter importing just numpy and scipy.spatial, and is scaled by
    ``REFERENCE_IMPORT_S`` over the mean of those two: seconds on a
    machine where that import takes 0.5 s.  Returns the median raw and
    the median scaled sample, and the median import probe.
    """
    me = os.path.abspath(__file__)
    setups, probes = [], [_child_seconds(["-c", IMPORT_PROBE], "import probe")]
    for _ in range(SETUP_SAMPLES):
        setups.append(_child_seconds(
            [me, "--workload", workload, "--seed", str(seed), "--setup-probe"], "set-up probe"))
        probes.append(_child_seconds(["-c", IMPORT_PROBE], "import probe"))
    scaled = [raw * REFERENCE_IMPORT_S / ((before + after) / 2)
              for raw, before, after in zip(setups, probes, probes[1:])]
    return statistics.median(setups), statistics.median(scaled), statistics.median(probes)


def machine() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_rounds(wl, tracer, meter, seconds: float, min_rounds: int, problems: list[str]):
    """Closed loop: whole rounds until ``seconds`` of timed work are done."""
    rounds = []
    timed = 0.0
    while timed < seconds or len(rounds) < min_rounds:
        gc.collect()
        rnd = wl.run_round(tracer, meter.tick)
        meter.tick(force=True)
        timed += rnd.seconds
        problems += wl.check(rnd)
        rnd.outputs = None
        rounds.append(rnd)
    return rounds


def typical_round(rounds, field: str, seconds) -> float:
    """Sum over a round's operations of each one's median time in the run.

    ``seconds(start, end)`` turns an operation's interval into seconds.
    """
    samples: dict[str, list[float]] = {}
    for r in rounds:
        for name, (start, end) in getattr(r, field).items():
            samples.setdefault(name, []).append(seconds(start, end))
    return sum(statistics.median(times) for times in samples.values())


def end_to_end(rounds, meter, setup_s: float, tail_pct: int | None) -> dict[str, float]:
    """The end-to-end metrics, every time scaled to the reference speed."""
    wall = typical_round(rounds, "ops", meter.seconds)
    if tail_pct is None:  # one round is one command
        p50 = tail = wall
    else:
        latencies = [meter.seconds(*op) for r in rounds for op in r.ops.values()]
        p50 = statistics.median(latencies)
        tail = statistics.quantiles(latencies, n=100, method="inclusive")[tail_pct - 1]
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "items_per_s": rounds[0].items / typical_round(rounds, "core", meter.seconds),
        "command_s_p50": p50,
        "command_s_tail": tail,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def raw_seconds(start: float, end: float) -> float:
    return end - start


def traced(wl, workload: str, seed: int, seconds: float, problems: list[str]):
    """Untraced rounds, then traced ones; per-layer metrics of the latter."""
    import speed

    meter = speed.Speedometer()
    plain = run_rounds(wl, spans.NullTracer(), meter, seconds / 2, 1, problems)
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        traced_rounds = run_rounds(wl, tracer, meter, seconds / 2, 1, problems)
    finally:
        uninstall()
    layers = spans.layer_metrics(tracer.spans, len(traced_rounds))
    untraced_wall = typical_round(plain, "ops", meter.seconds)
    traced_wall = typical_round(traced_rounds, "ops", meter.seconds)
    layers["trace.overhead_s"] = traced_wall - untraced_wall
    if workload.startswith("basins"):
        # Bookkeeping is the raster's self time, so the three parts add up
        # to the span by definition; the untraced raster shows how much of
        # the span (and so of bookkeeping) the wrappers themselves cost.
        print(f"raster accounting (unscaled, per round): kernel {layers['mapcore.eval_map_arrays.s']:.6f} s "
              f"+ proximity {layers['basins.proximity.s']:.6f} s + bookkeeping "
              f"{layers['basins.bookkeeping.s']:.6f} s = basins.raster {layers['basins.raster.s']:.6f} s; "
              f"untraced raster {typical_round(plain, 'core', raw_seconds):.6f} s")
    print(f"tracing overhead: traced wall_s {traced_wall:.6f} s - untraced wall_s "
          f"{untraced_wall:.6f} s = {traced_wall - untraced_wall:.6f} s (speed-scaled)")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload}-seed{seed}.json")
    tracer.write(path, {"workload": workload, "seed": seed, "traced_rounds": len(traced_rounds)})
    print(f"spans written to {os.path.relpath(path, ROOT)}")
    units = {name: unit for name, unit, _ in spans.PER_LAYER}
    return plain + traced_rounds, {name: (layers[name], units[name]) for name, _, _ in spans.PER_LAYER}


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from workloads import WORKLOADS
    except ImportError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    results = {}
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time the set-up and print the seconds")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    tmp = os.path.join(ROOT, ".bench_tmp", f"run-{os.getpid()}")
    try:
        os.makedirs(tmp)
        wl, own_setup = setup(args.workload, args.seed, tmp)
        if args.setup_probe:
            print(own_setup)
            return 0
        if not args.trace:
            setup_raw, setup_s, import_probe = setup_seconds(args.workload, args.seed)
        print("machine " + json.dumps(machine()))
        import speed
        from workloads import WORKLOADS

        _, tail_pct, min_rounds = WORKLOADS[args.workload]

        problems: list[str] = []
        if args.trace:
            rounds, metrics = traced(wl, args.workload, args.seed, args.seconds, problems)
        else:
            meter = speed.Speedometer()
            rounds = run_rounds(wl, spans.NullTracer(), meter, args.seconds, min_rounds, problems)
            values = end_to_end(rounds, meter, setup_s, tail_pct)
            metrics = {name: (values[name], unit) for name, unit in END_TO_END}
            print(f"speed probe: median {1e3 * statistics.median(meter.probes):.3f} ms, "
                  f"range {1e3 * min(meter.probes):.3f}-{1e3 * max(meter.probes):.3f} ms, "
                  f"{len(meter.probes)} probes; reference {1e3 * speed.REFERENCE_PROBE_S:.3f} ms")
            print(f"set-up: median of {SETUP_SAMPLES} fresh interpreters {setup_raw:.6f} s, "
                  f"this process {own_setup:.6f} s; import probe median {1e3 * import_probe:.3f} ms, "
                  f"reference {1e3 * REFERENCE_IMPORT_S:.3f} ms")
            print(f"unscaled: wall_s {typical_round(rounds, 'ops', raw_seconds):.6f} s, "
                  f"setup_s {setup_raw:.6f} s")
    except (SetupError, OSError, subprocess.SubprocessError) as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(tmp))

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"rounds {len(rounds)}; operation samples {sum(len(r.ops) for r in rounds)}")
    print("round seconds (unscaled) " + " ".join(f"{r.seconds:.4f}" for r in rounds))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    print(f"operations attempted {attempted}, failed {failed}")
    for problem in problems:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
