"""Print the SHA-256 of every output file of the 16 shipped configs.

    python3 perfbench/hashes.py

Runs every ``configs/<case>/<command>.json`` of this checkout through
``srklab.cli.main`` (the code in ``src/``, one thread) into a fresh
directory under ``.bench_tmp/``, removed afterwards, and prints one
``<sha256>  <case>/<command>/<file>`` line per output file, sorted,
after a ``# exit`` and ``# seconds`` line per config.  Nothing is
stored: run it on two commits and ``diff`` the listings to show that a
change keeps every output byte-identical.  The basin configs take a few
minutes in all.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMANDS = (("orbits", "find-orbits"), ("theory", "check-theory"),
            ("manifolds", "manifolds"), ("basins", "basins"))


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from srklab.cli import main as srklab_main
    except ImportError as err:
        print(f"cannot import srklab from {ROOT}/src: {err}", file=sys.stderr)
        return 2
    out_root = os.path.join(ROOT, ".bench_tmp", f"hashes-{os.getpid()}")
    failures = 0
    lines = []
    try:
        for case in sorted(os.listdir(os.path.join(ROOT, "configs"))):
            for section, command in COMMANDS:
                config = os.path.join(ROOT, "configs", case, f"{section}.json")
                out = os.path.join(out_root, case, command)
                sink = io.StringIO()
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = srklab_main([command, "--config", config, "--out", out])
                print(f"# exit {code} seconds {time.perf_counter() - t0:.3f} {case}/{command}", flush=True)
                failures += code != 0
                for fname in sorted(os.listdir(out)) if os.path.isdir(out) else []:
                    with open(os.path.join(out, fname), "rb") as fh:
                        digest = hashlib.sha256(fh.read()).hexdigest()
                    lines.append(f"{digest}  {case}/{command}/{fname}")
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(out_root))
    print("\n".join(lines))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
