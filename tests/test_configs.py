"""End-to-end runs of the 16 shipped example configs.

All four parameter cases must complete orbits + theory + manifolds +
200x200 basins in under five minutes total, and every output file must
match the SHA-256 stored in ``shipped_outputs.sha256`` (one
``<sha256>  <case>/<command>/<file>`` line per file, as printed by
``perfbench/hashes.py``).  A change that alters any output byte must
regenerate that listing and say why.
"""
from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import pytest

from srklab.cli import EXIT_OK, main

CONFIG_ROOT = Path(__file__).resolve().parent.parent / "configs"
HASH_LISTING = Path(__file__).resolve().parent / "shipped_outputs.sha256"
CASES = ("pp", "nn", "pn", "np")
COMMANDS = {
    "orbits.json": "find-orbits",
    "theory.json": "check-theory",
    "manifolds.json": "manifolds",
    "basins.json": "basins",
}


def test_configs_are_well_formed():
    for case in CASES:
        for name in COMMANDS:
            path = CONFIG_ROOT / case / name
            assert path.is_file(), path
            body = json.loads(path.read_text())
            assert "params" in body and "output_dir" in body


def test_all_shipped_configs_run_end_to_end(tmp_path):
    start = time.perf_counter()
    for case in CASES:
        for name, command in COMMANDS.items():
            out = str(tmp_path / case / name.split(".")[0])
            code = main(
                [command, "--config", str(CONFIG_ROOT / case / name), "--out", out]
            )
            assert code == EXIT_OK, f"{case}/{name} exited {code}"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"end-to-end runs took {elapsed:.0f}s"

    for case in CASES:
        assert (tmp_path / case / "orbits" / "orbits.csv").is_file()
        assert (tmp_path / case / "theory" / "theory.json").is_file()
        assert (tmp_path / case / "manifolds" / "tangencies.csv").is_file()
        ppm = tmp_path / case / "basins" / "basins.ppm"
        assert ppm.read_bytes().startswith(b"P6\n200 200\n255\n")

    listing = []
    for case in CASES:
        for name, command in COMMANDS.items():
            out = tmp_path / case / name.split(".")[0]
            for path in sorted(out.iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                listing.append(f"{digest}  {case}/{command}/{path.name}")
    assert set(listing) == set(HASH_LISTING.read_text().splitlines())
