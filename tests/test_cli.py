from __future__ import annotations

import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest

from srklab.cli import EXIT_CONFIG, EXIT_HYPOTHESIS_FAIL, EXIT_IO, EXIT_OK, main

PP_PARAMS = {"lambda": 0.8, "sigma": 1.25, "c2": -0.5, "d1": 1.0, "d5": 1.0}
NP_PARAMS = {"lambda": -0.8, "sigma": 1.25, "c2": -0.5, "d1": -1.0, "d5": 1.0}
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(json.dumps(body, indent=2))
    return str(path)


def orbit_config(tmp_path, params=PP_PARAMS, out="out", k_min=0, k_max=15):
    return write_config(
        tmp_path,
        "orbits.json",
        {
            "params": params,
            "output_dir": str(tmp_path / out),
            "orbits": {"k_min": k_min, "k_max": k_max},
        },
    )


class TestConfigValidation:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "bad.json",
            {"params": PP_PARAMS, "orbits": {}, "typo_key": 1},
        )
        assert main(["find-orbits", "--config", cfg]) == EXIT_CONFIG
        assert "typo_key" in capsys.readouterr().err

    def test_unknown_section_key(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "bad.json",
            {"params": PP_PARAMS, "orbits": {"k_min": 0, "bogus": 3}},
        )
        assert main(["find-orbits", "--config", cfg]) == EXIT_CONFIG
        assert "bogus" in capsys.readouterr().err

    def test_two_sections_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "bad.json",
            {"params": PP_PARAMS, "orbits": {}, "theory": {}},
        )
        assert main(["find-orbits", "--config", cfg]) == EXIT_CONFIG

    def test_section_subcommand_mismatch(self, tmp_path):
        cfg = write_config(tmp_path, "bad.json", {"params": PP_PARAMS, "orbits": {}})
        assert main(["check-theory", "--config", cfg]) == EXIT_CONFIG

    def test_missing_file(self, tmp_path):
        assert main(["find-orbits", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["find-orbits", "--config", str(path)]) == EXIT_CONFIG

    def test_bad_param_key(self, tmp_path, capsys):
        params = dict(PP_PARAMS)
        params["lambduh"] = 0.5
        cfg = write_config(tmp_path, "bad.json", {"params": params, "orbits": {}})
        assert main(["find-orbits", "--config", cfg]) == EXIT_CONFIG
        assert "lambduh" in capsys.readouterr().err


class TestFindOrbits:
    def test_pp_full_scan(self, tmp_path):
        cfg = orbit_config(tmp_path)
        assert main(["find-orbits", "--config", cfg]) == EXIT_OK
        out = tmp_path / "out"
        orbits = (out / "orbits.csv").read_text()
        rows = orbits.strip().splitlines()[1:]
        stable_rows = [r for r in rows if "asymptotically-stable" in r]
        ks = {int(r.split(",")[0]) for r in stable_rows}
        assert ks == set(range(16))

    def test_odd_parity_case(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "orbits.json",
            {
                "params": NP_PARAMS,
                "output_dir": str(tmp_path / "out"),
                "orbits": {"k_min": 0, "k_max": 15},
            },
        )
        assert main(["find-orbits", "--config", cfg]) == EXIT_OK
        rows = (tmp_path / "out" / "orbits.csv").read_text().strip().splitlines()[1:]
        stable_ks = {
            int(r.split(",")[0]) for r in rows if "asymptotically-stable" in r
        }
        assert stable_ks == {1, 3, 5, 7, 9, 11, 13, 15}

    def test_exit_zero_even_with_missing_k(self, tmp_path):
        # d1 = 1.01 kills every k >= 19; the scan still succeeds.
        params = dict(PP_PARAMS)
        params["d1"] = 1.01
        cfg = write_config(
            tmp_path,
            "orbits.json",
            {
                "params": params,
                "output_dir": str(tmp_path / "out"),
                "orbits": {"k_min": 19, "k_max": 22},
            },
        )
        assert main(["find-orbits", "--config", cfg]) == EXIT_OK
        rows = (tmp_path / "out" / "orbits.csv").read_text().strip().splitlines()
        assert len(rows) == 1  # header only


class TestCheckTheory:
    def test_pass_case(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "theory.json",
            {"params": PP_PARAMS, "output_dir": str(tmp_path / "out"), "theory": {}},
        )
        assert main(["check-theory", "--config", cfg]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "theory.json").read_text())
        assert report["report"]["hypotheses_pass"] is True

    def test_violation_exit_code(self, tmp_path):
        params = dict(PP_PARAMS)
        params["sigma"] = 1.3
        cfg = write_config(
            tmp_path,
            "theory.json",
            {"params": params, "output_dir": str(tmp_path / "out"), "theory": {}},
        )
        assert main(["check-theory", "--config", cfg]) == EXIT_HYPOTHESIS_FAIL
        report = json.loads((tmp_path / "out" / "theory.json").read_text())
        failed = [
            name
            for name, v in report["report"]["conditions"].items()
            if v["applicable"] and not v["passed"]
        ]
        assert failed == ["eigenvalue_product"]

    def test_growth_diagnostic_section(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "theory.json",
            {
                "params": PP_PARAMS,
                "output_dir": str(tmp_path / "out"),
                "theory": {
                    "perturbations": [{"d1": 0.99}],
                    "growth_k_min": 6,
                    "growth_k_max": 16,
                },
            },
        )
        assert main(["check-theory", "--config", cfg]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "theory.json").read_text())
        ratio = report["growth"][0]["fitted_ratio"]
        assert ratio == pytest.approx(1.2363, abs=2e-4)


class TestManifolds:
    def test_tangency_row_near_homoclinic_point(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "manifolds.json",
            {
                "params": PP_PARAMS,
                "output_dir": str(tmp_path / "out"),
                "manifolds": {"n_images": 45, "depth": 1, "axis_tol": 1e-3},
            },
        )
        assert main(["manifolds", "--config", cfg]) == EXIT_OK
        rows = (tmp_path / "out" / "tangencies.csv").read_text().strip().splitlines()[1:]
        tangential = [r.split(",") for r in rows if r.split(",")[2] == "tangential"]
        assert any(
            abs(float(r[0]) - 1.0) <= 1e-6 and abs(float(r[1])) <= 1e-6
            for r in tangential
        )

    def test_depth_zero_single_branch(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "manifolds.json",
            {
                "params": PP_PARAMS,
                "output_dir": str(tmp_path / "out"),
                "manifolds": {"n_images": 1, "depth": 0},
            },
        )
        assert main(["manifolds", "--config", cfg]) == EXIT_OK
        rows = (tmp_path / "out" / "stable.csv").read_text().strip().splitlines()[1:]
        branch_ids = {r.split(",")[0] for r in rows}
        assert branch_ids == {"0"}

    def test_clip_excluding_tangency_point(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "manifolds.json",
            {
                "params": PP_PARAMS,
                "output_dir": str(tmp_path / "out"),
                "manifolds": {
                    "n_images": 45,
                    "depth": 0,
                    "clip": [-0.5, 0.5, 0.5, 2.0],
                    "axis_tol": 1e-3,
                },
            },
        )
        assert main(["manifolds", "--config", cfg]) == EXIT_OK
        rows = (tmp_path / "out" / "tangencies.csv").read_text().strip().splitlines()[1:]
        assert not any(abs(float(r.split(",")[0]) - 1.0) <= 1e-3 for r in rows)

    def test_curve_csv_fields_are_plain_numbers(self, tmp_path):
        config = CONFIG_DIR / "pp" / "manifolds.json"
        out = tmp_path / "out"
        assert main(["manifolds", "--config", str(config), "--out", str(out)]) == EXIT_OK
        for name in ("unstable.csv", "stable.csv"):
            with open(out / name, newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert rows, name
            for row in rows:
                float(row["x"]), float(row["y"])  # raises on e.g. "np.float64(0.1)"


class TestBasins:
    def test_small_raster_outputs(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "basins.json",
            {
                "params": PP_PARAMS,
                "output_dir": str(tmp_path / "out"),
                "basins": {
                    "resolution": [24, 24],
                    "max_iter": 2000,
                    "registry": "auto",
                    "k_min": 0,
                    "k_max": 8,
                },
            },
        )
        assert main(["basins", "--config", cfg]) == EXIT_OK
        out = tmp_path / "out"
        assert (out / "basins.ppm").read_bytes().startswith(b"P6\n24 24\n255\n")
        legend = (out / "legend.csv").read_text().strip().splitlines()
        assert len(legend) == 10  # header + 9 stable orbits (k = 0..8)
        stats = (out / "stats.csv").read_text()
        assert stats.startswith("label,cells,fraction")

    def test_resolution_override_and_reproducibility(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "basins.json",
            {
                "params": PP_PARAMS,
                "output_dir": str(tmp_path / "a"),
                "basins": {
                    "resolution": [64, 64],
                    "max_iter": 1500,
                    "registry": "auto",
                    "k_min": 0,
                    "k_max": 6,
                },
            },
        )
        args = ["basins", "--config", cfg, "--resolution", "20x20"]
        assert main(args + ["--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(args + ["--out", str(tmp_path / "b")]) == EXIT_OK
        assert (
            main(args + ["--out", str(tmp_path / "c"), "--threads", "4"]) == EXIT_OK
        )
        bytes_a = (tmp_path / "a" / "basins.ppm").read_bytes()
        assert bytes_a.startswith(b"P6\n20 20\n255\n")
        assert bytes_a == (tmp_path / "b" / "basins.ppm").read_bytes()
        assert bytes_a == (tmp_path / "c" / "basins.ppm").read_bytes()
        for name in ("legend.csv", "stats.csv"):
            assert (tmp_path / "a" / name).read_text() == (
                tmp_path / "b" / name
            ).read_text()

    def test_registry_csv_round_trip(self, tmp_path):
        orbits_cfg = orbit_config(tmp_path, k_max=6)
        assert main(["find-orbits", "--config", orbits_cfg]) == EXIT_OK
        registry_path = str(tmp_path / "out" / "orbits.csv")
        cfg = write_config(
            tmp_path,
            "basins.json",
            {
                "params": PP_PARAMS,
                "output_dir": str(tmp_path / "basins_out"),
                "basins": {
                    "resolution": [16, 16],
                    "max_iter": 1500,
                    "registry": registry_path,
                },
            },
        )
        assert main(["basins", "--config", cfg]) == EXIT_OK
        legend = (tmp_path / "basins_out" / "legend.csv").read_text().strip().splitlines()
        assert len(legend) == 8  # header + stable k = 0..6

    def test_missing_registry_csv_is_io_error(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "basins.json",
            {
                "params": PP_PARAMS,
                "output_dir": str(tmp_path / "out"),
                "basins": {"resolution": [8, 8], "registry": str(tmp_path / "gone.csv")},
            },
        )
        assert main(["basins", "--config", cfg]) == EXIT_IO

    def test_tiny_resolution_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "basins.json",
            {
                "params": PP_PARAMS,
                "output_dir": str(tmp_path / "out"),
                "basins": {"resolution": [1, 1], "registry": "auto"},
            },
        )
        assert main(["basins", "--config", cfg]) == EXIT_CONFIG


class TestReproducibility:
    def test_orbit_outputs_byte_identical(self, tmp_path):
        cfg_a = orbit_config(tmp_path, out="a", k_max=10)
        assert main(["find-orbits", "--config", cfg_a]) == EXIT_OK
        first = (tmp_path / "a" / "orbits.csv").read_bytes()
        assert main(["find-orbits", "--config", cfg_a]) == EXIT_OK
        assert (tmp_path / "a" / "orbits.csv").read_bytes() == first
