from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srklab.basins import AttractorRegistry, ClassifyLimits, labels_csv, raster
from srklab.cli import (
    _SCHEMA,
    EXIT_CONFIG,
    EXIT_HYPOTHESIS_FAIL,
    EXIT_IO,
    EXIT_OK,
    build_parser,
    load_config,
    main,
)
from srklab.orbits import OrbitPoints, orbits_to_csv, scan_srk
from srklab.stability import StabilityClass

PP_PARAMS = {"lambda": 0.8, "sigma": 1.25, "c2": -0.5, "d1": 1.0, "d5": 1.0}
NP_PARAMS = {"lambda": -0.8, "sigma": 1.25, "c2": -0.5, "d1": -1.0, "d5": 1.0}
# With PP_PARAMS, the single-round quadratic's leading coefficient is 0 at k = 0.
QA_ZERO = {"c2": 0.5, "d4": 0.2, "d5": -0.1}
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
COMMANDS = {
    "orbits": "find-orbits",
    "theory": "check-theory",
    "manifolds": "manifolds",
    "basins": "basins",
}


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

    @pytest.mark.parametrize(
        "section, low, high",
        [
            ("orbits", "k_min", "k_max"),
            ("theory", "growth_k_min", "growth_k_max"),
            ("basins", "k_min", "k_max"),
        ],
    )
    @pytest.mark.parametrize("k_range", [(0, 5792), (0, 200000), (100000, 200000)])
    def test_scan_range_over_the_record_cap(self, tmp_path, capsys, section, low, high, k_range):
        # Checked when the config loads: no scan is run.  Slowly growing
        # params keep a real root at every k, so such a scan would try to
        # hold (k_max + 1) x 2 x (k_max - k_min + 1) points.
        params = {"lambda": 0.999, "sigma": 1.001, "c2": -0.5, "d1": 1.0, "d5": 1.0}
        body = {
            "params": params,
            "output_dir": str(tmp_path / "out"),
            section: {low: k_range[0], high: k_range[1]},
        }
        cfg = write_config(tmp_path, "big.json", body)
        assert main([COMMANDS[section], "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"'{low}'..'{high}' = {k_range[0]}..{k_range[1]} needs a scan record" in err
        assert "over the cap of 1,073,741,824" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section", ["orbits", "theory", "basins"])
    @pytest.mark.parametrize("k_range", [(0, 5791), (0, 1021), (3170, 3190), (200000, 200000)])
    def test_scan_range_under_the_record_cap_loads(self, tmp_path, section, k_range):
        low, high = ("growth_k_min", "growth_k_max") if section == "theory" else ("k_min", "k_max")
        body = {"params": PP_PARAMS, section: {low: k_range[0], high: k_range[1]}}
        filled = load_config(write_config(tmp_path, "ok.json", body), section).section
        assert (filled[low], filled[high]) == k_range

    def test_missing_file(self, tmp_path):
        assert main(["find-orbits", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["find-orbits", "--config", str(path)]) == EXIT_CONFIG

    def test_non_utf8_config(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(json.dumps({"params": PP_PARAMS, "orbits": {}}).encode("utf-16"))
        assert path.read_bytes()[:2] == b"\xff\xfe"
        assert main(["find-orbits", "--config", str(path)]) == EXIT_CONFIG
        assert "config is not UTF-8 text" in capsys.readouterr().err

    def test_config_nested_too_deeply(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"params": ' + "[" * 100_000 + "]" * 100_000 + ', "orbits": {}}')
        assert main(["find-orbits", "--config", str(path)]) == EXIT_CONFIG
        assert "config is nested too deeply" in capsys.readouterr().err

    def test_bad_param_key(self, tmp_path, capsys):
        params = dict(PP_PARAMS)
        params["lambduh"] = 0.5
        cfg = write_config(tmp_path, "bad.json", {"params": params, "orbits": {}})
        assert main(["find-orbits", "--config", cfg]) == EXIT_CONFIG
        assert "lambduh" in capsys.readouterr().err


# (section, config entries besides output_dir, extra flags); each must exit 2.
BAD_VALUES = [
    pytest.param("basins", {"basins": {"resolution": ["a", 3]}}, [], id="resolution-str"),
    pytest.param("basins", {"basins": {"window": ["a", 1, 0, 1]}}, [], id="window-str"),
    pytest.param("orbits", {"orbits": {"k_min": -3}}, [], id="k_min-negative"),
    pytest.param("orbits", {"orbits": {"k_max": 2.7}}, [], id="k_max-fraction"),
    pytest.param("manifolds", {"manifolds": {"n_images": 0}}, [], id="n_images-zero"),
    pytest.param("manifolds", {"manifolds": {"depth": -1}}, [], id="depth-negative"),
    pytest.param("manifolds", {"manifolds": {"max_gap": 0}}, [], id="max_gap-zero"),
    pytest.param(
        "theory",
        {"theory": {"growth_k_min": 20, "growth_k_max": 3}},
        [],
        id="growth-k-order",
    ),
    pytest.param(
        "basins",
        {"basins": {"resolution": [4, 4], "prox_tol": -1, "max_iter": -10}},
        [],
        id="prox_tol-max_iter-negative",
    ),
    pytest.param(
        "basins", {"basins": {"resolution": [4, 4], "max_iter": True}}, [], id="max_iter-bool"
    ),
    pytest.param(
        "basins",
        {"basins": {"resolution": [4, 4], "escape_radius": float("nan")}},
        [],
        id="escape_radius-nan",
    ),
    pytest.param("orbits", {"orbits": {}, "seed": 0}, [], id="top-level-seed"),
    pytest.param(
        "manifolds",
        {"manifolds": {"depth": 1}, "params": {**PP_PARAMS, "d3": 0.05}},
        [],
        id="no-return-inverse",
    ),
    pytest.param(
        "manifolds",
        {"manifolds": {"n_images": 5, "clip": [5, 6, 5, 6]}},
        [],
        id="clip-misses-unstable-curve",
    ),
    pytest.param("basins", {"basins": {}}, ["--threads", "0"], id="threads-zero"),
    pytest.param("basins", {"basins": {}}, ["--threads", "1"], id="threads-one"),
    pytest.param("basins", {"basins": {}}, ["--resolution", "1x20"], id="resolution-flag-1"),
    pytest.param("basins", {"basins": {}}, ["--resolution", "ax20"], id="resolution-flag-str"),
    pytest.param(
        "orbits", {"orbits": {}}, ["--resolution", "20x20"], id="resolution-flag-not-basins"
    ),
]


@pytest.mark.parametrize("section, body, flags", BAD_VALUES)
def test_bad_value_exits_2(tmp_path, capsys, section, body, flags):
    cfg = write_config(
        tmp_path,
        "bad.json",
        {"params": PP_PARAMS, "output_dir": str(tmp_path / "out"), **body},
    )
    argv = [COMMANDS[section], "--config", cfg, *flags]
    if flags:
        with pytest.raises(SystemExit) as exc:  # argparse usage error
            main(argv)
        code, expected = exc.value.code, f"unrecognized arguments: {' '.join(flags)}"
    else:
        code, expected = main(argv), "config error: "
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert expected in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_readme_usage_lines_parse():
    """Every ``srklab ...`` line of the README's usage block is a valid command line."""
    readme = (CONFIG_DIR.parent / "README.md").read_text(encoding="utf-8")
    usage = readme.split("## Command-line use", 1)[1].split("```", 2)[1]
    lines = [line for line in usage.splitlines() if line.startswith("srklab ")]
    parser = build_parser()
    assert {shlex.split(line)[1] for line in lines} == set(COMMANDS.values())
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README usage line does not parse: {line}")


HOSTILE = [-1, 0, 2.7, True, "x", None, [], {}, float("nan"), float("inf"), float("-inf")]
SHIPPED = sorted(CONFIG_DIR.glob("*/*.json"))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_hostile_section_value_exits_0_or_2(data):
    path = data.draw(st.sampled_from(SHIPPED), label="config")
    body = json.loads(path.read_text())
    section = path.stem
    key = data.draw(st.sampled_from(sorted(_SCHEMA[section])), label="key")
    if section == "basins":
        body[section]["resolution"] = [4, 4]
    body[section][key] = data.draw(st.sampled_from(HOSTILE), label="value")
    sink = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "config.json")
        with open(cfg, "w") as fh:
            json.dump(body, fh)
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main([COMMANDS[section], "--config", cfg, "--out", os.path.join(tmp, "out")])
    # A string registry is a path: an unreadable one is an I/O error.
    allowed = {EXIT_OK, EXIT_CONFIG} | ({EXIT_IO} if key == "registry" else set())
    assert code in allowed
    assert "Traceback" not in sink.getvalue()


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

    def test_exit_zero_at_very_large_k(self, tmp_path):
        cfg = orbit_config(tmp_path, k_min=3170, k_max=3190)
        assert main(["find-orbits", "--config", cfg]) == EXIT_OK
        summary = (tmp_path / "out" / "summary.csv").read_text()
        assert ",newton-failed," in summary and ",precision-limited," in summary

    @pytest.mark.parametrize(
        "override",
        [{"d5": 0}, {"c1": 1.0}, QA_ZERO],
        ids=["d5-zero", "c1-one", "leading-coefficient-zero"],
    )
    def test_exit_zero_with_degenerate_coefficients(self, tmp_path, capsys, override):
        cfg = orbit_config(tmp_path, params={**PP_PARAMS, **override})
        assert main(["find-orbits", "--config", cfg]) == EXIT_OK
        assert "Traceback" not in capsys.readouterr().err
        summary = (tmp_path / "out" / "summary.csv").read_text()
        assert "0,minus,degenerate,,,\n0,plus,degenerate,,,\n" in summary


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

    def test_degenerate_perturbation_is_insufficient_data(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "theory.json",
            {
                "params": PP_PARAMS,
                "output_dir": str(tmp_path / "out"),
                "theory": {"perturbations": [{"d5": 0.0}]},
            },
        )
        assert main(["check-theory", "--config", cfg]) == EXIT_OK
        captured = capsys.readouterr()
        assert "growth [d5=0.0]: insufficient data" in captured.out
        assert "Traceback" not in captured.err
        report = json.loads((tmp_path / "out" / "theory.json").read_text())
        assert "error" in report["growth"][0]


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

    def test_out_override_and_reproducibility(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "basins.json",
            {
                "params": PP_PARAMS,
                "output_dir": str(tmp_path / "a"),
                "basins": {
                    "resolution": [20, 20],
                    "max_iter": 1500,
                    "registry": "auto",
                    "k_min": 0,
                    "k_max": 6,
                },
            },
        )
        args = ["basins", "--config", cfg]
        assert main(args + ["--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(args + ["--out", str(tmp_path / "b")]) == EXIT_OK
        bytes_a = (tmp_path / "a" / "basins.ppm").read_bytes()
        assert bytes_a.startswith(b"P6\n20 20\n255\n")
        assert bytes_a == (tmp_path / "b" / "basins.ppm").read_bytes()
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

    def test_non_utf8_registry_csv_is_config_error(self, pp, tmp_path, capsys):
        registry_path = tmp_path / "registry.csv"
        registry_path.write_bytes(orbits_to_csv(scan_srk(pp, 0, 3).orbits).encode("utf-16"))
        cfg = write_config(
            tmp_path,
            "basins.json",
            {
                "params": PP_PARAMS,
                "output_dir": str(tmp_path / "out"),
                "basins": {"resolution": [8, 8], "registry": str(registry_path)},
            },
        )
        assert main(["basins", "--config", cfg]) == EXIT_CONFIG
        assert "bad registry CSV: 'utf-8' codec can't decode" in capsys.readouterr().err

    def test_nan_registry_row_is_config_error(self, tmp_path, capsys):
        registry_path = tmp_path / "registry.csv"
        registry_path.write_text(
            "k,period,branch,j,x_j,y_j,trace,det,stability,residual\n"
            "0,1,minus,0,nan,nan,0.0,0.5,asymptotically-stable,0.0\n"
        )
        cfg = write_config(
            tmp_path,
            "basins.json",
            {
                "params": PP_PARAMS,
                "output_dir": str(tmp_path / "out"),
                "basins": {"resolution": [8, 8], "registry": str(registry_path)},
            },
        )
        assert main(["basins", "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "bad registry CSV" in err
        assert "Traceback" not in err

    def test_registry_csv_point_off_its_orbit_is_config_error(self, pp, tmp_path, capsys):
        # SR_0..SR_3 with SR_2's second point moved: the orbit still closes
        # from its first point, but its listed points are not its orbit.
        orbits = scan_srk(pp, 0, 3).orbits
        moved = [
            dataclasses.replace(orbit, points=[orbit.points[0], (5.0, -7.0), *orbit.points[2:]])
            if orbit.k == 2
            else orbit
            for orbit in orbits
        ]
        registry_path = tmp_path / "registry.csv"
        registry_path.write_text(orbits_to_csv(moved))
        cfg = write_config(
            tmp_path,
            "basins.json",
            {
                "params": PP_PARAMS,
                "output_dir": str(tmp_path / "basins_out"),
                "basins": {"resolution": [12, 12], "registry": str(registry_path)},
            },
        )
        assert main(["basins", "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "bad registry CSV" in err
        assert "orbit point 1 is not point 0 mapped 1 times" in err
        assert "Traceback" not in err

    def test_registry_csv_rows_out_of_sequence_is_config_error(self, tmp_path, capsys):
        # Rows j = 0, 1, 0 of SR_1: a second orbit that stops after its
        # first point is a bad CSV, not a period-3 orbit that fails to close.
        orbits_cfg = orbit_config(tmp_path, k_min=1, k_max=1)
        assert main(["find-orbits", "--config", orbits_cfg]) == EXIT_OK
        rows = (tmp_path / "out" / "orbits.csv").read_text().splitlines()
        registry_path = tmp_path / "registry.csv"
        registry_path.write_text("\n".join(rows[:3] + rows[1:2]) + "\n")
        cfg = write_config(
            tmp_path,
            "basins.json",
            {
                "params": PP_PARAMS,
                "output_dir": str(tmp_path / "basins_out"),
                "basins": {"resolution": [8, 8], "registry": str(registry_path)},
            },
        )
        assert main(["basins", "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "bad registry CSV" in err and "Traceback" not in err

    def test_registry_csv_later_row_disagreeing_is_config_error(self, tmp_path, capsys):
        # pp's SR_1 with row j = 1 rewritten to trace 99.0 and a saddle:
        # the orbit's rows no longer agree on what it is.
        orbits_cfg = orbit_config(tmp_path, k_min=1, k_max=1)
        assert main(["find-orbits", "--config", orbits_cfg]) == EXIT_OK
        rows = (tmp_path / "out" / "orbits.csv").read_text().splitlines()
        fields = rows[2].split(",")
        assert fields[2:4] == ["minus", "1"]
        fields[6], fields[8] = "99.0", "saddle"
        registry_path = tmp_path / "registry.csv"
        registry_path.write_text("\n".join(rows[:2] + [",".join(fields)] + rows[3:]) + "\n")
        cfg = write_config(
            tmp_path,
            "basins.json",
            {
                "params": PP_PARAMS,
                "output_dir": str(tmp_path / "basins_out"),
                "basins": {"resolution": [8, 8], "registry": str(registry_path)},
            },
        )
        assert main(["basins", "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "bad registry CSV: orbit CSV row disagrees with its orbit's j = 0 row" in err
        assert "Traceback" not in err
        assert not (tmp_path / "basins_out").exists()

    def test_registry_csv_repeating_an_orbit_is_config_error(self, pp, tmp_path, capsys):
        # SR_0..SR_3 twice, the copy of SR_2 starting at its second point.
        orbits = scan_srk(pp, 0, 3).orbits
        sr2 = next(orbit for orbit in orbits if orbit.k == 2)
        rotated = dataclasses.replace(sr2, points=sr2.points[1:] + sr2.points[:1])
        registry_path = tmp_path / "registry.csv"
        registry_path.write_text(orbits_to_csv(orbits + [rotated]))
        cfg = write_config(
            tmp_path,
            "basins.json",
            {
                "params": PP_PARAMS,
                "output_dir": str(tmp_path / "basins_out"),
                "basins": {"resolution": [8, 8], "registry": str(registry_path)},
            },
        )
        assert main(["basins", "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"bad registry CSV: orbit k=2 branch '{sr2.branch.value}'" in err
        assert "Traceback" not in err and not (tmp_path / "basins_out").exists()
        registry_path.write_text(orbits_to_csv(orbits + orbits))
        assert main(["basins", "--config", cfg]) == EXIT_CONFIG
        assert f"bad registry CSV: orbit k={orbits[0].k} " in capsys.readouterr().err

    def test_registry_csv_repeating_an_orbit_within_tolerance_is_config_error(
        self, pp, tmp_path, capsys
    ):
        # SR_0..SR_3 and a copy of SR_1 with x_0 moved by 1e-13: the copy
        # repeats SR_1 within the scan's duplicate tolerance.
        orbits = scan_srk(pp, 0, 3).orbits
        sr1 = next(
            o for o in orbits if o.k == 1 and o.stability is StabilityClass.ASYMPTOTICALLY_STABLE
        )
        xs = (sr1.points.xs[0] + 1e-13, *sr1.points.xs[1:])
        moved = dataclasses.replace(sr1, points=OrbitPoints(xs, sr1.points.ys))
        assert moved.points != sr1.points
        registry_path = tmp_path / "registry.csv"
        registry_path.write_text(orbits_to_csv(orbits + [moved]))
        cfg = write_config(
            tmp_path,
            "basins.json",
            {
                "params": PP_PARAMS,
                "output_dir": str(tmp_path / "basins_out"),
                "basins": {"resolution": [12, 12], "registry": str(registry_path)},
            },
        )
        assert main(["basins", "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert (
            "bad registry CSV: orbit k=1 branch 'minus' repeats the points of an earlier orbit"
            in err
        )
        assert "Traceback" not in err and not (tmp_path / "basins_out").exists()

    @pytest.mark.parametrize(
        "column, value", [(2, "middle"), (8, "stable")], ids=["branch", "stability"]
    )
    def test_registry_csv_unknown_branch_or_stability_is_config_error(
        self, pp, tmp_path, capsys, column, value
    ):
        rows = orbits_to_csv(scan_srk(pp, 0, 3).orbits).splitlines()
        fields = rows[1].split(",")
        fields[column] = value
        registry_path = tmp_path / "registry.csv"
        registry_path.write_text("\n".join([rows[0], ",".join(fields), *rows[2:]]) + "\n")
        cfg = write_config(
            tmp_path,
            "basins.json",
            {
                "params": PP_PARAMS,
                "output_dir": str(tmp_path / "basins_out"),
                "basins": {"resolution": [8, 8], "registry": str(registry_path)},
            },
        )
        assert main(["basins", "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "bad registry CSV: orbit k=0 branch " in err and repr(value) in err
        assert "Traceback" not in err and not (tmp_path / "basins_out").exists()

    def test_summary_counts_cells_that_ran_the_whole_budget(self, pn, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "basins.json",
            {
                "params": {"lambda": 0.8, "sigma": -1.25, "c2": -0.5, "d1": 1.0, "d5": 1.0},
                "output_dir": str(tmp_path / "out"),
                "basins": {"resolution": [40, 40], "max_iter": 700},
            },
        )
        assert main(["basins", "--config", cfg]) == EXIT_OK
        config = load_config(cfg, "basins")
        assert config.params == pn
        registry = AttractorRegistry.from_orbits(pn, scan_srk(pn, 0, 15).orbits)
        window = config.section["window"]
        stats = raster(pn, registry, window, 40, 40, ClassifyLimits(max_iter=700)).stats
        assert stats.budget_spent > 0
        out = capsys.readouterr().out
        assert out.rstrip().endswith(f"; {stats.budget_spent} ran the whole budget")

    def test_registry_csv_with_distinct_orbits_of_one_k_and_branch(self, pp, tmp_path):
        # SR_0's saddle written under the stable SR_0's branch: two distinct
        # orbits that share (k, branch) stay apart, so the stable one
        # registers and the saddle is passed over.
        stable, saddle = scan_srk(pp, 0, 0).orbits
        assert (stable.stability, saddle.stability) == (
            StabilityClass.ASYMPTOTICALLY_STABLE,
            StabilityClass.SADDLE,
        )
        relabelled = dataclasses.replace(saddle, branch=stable.branch)
        registry_path = tmp_path / "registry.csv"
        registry_path.write_text(orbits_to_csv([relabelled, stable]))
        cfg = write_config(
            tmp_path,
            "basins.json",
            {
                "params": PP_PARAMS,
                "output_dir": str(tmp_path / "basins_out"),
                "basins": {"resolution": [8, 8], "registry": str(registry_path)},
            },
        )
        assert main(["basins", "--config", cfg]) == EXIT_OK
        legend = (tmp_path / "basins_out" / "legend.csv").read_text().splitlines()
        assert [row.split(",")[1] for row in legend[1:]] == ["sr0"]

    @pytest.mark.parametrize(
        "relabel, message",
        [
            (
                {StabilityClass.SADDLE: StabilityClass.ASYMPTOTICALLY_STABLE},
                "orbit k=0 branch 'plus' is labelled 'asymptotically-stable', "
                "but its points are 'saddle'",
            ),
            (
                {StabilityClass.ASYMPTOTICALLY_STABLE: StabilityClass.SADDLE},
                "orbit k=0 branch 'minus' is labelled 'saddle', "
                "but its points are 'asymptotically-stable'",
            ),
        ],
        ids=["saddle-as-stable", "stable-as-saddle"],
    )
    def test_registry_csv_stability_label_is_checked(
        self, pp, tmp_path, capsys, relabel, message
    ):
        # SR_0..SR_3 with one stability class written as another: a saddle
        # labelled stable would register as a second sr0 attractor.
        orbits = [
            dataclasses.replace(orbit, stability=relabel.get(orbit.stability, orbit.stability))
            for orbit in scan_srk(pp, 0, 3).orbits
        ]
        registry_path = tmp_path / "registry.csv"
        registry_path.write_text(orbits_to_csv(orbits))
        cfg = write_config(
            tmp_path,
            "basins.json",
            {
                "params": PP_PARAMS,
                "output_dir": str(tmp_path / "basins_out"),
                "basins": {"resolution": [12, 12], "registry": str(registry_path)},
            },
        )
        assert main(["basins", "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"bad registry CSV: {message}" in err
        assert "Traceback" not in err and not (tmp_path / "basins_out").exists()

    def test_registry_csv_period_other_than_k_plus_one_is_config_error(
        self, pp, tmp_path, capsys
    ):
        # SR_0's row with k rewritten to 5 would name a fixed point sr5.
        orbits = scan_srk(pp, 0, 3).orbits
        renamed = [dataclasses.replace(orbit, k=5) if orbit.k == 0 else orbit for orbit in orbits]
        registry_path = tmp_path / "registry.csv"
        registry_path.write_text(orbits_to_csv(renamed))
        cfg = write_config(
            tmp_path,
            "basins.json",
            {
                "params": PP_PARAMS,
                "output_dir": str(tmp_path / "basins_out"),
                "basins": {"resolution": [12, 12], "registry": str(registry_path)},
            },
        )
        assert main(["basins", "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "bad registry CSV: orbit k=5 branch 'minus' has period 1, not k + 1" in err
        assert "Traceback" not in err and not (tmp_path / "basins_out").exists()

    def test_write_labels_matches_labels_csv_of_the_raster(self, tmp_path):
        body = {
            "params": PP_PARAMS,
            "output_dir": str(tmp_path / "plain"),
            "basins": {"resolution": [6, 6], "max_iter": 1500, "registry": "auto", "k_max": 4},
        }
        plain = write_config(tmp_path, "plain.json", body)
        body["output_dir"] = str(tmp_path / "labelled")
        body["basins"]["write_labels"] = True
        labelled = write_config(tmp_path, "labelled.json", body)
        assert main(["basins", "--config", plain]) == EXIT_OK
        assert main(["basins", "--config", labelled]) == EXIT_OK
        assert not (tmp_path / "plain" / "labels.csv").exists()

        config = load_config(labelled, "basins")
        section = config.section
        orbits = scan_srk(config.params, section["k_min"], section["k_max"]).orbits
        registry = AttractorRegistry.from_orbits(config.params, orbits)
        limits = ClassifyLimits(
            max_iter=section["max_iter"],
            escape_radius=section["escape_radius"],
            prox_tol=section["prox_tol"],
        )
        grid = raster(config.params, registry, section["window"], 6, 6, limits)
        assert (tmp_path / "labelled" / "labels.csv").read_text() == labels_csv(grid)
        assert len(grid.labels.ravel()) == 36 and len(registry) == 5

    def test_degenerate_params_have_no_attractors(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "basins.json",
            {
                "params": {**PP_PARAMS, "d5": 0},
                "output_dir": str(tmp_path / "out"),
                "basins": {"resolution": [4, 4]},
            },
        )
        assert main(["basins", "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "registry contains no attractors" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_vanishing_leading_coefficient_skips_k0(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "basins.json",
            {
                "params": {**PP_PARAMS, **QA_ZERO},
                "output_dir": str(tmp_path / "out"),
                "basins": {"resolution": [8, 8]},
            },
        )
        assert main(["basins", "--config", cfg]) == EXIT_OK
        assert "Traceback" not in capsys.readouterr().err
        legend = (tmp_path / "out" / "legend.csv").read_text()
        assert "sr1," in legend and "sr0," not in legend

    def test_auto_registry_past_palette_repeat(self, tmp_path, capsys):
        # Over 611 stable orbits: the palette repeats, the colors must not.
        cfg = write_config(
            tmp_path,
            "basins.json",
            {
                "params": PP_PARAMS,
                "output_dir": str(tmp_path / "out"),
                "basins": {
                    "resolution": [4, 4],
                    "max_iter": 50,
                    "registry": "auto",
                    "k_min": 0,
                    "k_max": 620,
                },
            },
        )
        assert main(["basins", "--config", cfg]) == EXIT_OK
        assert "Traceback" not in capsys.readouterr().err
        rows = (tmp_path / "out" / "legend.csv").read_text().splitlines()[1:]
        assert len(rows) > 611
        assert len({tuple(row.split(",")[2:5]) for row in rows}) == len(rows)

    def test_auto_registry_of_np_at_large_k(self, tmp_path, capsys):
        # Past k ~ 122 np's closed-form orbits stop closing in doubles; the
        # scan flags them, so the registry never sees one.
        cfg = write_config(
            tmp_path,
            "basins.json",
            {
                "params": NP_PARAMS,
                "output_dir": str(tmp_path / "out"),
                "basins": {
                    "resolution": [4, 4],
                    "max_iter": 50,
                    "registry": "auto",
                    "k_min": 0,
                    "k_max": 340,
                },
            },
        )
        assert main(["basins", "--config", cfg]) == EXIT_OK
        assert "Traceback" not in capsys.readouterr().err
        rows = (tmp_path / "out" / "legend.csv").read_text().splitlines()[1:]
        labels = [row.split(",")[1] for row in rows]
        assert len(set(labels)) == len(labels)

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

    @pytest.mark.parametrize("resolution", [[2, 2**45], [2, 2**62], [4097, 4096]])
    def test_resolution_too_large_to_allocate_rejected(self, tmp_path, capsys, resolution):
        cfg = write_config(
            tmp_path,
            "basins.json",
            {
                "params": PP_PARAMS,
                "output_dir": str(tmp_path / "out"),
                "basins": {"resolution": resolution, "k_max": 3},
            },
        )
        assert main(["basins", "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "nx * ny <= 16777216" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_largest_resolution_accepted(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "basins.json",
            {"params": PP_PARAMS, "basins": {"resolution": [4096, 4096]}},
        )
        assert load_config(cfg, "basins").section["resolution"] == [4096, 4096]


# Runs pp's shipped commands in a fresh interpreter and prints whether scipy
# got imported; argv is the output directory and the config directory.
_NO_SCIPY_SCRIPT = """
import json, os, sys
from srklab.cli import main
out, configs = sys.argv[1], sys.argv[2]
basins = json.load(open(os.path.join(configs, "basins.json")))
basins["basins"]["resolution"] = [40, 40]
with open(os.path.join(out, "basins.json"), "w") as fh:
    json.dump(basins, fh)
runs = [("find-orbits", "orbits"), ("check-theory", "theory"), ("manifolds", "manifolds")]
codes = [main([cmd, "--config", os.path.join(configs, name + ".json"), "--out", out])
         for cmd, name in runs]
codes.append(main(["basins", "--config", os.path.join(out, "basins.json"), "--out", out]))
print(codes, "scipy" in sys.modules)
"""


def test_shipped_pp_commands_never_import_scipy(tmp_path):
    # scipy serves only the KD-tree of a registry with a shared run pair, and
    # no shipped config has one.
    env = {**os.environ, "PYTHONPATH": str(CONFIG_DIR.parent / "src")}
    done = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, str(tmp_path), str(CONFIG_DIR / "pp")],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"[{EXIT_OK}, {EXIT_OK}, {EXIT_OK}, {EXIT_OK}] False"
    assert (tmp_path / "basins.ppm").read_bytes().startswith(b"P6\n40 40\n255\n")

class TestReproducibility:
    def test_orbit_outputs_byte_identical(self, tmp_path):
        cfg_a = orbit_config(tmp_path, out="a", k_max=10)
        assert main(["find-orbits", "--config", cfg_a]) == EXIT_OK
        first = (tmp_path / "a" / "orbits.csv").read_bytes()
        assert main(["find-orbits", "--config", cfg_a]) == EXIT_OK
        assert (tmp_path / "a" / "orbits.csv").read_bytes() == first
