"""Command-line front end: reproducible experiments from JSON configs.

Exit codes: 0 success (and all hypotheses pass for check-theory),
1 hypothesis failure, 2 malformed configuration, 3 I/O failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass
from typing import Any

from .basins import (
    DIVERGENT,
    UNKNOWN,
    AttractorRegistry,
    ClassifyLimits,
    basin_fractions,
    labels_csv,
    legend_csv,
    raster,
    write_ppm,
)
from .errors import ConfigError, DegenerateCoefficientsError, InsufficientDataError
from .manifolds import (
    DEFAULT_MAX_ANGLE,
    DEFAULT_MAX_GAP,
    DEFAULT_POINT_BUDGET,
    DEFAULT_STABLE_SEED,
    DEFAULT_UNSTABLE_SEED,
    curves_to_csv,
    detect_tangencies,
    tangencies_to_csv,
    trace_stable,
    trace_unstable,
)
from .mapcore import Rect
from .orbits import orbits_from_csv, orbits_to_csv, scan_srk
from .params import MapParams
from .theory import full_report, trace_growth_experiment

EXIT_OK = 0
EXIT_HYPOTHESIS_FAIL = 1
EXIT_CONFIG = 2
EXIT_IO = 3

_LIMITS = ClassifyLimits()
# Most cells a basin raster may have: a raster peaks at about 106 bytes a
# cell, so 2**24 cells take about 1.8 GB.
_MAX_RASTER_CELLS = 2**24
# Largest point record an SR_k scan over [k_min, k_max] may keep: the walk
# records k_max + 1 points, 16 bytes each, for each of up to
# 2 * (k_max - k_min + 1) candidates, so 0..5791 is the longest range from 0.
_MAX_SCAN_RECORD_BYTES = 2**30

# Every key of every command section as (kind, bound, default); _EXPECTED
# says what each kind accepts.
_SCHEMA: dict[str, dict[str, tuple[str, Any, Any]]] = {
    "orbits": {"k_min": ("int", 0, 0), "k_max": ("int", 0, 15)},
    "theory": {
        "perturbations": ("perturbations", None, ()),
        "growth_k_min": ("int", 0, 6),
        "growth_k_max": ("int", 0, 16),
    },
    "manifolds": {
        "n_images": ("int", 1, 45),
        "depth": ("int", 0, 2),
        "clip": ("rect", None, Rect(-1.0, 2.5, -1.5, 2.0)),
        "max_gap": ("float", 0.0, DEFAULT_MAX_GAP),
        "max_angle": ("float", 0.0, DEFAULT_MAX_ANGLE),
        "point_budget": ("int", 1, DEFAULT_POINT_BUDGET),
        "axis_tol": ("float", 0.0, 1e-3),
        "unstable_seed": ("float", 0.0, DEFAULT_UNSTABLE_SEED),
        "stable_seed": ("float", 0.0, DEFAULT_STABLE_SEED),
    },
    "basins": {
        "window": ("rect", None, Rect(-0.5, 1.5, -0.5, 1.5)),
        "resolution": ("resolution", 2, (200, 200)),
        "max_iter": ("int", 1, _LIMITS.max_iter),
        "escape_radius": ("float", 0.0, _LIMITS.escape_radius),
        "prox_tol": ("float", 0.0, _LIMITS.prox_tol),
        "registry": ("str", None, "auto"),
        "k_min": ("int", 0, 0),
        "k_max": ("int", 0, 15),
        "write_labels": ("bool", None, False),
    },
}
_EXPECTED = {
    "int": "an integer >= {}",
    "float": "a finite number > {}",
    "bool": "true or false",
    "str": "a string",
    "rect": "a non-empty [xmin, xmax, ymin, ymax] of finite numbers",
    "resolution": f"[nx, ny] with integers >= {{}} and nx * ny <= {_MAX_RASTER_CELLS}",
    "perturbations": "a list of non-empty {{param: finite number}} objects",
}
_TOP_KEYS = {"params", "output_dir", *_SCHEMA}


@dataclass
class ExperimentConfig:
    params: MapParams
    section: dict[str, Any]
    output_dir: str


def _finite(value: Any) -> bool:
    """Whether ``value`` is a JSON number (not a bool) that is a finite float."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _check_value(kind: str, bound: Any, value: Any, key: str) -> Any:
    """One value checked against its schema entry; returns it parsed."""
    if kind == "int":
        ok = type(value) is int and value >= bound  # bool is not accepted
    elif kind == "float":
        ok = _finite(value) and value > bound
    elif kind == "bool" or kind == "str":
        ok = isinstance(value, bool if kind == "bool" else str)
    elif kind == "rect":
        ok = isinstance(value, list) and len(value) == 4 and all(map(_finite, value))
        ok = ok and not Rect(*map(float, value)).is_empty()
    elif kind == "resolution":
        ok = isinstance(value, list) and len(value) == 2
        ok = ok and all(type(v) is int and v >= bound for v in value)
        ok = ok and value[0] * value[1] <= _MAX_RASTER_CELLS
    else:  # perturbations; MapParams.replace checks the parameter names
        ok = isinstance(value, list) and all(
            isinstance(e, dict) and e and all(map(_finite, e.values())) for e in value
        )
    if not ok:
        expected = _EXPECTED[kind].format(bound)
        raise ConfigError(f"'{key}' must be {expected}, got {value!r}")
    if kind == "rect":
        return Rect(*map(float, value))
    return float(value) if kind == "float" else value


def _check_section(name: str, section: Any) -> dict[str, Any]:
    """The section with every key checked and every absent key defaulted."""
    if not isinstance(section, dict):
        raise ConfigError(f"section '{name}' must be a JSON object")
    schema = _SCHEMA[name]
    unknown = sorted(set(section) - set(schema))
    if unknown:
        raise ConfigError(f"unknown key '{unknown[0]}' in '{name}' section")
    filled = {
        key: _check_value(kind, bound, section[key], key) if key in section else default
        for key, (kind, bound, default) in schema.items()
    }
    for low, high in (("k_min", "k_max"), ("growth_k_min", "growth_k_max")):
        if low not in filled:
            continue
        k_min, k_max = filled[low], filled[high]
        if k_min > k_max:
            raise ConfigError(f"'{low}' must not exceed '{high}'")
        record = 16 * (k_max + 1) * 2 * (k_max - k_min + 1)
        if record > _MAX_SCAN_RECORD_BYTES:
            raise ConfigError(
                f"'{low}'..'{high}' = {k_min}..{k_max} needs a scan record of "
                f"{record:,} bytes (16 * ({high} + 1) * 2 * ({high} - {low} + 1)), "
                f"over the cap of {_MAX_SCAN_RECORD_BYTES:,}"
            )
    return filled


def load_config(path: str, expected_section: str) -> ExperimentConfig:
    """Parse and validate a config file for one subcommand.

    The file must contain ``params``, ``output_dir``, and exactly one
    command section, which must match the subcommand being run.  Unknown
    keys anywhere are rejected, and the returned section holds every key
    of that command, checked or defaulted per ``_SCHEMA``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    except UnicodeDecodeError as err:
        raise ConfigError(f"config is not UTF-8 text: {err}") from err
    except RecursionError as err:
        raise ConfigError("config is nested too deeply to parse") from err
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(raw) - _TOP_KEYS)
    if unknown:
        raise ConfigError(f"unknown key '{unknown[0]}' in config")
    if not isinstance(raw.get("params"), dict):
        raise ConfigError("config must define 'params' as a JSON object")
    sections = [name for name in _SCHEMA if name in raw]
    if len(sections) != 1:
        raise ConfigError(
            f"config must contain exactly one command section, found {sections or 'none'}"
        )
    if sections[0] != expected_section:
        raise ConfigError(
            f"config section '{sections[0]}' does not match subcommand "
            f"'{expected_section}'"
        )
    for key, value in raw["params"].items():
        if not _finite(value):
            raise ConfigError(f"param '{key}' must be a finite number, got {value!r}")
    try:
        params = MapParams.from_dict(raw["params"])
    except (ValueError, TypeError) as err:
        raise ConfigError(f"bad params: {err}") from err
    return ExperimentConfig(
        params=params,
        section=_check_section(expected_section, raw[expected_section]),
        output_dir=_check_value("str", None, raw.get("output_dir", "out"), "output_dir"),
    )


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# -- subcommands ---------------------------------------------------------------


def cmd_find_orbits(config: ExperimentConfig) -> int:
    k_min, k_max = config.section["k_min"], config.section["k_max"]
    result = scan_srk(config.params, k_min, k_max)
    os.makedirs(config.output_dir, exist_ok=True)
    _write(os.path.join(config.output_dir, "orbits.csv"), orbits_to_csv(result.orbits))

    lines = ["k,branch,status,stability,trace,det"]
    for record in result.records:
        orbit = record.orbit
        if orbit is None:
            lines.append(f"{record.k},{record.branch.value},{record.status},,,")
        else:
            lines.append(
                f"{record.k},{record.branch.value},{record.status},"
                f"{orbit.stability.value},{orbit.trace!r},{orbit.det!r}"
            )
    _write(os.path.join(config.output_dir, "summary.csv"), "\n".join(lines) + "\n")
    found = len(result.orbits)
    print(f"found {found} periodic orbits for k in [{k_min}, {k_max}]")
    return EXIT_OK


def cmd_check_theory(config: ExperimentConfig) -> int:
    report = full_report(config.params)
    blocks = [report.to_text()]
    payload: dict[str, Any] = {"report": report.to_dict(), "growth": []}
    k_lo, k_hi = config.section["growth_k_min"], config.section["growth_k_max"]
    for entry in config.section["perturbations"]:
        try:
            perturbed = config.params.replace(**entry)
        except (ValueError, TypeError) as err:
            raise ConfigError(f"bad perturbation {entry}: {err}") from err
        label = ", ".join(f"{k}={v}" for k, v in entry.items())
        try:
            diag = trace_growth_experiment(perturbed, k_lo, k_hi)
        except InsufficientDataError as err:
            blocks.append(f"growth [{label}]: insufficient data ({err})")
            payload["growth"].append({"perturbation": entry, "error": str(err)})
            continue
        blocks.append(
            f"growth [{label}]: fitted ratio {diag.fitted_ratio!r}"
            + (" (degenerate flat fit)" if diag.degenerate else "")
        )
        payload["growth"].append({"perturbation": entry, **asdict(diag)})

    text = "\n\n".join(blocks) + "\n"
    os.makedirs(config.output_dir, exist_ok=True)
    _write(os.path.join(config.output_dir, "theory.txt"), text)
    _write(
        os.path.join(config.output_dir, "theory.json"),
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
    )
    print(text, end="")
    return EXIT_OK if report.hypotheses_pass() else EXIT_HYPOTHESIS_FAIL


def cmd_manifolds(config: ExperimentConfig) -> int:
    section = config.section
    unstable = trace_unstable(
        config.params,
        section["n_images"],
        section["clip"],
        seed_scale=section["unstable_seed"],
        max_gap=section["max_gap"],
        max_angle=section["max_angle"],
        point_budget=section["point_budget"],
    )
    if unstable.points.shape[0] == 0:
        raise ConfigError(
            f"'clip' holds no point of the unstable manifold after {section['n_images']} images"
        )
    try:
        stable = trace_stable(
            config.params,
            section["depth"],
            section["clip"],
            seed_scale=section["stable_seed"],
            max_gap=section["max_gap"],
            point_budget=section["point_budget"],
        )
    except (DegenerateCoefficientsError, ValueError) as err:
        raise ConfigError(f"cannot trace the stable set: {err}") from err
    hits = detect_tangencies(unstable, section["axis_tol"])

    os.makedirs(config.output_dir, exist_ok=True)
    _write(os.path.join(config.output_dir, "unstable.csv"), curves_to_csv([unstable]))
    _write(os.path.join(config.output_dir, "stable.csv"), curves_to_csv(stable))
    _write(os.path.join(config.output_dir, "tangencies.csv"), tangencies_to_csv(hits))
    if unstable.refinement.budget_exhausted or any(
        c.refinement.budget_exhausted for c in stable
    ):
        print("warning: point budget exhausted; curves are partial", file=sys.stderr)
    print(
        f"unstable curve: {unstable.points.shape[0]} points; "
        f"{len(stable)} stable branches; {len(hits)} axis hits"
    )
    return EXIT_OK


def cmd_basins(config: ExperimentConfig) -> int:
    section = config.section
    nx, ny = section["resolution"]
    limits = ClassifyLimits(
        max_iter=section["max_iter"],
        escape_radius=section["escape_radius"],
        prox_tol=section["prox_tol"],
    )
    try:
        if section["registry"] == "auto":
            orbits = scan_srk(config.params, section["k_min"], section["k_max"]).orbits
        else:
            with open(section["registry"], "r", encoding="utf-8") as fh:
                orbits = orbits_from_csv(fh.read())  # an OSError here is an I/O failure, exit 3
        registry = AttractorRegistry.from_orbits(config.params, orbits)
    except ValueError as err:  # UnicodeDecodeError among them
        raise ConfigError(f"bad registry CSV: {err}") from err
    if len(registry) == 0:
        raise ConfigError("registry contains no attractors")

    grid = raster(config.params, registry, section["window"], nx, ny, limits)
    os.makedirs(config.output_dir, exist_ok=True)
    write_ppm(grid, registry, os.path.join(config.output_dir, "basins.ppm"))
    _write(os.path.join(config.output_dir, "legend.csv"), legend_csv(registry))
    fractions = basin_fractions(grid)
    lines = ["label,cells,fraction"]
    names = {UNKNOWN: "unknown", DIVERGENT: "divergent"}
    for label in sorted(fractions):
        name = names.get(label) or registry.entries[label].label
        cells = round(fractions[label] * nx * ny)
        lines.append(f"{name},{cells},{fractions[label]!r}")
    _write(os.path.join(config.output_dir, "stats.csv"), "\n".join(lines) + "\n")
    if section["write_labels"]:
        _write(os.path.join(config.output_dir, "labels.csv"), labels_csv(grid))
    cycles = grid.stats.cycle_cells
    by_period = ", ".join(f"period {p}: {n}" for p, n in cycles.items())
    print(
        f"raster {nx}x{ny}: {grid.stats.classified} classified, "
        f"{grid.stats.unknown} unknown, {grid.stats.divergent} divergent; "
        f"{sum(cycles.values())} unknown retired on unregistered cycles"
        + (f" ({by_period})" if cycles else "")
        + f"; {grid.stats.budget_spent} ran the whole budget"
    )
    return EXIT_OK


# -- entry point ---------------------------------------------------------------

_HANDLERS = {
    "find-orbits": ("orbits", cmd_find_orbits),
    "check-theory": ("theory", cmd_check_theory),
    "manifolds": ("manifolds", cmd_manifolds),
    "basins": ("basins", cmd_basins),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srklab",
        description=(
            "Numerical laboratory for a piecewise-smooth planar map family "
            "with coexisting single-round periodic attractors"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="JSON experiment config")
        cmd.add_argument("--out", help="override output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    section_name, handler = _HANDLERS[args.command]
    try:
        config = load_config(args.config, section_name)
        if args.out:
            config.output_dir = args.out
        return handler(config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:  # output or registry files; load_config maps its own
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
