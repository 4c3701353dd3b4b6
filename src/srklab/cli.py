"""Command-line front end: reproducible experiments from JSON configs.

Exit codes: 0 success (and all hypotheses pass for check-theory),
1 hypothesis failure, 2 malformed configuration, 3 I/O failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
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
from .errors import ConfigError, InsufficientDataError
from .manifolds import (
    DEFAULT_MAX_ANGLE,
    DEFAULT_MAX_GAP,
    DEFAULT_POINT_BUDGET,
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

_COMMAND_SECTIONS = ("orbits", "theory", "manifolds", "basins")
_TOP_KEYS = {"params", "output_dir", "seed", *_COMMAND_SECTIONS}


@dataclass
class ExperimentConfig:
    params: MapParams
    section_name: str
    section: dict[str, Any]
    output_dir: str
    seed: int = 0
    threads: int = 1


def _require_keys(mapping: dict, allowed: set[str], where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown key '{sorted(unknown)[0]}' in {where}")


def load_config(path: str, expected_section: str) -> ExperimentConfig:
    """Parse and validate a config file for one subcommand.

    The file must contain ``params``, ``output_dir``, and exactly one
    command section, which must match the subcommand being run.  Unknown
    keys anywhere are rejected.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(raw, _TOP_KEYS, "config")
    if "params" not in raw:
        raise ConfigError("config must define 'params'")
    sections = [name for name in _COMMAND_SECTIONS if name in raw]
    if len(sections) != 1:
        raise ConfigError(
            f"config must contain exactly one command section, found {sections or 'none'}"
        )
    if sections[0] != expected_section:
        raise ConfigError(
            f"config section '{sections[0]}' does not match subcommand "
            f"'{expected_section}'"
        )
    try:
        params = MapParams.from_dict(raw["params"])
    except (ValueError, TypeError) as err:
        raise ConfigError(f"bad params: {err}") from err
    section = raw[sections[0]]
    if not isinstance(section, dict):
        raise ConfigError(f"section '{sections[0]}' must be a JSON object")
    return ExperimentConfig(
        params=params,
        section_name=sections[0],
        section=section,
        output_dir=str(raw.get("output_dir", "out")),
        seed=int(raw.get("seed", 0)),
    )


def _parse_rect(value: Any, where: str) -> Rect:
    if not (isinstance(value, (list, tuple)) and len(value) == 4):
        raise ConfigError(f"'{where}' must be [xmin, xmax, ymin, ymax]")
    rect = Rect(*(float(v) for v in value))
    if rect.is_empty():
        raise ConfigError(f"'{where}' is empty")
    return rect


def _int_field(section: dict, key: str, default: int | None, where: str) -> int:
    if key not in section:
        if default is None:
            raise ConfigError(f"missing '{key}' in {where}")
        return default
    try:
        return int(section[key])
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad '{key}' in {where}: {err}") from err


def _float_field(section: dict, key: str, default: float, where: str) -> float:
    try:
        return float(section.get(key, default))
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad '{key}' in {where}: {err}") from err


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as err:
        raise _IoFailure(str(err)) from err


class _IoFailure(Exception):
    pass


def _ensure_outdir(config: ExperimentConfig) -> None:
    try:
        os.makedirs(config.output_dir, exist_ok=True)
    except OSError as err:
        raise _IoFailure(str(err)) from err


# -- subcommands ---------------------------------------------------------------


def cmd_find_orbits(config: ExperimentConfig) -> int:
    _require_keys(config.section, {"k_min", "k_max"}, "'orbits' section")
    k_min = _int_field(config.section, "k_min", 0, "'orbits'")
    k_max = _int_field(config.section, "k_max", 15, "'orbits'")
    if k_min > k_max:
        raise ConfigError("'k_min' must not exceed 'k_max'")
    result = scan_srk(config.params, k_min, k_max)
    _ensure_outdir(config)
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
    allowed = {"perturbations", "growth_k_min", "growth_k_max"}
    _require_keys(config.section, allowed, "'theory' section")
    report = full_report(config.params)
    _ensure_outdir(config)

    blocks = [report.to_text()]
    payload: dict[str, Any] = {"report": report.to_dict(), "growth": []}
    perturbations = config.section.get("perturbations", [])
    if not isinstance(perturbations, list):
        raise ConfigError("'perturbations' must be a list of {param: value} objects")
    k_lo = _int_field(config.section, "growth_k_min", 6, "'theory'")
    k_hi = _int_field(config.section, "growth_k_max", 16, "'theory'")
    for entry in perturbations:
        if not isinstance(entry, dict) or not entry:
            raise ConfigError("each perturbation must be a non-empty object")
        try:
            perturbed = config.params.replace(
                **{("lam" if k == "lambda" else k): float(v) for k, v in entry.items()}
            )
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
        payload["growth"].append(
            {
                "perturbation": entry,
                "k_values": list(diag.k_values),
                "tau_values": list(diag.tau_values),
                "fitted_ratio": diag.fitted_ratio,
                "degenerate": diag.degenerate,
            }
        )

    text = "\n\n".join(blocks) + "\n"
    _write(os.path.join(config.output_dir, "theory.txt"), text)
    _write(
        os.path.join(config.output_dir, "theory.json"),
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
    )
    print(text, end="")
    return EXIT_OK if report.hypotheses_pass() else EXIT_HYPOTHESIS_FAIL


def cmd_manifolds(config: ExperimentConfig) -> int:
    allowed = {
        "n_images",
        "depth",
        "clip",
        "max_gap",
        "max_angle",
        "point_budget",
        "axis_tol",
        "unstable_seed",
        "stable_seed",
    }
    _require_keys(config.section, allowed, "'manifolds' section")
    clip = _parse_rect(config.section.get("clip", [-1.0, 2.5, -1.5, 2.0]), "clip")
    n_images = _int_field(config.section, "n_images", 45, "'manifolds'")
    depth = _int_field(config.section, "depth", 2, "'manifolds'")
    max_gap = _float_field(config.section, "max_gap", DEFAULT_MAX_GAP, "'manifolds'")
    max_angle = _float_field(config.section, "max_angle", DEFAULT_MAX_ANGLE, "'manifolds'")
    budget = _int_field(config.section, "point_budget", DEFAULT_POINT_BUDGET, "'manifolds'")
    axis_tol = _float_field(config.section, "axis_tol", 1e-3, "'manifolds'")
    unstable_seed = _float_field(config.section, "unstable_seed", 1e-4, "'manifolds'")
    stable_seed = _float_field(config.section, "stable_seed", 1.0, "'manifolds'")

    unstable = trace_unstable(
        config.params,
        n_images,
        clip,
        seed_scale=unstable_seed,
        max_gap=max_gap,
        max_angle=max_angle,
        point_budget=budget,
    )
    stable = trace_stable(
        config.params,
        depth,
        clip,
        seed_scale=stable_seed,
        max_gap=max_gap,
        point_budget=budget,
    )
    hits = detect_tangencies(unstable, axis_tol)

    _ensure_outdir(config)
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
    allowed = {
        "window",
        "resolution",
        "max_iter",
        "escape_radius",
        "prox_tol",
        "registry",
        "k_min",
        "k_max",
        "write_labels",
    }
    _require_keys(config.section, allowed, "'basins' section")
    window = _parse_rect(config.section.get("window", [-0.5, 1.5, -0.5, 1.5]), "window")
    resolution = config.section.get("resolution", [200, 200])
    if not (isinstance(resolution, (list, tuple)) and len(resolution) == 2):
        raise ConfigError("'resolution' must be [nx, ny]")
    nx, ny = int(resolution[0]), int(resolution[1])
    if nx < 2 or ny < 2:
        raise ConfigError("'resolution' must be at least 2x2")
    limits = ClassifyLimits(
        max_iter=_int_field(config.section, "max_iter", 20000, "'basins'"),
        escape_radius=_float_field(config.section, "escape_radius", 10.0, "'basins'"),
        prox_tol=_float_field(config.section, "prox_tol", 1e-5, "'basins'"),
    )
    source = config.section.get("registry", "auto")
    if source == "auto":
        k_min = _int_field(config.section, "k_min", 0, "'basins'")
        k_max = _int_field(config.section, "k_max", 15, "'basins'")
        result = scan_srk(config.params, k_min, k_max)
        registry = AttractorRegistry.from_orbits(config.params, result.orbits)
    else:
        try:
            with open(str(source), "r", encoding="utf-8") as fh:
                rows = orbits_from_csv(fh.read())
        except OSError as err:
            raise _IoFailure(f"cannot read registry CSV: {err}") from err
        except ValueError as err:
            raise ConfigError(f"bad registry CSV: {err}") from err
        registry = AttractorRegistry()
        for row in rows:
            if row["stability"] != "asymptotically-stable":
                continue
            try:
                registry.add(config.params, row["points"], label=f"sr{row['k']}")
            except ValueError as err:
                raise ConfigError(
                    f"registry CSV inconsistent with params: {err}"
                ) from err
    if len(registry) == 0:
        raise ConfigError("registry contains no attractors")

    grid = raster(
        config.params, registry, window, nx, ny, limits, threads=config.threads
    )
    _ensure_outdir(config)
    write_path = os.path.join(config.output_dir, "basins.ppm")
    try:
        write_ppm(grid, registry, write_path)
    except OSError as err:
        raise _IoFailure(str(err)) from err
    _write(os.path.join(config.output_dir, "legend.csv"), legend_csv(registry))
    fractions = basin_fractions(grid)
    lines = ["label,cells,fraction"]
    names = {UNKNOWN: "unknown", DIVERGENT: "divergent"}
    for label in sorted(fractions):
        name = names.get(label) or next(
            e.label for e in registry.entries if e.id == label
        )
        cells = round(fractions[label] * nx * ny)
        lines.append(f"{name},{cells},{fractions[label]!r}")
    _write(os.path.join(config.output_dir, "stats.csv"), "\n".join(lines) + "\n")
    if config.section.get("write_labels", False):
        _write(os.path.join(config.output_dir, "labels.csv"), labels_csv(grid))
    cycles = grid.stats.cycle_cells
    by_period = ", ".join(f"period {p}: {n}" for p, n in cycles.items())
    print(
        f"raster {nx}x{ny}: {grid.stats.classified} classified, "
        f"{grid.stats.unknown} unknown, {grid.stats.divergent} divergent; "
        f"{sum(cycles.values())} unknown retired on unregistered cycles"
        + (f" ({by_period})" if cycles else "")
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
        cmd.add_argument("--threads", type=int, default=1)
        cmd.add_argument(
            "--resolution", help="override basin resolution, e.g. 200x200"
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    section_name, handler = _HANDLERS[args.command]
    try:
        config = load_config(args.config, section_name)
        if args.out:
            config.output_dir = args.out
        config.threads = max(1, args.threads)
        if args.resolution:
            if args.command != "basins":
                raise ConfigError("--resolution applies only to the basins command")
            try:
                nx, ny = (int(v) for v in args.resolution.lower().split("x"))
            except ValueError as err:
                raise ConfigError(f"bad --resolution: {args.resolution}") from err
            config.section["resolution"] = [nx, ny]
        return handler(config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except _IoFailure as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
