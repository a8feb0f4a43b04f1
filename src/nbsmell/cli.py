"""Command-line front end: single runs, configuration sweeps, batch experiments.

Commands
    run       simulate one coverage run on a map file
    sweep     run all 13 named weight configurations on one map
    randgrid  random-grid scaling batches (10 grids per size by default)
    genmap    write a synthetic ASCII map

All file outputs (CSV/JSON/PPM) are deterministic functions of the flags.
Wall-clock planning times are inherently non-reproducible, so they are
never written into the standard outputs; pass ``--timing-out`` to collect
them in a separate file and/or read the stderr diagnostics.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .engine import CoverageEngine, RunResult, run_coverage
from .grid import (
    Cell,
    CellState,
    GridMap,
    MapFormatError,
    coverage_ratio,
    frontier_cells,
    generate_random_grid,
    parse_map,
    serialize_map,
)
from .mapgen import generate_map
from .mcdm import NAMED_CONFIGS, InvalidConfigError, WeightConfig
from .sensing import SensorModel

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MAP = 3
EXIT_IO = 4

RUN_CSV_HEADER = [
    "index", "x", "y", "theta_deg", "phi_used_deg", "info_gain",
    "travel_time_s", "sensing_time_s", "cumulative_coverage",
    "candidates_evaluated",
]
SWEEP_CSV_HEADER = [
    "configuration", "coverage_satisfied", "sensing_ops",
    "travel_time_s", "scanning_time_s", "total_time_min",
]
RANDGRID_CSV_HEADER = [
    "row_type", "size", "grid_index", "seed", "free_cells", "covered_cells",
    "coverage_satisfied", "sensing_ops", "travel_time_s", "scanning_time_s",
    "total_time_s",
]


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _add_sensor_flags(parser: argparse.ArgumentParser, rmax_default: float) -> None:
    parser.add_argument("--rmax-m", type=float, default=rmax_default,
                        help="sensor range in meters")
    parser.add_argument("--phimax-deg", type=float, default=180.0,
                        help="maximum opening angle in degrees")
    parser.add_argument("--setup-s", type=float, default=6.0,
                        help="sweep setup time in seconds")
    parser.add_argument("--sweep-s-per-deg", type=float, default=1.0 / 3.0,
                        help="sweep rate in seconds per degree")


def _add_motion_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--orientations", type=int, choices=(4, 8), default=4)
    parser.add_argument("--connectivity", type=int, choices=(4, 8), default=4)
    parser.add_argument("--speed-mps", type=float, default=1.0)
    parser.add_argument("--target-coverage", type=float, default=1.0)


def _add_config_flags(parser: argparse.ArgumentParser, default: str = "E") -> None:
    parser.add_argument("--config", default=default,
                        help="named weight configuration A..M, or 'custom'")
    parser.add_argument("--weights", default=None,
                        help="custom weights as 'x1,x2,x3' (implies --config custom)")
    parser.add_argument("--synergy-bonus", type=float, default=0.1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nbsmell",
        description="Coverage planning for a mobile robot with a remote gas sensor",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one coverage run")
    p_run.add_argument("--map", required=True, help="ASCII map file")
    _add_config_flags(p_run)
    _add_sensor_flags(p_run, rmax_default=15.0)
    _add_motion_flags(p_run)
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--snapshots", action="store_true",
                       help="write a PPM snapshot after every step")
    p_run.add_argument("--timing-out", default=None,
                       help="CSV file for per-step wall-clock decision times")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run all 13 named configurations")
    p_sweep.add_argument("--map", required=True)
    _add_sensor_flags(p_sweep, rmax_default=15.0)
    _add_motion_flags(p_sweep)
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_rand = sub.add_parser("randgrid", help="random-grid scaling experiment")
    p_rand.add_argument("--sizes", default="3,10,30,50,70,90",
                        help="comma-separated grid sizes")
    p_rand.add_argument("--grids-per-size", type=int, default=10)
    p_rand.add_argument("--obstacle-ratio", type=float, default=0.1)
    p_rand.add_argument("--seed", type=int, default=1,
                        help="master seed; per-grid seed = seed + 1000*size + index")
    _add_config_flags(p_rand, default="F")
    _add_sensor_flags(p_rand, rmax_default=30.0)
    _add_motion_flags(p_rand)
    p_rand.add_argument("--jobs", type=int, default=1,
                        help="parallel worker processes (at most one per grid and CPU)")
    p_rand.add_argument("--out", required=True)
    p_rand.add_argument("--timing-out", default=None,
                        help="CSV file for per-grid planning wall-clock times")
    p_rand.set_defaults(func=cmd_randgrid)

    p_gen = sub.add_parser("genmap", help="write a synthetic map")
    p_gen.add_argument("--kind", required=True,
                       choices=("empty", "corridor", "rooms", "random"))
    p_gen.add_argument("--size", required=True,
                       help="WxH (e.g. 60x10) or a single side length")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--obstacle-ratio", type=float, default=0.1)
    p_gen.add_argument("--resolution", type=float, default=None)
    p_gen.add_argument("--out", required=True, help="output map path")
    p_gen.set_defaults(func=cmd_genmap)

    return parser


def _resolve_config(args: argparse.Namespace) -> str | WeightConfig:
    if args.weights is not None:
        parts = args.weights.split(",")
        if len(parts) != 3:
            raise InvalidConfigError(
                f"--weights expects 'x1,x2,x3', got {args.weights!r}"
            )
        try:
            x1, x2, x3 = (float(p) for p in parts)
        except ValueError:
            raise InvalidConfigError(
                f"--weights expects numbers, got {args.weights!r}"
            ) from None
        config = WeightConfig("custom", x1, x2, x3, synergy_bonus=args.synergy_bonus)
        config.validate()
        return config
    name = args.config.upper()
    if name == "CUSTOM":
        raise InvalidConfigError("--config custom requires --weights")
    if name not in NAMED_CONFIGS:
        raise InvalidConfigError(
            f"unknown configuration {args.config!r}; expected A..M or custom"
        )
    return name


def _build_sensor(args: argparse.Namespace) -> SensorModel:
    return SensorModel(
        r_max=args.rmax_m,
        phi_max=args.phimax_deg,
        setup_time=args.setup_s,
        sweep_rate=args.sweep_s_per_deg,
    )


def _check_motion_args(args: argparse.Namespace) -> None:
    if not 0 < args.speed_mps < math.inf:
        raise InvalidConfigError(
            f"--speed-mps must be finite and > 0, got {args.speed_mps}"
        )
    if not 0.0 < args.target_coverage <= 1.0:
        raise InvalidConfigError(
            f"--target-coverage must be in (0, 1], got {args.target_coverage}"
        )


def _load_map(path: str) -> GridMap:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise MapFormatError(f"cannot read map {path}: {exc}") from exc
    return parse_map(text)


def render_ppm(grid: GridMap, robot: Cell | None,
               frontier: list[Cell] | None = None) -> bytes:
    """Binary PPM snapshot, one pixel per cell.

    Obstacles black, unscanned white, scanned gray, frontier blue, robot red.
    """
    img = np.empty((grid.height, grid.width, 3), dtype=np.uint8)
    img[grid.states == CellState.FREE_UNSCANNED] = (255, 255, 255)
    img[grid.states == CellState.FREE_SCANNED] = (160, 160, 160)
    img[grid.states == CellState.OBSTACLE] = (0, 0, 0)
    if frontier:
        for cell in frontier:
            img[cell.y, cell.x] = (0, 0, 255)
    if robot is not None:
        img[robot.y, robot.x] = (255, 0, 0)
    header = f"P6\n{grid.width} {grid.height}\n255\n".encode("ascii")
    return header + img.tobytes()


def _write_run_outputs(out_dir: Path, result: RunResult, grid: GridMap,
                       context: dict) -> None:
    with open(out_dir / "run.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RUN_CSV_HEADER)
        for rec in result.steps:
            writer.writerow([
                rec.index,
                rec.pose.cell.x,
                rec.pose.cell.y,
                f"{np.degrees(rec.pose.theta):.1f}",
                _fmt(rec.phi_used),
                rec.info_gain,
                _fmt(rec.travel_time),
                _fmt(rec.sensing_time),
                _fmt(rec.cumulative_coverage),
                rec.candidates_evaluated,
            ])
    summary = dict(context)
    summary.update({
        "total_sensing_ops": result.total_sensing_ops,
        "total_travel_time_s": round(result.total_travel_time, 6),
        "total_sensing_time_s": round(result.total_sensing_time, 6),
        "total_time_s": round(result.total_time, 6),
        "total_time_min": round(result.total_time / 60.0, 6),
        "coverage_satisfied": result.coverage_satisfied,
        "coverage_ratio": round(coverage_ratio(grid), 6),
        "free_cells": grid.free_count(),
        "scanned_cells": grid.scanned_count(),
        "uncovered_cells": [[c.x, c.y] for c in result.uncovered_cells],
    })
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _summary_line(label: str, result: RunResult) -> str:
    satisfied = "yes" if result.coverage_satisfied else "no"
    return (
        f"{label} coverage_satisfied={satisfied} "
        f"sensing_ops={result.total_sensing_ops} "
        f"travel_time_s={result.total_travel_time:.2f} "
        f"scanning_time_s={result.total_sensing_time:.2f} "
        f"total_time_min={result.total_time / 60.0:.2f}"
    )


def cmd_run(args: argparse.Namespace) -> int:
    try:
        config = _resolve_config(args)
        sensor = _build_sensor(args)
        _check_motion_args(args)
    except (InvalidConfigError, ValueError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        grid = _load_map(args.map)
    except MapFormatError as exc:
        print(f"map error: {exc}", file=sys.stderr)
        return EXIT_MAP

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        snap_dir = out_dir / "snapshots"
        if args.snapshots:
            snap_dir.mkdir(exist_ok=True)

        engine = CoverageEngine(
            grid, config, sensor,
            orientations=args.orientations,
            connectivity=args.connectivity,
            speed=args.speed_mps,
            target_coverage=args.target_coverage,
        )
        if args.snapshots:
            for record in engine:
                ppm = render_ppm(grid, engine.robot.cell,
                                 frontier_cells(grid, args.connectivity))
                (snap_dir / f"step_{record.index:04d}.ppm").write_bytes(ppm)
        result = engine.run()

        label = config if isinstance(config, str) else "custom"
        context = {
            "command": "run",
            "map": args.map,
            "configuration": label,
            "weights": None if isinstance(config, str)
            else [config.x1, config.x2, config.x3],
            "r_max_m": sensor.r_max,
            "phi_max_deg": sensor.phi_max,
            "setup_s": sensor.setup_time,
            "sweep_s_per_deg": sensor.sweep_rate,
            "orientations": args.orientations,
            "connectivity": args.connectivity,
            "speed_mps": args.speed_mps,
            "target_coverage": args.target_coverage,
        }
        _write_run_outputs(out_dir, result, grid, context)
        if args.timing_out:
            with open(args.timing_out, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["index", "decision_time_s"])
                for rec in result.steps:
                    writer.writerow([rec.index, _fmt(rec.decision_time)])
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO

    print(_summary_line(f"config={label}", result))
    print(f"planning wall-clock: {result.total_decision_time:.3f} s",
          file=sys.stderr)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        sensor = _build_sensor(args)
        _check_motion_args(args)
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        base_grid = _load_map(args.map)
    except MapFormatError as exc:
        print(f"map error: {exc}", file=sys.stderr)
        return EXIT_MAP

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        rows = []
        for name in NAMED_CONFIGS:
            result = run_coverage(
                base_grid.copy(), name, sensor,
                orientations=args.orientations,
                connectivity=args.connectivity,
                speed=args.speed_mps,
                target_coverage=args.target_coverage,
            )
            rows.append([
                name,
                "yes" if result.coverage_satisfied else "no",
                result.total_sensing_ops,
                _fmt(result.total_travel_time),
                _fmt(result.total_sensing_time),
                _fmt(result.total_time / 60.0),
            ])
            print(_summary_line(name, result))
        with open(out_dir / "sweep.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(SWEEP_CSV_HEADER)
            writer.writerows(rows)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _randgrid_task(task: dict) -> dict:
    """One random-grid run; a top-level function so pools can pickle it."""
    grid = generate_random_grid(task["size"], task["ratio"], task["seed"])
    result = run_coverage(
        grid, task["config"], task["sensor"],
        orientations=task["orientations"],
        connectivity=task["connectivity"],
        speed=task["speed"],
        target_coverage=task["target"],
    )
    return {
        "size": task["size"],
        "grid_index": task["grid_index"],
        "seed": task["seed"],
        "free_cells": grid.free_count(),
        "covered_cells": grid.scanned_count(),
        "coverage_satisfied": result.coverage_satisfied,
        "sensing_ops": result.total_sensing_ops,
        "travel_time_s": result.total_travel_time,
        "scanning_time_s": result.total_sensing_time,
        "total_time_s": result.total_time,
        "planning_time_s": result.total_decision_time,
    }


def cmd_randgrid(args: argparse.Namespace) -> int:
    try:
        config = _resolve_config(args)
        sensor = _build_sensor(args)
        _check_motion_args(args)
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
        if not sizes or any(s < 1 for s in sizes):
            raise InvalidConfigError(f"invalid --sizes {args.sizes!r}")
        if args.grids_per_size < 1:
            raise InvalidConfigError("--grids-per-size must be >= 1")
        if not 0.0 <= args.obstacle_ratio < 1.0:
            raise InvalidConfigError("--obstacle-ratio must be in [0, 1)")
        if args.jobs < 1:
            raise InvalidConfigError(f"--jobs must be >= 1, got {args.jobs}")
    except (InvalidConfigError, ValueError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    tasks = []
    for size in sizes:
        for i in range(args.grids_per_size):
            tasks.append({
                "size": size,
                "grid_index": i,
                "seed": args.seed + 1000 * size + i,
                "ratio": args.obstacle_ratio,
                "sensor": sensor,
                "config": config,
                "orientations": args.orientations,
                "connectivity": args.connectivity,
                "speed": args.speed_mps,
                "target": args.target_coverage,
            })

    workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_randgrid_task, tasks))
    else:
        results = [_randgrid_task(t) for t in tasks]
    results.sort(key=lambda r: (r["size"], r["grid_index"]))
    groups = {size: [r for r in results if r["size"] == size] for size in sizes}

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "randgrid.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(RANDGRID_CSV_HEADER)
            for row in results:
                writer.writerow([
                    "grid", row["size"], row["grid_index"], row["seed"],
                    row["free_cells"], row["covered_cells"],
                    "yes" if row["coverage_satisfied"] else "no",
                    row["sensing_ops"],
                    _fmt(row["travel_time_s"]),
                    _fmt(row["scanning_time_s"]),
                    _fmt(row["total_time_s"]),
                ])
            for size in sizes:
                group = groups[size]
                writer.writerow([
                    "size_mean", size, "", "",
                    _fmt(float(np.mean([r["free_cells"] for r in group]))),
                    _fmt(float(np.mean([r["covered_cells"] for r in group]))),
                    "",
                    _fmt(float(np.mean([r["sensing_ops"] for r in group]))),
                    _fmt(float(np.mean([r["travel_time_s"] for r in group]))),
                    _fmt(float(np.mean([r["scanning_time_s"] for r in group]))),
                    _fmt(float(np.mean([r["total_time_s"] for r in group]))),
                ])
        if args.timing_out:
            with open(args.timing_out, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["row_type", "size", "grid_index", "planning_time_s"])
                for row in results:
                    writer.writerow(["grid", row["size"], row["grid_index"],
                                     _fmt(row["planning_time_s"])])
                for size in sizes:
                    group = groups[size]
                    writer.writerow([
                        "size_mean", size, "",
                        _fmt(float(np.mean([r["planning_time_s"] for r in group]))),
                    ])
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO

    for size in sizes:
        group = groups[size]
        ops = float(np.mean([r["sensing_ops"] for r in group]))
        plan = float(np.mean([r["planning_time_s"] for r in group]))
        print(f"size={size} grids={len(group)} mean_sensing_ops={ops:.2f}")
        print(f"size={size} mean_planning_time_s={plan:.3f}", file=sys.stderr)
    return EXIT_OK


def cmd_genmap(args: argparse.Namespace) -> int:
    try:
        if "x" in args.size:
            w_str, h_str = args.size.split("x", 1)
            width, height = int(w_str), int(h_str)
        else:
            width = height = int(args.size)
        grid = generate_map(
            args.kind, width, height,
            seed=args.seed,
            obstacle_ratio=args.obstacle_ratio,
            resolution=args.resolution,
        )
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(serialize_map(grid))
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {args.kind} map {width}x{height} to {args.out}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
