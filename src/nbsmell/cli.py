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
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable

import numpy as np

from .engine import CoverageEngine, RunResult, check_motion, run_coverage
from .grid import (
    _DECIMAL,
    _INTEGER,
    Cell,
    GridMap,
    MapFormatError,
    _checked,
    coverage_ratio,
    frontier_cells,
    generate_random_grid,
    parse_map,
    random_obstacle_count,
    serialize_map,
)
from .mapgen import generate_map
from .mcdm import NAMED_CONFIGS, InvalidConfigError, WeightConfig, resolve_measure
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
_PALETTE = np.array([(0, 0, 0), (255, 255, 255), (160, 160, 160)], np.uint8)  # RGB by state


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _ascii(cast: type, pattern: re.Pattern) -> Callable[[str], int | float]:
    """An argparse ``type``: ``cast`` of text that ``pattern`` matches, blanks around it aside."""
    def parse(text: str) -> int | float:
        if not pattern.fullmatch(text.strip()):
            raise ValueError(text)
        return cast(text)
    parse.__name__ = cast.__name__  # argparse's error: "argument --x: invalid float value: ..."
    return parse


# ASCII numbers, as in a map header; nan and inf go on to the library's finiteness checks
_INT, _FLOAT = _ascii(int, _INTEGER), _ascii(float, re.compile(
    rf"{_DECIMAL.pattern}|[+-]?(nan|inf|infinity)", re.IGNORECASE))
# a flag, and a value after it that argparse would take for an option (-inf, -1e-3, -3,4)
_FLAG, _NEGATIVE = re.compile(r"--\w[\w-]*"), re.compile(r"-(\d|\.|nan|inf)", re.IGNORECASE)


def _add_sensor_flags(parser: argparse.ArgumentParser, rmax_default: float) -> None:
    parser.add_argument("--rmax-m", type=_FLOAT, default=rmax_default,
                        help="sensor range in meters")
    parser.add_argument("--phimax-deg", type=_FLOAT, default=SensorModel.phi_max,
                        help="maximum opening angle in degrees")
    parser.add_argument("--setup-s", type=_FLOAT, default=SensorModel.setup_time,
                        help="sweep setup time in seconds")
    parser.add_argument("--sweep-s-per-deg", type=_FLOAT, default=SensorModel.sweep_rate,
                        help="sweep rate in seconds per degree")


def _add_motion_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--orientations", type=_INT, metavar="{4,8}", default=4)
    parser.add_argument("--connectivity", type=_INT, metavar="{4,8}", default=4)
    parser.add_argument("--speed-mps", type=_FLOAT, default=1.0)
    parser.add_argument("--target-coverage", type=_FLOAT, default=1.0)


def _add_config_flags(parser: argparse.ArgumentParser, default: str = "E") -> None:
    parser.add_argument("--config", default=default,
                        help="named weight configuration A..M, or 'custom'")
    parser.add_argument("--weights", default=None,
                        help="custom weights as 'x1,x2,x3' (implies --config custom)")
    parser.add_argument("--synergy-bonus", type=_FLOAT, default=WeightConfig.synergy_bonus)


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
    p_rand.add_argument("--grids-per-size", type=_INT, default=10)
    p_rand.add_argument("--obstacle-ratio", type=_FLOAT, default=0.1)
    p_rand.add_argument("--seed", type=_INT, default=1,
                        help="master seed; per-grid seed = seed + 1000*size + index")
    _add_config_flags(p_rand, default="F")
    _add_sensor_flags(p_rand, rmax_default=30.0)
    _add_motion_flags(p_rand)
    p_rand.add_argument("--jobs", type=_INT, default=1,
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
    p_gen.add_argument("--seed", type=_INT, default=0)
    p_gen.add_argument("--obstacle-ratio", type=_FLOAT, default=0.1)
    p_gen.add_argument("--resolution", type=_FLOAT, default=None)
    p_gen.add_argument("--out", required=True, help="output map path")
    p_gen.set_defaults(func=cmd_genmap)

    return parser


def _resolve_config(args: argparse.Namespace) -> str | WeightConfig:
    """The custom weights, or the upper-cased name, checked as the engine checks them."""
    if args.weights is not None:
        parts = args.weights.split(",")
        if len(parts) != 3:
            raise InvalidConfigError(f"--weights expects 'x1,x2,x3', got {args.weights!r}")
        if not all(_DECIMAL.fullmatch(p.strip()) for p in parts):
            raise InvalidConfigError(f"--weights expects numbers, got {args.weights!r}")
        return WeightConfig(*map(float, parts), synergy_bonus=args.synergy_bonus)
    WeightConfig(1.0, 0.0, 0.0, args.synergy_bonus)  # a name ignores the bonus; check it first
    if args.config.upper() == "CUSTOM":
        raise InvalidConfigError("--config custom requires --weights")
    resolve_measure(args.config)  # an unknown name is reported as typed
    return args.config.upper()


def _validated(args: argparse.Namespace) -> tuple[
        str | WeightConfig | None, SensorModel, list[int] | None]:
    """The configuration (None without config flags), sensor and batch sizes (None
    without ``--sizes``) the flags ask for; ``args`` itself is left as parsed.

    Checks run in a fixed order: configuration, sensor, motion, then the
    batch flags of ``randgrid`` (:func:`_batch_sizes`).  Every rejection is
    raised as :class:`InvalidConfigError`, before any run.
    """
    try:
        config = _resolve_config(args) if "config" in args else None
        sensor = SensorModel(r_max=args.rmax_m, phi_max=args.phimax_deg,
                             setup_time=args.setup_s, sweep_rate=args.sweep_s_per_deg)
        check_motion(**_motion(args))
        sizes = _batch_sizes(args) if "sizes" in args else None
    except ValueError as exc:
        raise InvalidConfigError(str(exc)) from exc
    return config, sensor, sizes


def _batch_sizes(args: argparse.Namespace) -> list[int]:
    """``--sizes`` (ASCII integers, blank items skipped) as ints.  ValueError for the first
    bad one of them, ``--grids-per-size``, each size (:func:`random_obstacle_count`), the
    per-grid seed and ``--jobs``."""
    items = [s for s in args.sizes.split(",") if s.strip()]
    if not items or not all(_INTEGER.fullmatch(s.strip()) for s in items):
        raise InvalidConfigError(f"invalid --sizes {args.sizes!r}")
    sizes = list(map(int, items))
    _checked("--grids-per-size", args.grids_per_size, ">= 1", lambda n: n >= 1)
    for j, size in enumerate(sizes):
        if size in sizes[:j]:  # its grids would run, and be written, twice
            raise InvalidConfigError(f"--sizes repeats size {size}")
        random_obstacle_count(size, args.obstacle_ratio)
    if _grid_seed(args, min(sizes), 0) < 0:
        raise InvalidConfigError(
            f"--seed {args.seed} gives a negative per-grid seed for size {min(sizes)}")
    _checked("--jobs", args.jobs, ">= 1", lambda n: n >= 1)
    return sizes


def _motion(args: argparse.Namespace) -> dict:
    """The :class:`CoverageEngine` keyword arguments the motion flags ask for."""
    return {"orientations": args.orientations, "connectivity": args.connectivity,
            "speed": args.speed_mps, "target_coverage": args.target_coverage}


def _load_map(path: str) -> GridMap:
    """The map in the UTF-8 file ``path``; MapFormatError if it cannot be read or decoded."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise MapFormatError(f"cannot read map {path}: {exc}") from exc
    return parse_map(text)


def render_ppm(grid: GridMap, robot: Cell, frontier: np.ndarray) -> bytes:
    """Binary PPM snapshot, one pixel per cell.

    Cells take the ``_PALETTE`` row at their state (obstacle black, unscanned white,
    scanned gray), then frontier blue (:func:`frontier_cells` indices), robot red.
    Nothing is checked: the one caller, ``cmd_run --snapshots``, passes its engine's map,
    robot cell and frontier.
    """
    img = _PALETTE[grid.states]
    img.reshape(-1, 3)[frontier] = (0, 0, 255)
    img[robot.y, robot.x] = (255, 0, 0)
    header = f"P6\n{grid.width} {grid.height}\n255\n".encode("ascii")
    return header + img.tobytes()


def _write_csv(path: Path | str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_summary(out_dir: Path, result: RunResult, grid: GridMap, context: dict) -> None:
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


def cmd_run(args: argparse.Namespace) -> None:
    config, sensor, _ = _validated(args)
    grid = _load_map(args.map)
    engine = CoverageEngine(grid, config, sensor, **_motion(args))  # before any output
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.snapshots:
        snap_dir = out_dir / "snapshots"
        snap_dir.mkdir(exist_ok=True)
        for record in engine:
            ppm = render_ppm(grid, engine.robot.cell,
                             frontier_cells(grid, engine.connectivity))
            (snap_dir / f"step_{record.index:04d}.ppm").write_bytes(ppm)
    result = engine.run()

    label = config if isinstance(config, str) else "custom"
    _write_csv(out_dir / "run.csv", RUN_CSV_HEADER, (
        [rec.index, rec.pose.cell.x, rec.pose.cell.y,
         f"{np.degrees(rec.pose.theta):.1f}", _fmt(rec.phi_used), rec.info_gain,
         _fmt(rec.travel_time), _fmt(rec.sensing_time), _fmt(rec.cumulative_coverage),
         rec.candidates_evaluated]
        for rec in result.steps
    ))
    _write_summary(out_dir, result, grid, {
        "command": "run",
        "map": args.map,
        "configuration": label,
        "weights": None if isinstance(config, str) else [config.x1, config.x2, config.x3],
        "r_max_m": sensor.r_max,
        "phi_max_deg": sensor.phi_max,
        "setup_s": sensor.setup_time,
        "sweep_s_per_deg": sensor.sweep_rate,
        "orientations": args.orientations,
        "connectivity": args.connectivity,
        "speed_mps": args.speed_mps,
        "target_coverage": args.target_coverage,
    })
    if args.timing_out:
        _write_csv(args.timing_out, ["index", "decision_time_s"],
                   ([rec.index, _fmt(rec.decision_time)] for rec in result.steps))

    print(_summary_line(f"config={label}", result))
    print(f"planning wall-clock: {result.total_decision_time:.3f} s",
          file=sys.stderr)


def cmd_sweep(args: argparse.Namespace) -> None:
    _, sensor, _ = _validated(args)
    base_grid = _load_map(args.map)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for name in NAMED_CONFIGS:
        result = run_coverage(base_grid.copy(), name, sensor, **_motion(args))
        rows.append([
            name,
            "yes" if result.coverage_satisfied else "no",
            result.total_sensing_ops,
            _fmt(result.total_travel_time),
            _fmt(result.total_sensing_time),
            _fmt(result.total_time / 60.0),
        ])
        print(_summary_line(name, result))
    _write_csv(out_dir / "sweep.csv", SWEEP_CSV_HEADER, rows)


def _grid_seed(args: argparse.Namespace, size: int, index: int) -> int:
    return args.seed + 1000 * size + index


def _randgrid_task(task: tuple) -> tuple[tuple[int, int, int], bool, tuple]:
    """One random-grid run; a top-level function so pools can pickle it.

    Returns the grid's key (size, grid index, seed), its coverage flag and the numbers averaged
    per size: free and covered cells, sensing ops, travel, scanning, total and planning seconds.
    """
    args, config, sensor, size, index = task
    seed = _grid_seed(args, size, index)
    grid = generate_random_grid(size, args.obstacle_ratio, seed)
    result = run_coverage(grid, config, sensor, **_motion(args))
    return (size, index, seed), result.coverage_satisfied, (
        grid.free_count(), grid.scanned_count(), result.total_sensing_ops,
        result.total_travel_time, result.total_sensing_time, result.total_time,
        result.total_decision_time)


def cmd_randgrid(args: argparse.Namespace) -> None:
    config, sensor, sizes = _validated(args)
    tasks = [(args, config, sensor, size, i) for size in sizes for i in range(args.grids_per_size)]
    workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_randgrid_task, tasks))
    else:
        results = [_randgrid_task(t) for t in tasks]
    # grid rows by (size, grid index), then the size means in the order given
    rows, timing_rows, groups, lines = [], [], {size: [] for size in sizes}, []
    for (size, index, seed), satisfied, numbers in sorted(results):  # keys are unique
        free, covered, ops, travel, sensing, total, planning = numbers
        rows.append(["grid", size, index, seed, free, covered, "yes" if satisfied else "no",
                     ops, *map(_fmt, (travel, sensing, total))])
        timing_rows.append(["grid", size, index, _fmt(planning)])
        groups[size].append(numbers)
    for size, runs in groups.items():  # one mean per column: a 2-D mean adds in another order
        free, covered, ops, travel, sensing, total, planning = map(float, map(np.mean, zip(*runs)))
        rows.append(["size_mean", size, "", "", _fmt(free), _fmt(covered), "",
                     *map(_fmt, (ops, travel, sensing, total))])
        timing_rows.append(["size_mean", size, "", _fmt(planning)])
        lines += [(f"size={size} grids={len(runs)} mean_sensing_ops={ops:.2f}", sys.stdout),
                  (f"size={size} mean_planning_time_s={planning:.3f}", sys.stderr)]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "randgrid.csv", RANDGRID_CSV_HEADER, rows)
    if args.timing_out:
        _write_csv(args.timing_out, ["row_type", "size", "grid_index", "planning_time_s"],
                   timing_rows)
    for line, stream in lines:
        print(line, file=stream)


def cmd_genmap(args: argparse.Namespace) -> None:
    w, x, h = args.size.partition("x")
    sides = [w, h if x else w]
    if not all(_INTEGER.fullmatch(s.strip()) for s in sides):
        raise InvalidConfigError(f"--size expects WxH or one side length, got {args.size!r}")
    width, height = map(int, sides)
    try:
        grid = generate_map(
            args.kind, width, height,
            seed=args.seed,
            obstacle_ratio=args.obstacle_ratio,
            resolution=args.resolution,
        )
    except ValueError as exc:
        raise InvalidConfigError(str(exc)) from exc
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(serialize_map(grid))
    print(f"wrote {args.kind} map {width}x{height} to {args.out}")


def main(argv: list[str] | None = None) -> int:
    """Run one command; input and output errors become exit codes, others propagate."""
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):  # "--flag -value" as "--flag=-value", as argparse reads
        if _FLAG.fullmatch(argv[i - 1]) and _NEGATIVE.match(argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except InvalidConfigError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MapFormatError as exc:
        print(f"map error: {exc}", file=sys.stderr)
        return EXIT_MAP
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
