"""Online coverage loop: enumerate candidate poses, score, move, scan, repeat.

Candidate positions are the frontier cells (scanned free cells adjacent to
unscanned free cells); before the first scan no frontier exists, so the
bootstrap candidate set is the start cell with every orientation. Each
candidate pose is scored by the Choquet integral of its normalized travel
distance, information gain, and sensing time; the best candidate is
executed and the loop repeats until no candidate can cover a new cell.

``run_coverage`` mutates the map it is given (scan bookkeeping); pass a
copy to keep the original pristine.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .grid import (
    Cell,
    GridMap,
    Pose,
    _checked,
    cells_at,
    coverage_ratio,  # unused; bench/spans.py hooks nbsmell.engine.coverage_ratio
    frontier_cells,
    heading_set,
    mark_scanned,
    neighbor_offsets,
)
from .mcdm import (
    FuzzyMeasure,
    InvalidConfigError,
    WeightConfig,
    build_measure,
    choquet_batch,
    named_measure,
    normalize_utilities,
    validate_measure,
)
from .planning import shortest_distances
from .sensing import FosEvaluator, SensorModel

__all__ = ["CoverageEngine", "RunResult", "StepRecord", "run_coverage", "uncoverable_cells"]


@dataclass(frozen=True)
class StepRecord:
    index: int  # 1-based
    pose: Pose
    phi_used: float  # degrees
    info_gain: int
    travel_time: float  # seconds
    sensing_time: float  # seconds
    cumulative_coverage: float
    candidates_evaluated: int
    decision_time: float  # wall-clock seconds spent enumerating + selecting


@dataclass
class RunResult:
    steps: list[StepRecord]
    total_sensing_ops: int
    total_travel_time: float
    total_sensing_time: float
    total_time: float
    coverage_satisfied: bool
    uncovered_cells: list[Cell]

    @property
    def total_decision_time(self) -> float:
        return sum(rec.decision_time for rec in self.steps)


def resolve_measure(config: str | WeightConfig | FuzzyMeasure) -> FuzzyMeasure:
    """The fuzzy measure of a configuration name, custom weights or a measure.

    A measure given as such must pass :func:`validate_measure`, else
    InvalidConfigError lists its violations as :func:`build_measure` does.
    """
    if isinstance(config, FuzzyMeasure):
        violations = validate_measure(config)
        if violations:
            raise InvalidConfigError("; ".join(violations))
        return config
    if isinstance(config, WeightConfig):
        return build_measure(config)
    return named_measure(config)


def check_motion(orientations: int, connectivity: int, speed: float,
                 target_coverage: float) -> tuple[tuple[float, ...], float, float]:
    """:func:`heading_set` of ``orientations``, and ``speed`` and ``target_coverage`` as
    Python numbers; ValueError for the first bad value, in :class:`CoverageEngine`'s
    argument order."""
    headings = heading_set(orientations)
    neighbor_offsets(connectivity)
    return (headings, _checked("speed", speed, "finite and > 0", lambda s: 0 < s < math.inf),
            _checked("target_coverage", target_coverage, "in (0, 1]", lambda c: 0 < c <= 1))


def select_best(criteria: np.ndarray, measure: FuzzyMeasure) -> int:
    """Column of the best candidate.

    ``criteria`` is (3, n), one row per criterion: information gain, travel
    distance, sensing time.  Each row is normalized over the set and every
    column scored by the Choquet integral.  Ties on the score break
    deterministically: smaller distance, then smaller sensing time, then the
    earlier column.  Each key filters the columns left by the one before, so
    no sort is needed.  The step passes a float array and the measure that
    :func:`resolve_measure` checked when the engine was built.
    """
    scores = choquet_batch(normalize_utilities(criteria), measure)
    cols = (scores == np.maximum.reduce(scores)).nonzero()[0]
    for row in (1, 2):
        if cols.size > 1:
            key = criteria[row, cols]
            cols = cols[key == np.minimum.reduce(key)]
    return int(cols[0])


class CoverageEngine:
    """Stateful coverage run over one grid map (which it mutates).

    A run makes at most F steps on a map with F free cells, as each scans a new cell, and each
    step travels at most (F - 1) * sqrt(2) * resolution meters and sweeps at most ``phi_max``;
    InvalidConfigError unless the time this bounds is finite, so that no total overflows.
    """

    def __init__(
        self,
        grid: GridMap,
        config: str | WeightConfig | FuzzyMeasure,
        sensor: SensorModel,
        orientations: int = 4,
        connectivity: int = 4,
        speed: float = 1.0,
        target_coverage: float = 1.0,
    ) -> None:
        self.measure = resolve_measure(config)  # before motion, in the CLI's order
        # a step prices travel as distance / speed, on the checked Python number
        self.headings, self.speed, self.target_coverage = check_motion(
            orientations, connectivity, speed, target_coverage)
        self.grid = grid
        self.sensor = sensor
        self.connectivity = connectivity
        self.evaluator = FosEvaluator(grid, sensor, self.headings)  # checks both types
        # kept up to date from each scan's marked count, not recounted
        self._free, self._scanned = grid.free_count(), grid.scanned_count()
        sweep = sensor.sweep_time(sensor.phi_max)
        if not math.isfinite(self._free * (
                sweep + (self._free - 1) * math.sqrt(2) * grid.resolution / self.speed)):
            raise InvalidConfigError(
                f"a run over {self._free} free cells has no finite time bound at speed "
                f"{self.speed!r} m/s, resolution {grid.resolution!r} m and full sweep {sweep!r} s")
        self.robot = Pose(grid.start, self.headings[0])
        self.records: list[StepRecord] = []
        self._done = False
        # obstacles never change: the last distance field holds while the robot stays
        self._field, self._field_from = None, None

    def step(self) -> StepRecord | None:
        """Execute one sensing operation; None when no candidate remains."""
        if self._done:
            return None
        started = time.perf_counter()
        grid, robot = self.grid, self.robot.cell
        if robot != self._field_from:
            self._field = shortest_distances(grid, robot, self.connectivity).reshape(-1)
            self._field_from = robot
        dist = self._field
        # candidate positions, as flat indices: the reachable frontier cells,
        # or the robot cell before the first scan
        idx = (frontier_cells(grid, self.connectivity) if self._scanned
               else np.array([robot.y * grid.width + robot.x]))
        idx = idx.compress(np.isfinite(dist.take(idx)))
        gain, phi = self.evaluator.scores(idx)
        # candidates in row-major cell order, headings ascending, as flat
        # indices into the (cells, headings) block
        flat = (gain.reshape(-1) >= 1).nonzero()[0]
        if flat.size == 0:
            self._done = True
            return None
        # one contiguous row per criterion: gain, distance, sensing time
        criteria = np.empty((3, flat.size))
        criteria[0] = gain.take(flat)
        criteria[1] = dist.take(idx.take(flat // gain.shape[1]))
        criteria[2] = self.sensor.sweep_time(phi.take(flat))
        best = select_best(criteria, self.measure)
        decision_time = time.perf_counter() - started

        cell, h = divmod(int(flat[best]), gain.shape[1])
        i = int(idx[cell])
        pose = Pose(Cell(i % grid.width, i // grid.width), self.headings[h])
        scan, new = self.evaluator.sweep(i, h)
        cached_gain, distance, cached_time = criteria[:, best].tolist()
        if (scan.info_gain, scan.sensing_time) != (cached_gain, cached_time):
            raise RuntimeError(
                f"score cache out of sync at {pose}: cached gain {cached_gain} "
                f"and time {cached_time}, fresh {scan.info_gain} and {scan.sensing_time}")
        marked = mark_scanned(grid, new)
        if marked != scan.info_gain:
            raise RuntimeError(
                f"scan bookkeeping out of sync: marked {marked}, expected {scan.info_gain}")
        self.evaluator.mark_scanned(new)
        self._scanned += marked
        self.robot = pose

        record = StepRecord(
            index=len(self.records) + 1,
            pose=pose,
            phi_used=scan.phi_used,
            info_gain=scan.info_gain,
            travel_time=distance / self.speed,
            sensing_time=scan.sensing_time,
            cumulative_coverage=self._scanned / self._free,
            candidates_evaluated=flat.size,
            decision_time=decision_time,
        )
        self.records.append(record)
        return record

    def __iter__(self) -> Iterator[StepRecord]:
        """Execute steps until the target coverage is reached or none remains."""
        while self._scanned / self._free < self.target_coverage:
            record = self.step()
            if record is None:
                return
            yield record

    def run(self) -> RunResult:
        """Execute the remaining steps and summarize every step taken."""
        for _ in self:
            pass
        total_travel = sum(rec.travel_time for rec in self.records)
        total_sensing = sum(rec.sensing_time for rec in self.records)
        uncovered = self.grid.unscanned_cells()
        return RunResult(
            steps=list(self.records),
            total_sensing_ops=len(self.records),
            total_travel_time=total_travel,
            total_sensing_time=total_sensing,
            total_time=total_travel + total_sensing,
            coverage_satisfied=not uncovered,
            uncovered_cells=uncovered,
        )


def run_coverage(grid: GridMap, config: str | WeightConfig | FuzzyMeasure,
                 sensor: SensorModel, **options) -> RunResult:
    """Run the coverage loop to completion on ``grid`` (mutated in place).

    ``options`` are the keyword arguments of :class:`CoverageEngine`.
    """
    return CoverageEngine(grid, config, sensor, **options).run()


def uncoverable_cells(
    grid: GridMap,
    sensor: SensorModel,
    orientations: int,
    connectivity: int,
) -> list[Cell]:
    """Free cells whose centers no feasible sweep can cover.

    Exhaustive check: a cell is coverable when some free cell reachable from the map start
    has line of sight to it within sensor range and its bearing falls inside the
    opening-angle window of at least one orientation.  A reachable free cell covers itself;
    a free cell walled off from the start is uncoverable unless a reachable cell sees it.
    """
    evaluator = FosEvaluator(grid, sensor, heading_set(orientations))
    reachable = np.flatnonzero(np.isfinite(shortest_distances(grid, grid.start, connectivity)))
    window_any = evaluator.window_masks.any(axis=0)
    coverable = np.zeros(grid.width * grid.height, dtype=bool)
    evaluator._vis.look(reachable)  # every first look in one batch
    for i in reachable.tolist():
        offsets = evaluator.visible(i)
        coverable[i + evaluator.end.take(offsets.compress(window_any.take(offsets)))] = True
    return cells_at(grid, np.flatnonzero(grid.free_mask().reshape(-1) & ~coverable))
