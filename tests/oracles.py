"""Independent reference implementations used by the test suite only.

These deliberately avoid the production code paths: line of sight is
checked by dense point sampling, shortest paths by a plain heap Dijkstra,
and candidate selection by a from-scratch planner that scores every
candidate with the scalar Choquet integral and sorts on a plain key.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np

from nbsmell.grid import Cell, CellState, GridMap, Pose, cells_at, frontier_cells, heading_set
from nbsmell.mcdm import FuzzyMeasure, choquet, normalize_utilities
from nbsmell.planning import shortest_distances
from nbsmell.sensing import FosEvaluator, FosScore, SensorModel

SQRT2 = math.sqrt(2.0)


def sampled_line_of_sight(grid, a: Cell, b: Cell, samples: int = 1000) -> bool:
    """Sample the center-to-center segment at ``samples`` points."""
    t = np.linspace(0.0, 1.0, samples)
    xs = np.floor(a.x + 0.5 + t * (b.x - a.x)).astype(int)
    ys = np.floor(a.y + 0.5 + t * (b.y - a.y)).astype(int)
    xs = np.clip(xs, 0, grid.width - 1)
    ys = np.clip(ys, 0, grid.height - 1)
    return not np.any(grid.states[ys, xs] == CellState.OBSTACLE)


def sampled_visible_set(grid, origin: Cell, r_max: float, samples: int = 1000):
    """All free cells within metric range whose sampled segment is clear."""
    out = set()
    for c in grid.free_cells():
        if c == origin:
            continue
        if math.hypot(c.x - origin.x, c.y - origin.y) * grid.resolution > r_max:
            continue
        if sampled_line_of_sight(grid, origin, c, samples):
            out.add(c)
    return out


def sampled_sweeps(grid, cell: Cell, sensor, evaluator):
    """Per heading ``(gain, phi, time, new cells)`` at ``cell`` by plain loops.

    Visibility comes from :func:`sampled_visible_set` and the scan state from
    ``grid.states``.  Only the evaluator's geometry is used: its disk to find
    an offset's column, and ``rel_bearings``/``window_masks`` so that cells on
    a window boundary round the same way.  Trimming rule: the sweep spans the
    first to the last bearing of the unscanned cells the window holds; a
    sweep that covers only the own cell has zero angle and costs the setup
    time, and one that covers nothing costs nothing.
    """
    disk = evaluator.disk
    column = {(int(dx), int(dy)): k for k, (dx, dy) in enumerate(zip(disk.dx, disk.dy))}
    unscanned = [
        c for c in sampled_visible_set(grid, cell, sensor.r_max)
        if grid.states[c.y, c.x] == CellState.FREE_UNSCANNED
    ]
    own_new = grid.states[cell.y, cell.x] == CellState.FREE_UNSCANNED
    sweeps = []
    for h in range(len(evaluator.orientations)):
        held = {}
        for c in unscanned:
            k = column[(c.x - cell.x, c.y - cell.y)]
            if evaluator.window_masks[h, k]:
                held[c] = float(evaluator.rel_bearings[h, k])
        gain = len(held) + int(own_new)
        if held:
            phi = math.degrees(max(held.values()) - min(held.values()))
            time = sensor.setup_time + sensor.sweep_rate * phi
        else:
            phi = 0.0
            time = sensor.setup_time if gain else 0.0
        new = set(held) | ({cell} if own_new else set())
        sweeps.append((gain, phi, time, new))
    return sweeps


def loop_normalize_utilities(raw) -> np.ndarray:
    """Min-max normalization one criterion column at a time.

    Gain (column 0) is a benefit, distance and sensing time are costs; a
    constant column maps to utility 1.
    """
    values = np.asarray(raw, dtype=np.float64)
    lo = values.min(axis=0)
    hi = values.max(axis=0)
    span = hi - lo
    out = np.ones_like(values)
    for col, benefit in ((0, True), (1, False), (2, False)):
        if span[col] > 0:
            if benefit:
                out[:, col] = (values[:, col] - lo[col]) / span[col]
            else:
                out[:, col] = (hi[col] - values[:, col]) / span[col]
    return out


def dijkstra_oracle(grid, source: Cell, connectivity: int) -> dict[Cell, float]:
    """Heap Dijkstra over free cells with the no-corner-squeeze diagonal rule."""
    offsets = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    if connectivity == 8:
        offsets += [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    dist = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        d, cell = heapq.heappop(heap)
        if d > dist.get(cell, math.inf):
            continue
        for dx, dy in offsets:
            n = Cell(cell.x + dx, cell.y + dy)
            if not grid.is_free(n):
                continue
            if dx and dy:
                a = grid.is_free(Cell(cell.x + dx, cell.y))
                b = grid.is_free(Cell(cell.x, cell.y + dy))
                if not (a or b):
                    continue
                step = SQRT2 * grid.resolution
            else:
                step = grid.resolution
            nd = d + step
            if nd < dist.get(n, math.inf) - 1e-12:
                dist[n] = nd
                heapq.heappush(heap, (nd, n))
    return dist


@dataclass
class Candidate:
    """A candidate pose; ``utilities`` and ``score`` are set by :func:`select_best`."""

    pose: Pose
    distance: float  # meters from the current robot cell
    scan: FosScore
    new_cells: list[Cell]  # the cells the scan newly covers
    utilities: tuple[float, float, float] | None = None
    score: float | None = None


def enumerate_candidates(grid: GridMap, robot: Pose, orientations: int,
                         sensor: SensorModel, connectivity: int) -> list[Candidate]:
    """Candidates with positive information gain at reachable positions.

    Positions are the frontier cells (or the robot cell before the first
    scan), iterated row-major with headings ascending.  Every call evaluates
    every position with a fresh evaluator, so nothing is reused between steps.
    """
    headings = heading_set(orientations)
    evaluator = FosEvaluator(grid, sensor, headings)
    dist_field = shortest_distances(grid, robot.cell, connectivity)
    if grid.scanned_count() == 0:
        positions = [robot.cell]
    else:
        positions = cells_at(grid, frontier_cells(grid, connectivity))
    candidates = []
    for cell in positions:
        distance = float(dist_field[cell.y, cell.x])
        if not math.isfinite(distance):
            continue
        for h, theta in enumerate(headings):
            scan, new = evaluator.sweep(cell.y * grid.width + cell.x, h)
            if scan.info_gain >= 1:
                candidates.append(
                    Candidate(Pose(cell, theta), distance, scan, cells_at(grid, new)))
    return candidates


def select_best(candidates: list[Candidate], measure: FuzzyMeasure) -> Candidate:
    """Best candidate by the scalar Choquet score, ties broken by a plain key.

    Key: higher score, then smaller distance, then smaller sensing time,
    then the earlier position in ``candidates``.
    """
    if not candidates:
        raise ValueError("select_best needs at least one candidate")
    raw = np.array(
        [(c.scan.info_gain, c.distance, c.scan.sensing_time) for c in candidates],
        dtype=np.float64,
    )
    for cand, u in zip(candidates, normalize_utilities(raw)):
        cand.utilities = (float(u[0]), float(u[1]), float(u[2]))
        cand.score = choquet(cand.utilities, measure)

    def key(row):
        c = candidates[row]
        return (-c.score, c.distance, c.scan.sensing_time, row)

    return candidates[min(range(len(candidates)), key=key)]
