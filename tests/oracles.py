"""Reference implementations and helpers used by the test suite only.

The references deliberately avoid the production code paths: line of sight
is checked by an exact scalar segment walk and by dense point sampling,
map documents are parsed by a per-character loop, shortest paths by a plain
heap Dijkstra, the Choquet integral by its scalar sorted form, and candidate
selection by a from-scratch planner that normalizes one criterion column at
a time, scores every candidate with that scalar integral and sorts on a
plain key, and the fewest sensing operations of a run by an exact set cover.
:func:`compute_fos` and :func:`visible_cells` are the exception: they give
the cell-set view of the production :class:`FosEvaluator`, so that the
geometry oracles test it.  They and :func:`sampled_sweeps` drop the
evaluator's last disk offset, the cell itself, and add the own cell by their
own rule, so that the tests still compare two separate rules.
:func:`cover_lower_bound` also reads its windows from an evaluator of its own.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_array

from nbsmell.grid import (
    FREE_CHAR,
    OBSTACLE_CHAR,
    START_CHAR,
    Cell,
    CellState,
    GridMap,
    MapFormatError,
    Pose,
    cells_at,
    frontier_cells,
    heading_set,
    mark_scanned,
)
from nbsmell.mcdm import _UTILITY_TOLERANCE, ALL_MASK, FuzzyMeasure
from nbsmell.planning import shortest_distances
from nbsmell.sensing import FosEvaluator, FosScore, SensorModel, _layout

SQRT2 = math.sqrt(2.0)


def free_cells(grid: GridMap) -> list[Cell]:
    """The free cells of ``grid`` in row-major order."""
    return cells_at(grid, np.flatnonzero(grid.free_mask()))


def mark_cells(grid: GridMap, cells) -> int:
    """:func:`mark_scanned` of the on-map ``cells``, passed as flat indices."""
    return mark_scanned(grid, np.array([c.y * grid.width + c.x for c in cells], dtype=np.intp))


def start_near_center(states: np.ndarray) -> Cell:
    """The free cell nearest the center of ``states``: one sort on (distance, row, column)."""
    h, w = states.shape
    ys, xs = np.nonzero(states != CellState.OBSTACLE)
    d2 = (xs - (w - 1) / 2.0) ** 2 + (ys - (h - 1) / 2.0) ** 2
    best = np.lexsort((xs, ys, d2))[0]
    return Cell(int(xs[best]), int(ys[best]))


def traverse_segment(x0: int, y0: int, x1: int, y1: int) -> list[tuple[int, int]]:
    """Cells whose interior the segment between cell centers crosses.

    Exact integer walk: boundary crossings are ordered by comparing
    ``(2*ix + 1) * ny`` against ``(2*iy + 1) * nx``; a tie means the segment
    passes exactly through a lattice corner and the walk steps diagonally.
    Includes both endpoint cells.
    """
    dx = x1 - x0
    dy = y1 - y0
    sx = 1 if dx > 0 else -1
    sy = 1 if dy > 0 else -1
    nx = abs(dx)
    ny = abs(dy)
    ix = iy = 0
    cells = [(x0, y0)]
    while ix < nx or iy < ny:
        tx = (2 * ix + 1) * ny
        ty = (2 * iy + 1) * nx
        if tx < ty:
            ix += 1
        elif tx > ty:
            iy += 1
        else:
            ix += 1
            iy += 1
        cells.append((x0 + sx * ix, y0 + sy * iy))
    return cells


def line_of_sight(grid: GridMap, a: Cell, b: Cell) -> bool:
    """True when the segment between the cell centers crosses no obstacle."""
    states = grid.states
    for x, y in traverse_segment(a.x, a.y, b.x, b.y):
        if states[y, x] == CellState.OBSTACLE:
            return False
    return True


@dataclass(frozen=True)
class ScanResult:
    """Outcome of one sensing operation at a fixed pose.

    ``smellable_all`` is every free cell the trimmed sweep covers (always
    including the pose's own cell); ``smellable_new`` is its previously
    unscanned subset at evaluation time.  ``info_gain`` equals
    ``len(smellable_new)``.
    """

    phi_used: float  # degrees
    sensing_time: float  # seconds
    info_gain: int
    smellable_new: frozenset[Cell]
    smellable_all: frozenset[Cell]


def visible_mask(evaluator: FosEvaluator, i: int) -> np.ndarray:
    """Boolean mask over the ray disk, own cell last, of the offsets ``evaluator.visible(i)``."""
    mask = np.zeros(evaluator.disk.k, dtype=bool)
    mask[evaluator.visible(i)] = True
    return mask


def compute_fos(grid: GridMap, pose: Pose, sensor: SensorModel) -> ScanResult:
    """One sensing operation at the free cell of ``pose``, by a production evaluator."""
    evaluator = FosEvaluator(grid, sensor, (pose.theta,))
    i = pose.cell.y * grid.width + pose.cell.x
    score, new = evaluator.sweep(i, 0)
    # the sweep covers its own cell and every visible other cell of the window
    # whose bearing lies between the first and the last bearing of the other
    # cells it newly covers
    seen = np.flatnonzero(visible_mask(evaluator, i)[:-1] & evaluator.window_masks[0, :-1])
    rel = evaluator._sweep_table[0, seen]  # the relative bearings inside the window
    held = rel[np.isin(i + evaluator.end[seen], new)]
    covered = seen[(held.min(initial=math.inf) <= rel) & (rel <= held.max(initial=-math.inf))]
    return ScanResult(score.phi_used, score.sensing_time, score.info_gain,
                      frozenset(cells_at(grid, new)),
                      frozenset(cells_at(grid, [i, *(i + evaluator.end[covered])])))


def visible_cells(grid: GridMap, cell: Cell, r_max: float) -> set[Cell]:
    """Free cells within metric range of the on-map ``cell`` with clear line of sight.

    Range and occlusion only, by a production evaluator; no angular window is
    applied and the cell itself, the disk's last offset, is not included.
    """
    evaluator = FosEvaluator(grid, SensorModel(r_max=r_max), ())
    i = cell.y * grid.width + cell.x
    return set(cells_at(grid, i + evaluator.end[:-1][visible_mask(evaluator, i)[:-1]]))


def choquet(u, measure: FuzzyMeasure) -> float:
    """Discrete Choquet integral of a 3-component utility vector.

    Utilities are sorted ascending; each increment is weighted by the
    measure of the criteria whose utility is at least the current level.
    Ties between equal utilities produce zero-width increments, so the
    result does not depend on their permutation.
    """
    if len(u) != 3:
        raise ValueError(f"expected 3 utilities, got {len(u)}")
    for value in u:
        if not -_UTILITY_TOLERANCE <= value <= 1.0 + _UTILITY_TOLERANCE:
            raise ValueError(f"utility {value!r} outside [0, 1]")
    mu = measure.values
    order = sorted(range(3), key=lambda i: u[i])
    u1, u2, u3 = (u[i] for i in order)
    m1 = ALL_MASK
    m2 = ALL_MASK ^ (1 << order[0])
    m3 = 1 << order[2]
    return u1 * mu[m1] + (u2 - u1) * mu[m2] + (u3 - u2) * mu[m3]


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
    for c in free_cells(grid):
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
    an offset's column, ``window_masks``, and the relative bearings inside the
    window from the first H rows of ``_sweep_table``, so that cells on a window
    boundary round the same way; the disk's last offset, the own cell, is left
    out.  Trimming rule: the sweep spans the first to the last bearing of the
    other unscanned cells the window holds, and covers the own cell when it is
    unscanned; a sweep that covers only the own cell has zero angle and costs
    the setup time, and one that covers nothing costs nothing.
    """
    disk = evaluator.disk
    column = {(int(dx), int(dy)): k for k, (dx, dy) in enumerate(zip(disk.dx[:-1], disk.dy[:-1]))}
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
                held[c] = float(evaluator._sweep_table[h, k])
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


def cover_lower_bound(grid: GridMap, sensor: SensorModel, orientations: int,
                      connectivity: int, cells: np.ndarray) -> float:
    """The fewest full windows whose cells include every cell of ``cells`` (flat indices).

    A window is the cells one heading of ``heading_set(orientations)`` holds at a
    free cell reachable from the start: its visible disk offsets
    (:meth:`FosEvaluator.visible`, own cell included) inside the heading's
    ``window_masks`` row.  A sensing operation covers part of one window, so a
    run that scans ``cells`` makes at least this many.  The set cover is
    solved exactly by scipy's ``milp``, one binary per (reachable cell,
    heading); ``math.inf`` when no windows cover ``cells``.
    """
    _layout.cache_clear()  # so that the evaluator builds its own visibility masks
    evaluator = FosEvaluator(grid, sensor, heading_set(orientations))
    reachable = np.flatnonzero(np.isfinite(shortest_distances(grid, grid.start, connectivity)))
    windows = [i + evaluator.end[visible_mask(evaluator, i) & mask]
               for i in reachable.tolist() for mask in evaluator.window_masks]
    row = np.full(grid.width * grid.height, -1)
    row[cells] = np.arange(len(cells))
    held = [row[w][row[w] >= 0] for w in windows]  # the rows of ``cells`` each window holds
    sizes = [len(h) for h in held]
    window = np.arange(len(held)).repeat(sizes)
    cover = csr_array((np.ones(window.size), (np.concatenate(held), window)),
                      shape=(len(cells), len(held)))
    result = milp(np.ones(len(held)), integrality=np.ones(len(held)), bounds=Bounds(0, 1),
                  constraints=LinearConstraint(cover, lb=1))
    if result.status == 2:  # infeasible: a cell of ``cells`` is in no window
        return math.inf
    assert result.status == 0, result.message  # only a proven optimum bounds a run
    return round(result.fun)


def is_ascii_decimal(word: str) -> bool:
    """True for ASCII digits with an optional sign, point and exponent, e.g. ``-1.5e+3``."""
    digits = set("0123456789")

    def unsigned(part: str) -> str:
        return part[1:] if part[:1] in ("+", "-") else part

    mantissa, e, exponent = unsigned(word).replace("E", "e").partition("e")
    whole, _, fraction = mantissa.partition(".")
    if not (whole or fraction) or not set(whole + fraction) <= digits:
        return False
    exponent = unsigned(exponent)
    return not e or (exponent != "" and set(exponent) <= digits)


def loop_parse_map(text: str) -> GridMap:
    """:func:`nbsmell.grid.parse_map` one character at a time.

    Rows are read in order, each checked for its length first and then
    character by character, so the first problem met is the one raised.
    Lines are cut at each line feed, dropping one carriage return before it.
    """
    lines, line = [], ""
    for ch in text:
        if ch == "\n":
            lines.append(line.removesuffix("\r"))
            line = ""
        else:
            line += ch
    if line:  # the last line, when no line feed ends it
        lines.append(line)
    if not lines:
        raise MapFormatError("empty map document (line 1)")
    header = [word for word in lines[0].replace("\t", " ").split(" ") if word]
    if len(header) != 2 or header[0] != "resolution":
        raise MapFormatError(
            f"line 1: expected 'resolution <meters>', got {lines[0]!r}"
        )
    if not is_ascii_decimal(header[1]):
        raise MapFormatError(f"line 1: invalid resolution {header[1]!r}")
    resolution = float(header[1])
    if not math.isfinite(resolution) or resolution <= 0:
        raise MapFormatError(f"line 1: resolution must be > 0, got {header[1]!r}")

    rows = lines[1:]
    if not rows:
        raise MapFormatError("map document has no grid rows (line 2)")
    width = len(rows[0])
    if width == 0:
        raise MapFormatError("line 2: empty map row")

    states = np.empty((len(rows), width), dtype=np.uint8)
    start: Cell | None = None
    for y, row in enumerate(rows):
        line_no = y + 2
        if len(row) != width:
            raise MapFormatError(
                f"line {line_no}: ragged row (length {len(row)}, expected {width})"
            )
        for x, ch in enumerate(row):
            if ch == FREE_CHAR:
                states[y, x] = CellState.FREE_UNSCANNED
            elif ch == OBSTACLE_CHAR:
                states[y, x] = CellState.OBSTACLE
            elif ch == START_CHAR:
                if start is not None:
                    raise MapFormatError(
                        f"line {line_no}, column {x + 1}: multiple start cells"
                    )
                start = Cell(x, y)
                states[y, x] = CellState.FREE_UNSCANNED
            else:
                raise MapFormatError(
                    f"line {line_no}, column {x + 1}: illegal character {ch!r}"
                )
    if start is None:
        raise MapFormatError("map document has no start cell 'S'")
    return GridMap(resolution, states, start)


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
    every position with a fresh evaluator on a cleared layout cache, so
    nothing is reused between steps or shared with the engine under test.
    """
    headings = heading_set(orientations)
    _layout.cache_clear()  # so that the evaluator builds its own visibility masks
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
    for cand, u in zip(candidates, loop_normalize_utilities(raw)):
        cand.utilities = (float(u[0]), float(u[1]), float(u[2]))
        cand.score = choquet(cand.utilities, measure)

    def key(row):
        c = candidates[row]
        return (-c.score, c.distance, c.scan.sensing_time, row)

    return candidates[min(range(len(candidates)), key=key)]
