"""Field-of-smell geometry: ray casting, scan-angle trimming, sensing time.

A remote gas sensor mounted on a pan-tilt unit sweeps a circular sector. A
free cell is smellable from a pose when its center lies inside the sector
and the segment between cell centers crosses no obstacle cell. The sweep
executed at a pose is trimmed to the angular span of the currently
unscanned smellable cells, so the sensor never sweeps wider than needed.

Segment/cell intersection policy: a cell counts as crossed when the open
segment passes through its interior. When the segment runs exactly through
a lattice corner the traversal steps diagonally, so cells touched only at
that corner point do not block. This rule is exact (integer arithmetic, no
epsilon) and matches dense point-sampling of the segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .grid import Cell, CellState, GridMap, Pose, cell_arrays

__all__ = [
    "FosScore",
    "ScanResult",
    "SensorModel",
    "compute_fos",
    "line_of_sight",
    "sensing_time",
    "traverse_segment",
    "visible_cells",
    "FosEvaluator",
]


@dataclass(frozen=True)
class SensorModel:
    """Remote gas sensor parameters.

    ``r_max`` is the metric range limit, ``phi_max`` the maximum opening
    angle in degrees.  The sweep time is linear in the executed angle:
    ``setup_time + sweep_rate * phi``.  The defaults reproduce a pan-tilt
    TDLAS unit that needs 21 s for a 45-degree sweep and 36 s for 90
    degrees.
    """

    r_max: float
    phi_max: float = 180.0
    setup_time: float = 6.0
    sweep_rate: float = 1.0 / 3.0  # seconds per degree

    def __post_init__(self) -> None:
        if not 0 < self.r_max < math.inf:
            raise ValueError(f"r_max must be finite and > 0, got {self.r_max}")
        if not 0 < self.phi_max <= 180:
            raise ValueError(f"phi_max must be in (0, 180], got {self.phi_max}")
        if not 0 <= self.setup_time < math.inf:
            raise ValueError(f"setup_time must be finite and >= 0, got {self.setup_time}")
        if not 0 < self.sweep_rate < math.inf:
            raise ValueError(f"sweep_rate must be finite and > 0, got {self.sweep_rate}")


def sensing_time(phi: float, sensor: SensorModel) -> float:
    """Duration of a sweep of ``phi`` degrees; 0 when no scan is performed."""
    if phi < 0 or phi > sensor.phi_max:
        raise ValueError(f"phi {phi} outside [0, {sensor.phi_max}]")
    if phi == 0:
        return 0.0
    return sensor.setup_time + sensor.sweep_rate * phi


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


class _RayDisk:
    """Precomputed ray bundle to every cell offset within sensor range.

    Offsets exclude (0, 0), satisfy ``(dx^2 + dy^2) * resolution^2 <=
    r_max^2`` and lie at most ``extent`` cells away along each axis.  With
    ``extent`` one less than the map's larger side, no dropped offset could
    land inside the map, so the disk is bounded by the map, not by ``r_max``.
    Rays are stored as padded (L, K) coordinate arrays, step by step, so that
    visibility for a whole pose is a single vectorized gather reduced along
    contiguous rows.  ``index`` maps an offset in the (2*reach+1)^2 bounding
    box, flattened row-major from (-reach, -reach), to its position in the
    disk, or -1 outside it.
    """

    def __init__(self, r_max: float, resolution: float, extent: int) -> None:
        rc2 = (r_max / resolution) ** 2
        reach = min(int(math.floor(math.sqrt(rc2))), extent)
        self.reach = max(reach, 1)
        offsets = []
        for oy in range(-reach, reach + 1):
            for ox in range(-reach, reach + 1):
                if ox == 0 and oy == 0:
                    continue
                if (ox * ox + oy * oy) * resolution * resolution <= r_max * r_max:
                    offsets.append((ox, oy))
        k = len(offsets)
        self.k = k
        self.dx = np.array([o[0] for o in offsets], dtype=np.int32)
        self.dy = np.array([o[1] for o in offsets], dtype=np.int32)
        self.bearings = np.arctan2(self.dy.astype(np.float64), self.dx.astype(np.float64))
        span = 2 * self.reach + 1
        self.index = np.full(span * span, -1, dtype=np.int64)
        self.index[(self.dy + self.reach) * span + self.dx + self.reach] = np.arange(k)

        max_len = 1
        rays = []
        for ox, oy in offsets:
            ray = traverse_segment(0, 0, ox, oy)[1:]  # own cell handled separately
            rays.append(ray)
            max_len = max(max_len, len(ray))
        self.ray_len = max_len
        self.ray_x = np.zeros((max_len, k), dtype=np.int64)
        self.ray_y = np.zeros((max_len, k), dtype=np.int64)
        for i, ray in enumerate(rays):
            n = len(ray)
            self.ray_x[:n, i] = [c[0] for c in ray]
            self.ray_y[:n, i] = [c[1] for c in ray]
            # pad with the endpoint; re-checking it is harmless
            self.ray_x[n:, i] = ray[-1][0]
            self.ray_y[n:, i] = ray[-1][1]


@lru_cache(maxsize=16)
def _ray_disk(r_max: float, resolution: float, extent: int) -> _RayDisk:
    return _RayDisk(r_max, resolution, extent)


def _wrap_angles(angles: np.ndarray) -> np.ndarray:
    return np.arctan2(np.sin(angles), np.cos(angles))


@dataclass(eq=False)
class ScanResult:
    """Outcome of one sensing operation at a fixed pose.

    ``smellable_all`` is every free cell the trimmed sweep covers (always
    including the pose's own cell); ``smellable_new`` is its previously
    unscanned subset, snapshotted at evaluation time.  ``info_gain`` equals
    ``len(smellable_new)``.  The cell sets are materialized lazily from the
    underlying ray masks.
    """

    phi_used: float  # degrees
    sensing_time: float  # seconds
    info_gain: int
    origin: Cell
    _own_new: bool
    _new_offsets: np.ndarray = field(repr=False)
    _disk: _RayDisk = field(repr=False)
    _vis: np.ndarray = field(repr=False)
    _window: np.ndarray = field(repr=False)
    _rel: np.ndarray = field(repr=False)
    _alpha: tuple[float, float] | None = field(repr=False)

    @cached_property
    def smellable_new(self) -> set[Cell]:
        return set(self.new_cells())

    @cached_property
    def smellable_all(self) -> set[Cell]:
        if self._alpha is None:
            return {self.origin}
        lo, hi = self._alpha
        mask = self._vis & self._window & (self._rel >= lo) & (self._rel <= hi)
        cells = set(self._offsets_to_cells(np.nonzero(mask)[0]))
        cells.add(self.origin)
        return cells

    def new_cells(self) -> list[Cell]:
        """Newly covered cells in deterministic (offset-table) order."""
        cells = self._offsets_to_cells(self._new_offsets)
        if self._own_new:
            cells.append(self.origin)
        return cells

    def _offsets_to_cells(self, idx: np.ndarray) -> list[Cell]:
        xs = self._disk.dx[idx] + self.origin.x
        ys = self._disk.dy[idx] + self.origin.y
        return [Cell(int(x), int(y)) for x, y in zip(xs, ys)]


class FosScore(NamedTuple):
    """The numbers of one sensing operation, without its covered cells."""

    info_gain: int
    phi_used: float  # degrees
    sensing_time: float  # seconds


class _Sweeps(NamedTuple):
    """Every orientation's trimmed sweep at one cell (see ``FosEvaluator._sweeps``)."""

    vis: np.ndarray  # (K,) visibility mask
    new: np.ndarray  # disk indices of the visible unscanned cells
    inside: np.ndarray  # (orientations, len(new)): held by each window
    own_new: bool  # the cell itself is unscanned
    lo: np.ndarray  # per orientation, first and last bearing of the held
    hi: np.ndarray  # cells relative to the heading (radians)
    gain: np.ndarray
    phi: np.ndarray  # degrees
    time: np.ndarray  # seconds


# Upper bound on the (cached cell, new cell) pairs ``mark_scanned`` tests at once.
_PAIR_BLOCK = 1 << 14

# A plain int: comparing a uint8 array with an IntEnum member is slower.
_UNSCANNED = int(CellState.FREE_UNSCANNED)


class FosEvaluator:
    """Vectorized field-of-smell evaluation over one grid.

    Holds a padded copy of the grid's obstacles, a per-cell visibility cache
    and a per-cell score cache.  Visibility depends only on obstacles, which
    never change, so cached masks stay valid for the life of the evaluator.
    The scan state is read from ``grid.states`` itself.  Scores (gain and
    sensing time per orientation) depend on it, so every scan must be
    reported through :meth:`mark_scanned` to drop the scores it changes.
    """

    def __init__(self, grid: GridMap, sensor: SensorModel,
                 orientations: tuple[float, ...]) -> None:
        self.grid = grid
        self.sensor = sensor
        self.orientations = tuple(orientations)
        self.disk = _ray_disk(sensor.r_max, grid.resolution,
                              max(grid.width, grid.height) - 1)
        pad = self.disk.reach
        self._pad = pad
        wp = grid.width + 2 * pad
        hp = grid.height + 2 * pad
        self._wp = wp
        obstacle = np.ones((hp, wp), dtype=bool)
        obstacle[pad:pad + grid.height, pad:pad + grid.width] = (
            grid.states == CellState.OBSTACLE
        )
        self._obstacle_flat = obstacle.reshape(-1)
        self._ray_flat = self.disk.ray_y * wp + self.disk.ray_x

        # A view (``GridMap.states`` is C-contiguous), so scans show up here.
        # Visible offsets never leave the map (off-map endpoints hit the
        # padding), so ``end`` needs no padding.
        self._states_flat = grid.states.reshape(-1)
        self._end = self.disk.dy.astype(np.int64) * grid.width + self.disk.dx

        half = math.radians(sensor.phi_max) / 2.0
        rel = [_wrap_angles(self.disk.bearings - theta) for theta in self.orientations]
        self.rel_bearings = np.array(rel).reshape(len(rel), self.disk.k)
        self.window_masks = np.abs(self.rel_bearings) <= half

        # Caches indexed by y * width + x; visibility masks are bit-packed.
        cells = grid.width * grid.height
        self._vis_known = np.zeros(cells, dtype=bool)
        self._vis_bits = np.zeros((cells, (self.disk.k + 7) // 8), dtype=np.uint8)
        self._fresh = np.zeros(cells, dtype=bool)
        self._gain = np.zeros((cells, len(self.orientations)), dtype=np.int64)
        self._time = np.zeros((cells, len(self.orientations)), dtype=np.float64)

    def visible(self, cell: Cell) -> np.ndarray:
        """Boolean mask over the ray disk: offset free and line of sight clear."""
        i = cell.y * self.grid.width + cell.x
        if self._vis_known[i]:
            return np.unpackbits(self._vis_bits[i], count=self.disk.k,
                                 bitorder="little").view(bool)
        pos = (cell.y + self._pad) * self._wp + (cell.x + self._pad)
        blocked = self._obstacle_flat[pos + self._ray_flat]
        vis = ~np.logical_or.reduce(blocked, axis=0)
        self._vis_bits[i] = np.packbits(vis, bitorder="little")
        self._vis_known[i] = True
        return vis

    def mark_scanned(self, cells: list[Cell]) -> None:
        """Drop the cached scores that the newly scanned ``cells`` change.

        A cell's score depends only on whether it and the cells it sees are
        unscanned.  So a cached score goes stale exactly when the cell was
        scanned itself or sees a newly scanned cell ``n``; line of sight is
        symmetric, so the cell's own mask at offset ``n - cell`` decides.
        """
        if not cells:
            return
        nx, ny = cell_arrays(cells)
        width = self.grid.width
        cached = np.flatnonzero(self._fresh)
        cx, cy = cached % width, cached // width
        reach = self.disk.reach
        span = 2 * reach + 1
        stale = np.zeros(cached.size, dtype=bool)
        block = max(1, _PAIR_BLOCK // max(1, cached.size))
        for lo in range(0, nx.size, block):
            dx = nx[None, lo:lo + block] - cx[:, None]
            dy = ny[None, lo:lo + block] - cy[:, None]
            c, n = np.nonzero((np.abs(dx) <= reach) & (np.abs(dy) <= reach))
            k = self.disk.index[(dy[c, n] + reach) * span + dx[c, n] + reach]
            c, k = c[k >= 0], k[k >= 0]
            seen = (self._vis_bits[cached[c], k >> 3] >> (k & 7)) & 1
            stale[c[seen.astype(bool)]] = True
        self._fresh[cached[stale]] = False
        self._fresh[ny * width + nx] = False

    def _sweeps(self, cell: Cell) -> _Sweeps:
        """Trimmed sweep of every orientation at ``cell``, from the current scan state."""
        i = cell.y * self.grid.width + cell.x
        vis = self.visible(cell)
        seen = np.flatnonzero(vis)
        new = seen[self._states_flat[i + self._end[seen]] == _UNSCANNED]
        inside = self.window_masks[:, new]
        rel = self.rel_bearings[:, new]
        lo = np.min(rel, axis=1, initial=np.inf, where=inside)
        hi = np.max(rel, axis=1, initial=-np.inf, where=inside)
        count = inside.sum(axis=1)
        own_new = bool(self._states_flat[i] == _UNSCANNED)
        gain = count + own_new
        swept = count > 0
        phi = np.where(swept, np.degrees(hi - lo), 0.0)
        # a zero-angle scan that still covers the own cell costs the setup time
        time = np.where(
            swept,
            self.sensor.setup_time + self.sensor.sweep_rate * phi,
            np.where(gain > 0, self.sensor.setup_time, 0.0),
        )
        return _Sweeps(vis, new, inside, own_new, lo, hi, gain, phi, time)

    def evaluate_cell(self, cell: Cell) -> list[FosScore]:
        """Scores for every orientation at ``cell`` (orientation order).

        The gain and sensing time are cached until :meth:`mark_scanned`
        reports a scan that changes them; :meth:`scores` reads the cache.
        """
        sw = self._sweeps(cell)
        i = cell.y * self.grid.width + cell.x
        self._gain[i] = sw.gain
        self._time[i] = sw.time
        self._fresh[i] = True
        return [
            FosScore(*v)
            for v in zip(sw.gain.tolist(), sw.phi.tolist(), sw.time.tolist())
        ]

    def scores(self, cells: list[Cell]) -> tuple[np.ndarray, np.ndarray]:
        """Gain and sensing time, each (len(cells), orientations).

        Cached entries are reused; cells without a valid entry are evaluated
        through :meth:`evaluate_cell` first.
        """
        xs, ys = cell_arrays(cells)
        idx = ys * self.grid.width + xs
        for i in np.flatnonzero(~self._fresh[idx]):
            self.evaluate_cell(cells[i])
        return self._gain[idx], self._time[idx]

    def scan_results(self, cell: Cell) -> list[ScanResult]:
        """Full scan results, covered cells included, per orientation at ``cell``."""
        sw = self._sweeps(cell)
        return [
            ScanResult(
                phi_used=float(sw.phi[h]),
                sensing_time=float(sw.time[h]),
                info_gain=int(sw.gain[h]),
                origin=cell,
                _own_new=sw.own_new,
                _new_offsets=sw.new[sw.inside[h]],
                _disk=self.disk,
                _vis=sw.vis,
                _window=self.window_masks[h],
                _rel=self.rel_bearings[h],
                _alpha=(float(sw.lo[h]), float(sw.hi[h])) if sw.inside[h].any() else None,
            )
            for h in range(len(self.orientations))
        ]


def compute_fos(grid: GridMap, pose: Pose, sensor: SensorModel) -> ScanResult:
    """Evaluate one sensing operation at ``pose`` against the current map."""
    if not grid.is_free(pose.cell):
        raise ValueError(f"pose cell {pose.cell} is not a free cell")
    evaluator = FosEvaluator(grid, sensor, (pose.theta,))
    return evaluator.scan_results(pose.cell)[0]


def visible_cells(grid: GridMap, cell: Cell, r_max: float) -> set[Cell]:
    """Free cells within metric range of ``cell`` with clear line of sight.

    Range and occlusion only; no angular window is applied and the cell
    itself is not included.
    """
    evaluator = FosEvaluator(grid, SensorModel(r_max=r_max), ())
    disk = evaluator.disk
    vis = evaluator.visible(cell)
    idx = np.nonzero(vis)[0]
    return {
        Cell(int(disk.dx[i] + cell.x), int(disk.dy[i] + cell.y)) for i in idx
    }
