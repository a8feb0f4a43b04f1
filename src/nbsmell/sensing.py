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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .grid import _UNSCANNED, Cell, CellState, GridMap, Pose, cells_at, on_map

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

    def sweep_time(self, phi: float) -> float:
        """Seconds a scan sweeping ``phi`` degrees takes (the setup time at 0)."""
        return self.setup_time + self.sweep_rate * phi


def sensing_time(phi: float, sensor: SensorModel) -> float:
    """Duration of a sweep of ``phi`` degrees; 0 when no scan is performed."""
    if phi < 0 or phi > sensor.phi_max:
        raise ValueError(f"phi {phi} outside [0, {sensor.phi_max}]")
    if phi == 0:
        return 0.0
    return sensor.sweep_time(phi)


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

    Offsets exclude (0, 0), satisfy ``(dx^2 + dy^2) * resolution^2 <= r_max^2``
    exactly (:func:`_in_range`) and lie at most ``extent`` cells away along
    each axis.  With ``extent`` one less than the map's larger side, no dropped
    offset could land inside the map, so the disk is bounded by the map, not
    by ``r_max``.  ``index`` maps a position in the (2*reach+1)^2 window
    centered on a cell, flattened row-major from offset (-reach, -reach), to
    the offset's position in the disk, or -1 outside it.

    The other tables are sets of offsets, bit-packed little-endian in rows of
    ceil(K/8) bytes.  Row ``j`` of ``through`` holds the offsets whose ray
    (the cells :func:`traverse_segment` crosses, endpoint included) crosses
    offset ``j``; the walk is monotone, so no ray leaves the disk.  It takes
    K * ceil(K/8) bytes: 1.0 MB at r_max 30 m with 1 m cells, up to about
    128 MB on a 90x90 map (r_max >= 127 m).  Row ``a`` of ``left``, ``right``,
    ``up`` and ``down`` holds ``dx < -a``, ``dx > a``, ``dy < -a`` and
    ``dy > a``: the offsets past a map edge ``a`` cells away.  ``left`` also
    sets the pad bits past K, so a complement of an OR with it clears them.
    """

    def __init__(self, r_max: float, resolution: float, extent: int) -> None:
        reach = math.floor(min(r_max / resolution, extent))
        self.reach = max(reach, 1)
        oy, ox = np.meshgrid(*[np.arange(-reach, reach + 1)] * 2, indexing="ij")
        inside = _in_range(ox * ox + oy * oy, r_max, resolution)
        inside[reach, reach] = False  # own cell handled separately
        self.dx, self.dy = ox[inside].astype(np.int32), oy[inside].astype(np.int32)
        k = self.k = self.dx.size
        self.bearings = np.arctan2(self.dy.astype(np.float64), self.dx.astype(np.float64))
        span = self.span = 2 * self.reach + 1
        self.index = np.full(span * span, -1, dtype=np.int64)
        self.index[(self.dy + self.reach) * span + self.dx + self.reach] = np.arange(k)

        # the walk of ``traverse_segment`` for all rays at once, one step per
        # pass, collecting (crossed offset, ray) pairs
        ray, ix, iy = np.arange(k), np.zeros(k, dtype=np.int64), np.zeros(k, dtype=np.int64)
        nx, ny, sx, sy = np.abs(self.dx), np.abs(self.dy), np.sign(self.dx), np.sign(self.dy)
        crossed, rays = [ray[:0]], [ray[:0]]  # never empty, for the concatenation
        while ray.size:
            tx, ty = (2 * ix + 1) * ny, (2 * iy + 1) * nx
            ix, iy = ix + (tx <= ty), iy + (tx >= ty)
            crossed.append(self.index[(sy * iy + self.reach) * span + sx * ix + self.reach])
            rays.append(ray)
            more = (ix < nx) | (iy < ny)
            ray, ix, iy, nx, ny, sx, sy = (a[more] for a in (ray, ix, iy, nx, ny, sx, sy))
        crossed, ray = np.concatenate(crossed), np.concatenate(rays)
        assert (crossed >= 0).all(), "a ray left its disk"
        nbytes = (k + 7) // 8
        self.through = np.zeros((k, nbytes), dtype=np.uint8)
        np.bitwise_or.at(self.through.reshape(-1), crossed * nbytes + (ray >> 3),
                         np.left_shift(1, ray & 7).astype(np.uint8))
        a = np.arange(self.reach + 1)[:, None]
        pack = partial(np.packbits, axis=1, bitorder="little")
        self.left = pack(np.hstack((self.dx < -a, np.ones((a.size, -k % 8), dtype=bool))))
        self.right, self.up, self.down = pack(self.dx > a), pack(self.dy < -a), pack(self.dy > a)


def _in_range(d2: np.ndarray, r_max: float, resolution: float) -> np.ndarray:
    """Whether ``d2 * resolution^2 <= r_max^2`` exactly, for integer squared lengths ``d2``.

    Only lengths within a relative 1e-9 of the float ``(r_max / resolution)^2``
    are settled with rationals; that ratio is capped past the longest offset.
    """
    q2 = min(r_max / resolution, math.sqrt(d2.max()) + 1.0) ** 2
    inside = d2 <= q2
    near = np.abs(d2 - q2) <= 1e-9 * q2
    r2, res2 = Fraction(r_max) ** 2, Fraction(resolution) ** 2
    inside[near] = [d * res2 <= r2 for d in d2[near].tolist()]
    return inside


# One disk: the runs on a map, or on one size of a batch, share a key, and a
# disk can take up to K * ceil(K/8) bytes.
@lru_cache(maxsize=1)
def _ray_disk(r_max: float, resolution: float, extent: int) -> _RayDisk:
    return _RayDisk(r_max, resolution, extent)


def _wrap_angles(angles: np.ndarray) -> np.ndarray:
    return np.arctan2(np.sin(angles), np.cos(angles))


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


class FosScore(NamedTuple):
    """The numbers of one sensing operation, without its covered cells."""

    info_gain: int
    phi_used: float  # degrees
    sensing_time: float  # seconds


# ``FosScore._make`` without a Python-level call: the sweep kernel builds one
# score per orientation for every cell it evaluates.
_make_score = partial(tuple.__new__, FosScore)

# Upper bound on the (cached cell, new cell) pairs ``mark_scanned`` tests at once.
_PAIR_BLOCK = 1 << 14


class FosEvaluator:
    """Vectorized field-of-smell evaluation over one grid.

    Cells are addressed by their flat index ``i = y * width + x``; an index
    outside ``0 <= i < width * height`` raises ValueError.  The cells at the
    disk offsets of cell ``i`` are ``i + end``.  Holds a padded copy of the
    grid's obstacles, a per-cell visibility cache and a per-cell score cache.
    Visibility depends only on obstacles, which never change, so cached masks
    stay valid for the life of the evaluator.  A cache miss ORs the disk's
    ``through`` rows of the on-map obstacles in the cell's window and the edge
    masks for its distance to each map edge.  The scan state is read from
    ``grid.states`` itself.  Scores (gain and sensing time per orientation)
    depend on it, so every scan must be reported through :meth:`mark_scanned`
    to drop the scores it changes.  A cell's sweeps come from one gather of a
    (3H, K) table over its visible unscanned offsets (H orientations, K
    offsets) and one row minimum and one row sum of the result.  Each sweep
    keeps those offsets as the cell's live list; a cell only ever goes from
    unscanned to scanned, so the next sweep filters that list by the current
    state and only a cell's first sweep reads its visibility mask.
    :meth:`mark_scanned` finds a (cached, new) pair's disk offset in one
    table over every map-relative offset: (2w-1)(2h-1) entries for a w x h
    map, whatever ``r_max``.
    """

    def __init__(self, grid: GridMap, sensor: SensorModel,
                 orientations: tuple[float, ...]) -> None:
        self.grid = grid
        self.sensor = sensor
        self.orientations = tuple(orientations)
        self.disk = _ray_disk(sensor.r_max, grid.resolution,
                              max(grid.width, grid.height) - 1)
        # Obstacles padded by the disk reach with free cells, so that the
        # window of every cell, ``[y : y + span, x : x + span]``, lies inside
        # the array and holds only the map's own obstacles.
        pad = self.disk.reach
        self._obstacle = np.zeros((grid.height + 2 * pad, grid.width + 2 * pad), dtype=bool)
        self._obstacle[pad:pad + grid.height, pad:pad + grid.width] = (
            grid.states == CellState.OBSTACLE
        )

        # A view (``GridMap.states`` is C-contiguous), so scans show up here.
        # Visible offsets never leave the map (the edge masks hide off-map
        # offsets), so ``end`` needs no padding.
        self._states_flat = grid.states.reshape(-1)
        self.end = self.disk.dy.astype(np.int64) * grid.width + self.disk.dx

        half = math.radians(sensor.phi_max) / 2.0
        rel = [_wrap_angles(self.disk.bearings - theta) for theta in self.orientations]
        self.rel_bearings = np.array(rel).reshape(len(rel), self.disk.k)
        self.window_masks = np.abs(self.rel_bearings) <= half
        # Per orientation and offset: the relative bearing inside the window
        # (else +inf), its negation (else +inf), and the 0/1 window flag, so
        # that one gather and one row minimum give every sweep's edges.  Rows
        # rather than columns, so the reductions run along contiguous memory.
        self._sweep_table = np.vstack((
            np.where(self.window_masks, self.rel_bearings, np.inf),
            np.where(self.window_masks, -self.rel_bearings, np.inf),
            self.window_masks,
        ))

        # Caches indexed by y * width + x; visibility masks are bit-packed.
        cells = grid.width * grid.height
        self._vis_known = np.zeros(cells, dtype=bool)
        self._vis_bits = np.zeros((cells, (self.disk.k + 7) // 8), dtype=np.uint8)
        self._fresh = np.zeros(cells, dtype=bool)
        self._gain = np.zeros((cells, len(self.orientations)), dtype=np.int64)
        self._time = np.zeros((cells, len(self.orientations)), dtype=np.float64)
        self._live: list[np.ndarray | None] = [None] * cells
        # Disk index of the map-relative offset (dx, dy) at row
        # (dy + h - 1) * (2w - 1) + dx + w - 1, else -1: the disk's window
        # table cut or padded to every offset between two cells of the map.
        w, h, r = grid.width, grid.height, self.disk.reach
        ry, rx = min(r, h - 1), min(r, w - 1)
        table = np.full((2 * h - 1, 2 * w - 1), -1, dtype=np.int64)
        table[h - 1 - ry:h + ry, w - 1 - rx:w + rx] = self.disk.index.reshape(
            self.disk.span, -1)[r - ry:r + ry + 1, r - rx:r + rx + 1]
        self._offset_index = table.reshape(-1)

    def visible(self, i: int) -> np.ndarray:
        """Boolean mask over the ray disk: offset free and line of sight clear."""
        if not 0 <= i < self._fresh.size:
            on_map(self.grid, [i])  # raises
        disk = self.disk
        if not self._vis_known[i]:
            y, x = divmod(i, self.grid.width)
            # rays to on-map offsets stay on the map, so only the window's
            # obstacles and the map edges hide offsets
            hit = disk.index[np.flatnonzero(self._obstacle[y:y + disk.span, x:x + disk.span])]
            blocked = np.bitwise_or.reduce(disk.through.take(hit[hit >= 0], axis=0), axis=0)
            r, right, down = disk.reach, self.grid.width - 1 - x, self.grid.height - 1 - y
            blocked |= (disk.left[min(x, r)] | disk.right[min(right, r)]
                        | disk.up[min(y, r)] | disk.down[min(down, r)])
            np.invert(blocked, out=self._vis_bits[i])
            self._vis_known[i] = True
        return np.unpackbits(self._vis_bits[i], count=disk.k, bitorder="little").view(bool)

    def mark_scanned(self, idx: np.ndarray) -> None:
        """Drop the cached scores that the newly scanned cells ``idx`` change.

        A cell's score depends only on whether it and the cells it sees are
        unscanned.  So a cached score goes stale exactly when the cell was
        scanned itself or sees a newly scanned cell ``n``; line of sight is
        symmetric, so the cell's own mask at offset ``n - cell`` decides.
        """
        if not len(idx):
            return
        idx = np.asarray(idx)
        w, h = self.grid.width, self.grid.height
        cached = np.flatnonzero(self._fresh)
        # cell (x, y) at y * (2w - 1) + x, so that a difference of two such
        # positions, shifted by the zero offset's row, is a row of the table
        at_new = idx + idx // w * (w - 1) + (h - 1) * (2 * w - 1) + w - 1
        at_cached = cached + cached // w * (w - 1)
        stale = np.zeros(cached.size, dtype=bool)
        block = max(1, _PAIR_BLOCK // max(1, cached.size))
        for lo in range(0, idx.size, block):
            k = self._offset_index.take(at_new[None, lo:lo + block] - at_cached[:, None])
            c, n = np.nonzero(k >= 0)
            k = k[c, n]
            seen = (self._vis_bits[cached[c], k >> 3] >> (k & 7)) & 1
            stale[c[seen.astype(bool)]] = True
        self._fresh[cached[stale]] = False
        self._fresh[idx] = False

    def _sweeps(self, i: int) -> tuple[np.ndarray, list[FosScore]]:
        """Trimmed sweep of every orientation at cell ``i``, from the current scan state.

        Returns the disk indices of the visible unscanned cells and the
        score of every orientation.
        """
        if not 0 <= i < self._fresh.size:
            on_map(self.grid, [i])  # raises, before ``_live[-1]`` reads the last cell's list
        live = self._live[i]
        if live is None:  # first sweep of the cell
            live = self.visible(i).nonzero()[0]
        new = self._live[i] = live[self._states_flat[i + self.end[live]] == _UNSCANNED]
        held = self._sweep_table.take(new, axis=1)
        h = len(self.orientations)
        # the ufuncs directly: ``ndarray.min``/``sum`` add a Python-level call
        edges = np.minimum.reduce(held, axis=1, initial=np.inf).tolist()
        counts = np.add.reduce(held[2 * h:], axis=1).tolist()
        own_new = self._states_flat.item(i) == _UNSCANNED
        sweep_time = self.sensor.sweep_time
        scores = []
        for lo, neg_hi, count in zip(edges[:h], edges[h:2 * h], counts):
            # the sweep spans the unscanned cells the window holds; a
            # zero-angle scan that still covers the own cell costs the setup time
            phi = math.degrees(-neg_hi - lo) if count else 0.0
            gain = int(count) + own_new
            scores.append(_make_score((gain, phi, sweep_time(phi) if gain else 0.0)))
        return new, scores

    def evaluate_cell(self, i: int) -> list[FosScore]:
        """Scores for every orientation at cell ``i`` (orientation order).

        The gain and sensing time are cached until :meth:`mark_scanned`
        reports a scan that changes them; :meth:`scores` reads the cache.
        """
        scores = self._sweeps(i)[1]
        gain, _, time = zip(*scores)
        self._gain[i] = gain
        self._time[i] = time
        self._fresh[i] = True
        return scores

    def scores(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gain and sensing time at the cells ``idx``, each (len(idx), orientations).

        Cached entries are reused; cells without a valid entry are evaluated
        through :meth:`evaluate_cell` first.
        """
        idx = on_map(self.grid, idx)
        for i in idx[~self._fresh[idx]].tolist():
            self.evaluate_cell(i)
        return self._gain[idx], self._time[idx]

    def sweep(self, i: int, h: int) -> tuple[FosScore, np.ndarray]:
        """Fresh score of orientation ``h`` at cell ``i`` and the cells it newly covers.

        The cells come as flat indices in disk order, with ``i`` itself last
        when it is unscanned.
        """
        new, scores = self._sweeps(i)
        cells = i + self.end[new[self.window_masks[h, new]]]
        if self._states_flat.item(i) == _UNSCANNED:
            cells = np.append(cells, i)
        return scores[h], cells


def compute_fos(grid: GridMap, pose: Pose, sensor: SensorModel) -> ScanResult:
    """Evaluate one sensing operation at ``pose`` against the current map."""
    if not grid.is_free(pose.cell):
        raise ValueError(f"pose cell {pose.cell} is not a free cell")
    evaluator = FosEvaluator(grid, sensor, (pose.theta,))
    i = pose.cell.y * grid.width + pose.cell.x
    score, new = evaluator.sweep(i, 0)
    # the sweep covers every visible cell of the window whose bearing lies
    # between the first and the last bearing of the cells it newly covers
    seen = np.flatnonzero(evaluator.visible(i) & evaluator.window_masks[0])
    rel = evaluator.rel_bearings[0, seen]
    held = rel[np.isin(i + evaluator.end[seen], new)]
    covered = seen[(held.min(initial=math.inf) <= rel) & (rel <= held.max(initial=-math.inf))]
    return ScanResult(score.phi_used, score.sensing_time, score.info_gain,
                      frozenset(cells_at(grid, new)),
                      frozenset(cells_at(grid, [i, *(i + evaluator.end[covered])])))


def visible_cells(grid: GridMap, cell: Cell, r_max: float) -> set[Cell]:
    """Free cells within metric range of ``cell`` with clear line of sight.

    Range and occlusion only; no angular window is applied and the cell
    itself is not included.
    """
    if not grid.in_bounds(cell):
        raise ValueError(f"cell {cell} is off the map")
    evaluator = FosEvaluator(grid, SensorModel(r_max=r_max), ())
    i = cell.y * grid.width + cell.x
    return set(cells_at(grid, i + evaluator.end[evaluator.visible(i)]))
