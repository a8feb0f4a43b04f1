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
epsilon) and matches dense point-sampling of the segment; ``tests/oracles.py``
holds both the scalar walk (``traverse_segment``) and the sampling oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .grid import _UNSCANNED, CellState, GridMap, _checked, _of_type

__all__ = ["SensorModel"]


@dataclass(frozen=True)
class SensorModel:
    """Remote gas sensor parameters.

    ``r_max`` is the metric range limit, ``phi_max`` the maximum opening angle in degrees.
    The sweep time is linear in the executed angle, ``setup_time + sweep_rate * phi``, and
    finite up to ``phi_max``.  The defaults reproduce a pan-tilt TDLAS unit that needs 21 s
    for a 45-degree sweep and 36 s for 90 degrees.  Each field is checked by
    ``grid._checked`` and stored as a Python number.
    """

    r_max: float
    phi_max: float = 180.0
    setup_time: float = 6.0
    sweep_rate: float = 1.0 / 3.0  # seconds per degree

    def __post_init__(self) -> None:
        for name, rule, test in (("r_max", "finite and > 0", lambda v: 0 < v < math.inf),
                                 ("phi_max", "in (0, 180]", lambda v: 0 < v <= 180),
                                 ("setup_time", "finite and >= 0", lambda v: 0 <= v < math.inf),
                                 ("sweep_rate", "finite and > 0", lambda v: 0 < v < math.inf)):
            # Python numbers: the ray disk takes Fraction(r_max), which refuses numpy floats
            object.__setattr__(self, name, _checked(name, getattr(self, name), rule, test))
        _checked("setup_time + sweep_rate * phi_max", self.sweep_time(self.phi_max), "finite",
                 math.isfinite)  # a full sweep

    def sweep_time(self, phi: float) -> float:
        """Seconds a scan sweeping ``phi`` degrees takes (the setup time at 0)."""
        return self.setup_time + self.sweep_rate * phi


def _words(rows: np.ndarray) -> np.ndarray:
    """Boolean rows over the K disk offsets, packed into words (see _RayDisk), pad bits set."""
    pad = np.ones((len(rows), -rows.shape[1] % 64), dtype=bool)
    return np.packbits(np.hstack((rows, pad)), axis=1, bitorder="little").view(np.uint64)


class _RayDisk:
    """Precomputed ray bundle to every cell offset within sensor range.

    Offsets satisfy ``dx^2 + dy^2 <= bound`` for the integer ``bound =
    floor(r_max^2 / resolution^2)``, taken once in rationals on the given
    floats, and lie at most ``extent`` cells away along each axis; row-major,
    but the own cell (0, 0), which a scan covers like any other, comes last
    (index K - 1).  With ``extent`` one less than the map's larger side, no
    dropped offset could land inside the map, so the disk is bounded by the
    map, not by ``r_max``.  ``reach = min(isqrt(bound), extent)`` is the
    largest ``|dx|`` or ``|dy|``.

    The other tables are sets of offsets, bit-packed little-endian into rows
    of ceil(K/64) uint64 words (bit j of a row is bit j % 8 of its byte j // 8,
    read through a uint8 view), whose pad bits include bit K, as K is odd
    (the offsets but the own cell pair up as (dx, dy) and (-dx, -dy)).  Row
    ``j`` of ``through`` holds the offsets whose ray (the cells
    ``oracles.traverse_segment`` crosses, endpoint included) crosses offset
    ``j``: no ray leaves the disk (the walk is monotone), and only the own
    cell's crosses it, so an obstacle cell does not see itself.  Its row K
    is empty, the row a gather reads for an offset outside the disk.  It
    takes (K + 1) * 8 * ceil(K/64) bytes: 1.0 MB at r_max 30 m with 1 m
    cells, up to about 128 MB on a 90x90 map (r_max >= 127 m).  Row ``a`` of
    ``left``, ``right``, ``up`` and ``down`` ((reach + 1) * 8 * ceil(K/64)
    bytes each) holds ``dx < -a``, ``dx > a``, ``dy < -a`` and ``dy > a``:
    the offsets past a map edge ``a`` cells away.  They also set the pad
    bits, so a complement of an OR with one clears them.
    """

    def __init__(self, r_max: float, resolution: float, extent: int) -> None:
        bound = math.floor(Fraction(r_max) ** 2 / Fraction(resolution) ** 2)
        reach = self.reach = min(math.isqrt(bound), extent)
        oy, ox = np.meshgrid(*[np.arange(-reach, reach + 1)] * 2, indexing="ij")
        inside = ox * ox + oy * oy <= bound
        inside[reach, reach] = False  # the own cell, appended last
        self.dx, self.dy = (np.append(o[inside], 0).astype(np.int32) for o in (ox, oy))
        k = self.k = self.dx.size
        # an offset's position in the (2*reach+1)^2 window around the own cell, or K outside it
        span = 2 * reach + 1
        index = np.full(span * span, k, dtype=np.int64)
        index[(self.dy + reach) * span + self.dx + reach] = np.arange(k)

        # the walk of ``oracles.traverse_segment`` for all rays at once, one
        # step per pass, collecting (crossed offset, ray) pairs
        ray, ix, iy = np.arange(k), np.zeros(k, dtype=np.int64), np.zeros(k, dtype=np.int64)
        nx, ny, sx, sy = np.abs(self.dx), np.abs(self.dy), np.sign(self.dx), np.sign(self.dy)
        crossed, rays = [ray[:0]], [ray[:0]]  # never empty, for the concatenation
        while ray.size:
            tx, ty = (2 * ix + 1) * ny, (2 * iy + 1) * nx
            ix, iy = ix + (tx <= ty), iy + (tx >= ty)
            crossed.append(index[(sy * iy + reach) * span + sx * ix + reach])
            rays.append(ray)
            more = (ix < nx) | (iy < ny)
            ray, ix, iy, nx, ny, sx, sy = (a[more] for a in (ray, ix, iy, nx, ny, sx, sy))
        crossed, ray = np.concatenate(crossed), np.concatenate(rays)
        assert (crossed < k).all(), "a ray left its disk"
        words = (k + 63) // 64
        self.through = np.zeros((k + 1, words), dtype=np.uint64)  # row K: no offset
        np.bitwise_or.at(self.through.view(np.uint8).reshape(-1),
                         crossed * (8 * words) + (ray >> 3), _BIT.take(ray & 7))
        a = np.arange(reach + 1)[:, None]
        self.left, self.right, self.up, self.down = (
            _words(past) for past in (self.dx < -a, self.dx > a, self.dy < -a, self.dy > a))


# One disk: the runs on a map, or on one size of a batch, share a key, and a
# disk can take up to (K + 1) * 8 * ceil(K/64) bytes.
_ray_disk = lru_cache(maxsize=1)(_RayDisk)


class _Layout:
    """Visibility on one obstacle layout with one sensor disk: masks, offsets and stale cells.

    ``obstacle`` is the row-major obstacle mask of a map ``width`` cells wide;
    the disk is ``_ray_disk(r_max, resolution, extent)``.  Cell (x, y) stands
    at position y * (2w - 1) + x, so that the difference of two positions
    plus ``zero`` is a row of ``offset_index``: the disk index of that
    offset, else K (8 bytes each, (2w-1)(2h-1) for a w x h map, whatever
    ``r_max``).  ``place`` holds each cell's row, column and position (3 * 4
    bytes a cell, the one copy of the position rule), ``obstacles`` the
    obstacles' positions plus ``zero``, row-major (4 bytes each), and
    ``rows[y]`` the first obstacle of row ``y`` (h + 1 ints).  ``x_edge`` and
    ``y_edge`` hold the offsets past a map edge from each column and from
    each row ((w + h) * 8 * ceil(K/64) bytes, in the words of the disk's
    tables, pad bits set).  ``known`` and ``bits``
    hold the mask of every cell looked at so far, in rows of 8 * ceil(K/64)
    bytes (:meth:`look` writes them as words, :meth:`offsets` and :meth:`stale`
    read them as bytes).  ``kept[i]`` holds cell ``i``'s visible offsets
    (:meth:`offsets`) once they have been asked for twice, read-only, of dtype
    ``np.min_scalar_type(K)``, while all of them take at most ``_KEPT_BYTES``
    (``kept_bytes``; about 2.1 MB on the 90x90 benchmark grid at r_max 30 m);
    ``asked`` flags the cells asked for once.
    """

    def __init__(self, obstacle: bytes, width: int, r_max: float, resolution: float,
                 extent: int) -> None:
        disk = self.disk = _ray_disk(r_max, resolution, extent)
        w, h = self.width, self.height = width, len(obstacle) // width
        x, y = np.arange(w), np.arange(h)
        place = np.empty((3, h, w), dtype=np.int32)  # positions stay below 2wh
        place[0], place[1], place[2] = y[:, None], x, y[:, None] * (2 * w - 1) + x
        self.place = place.reshape(3, -1)
        self.zero = self.place.item(2, -1)
        flat = np.frombuffer(obstacle, dtype=bool).nonzero()[0]
        self.obstacles = self.place[2].take(flat) + self.zero
        self.rows = flat.searchsorted(np.arange(0, w * h + 1, w)).tolist()
        self.known = np.zeros(w * h, dtype=bool)
        self.asked, self.kept, self.kept_bytes = bytearray(w * h), [None] * (w * h), 0
        self.bits = np.zeros((w * h, 8 * disk.through.shape[1]), dtype=np.uint8)
        fit = np.flatnonzero((np.abs(disk.dx) < w) & (np.abs(disk.dy) < h))  # the map's offsets
        self.offset_index = np.full((2 * h - 1) * (2 * w - 1), disk.k, dtype=np.int64)
        self.offset_index[(2 * w - 1) * disk.dy.take(fit).astype(np.int64)
                          + disk.dx.take(fit) + self.zero] = fit
        # the distances to the left and top edges (reversed: right and bottom), up to reach
        x, y = np.minimum(x, disk.reach), np.minimum(y, disk.reach)
        self.x_edge = disk.left.take(x, axis=0) | disk.right.take(x[::-1], axis=0)
        self.y_edge = disk.up.take(y, axis=0) | disk.down.take(y[::-1], axis=0)

    def offsets(self, i: int) -> np.ndarray:
        """Cell ``i``'s visible disk offsets, ascending (its own cell last, when free).

        One unpack of its packed mask (on the map, line of sight clear), made
        here by a look at ``i`` alone if not known yet.  The first ask returns
        them; the second keeps them (see the class docstring), so that a
        layout serving one run keeps nothing and the runs that follow it
        unpack nothing.
        """
        kept = self.kept[i]
        if kept is not None:
            return kept
        if not self.known[i]:
            self.look(np.array([i]))
        bits = np.unpackbits(self.bits[i], count=self.disk.k, bitorder="little")
        found = bits.view(bool).nonzero()[0]  # bool, as nonzero on uint8 takes 1.7x as long
        if not self.asked[i]:
            self.asked[i] = True
            return found
        dtype = np.min_scalar_type(self.disk.k)
        if self.kept_bytes + found.size * dtype.itemsize > _KEPT_BYTES:
            return found
        kept = found.astype(dtype)
        kept.flags.writeable = False
        self.kept[i], self.kept_bytes = kept, self.kept_bytes + kept.nbytes
        return kept

    def look(self, cells: np.ndarray) -> None:
        """Make the masks of the ``cells`` not looked at yet, in blocks of cells.

        Rays to on-map offsets stay on the map, so only the ``through`` rows of
        the obstacles in the rows within reach of a block's cells, and the map
        edges, hide offsets.  Per block, one gather of ``offset_index`` gives the
        (cells x obstacles) hit matrix, the disk index of each obstacle from each
        cell (K outside the disk); each row is sorted, so that the K come last,
        and the columns that hold K in every row are cut.  One gather of
        ``through`` rows (row K is empty), an OR along the obstacles and one
        gather each of ``x_edge`` and ``y_edge`` give the hidden offsets.  A
        block's gather, cells * obstacles * 8 * ceil(K/64) bytes, takes at most
        ``_LOOK_BYTES``, or one cell, counting every obstacle of its row band.
        """
        cells = cells.compress(~self.known.take(cells))
        h, r, rows, through = self.height, self.disk.reach, self.rows, self.disk.through
        y, x, at = self.place.take(cells, axis=1)
        per, ys, lo = 8 * through.shape[1], y.tolist(), 0
        while lo < len(ys):
            top = bottom = ys[lo]
            hi = lo + 1
            while hi < len(ys):  # one more cell while the gather stays within the cap
                a, b = min(top, ys[hi]), max(bottom, ys[hi])
                if (hi + 1 - lo) * (rows[min(b + r + 1, h)] - rows[max(a - r, 0)]) * per \
                        > _LOOK_BYTES:
                    break
                top, bottom, hi = a, b, hi + 1
            band = self.obstacles[rows[max(top - r, 0)]:rows[min(bottom + r + 1, h)]]
            hit = self.offset_index.take(band - at[lo:hi, None])
            hit.sort(axis=1)
            hit = hit[:, :np.minimum.reduce(hit, axis=0).searchsorted(self.disk.k)]
            blocked = np.bitwise_or.reduce(through.take(hit.T, axis=0), axis=0)
            blocked |= self.x_edge.take(x[lo:hi], axis=0)
            blocked |= self.y_edge.take(y[lo:hi], axis=0)
            block = cells[lo:hi]
            self.bits.view(np.uint64)[block] = np.invert(blocked, out=blocked)
            self.known[block] = True
            lo = hi

    def stale(self, cached: np.ndarray, new: np.ndarray) -> np.ndarray:
        """The ``cached`` cells, masks known, that see a cell ``n`` of ``new``.

        Line of sight is symmetric, so a cached cell's own mask at offset ``n -
        cell`` decides (bit K outside the disk).  The pairs are tested in (new x
        cached) blocks of at most ``_PAIR_BLOCK``, the cached axis inner; a later
        block tests only the cached cells not yet found, and takes more new cells.
        When the pairs fill more than one block, only the cached cells inside the
        new cells' bounding box widened by ``reach`` on each side are tested: a
        cell farther than ``reach`` along an axis from every new cell reads K.  A
        call within one block skips the box, whose fixed cost its pairs would not repay.
        """
        if cached.size * new.size > _PAIR_BLOCK:
            r = self.disk.reach
            (y, x), (cy, cx) = self.place[:2].take(new, axis=1), self.place[:2].take(cached, axis=1)
            cached = cached.compress((cy >= y.min() - r) & (cy <= y.max() + r)
                                     & (cx >= x.min() - r) & (cx <= x.max() + r))
        nbytes, bits = self.bits.shape[1], self.bits.reshape(-1)
        at_new, at_cached = self.place[2].take(new) + self.zero, self.place[2].take(cached)
        found, lo = [cached[:0]], 0
        while cached.size:
            hi = lo + max(1, _PAIR_BLOCK // cached.size)
            k = self.offset_index.take(at_new[lo:hi, None] - at_cached)
            seen = (bits.take(cached * nbytes + (k >> 3)) & _BIT.take(k & 7)).any(axis=0)
            found.append(cached[seen])
            if hi >= new.size:
                break
            cached, at_cached = cached[~seen], at_cached[~seen]  # the rest need more tests
            lo = hi
        return np.concatenate(found)


# One layout, by value: the runs on a map and its copies follow each other, and
# the masks take cells * 8 * ceil(K/64) bytes.
_layout = lru_cache(maxsize=1)(_Layout)


# One set: the evaluators of a run, a sweep or a batch share the disk and headings.
@lru_cache(maxsize=1)
def _heading_tables(disk: _RayDisk, orientations: tuple[float, ...],
                    phi_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(window_masks, sweep_table)`` of ``disk`` (see FosEvaluator): the one
    place that takes bearings, each offset's relative to every heading in (-pi, pi]."""
    bearings = np.arctan2(disk.dy.astype(np.float64), disk.dx.astype(np.float64))
    d = bearings - np.array(orientations)[:, None]
    rel = np.arctan2(np.sin(d), np.cos(d))
    window = np.abs(rel) <= math.radians(phi_max) / 2.0
    window[:, -1] = True  # the own cell, offset K - 1, is in every window
    # Per orientation and offset: the relative bearing inside the window (else
    # +inf), its negation (else +inf), and the 0/1 window flag, so that one
    # gather and one row minimum give every sweep's edges; then a sentinel
    # column with neither.  Rows, so the reductions read contiguous memory.
    table = np.vstack((np.where(window, rel, np.inf), np.where(window, -rel, np.inf), window))
    table[:2 * len(orientations), -1] = np.inf  # no bearing: it adds to gain, never to angle
    table = np.column_stack((table, np.repeat([np.inf, np.inf, 0.0], len(orientations))))
    for a in (window, table):
        a.flags.writeable = False
    return window, table


class FosScore(NamedTuple):
    """The numbers of one sensing operation, without its covered cells."""

    info_gain: int
    phi_used: float  # degrees
    sensing_time: float  # seconds


# Upper bounds on the (cached cell, new cell) pairs ``_Layout.stale`` tests at once
# (a call with more pairs first drops the cached cells outside the new cells' reach box),
# on the offsets one block of the sweep kernel gathers (3H table rows of 8 bytes each),
# on the bytes of ``through`` rows one block of ``_Layout.look`` gathers (1 MiB),
# and on the bytes of the offsets one layout keeps (``_Layout.offsets``, 16 MiB).
_PAIR_BLOCK, _SWEEP_BLOCK, _LOOK_BYTES, _KEPT_BYTES = 1 << 14, 1 << 12, 1 << 20, 1 << 24
_BIT = (1 << np.arange(8)).astype(np.uint8)  # the byte value of bit j of a packed row


class FosEvaluator:
    """Vectorized field-of-smell evaluation over one grid.

    Cells are addressed by their flat index ``i = y * width + x``, index
    arrays are 1-D intp.  The methods check none of them: their callers,
    ``CoverageEngine.step`` and ``uncoverable_cells``, pass only free on-map
    cells they found themselves, and an in-range Python int heading.  The
    constructor checks the map and sensor types, as the public entry points
    that build an evaluator promise.  The cells at
    the disk offsets of cell ``i`` are ``i + end``, the cell itself last.
    Visibility depends only on the obstacles, which never change, and the
    sensor disk, so a :class:`_Layout` cached by value owns it, shared by the
    evaluators on a map and its copies with one ``r_max``; only the last
    layout stays cached, masks included.  The score cache is per evaluator.
    The scan state is read from ``grid.states`` itself.  The cached scores,
    gain and sweep angle per orientation, depend on it, so every scan must be
    reported through :meth:`mark_scanned`; sensing time is priced from the
    angle by ``SensorModel.sweep_time``.  The executed sweep (:meth:`evaluate_cell`)
    checks a fresh cell's live list against the grid, so a missed report
    shows as a fresh score that differs from the cached one.  One batched
    kernel, :meth:`_sweep_cells`, sweeps a list of cells, for :meth:`scores`
    and :meth:`evaluate_cell` alike: one gather of a (3H, K + 1) table (H
    orientations, K offsets, a sentinel; shared per disk, orientations and
    ``phi_max``) over all their visible unscanned offsets, then one row
    minimum and sum per cell, in blocks of at most ``_SWEEP_BLOCK`` offsets
    or one cell.  Each sweep keeps a cell's offsets as its live list; a cell
    only ever goes from unscanned to scanned, so the next sweep filters that
    list by the current state and only a cell's first sweep reads its
    visible offsets (:meth:`visible`), which the layout keeps from a cell's
    second ask on, so that the runs on one map unpack each mask at most twice
    while the kept offsets fit their budget.
    A cell that leaves the cells :meth:`scores` is called on drops its list
    and cached score.
    At a call's first sweep of a cell whose mask the layout does not know
    yet, the layout makes the masks of that cell and of the call's later
    cells in one batch (:meth:`_Layout.look`).
    """

    def __init__(self, grid: GridMap, sensor: SensorModel,
                 orientations: tuple[float, ...]) -> None:
        _of_type("grid", grid, GridMap)
        self.sensor = _of_type("sensor", sensor, SensorModel)
        self.orientations = tuple(orientations)
        self._vis = _layout((grid.states == CellState.OBSTACLE).tobytes(), grid.width,
                            sensor.r_max, grid.resolution, max(grid.width, grid.height) - 1)
        self.disk = self._vis.disk

        # A view (``GridMap.states`` is C-contiguous), so scans show up here.
        # Visible offsets never leave the map (the edge masks hide off-map
        # offsets), so ``end`` needs no padding.
        self._states_flat = grid.states.reshape(-1)
        self.end = self.disk.dy.astype(np.int64) * grid.width + self.disk.dx

        self.window_masks, self._sweep_table = _heading_tables(
            self.disk, self.orientations, sensor.phi_max)

        # Score caches indexed by y * width + x.
        cells = grid.width * grid.height
        self._fresh = np.zeros(cells, dtype=bool)
        self._gain = np.zeros((cells, len(self.orientations)), dtype=np.int64)
        self._phi = np.zeros((cells, len(self.orientations)), dtype=np.float64)
        self._live: list[np.ndarray | None] = [None] * cells
        self._last = np.zeros(cells, dtype=bool)  # the cells of the last ``scores`` call
        # the sweep gather of one block (at most _SWEEP_BLOCK offsets, or one cell's K)
        most = max(_SWEEP_BLOCK, self.disk.k) + 1
        self._held = np.empty(3 * len(self.orientations) * most)
        self._cols = np.empty(most, dtype=np.intp)  # its columns: the offsets, then K

    def visible(self, i: int) -> np.ndarray:
        """The ray disk offsets of cell ``i`` that are free with a clear line of sight,
        ascending, own cell last: :meth:`_Layout.offsets`, read-only when kept."""
        return self._vis.offsets(i)

    def mark_scanned(self, idx: np.ndarray) -> None:
        """Drop the cached scores of the cells that see a newly scanned cell of ``idx``: a
        score depends only on whether the cells seen, the cell itself included, are unscanned."""
        self._fresh[self._vis.stale(self._fresh.nonzero()[0], idx)] = False

    def _sweep_cells(self, cells: np.ndarray) -> None:
        """Sweep every orientation at the on-map ``cells`` from the current scan state.

        The one sweep kernel (see the class docstring): refreshes their live
        lists and cached gains and angles.  A first sweep takes its cell's
        visible offsets from :meth:`visible` as the live list.
        """
        h, todo, lo = len(self.orientations), cells.tolist(), 0
        while lo < cells.size:
            lists, total = [], 0  # live lists of at most _SWEEP_BLOCK offsets, or of one cell
            for i in todo[lo:]:
                if self._live[i] is None:  # first sweep of the cell
                    if not self._vis.known[i]:  # its first look, with the later cells'
                        self._vis.look(cells[lo + len(lists):])
                    self._live[i] = self.visible(i)
                total += self._live[i].size
                if lists and total > _SWEEP_BLOCK:
                    break
                lists.append(self._live[i])
            hi, sizes = lo + len(lists), [a.size for a in lists]
            block = cells[lo:hi]
            joined = np.concatenate(lists, dtype=np.intp)  # kept offsets are narrower
            seen = block.repeat(sizes) + self.end.take(joined)  # the cells at the offsets
            pos = (self._states_flat.take(seen) == _UNSCANNED).nonzero()[0]
            cols = self._cols[:pos.size + 1]
            new = joined.take(pos, out=cols[:-1])
            cols[-1] = self.disk.k  # the sentinel column, for empty segments at the end
            # each cell's segment of ``new``, copied, so that no cell pins the block
            bounds = pos.searchsorted(list(accumulate(sizes, initial=0)))
            at = bounds.tolist()
            for i, a, b in zip(block.tolist(), at, at[1:]):
                self._live[i] = new[a:b].copy()
            held = self._held[:3 * h * cols.size].reshape(3 * h, cols.size)
            self._sweep_table.take(cols, axis=1, mode="clip", out=held)  # 'clip' fills it in place
            edges = np.minimum.reduceat(held[:2 * h], bounds[:-1], axis=1)
            counts = np.add.reduceat(held[2 * h:], bounds[:-1], axis=1).T
            counts[bounds[:-1] == bounds[1:]] = 0  # reduceat gives an element for an empty segment
            # the sweep spans the window's unscanned cells (last minus first bearing, -inf if none)
            self._gain[block] = counts
            self._phi[block] = np.degrees(np.maximum(-edges[h:] - edges[:h], 0.0)).T
            self._fresh[block] = True
            lo = hi

    def evaluate_cell(self, i: int) -> list[FosScore]:
        """Scores for every orientation at the free cell ``i`` (orientation order).

        The cached gain and angle are returned when they are fresh (see
        :meth:`mark_scanned`) and the current state removes no offset from the
        cell's live list, which holds the cell itself while it is unscanned;
        else the kernel sweeps it again.  An orientation costs
        ``SensorModel.sweep_time`` of its angle, or 0 s if it covers no cell.
        """
        if not (self._fresh[i] and (self._states_flat.take(
                self.end.take(self._live[i]) + i) == _UNSCANNED).all()):
            self._sweep_cells(np.array([i]))
        # a zero-angle scan that still covers the own cell costs the setup time
        return [FosScore(gain, phi, self.sensor.sweep_time(phi) if gain else 0.0)
                for gain, phi in zip(self._gain[i].tolist(), self._phi[i].tolist())]

    def scores(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gain and sweep angle at the free cells ``idx``, each (len(idx), orientations).

        Cached entries are reused, cells without one swept first in one batch;
        a covering orientation takes ``SensorModel.sweep_time`` of its angle.
        The cells of the previous call's ``idx`` that are not in this one lose
        their live list and cached score.  A frontier cell that leaves for good
        never returns (scans only add scanned cells), and one that did would be
        swept from its mask again, to the same numbers.
        """
        last = self._last
        last[idx] = False
        gone = last.nonzero()[0]
        for i in gone.tolist():
            self._live[i] = None
        self._fresh[gone] = last[gone] = False
        last[idx] = True
        self._sweep_cells(idx[~self._fresh[idx]])
        return self._gain.take(idx, axis=0), self._phi.take(idx, axis=0)

    def sweep(self, i: int, h: int) -> tuple[FosScore, np.ndarray]:
        """Fresh score of orientation ``h`` at the free cell ``i`` and the cells it newly covers.

        The cells come as flat indices in disk order, so ``i`` itself, the
        disk's last offset, comes last when it is unscanned.
        """
        score = self.evaluate_cell(i)[h]
        live = self._live[i]  # as evaluate_cell left it
        return score, self.end.take(live.compress(self.window_masks[h].take(live))) + i
