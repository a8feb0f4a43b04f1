"""Occupancy grid: map data model, ASCII map I/O, random generation, frontiers.

Conventions used throughout the package: the grid is stored row-major with
``y`` increasing downward, cells are addressed as ``Cell(x, y)`` with ``x``
the column and ``y`` the row, and headings are measured counter-clockwise
from the +x axis.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "Cell",
    "CellState",
    "GridMap",
    "MapFormatError",
    "Pose",
    "cells_at",
    "coverage_ratio",
    "frontier_cells",
    "generate_random_grid",
    "heading_set",
    "mark_scanned",
    "parse_map",
    "random_obstacle_count",
    "serialize_map",
]

FREE_CHAR = "."
OBSTACLE_CHAR = "#"
START_CHAR = "S"
_ILLEGAL = re.compile(f"[^{re.escape(FREE_CHAR + OBSTACLE_CHAR + START_CHAR)}]")
# line 1: two words between ASCII blanks, the second an ASCII decimal
_HEADER = re.compile(r"[ \t]*resolution[ \t]+([^ \t]+)[ \t]*")
_DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")  # also cli --weights
_INTEGER = re.compile(r"[+-]?[0-9]+")  # cli --size and --sizes items


class Cell(NamedTuple):
    """A grid cell addressed by column ``x`` and row ``y`` (both 0-based)."""

    x: int
    y: int


class Pose(NamedTuple):
    """A robot pose: a free cell plus a heading in radians."""

    cell: Cell
    theta: float


class CellState(IntEnum):
    OBSTACLE = 0
    FREE_UNSCANNED = 1
    FREE_SCANNED = 2


# Plain ints: comparing a uint8 array with IntEnum members is slower.
_STATE_VALUES = _OBSTACLE, _UNSCANNED, _SCANNED = tuple(int(state) for state in CellState)
# map byte -> state; parse_map looks up only the bytes of the three map characters
_DECODE = np.full(256, _OBSTACLE, dtype=np.uint8)
_DECODE[[ord(FREE_CHAR), ord(START_CHAR)]] = _UNSCANNED


class MapFormatError(ValueError):
    """Raised when an ASCII map document cannot be parsed."""


def _is_number(value: object, integer: bool = False) -> bool:
    """Whether ``value`` is a Python or numpy integer, or real number; never a bool."""
    kind = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    return isinstance(value, kind) and not isinstance(value, bool)


def _checked(name: str, value: Any, rule: str, test: Callable[[Any], bool],
             integer: bool = False, error: type[ValueError] = ValueError) -> Any:
    """The one check of a numeric argument: ``value``, a numpy scalar as its Python number, if
    a number (:func:`_is_number`) that ``test`` maps to True (NaN to False); else raises
    ``error(f"{name} must be {rule}, got {value!r}")``."""
    if not (_is_number(value, integer) and test(value)):
        raise error(f"{name} must be {rule}, got {value!r}")
    return value.item() if isinstance(value, np.generic) else value


def _of_type(name: str, value: Any, kind: type) -> Any:
    """The one check of a map, sensor or measure argument: ``value`` if a ``kind``, else raises
    ``ValueError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")``."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")
    return value


def heading_set(count: int) -> tuple[float, ...]:
    """Equally spaced headings in [0, 2*pi), starting at 0.

    Only 4 or 8 orientations are supported (axis directions, plus the
    45-degree diagonals for 8), as a Python or numpy integer.
    """
    count = _four_or_eight("orientation count", count)
    return tuple(2.0 * math.pi * k / count for k in range(count))


def _four_or_eight(what: str, count: int) -> int:
    """``count`` as an int, by :func:`_checked`: a Python or numpy integer 4 or 8."""
    return _checked(what, count, "4 or 8", lambda n: n in (4, 8), integer=True)


@dataclass(eq=False)
class GridMap:
    """Dense occupancy grid with per-cell scan bookkeeping.

    ``states`` is a C-contiguous (height, width) uint8 array of
    :class:`CellState` values, from which ``width`` and ``height`` are
    taken; evaluators read it through a flat view.
    Obstacles never change; free cells transition monotonically from
    unscanned to scanned.  The map object is cheap to copy and safe to share
    read-only; mutation happens only through :func:`mark_scanned`.  It holds
    map data only: the motion graph is cached by layout in ``planning``.
    """

    resolution: float
    states: np.ndarray
    start: Cell
    width: int = field(init=False)
    height: int = field(init=False)

    def __post_init__(self) -> None:
        self.resolution = _checked("resolution", self.resolution, "finite and > 0",
                                   lambda r: 0 < r < math.inf)
        self.states = np.ascontiguousarray(self.states)
        # not bool: it would store the scanned state (2) as True, i.e. unscanned
        if self.states.ndim != 2 or not np.issubdtype(self.states.dtype, np.integer):
            raise ValueError(f"states must be a 2-D integer array, got dtype "
                             f"{self.states.dtype} and shape {self.states.shape}")
        known = np.logical_or.reduce([self.states == v for v in _STATE_VALUES])
        if not known.all():
            unknown = np.unique(self.states[~known]).tolist()
            raise ValueError(f"states hold values outside CellState: {unknown}")
        # stored, not a property: the per-cell code reads them very often
        self.height, self.width = self.states.shape
        if not self.in_bounds(self.start):
            raise ValueError(f"start cell {self.start!r} out of bounds")
        if not self.is_free(self.start):
            raise ValueError(f"start cell {self.start!r} is an obstacle")
        self.start = Cell(*self.start)

    def in_bounds(self, cell: tuple[int, int]) -> bool:
        """Whether ``cell``, (x, y) as a :class:`Cell` or any other sequence of two Python or
        numpy integers, lies on the map; ValueError naming any other value."""
        x, y = cell if isinstance(cell, Sequence) and len(cell) == 2 else (None, None)
        if not (_is_number(x, integer=True) and _is_number(y, integer=True)):
            raise ValueError(f"a cell (x, y) must be a pair of integers, got {cell!r}")
        return 0 <= x < self.width and 0 <= y < self.height

    def is_free(self, cell: tuple[int, int]) -> bool:
        return self.in_bounds(cell) and self.states[cell[1], cell[0]] != _OBSTACLE

    def free_mask(self) -> np.ndarray:
        return self.states != _OBSTACLE

    def unscanned_mask(self) -> np.ndarray:
        return self.states == _UNSCANNED

    def scanned_mask(self) -> np.ndarray:
        return self.states == _SCANNED

    def free_count(self) -> int:
        return int(np.count_nonzero(self.free_mask()))

    def scanned_count(self) -> int:
        return int(np.count_nonzero(self.scanned_mask()))

    def unscanned_cells(self) -> list[Cell]:
        return cells_at(self, np.flatnonzero(self.unscanned_mask()))

    @classmethod
    def from_states(cls, states: np.ndarray, resolution: float) -> "GridMap":
        """Map over ``states`` that starts at the free cell nearest the center."""
        return cls(resolution, states, _start_near_center(states))

    def copy(self) -> "GridMap":
        return GridMap(self.resolution, self.states.copy(), self.start)


def parse_map(text: str) -> GridMap:
    """Parse an ASCII map document.

    Format: a ``resolution <meters>`` header line, then equal-length rows over
    ``.`` (free), ``#`` (obstacle), ``S`` (free start cell, exactly one); in
    the header only spaces, tabs and an ASCII decimal (:data:`_DECIMAL`).  The
    first problem in reading order is reported: a second start, an illegal
    character, a ragged row, no start.  Lines end at a line feed, one carriage
    return before it dropped.  Rows decode via the byte table ``_DECODE``.
    """
    if not isinstance(text, str):
        raise MapFormatError(f"a map document must be a string, got {text!r}")
    lines = re.split(r"\r?\n", text)
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise MapFormatError("empty map document (line 1)")
    header = _HEADER.fullmatch(lines[0])
    if not header:
        raise MapFormatError(
            f"line 1: expected 'resolution <meters>', got {lines[0]!r}"
        )
    if not _DECIMAL.fullmatch(header[1]):
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

    # the rows before the first ragged one, as one string: (x, y) at y * width + x
    ragged = next((y for y, row in enumerate(rows) if len(row) != width), len(rows))
    body = "".join(rows[:ragged])
    bad = _ILLEGAL.search(body)
    end = bad.start() if bad else len(body)
    first = body.find(START_CHAR, 0, end)
    second = body.find(START_CHAR, first + 1, end)  # -1 also when first is
    if second >= 0 or bad:
        y, x = divmod(second if second >= 0 else end, width)
        problem = "multiple start cells" if second >= 0 else f"illegal character {bad[0]!r}"
        raise MapFormatError(f"line {y + 2}, column {x + 1}: {problem}")
    if ragged < len(rows):
        raise MapFormatError(f"line {ragged + 2}: ragged row "
                             f"(length {len(rows[ragged])}, expected {width})")
    if first < 0:
        raise MapFormatError("map document has no start cell 'S'")
    states = _DECODE[np.frombuffer(body.encode("ascii"), dtype=np.uint8)].reshape(-1, width)
    return GridMap(resolution, states, Cell(first % width, first // width))


def serialize_map(grid: GridMap) -> str:
    """Serialize a map to the ASCII format accepted by :func:`parse_map`.

    Scan flags are not representable in the format; scanned cells are
    emitted as plain free cells.
    """
    _of_type("grid", grid, GridMap)
    chars = np.where(grid.states == CellState.OBSTACLE, OBSTACLE_CHAR, FREE_CHAR)
    chars[grid.start.y, grid.start.x] = START_CHAR
    rows = ["".join(row) for row in chars]
    return "\n".join([f"resolution {grid.resolution!r}", *rows]) + "\n"


def generate_random_grid(size: int, obstacle_ratio: float, seed: int,
                         resolution: float = 1.0) -> GridMap:
    """Square random grid: obstacles sampled uniformly without replacement.

    The PRNG is numpy's PCG64 seeded with ``seed``; the obstacle count is
    ``round(obstacle_ratio * size**2)``.  The start is the free cell nearest
    the grid center (see :func:`_start_near_center`).
    """
    n_obstacles = random_obstacle_count(size, obstacle_ratio)
    rng = seeded_rng(seed)
    states = np.full((size, size), CellState.FREE_UNSCANNED, dtype=np.uint8)
    if n_obstacles:
        flat = rng.choice(size * size, size=n_obstacles, replace=False)
        states.reshape(-1)[flat] = CellState.OBSTACLE
    return GridMap.from_states(states, resolution)


def seeded_rng(seed: int) -> np.random.Generator:
    """numpy's PCG64 generator seeded with ``seed``, an integer >= 0 (:func:`_checked`)."""
    seed = _checked("seed", seed, ">= 0", lambda n: n >= 0, integer=True)
    return np.random.Generator(np.random.PCG64(seed))


def random_obstacle_count(size: int, obstacle_ratio: float) -> int:
    """Obstacles in a random ``size`` x ``size`` grid.

    Raises ValueError (:func:`_checked`) unless ``size`` is an integer >= 1 and
    ``obstacle_ratio`` a number in [0, 1), and for a ratio that leaves no free cell.
    """
    size = _checked("size", size, "an integer >= 1", lambda n: n >= 1, integer=True)
    obstacle_ratio = _checked("obstacle_ratio", obstacle_ratio, "in [0, 1)", lambda r: 0 <= r < 1)
    n_obstacles = round(obstacle_ratio * size * size)
    if n_obstacles >= size * size:
        raise ValueError(
            f"obstacle ratio {obstacle_ratio} leaves no free cells on a {size}x{size} grid")
    return n_obstacles


def _start_near_center(states: np.ndarray) -> Cell:
    """Free cell nearest the grid center (ties: smallest row, then column)."""
    h, w = states.shape
    cx = (w - 1) / 2.0
    cy = (h - 1) / 2.0
    ys, xs = np.nonzero(states != CellState.OBSTACLE)
    if xs.size == 0:
        raise ValueError("map has no free cells")
    d2 = (xs - cx) ** 2 + (ys - cy) ** 2
    best = d2.argmin()  # the first minimum: nonzero lists the cells row-major
    return Cell(int(xs[best]), int(ys[best]))


_NEIGHBORS_4 = ((1, 0), (-1, 0), (0, 1), (0, -1))
_NEIGHBORS_8 = _NEIGHBORS_4 + ((1, 1), (1, -1), (-1, 1), (-1, -1))


def neighbor_offsets(connectivity: int) -> tuple[tuple[int, int], ...]:
    return _NEIGHBORS_4 if _four_or_eight("connectivity", connectivity) == 4 else _NEIGHBORS_8


def padded(mask: np.ndarray) -> np.ndarray:
    """Copy of a (height, width) ``mask`` inside a one-cell border of False."""
    out = np.zeros((mask.shape[0] + 2, mask.shape[1] + 2), dtype=bool)
    out[1:-1, 1:-1] = mask
    return out


def shifted(pad: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """View of the :func:`padded` mask ``pad`` shifted by ``(dx, dy)``.

    At each map cell ``(x, y)`` it holds the mask value at
    ``(x + dx, y + dy)``, or False off the map.
    """
    h, w = pad.shape
    return pad[1 + dy:h - 1 + dy, 1 + dx:w - 1 + dx]


def on_map(grid: GridMap, flat: np.ndarray | Sequence[int]) -> np.ndarray:
    """``flat`` as 1-D intp indices; ValueError for any other shape (a scalar, a list
    of :class:`Cell`), a non-integer dtype or the first off-map index.

    One unsigned comparison finds that index: a negative one wraps past every on-map one.
    ValueError by :func:`_of_type` unless ``grid`` is a :class:`GridMap`.
    """
    _of_type("grid", grid, GridMap)
    flat = np.asarray(flat)
    if flat.ndim != 1:
        raise ValueError(f"expected a 1-D array of flat indices, got shape {flat.shape}")
    if flat.size and flat.dtype.kind not in "iu":  # signed or unsigned integers
        raise ValueError(f"flat indices must have an integer dtype, got {flat.dtype}")
    off = flat[flat.astype(np.uintp, copy=False) >= grid.states.size]
    if off.size:
        raise ValueError(f"flat index {off[0]} is off the {grid.width}x{grid.height} map")
    return flat.astype(np.intp, copy=False)


def cells_at(grid: GridMap, flat: np.ndarray | Sequence[int]) -> list[Cell]:
    """The cells at the flat indices ``flat`` (``y * width + x``), in order."""
    ys, xs = np.divmod(on_map(grid, flat), grid.width)
    return list(map(Cell, xs.tolist(), ys.tolist()))


def frontier_cells(grid: GridMap, connectivity: int) -> np.ndarray:
    """Flat indices of the scanned free cells next to an unscanned free cell.

    Ascending, so in row-major order; :func:`cells_at` gives the cells.
    """
    _of_type("grid", grid, GridMap)
    unscanned = padded(grid.unscanned_mask())
    near = np.zeros((grid.height, grid.width), dtype=bool)
    for dx, dy in neighbor_offsets(connectivity):
        near |= shifted(unscanned, dx, dy)
    return (grid.scanned_mask() & near).reshape(-1).nonzero()[0]


def _free_on_map(grid: GridMap, flat: np.ndarray | Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """``on_map(grid, flat)`` and the states there; ValueError naming the first obstacle."""
    flat = on_map(grid, flat)
    held = grid.states.take(flat)  # ``take`` reads the flattened array
    if np.count_nonzero(held) < held.size:  # an obstacle: state 0, so argmin finds the first
        raise ValueError(f"cannot scan obstacle cell {cells_at(grid, [flat[held.argmin()]])[0]}")
    return flat, held


def mark_scanned(grid: GridMap, flat: np.ndarray | Sequence[int]) -> int:
    """Mark free cells as scanned; returns the number of distinct new transitions.

    ``flat`` is a 1-D array of flat indices ``y * width + x``.  Idempotent on
    already-scanned cells, and a cell listed twice counts once.  Any other
    shape, a non-integer dtype or an off-map cell (all by :func:`on_map`), else
    an obstacle, raises ValueError naming the first in input order, before any
    cell is written.
    """
    flat, held = _free_on_map(grid, flat)
    new = np.sort(flat.compress(held == _UNSCANNED))
    grid.states.put(new, _SCANNED)  # ``put`` writes the flattened array
    return int(np.count_nonzero(new[1:] != new[:-1])) + bool(new.size)  # distinct cells


def coverage_ratio(grid: GridMap) -> float:
    """Scanned free cells divided by total free cells."""
    free = _of_type("grid", grid, GridMap).free_count()
    if free == 0:
        raise ValueError("map has no free cells")
    return grid.scanned_count() / free
