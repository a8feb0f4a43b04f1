"""Synthetic test environments: empty, corridor, rooms, and random maps.

All generators are pure functions of their parameters (PCG64 seeded
streams), so generated maps are reproducible across runs.
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from .grid import CellState, GridMap, _checked, generate_random_grid, parse_map, seeded_rng

__all__ = ["corridor_map", "empty_map", "generate_map", "rooms_map", "shipped_map"]

SHIPPED_MAPS = {
    "corridor": "corridor_60x10.txt",
    "rooms": "rooms_80x80.txt",
}


def shipped_map(name: str) -> GridMap:
    """Load one of the packaged benchmark maps ('corridor' or 'rooms')."""
    filename = SHIPPED_MAPS.get(name) if isinstance(name, str) else None
    if filename is None:
        raise ValueError(f"unknown shipped map {name!r}; expected one of {sorted(SHIPPED_MAPS)}")
    text = (resources.files("nbsmell") / "maps" / filename).read_text()
    return parse_map(text)


def _free_states(kind: str, width: int, height: int, least: tuple[int, int]) -> np.ndarray:
    """(height, width) free cells; ValueError (``grid._checked``) for a side below ``least``."""
    for name, n, low in zip(("width", "height"), (width, height), least):
        _checked(f"{kind} map {name}", n, f"an integer >= {low}", lambda n: n >= low, integer=True)
    return np.full((height, width), CellState.FREE_UNSCANNED, dtype=np.uint8)


def empty_map(width: int, height: int, resolution: float = 1.0) -> GridMap:
    """An obstacle-free map; a side of 0 leaves no free cell, which raises ValueError."""
    return GridMap.from_states(_free_states("empty", width, height, (0, 0)), resolution)


def _door(rng: np.random.Generator, lo: int, hi: int, width: int) -> slice:
    """The slice of a ``width``-cell door whose start is drawn from ``[lo, hi - width]``.

    Every door fits, else ``rng.integers`` would raise: corridor dividers are 8-13 cells
    apart and the last is 5 or more from the edge; a rooms side of 16 or more cells splits
    into rooms of 8 or more."""
    at = int(rng.integers(lo, hi - width + 1))
    return slice(at, at + width)


def corridor_map(width: int, height: int, seed: int = 0,
                 resolution: float = 0.5) -> GridMap:
    """Long thin corridor with side rooms opening onto it through doors.

    A two-row corridor runs the full width at mid-height; the bands above
    and below are partitioned into rooms by one-cell walls, each room
    connected to the corridor by a short door gap.  At least 8x7 cells.
    """
    states = _free_states("corridor", width, height, (8, 7))
    rng = seeded_rng(seed)
    cy = height // 2 - 1  # corridor occupies rows cy and cy+1

    def build_band(wall_row: int, interior_rows: slice) -> None:
        states[wall_row, :] = CellState.OBSTACLE
        # partition the band into rooms with vertical dividers
        edges = [0]
        x = 0
        while True:
            x += int(rng.integers(8, 14))
            if x >= width - 4:
                break
            edges.append(x)
            states[interior_rows, x] = CellState.OBSTACLE
        edges.append(width)
        # one door per room through the wall row
        for left, right in zip(edges, edges[1:]):
            lo = left + 1 if left > 0 else 0
            states[wall_row, _door(rng, lo, right - 1, 2)] = CellState.FREE_UNSCANNED

    build_band(cy - 1, slice(0, cy - 1))
    build_band(cy + 2, slice(cy + 3, height))
    return GridMap.from_states(states, resolution)


def rooms_map(width: int, height: int, seed: int = 0,
              resolution: float = 1.0) -> GridMap:
    """Large connected open rooms separated by walls with wide doorways (16x16 at least)."""
    states = _free_states("rooms", width, height, (16, 16))
    rng = seeded_rng(seed)
    nx = max(2, round(width / 28))
    ny = max(2, round(height / 28))
    wall_xs = [i * width // nx for i in range(1, nx)]
    wall_ys = [i * height // ny for i in range(1, ny)]
    # vertical walls are rows of states.T; a doorway per segment, strictly between crossings
    for plane, walls, cuts in ((states.T, wall_xs, wall_ys), (states, wall_ys, wall_xs)):
        plane[walls] = CellState.OBSTACLE
        edges = [0, *cuts, plane.shape[1]]
        for wall in walls:
            for start, end in zip(edges, edges[1:]):
                plane[wall, _door(rng, start + 1, end - 1, 4)] = CellState.FREE_UNSCANNED
    return GridMap.from_states(states, resolution)


def generate_map(kind: str, width: int, height: int, seed: int = 0,
                 obstacle_ratio: float = 0.1,
                 resolution: float | None = None) -> GridMap:
    """Dispatch to a generator by kind: empty, corridor, rooms, or random.

    ``resolution=None`` keeps the generator's own default.
    """
    cell_size = {} if resolution is None else {"resolution": resolution}
    if kind == "empty":
        return empty_map(width, height, **cell_size)
    if kind == "corridor":
        return corridor_map(width, height, seed=seed, **cell_size)
    if kind == "rooms":
        return rooms_map(width, height, seed=seed, **cell_size)
    if kind == "random":
        if width != height:
            raise ValueError(f"random maps are square, got {width!r}x{height!r}")
        return generate_random_grid(width, obstacle_ratio, seed, **cell_size)
    raise ValueError(f"unknown map kind {kind!r}")
