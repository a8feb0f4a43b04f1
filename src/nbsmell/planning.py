"""Grid shortest paths and travel-time conversion.

Motion is 4- or 8-connected over free cells. Axial steps cost one cell
resolution, diagonal steps cost sqrt(2) times that. A diagonal step that
would squeeze between two obstacle cells touching at a corner is forbidden.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _sparse_dijkstra

from .grid import Cell, GridMap

__all__ = ["shortest_distances", "travel_time"]

_SQRT2 = math.sqrt(2.0)


def _motion_graph(grid: GridMap, connectivity: int) -> csr_matrix:
    """Sparse free-cell adjacency; cached on the map (obstacles are static)."""
    cached = grid._graphs.get(connectivity)
    if cached is not None:
        return cached
    free = grid.free_mask()
    h, w = free.shape
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    data: list[np.ndarray] = []

    def add_edges(dx: int, dy: int, allowed: np.ndarray, cost: float) -> None:
        ys, xs = np.nonzero(allowed)
        src = ys * w + xs
        dst = (ys + dy) * w + (xs + dx)
        rows.append(src)
        cols.append(dst)
        data.append(np.full(src.shape, cost * grid.resolution))

    # axial edges (one direction each; the graph is used undirected)
    add_edges(1, 0, free[:, :-1] & free[:, 1:], 1.0)
    add_edges(0, 1, free[:-1, :] & free[1:, :], 1.0)
    if connectivity == 8:
        obstacle = ~free
        # down-right: blocked when both (x+1, y) and (x, y+1) are obstacles
        ok = (
            free[:-1, :-1]
            & free[1:, 1:]
            & ~(obstacle[:-1, 1:] & obstacle[1:, :-1])
        )
        add_edges(1, 1, ok, _SQRT2)
        # down-left
        ok = (
            free[:-1, 1:]
            & free[1:, :-1]
            & ~(obstacle[:-1, :-1] & obstacle[1:, 1:])
        )
        ys, xs = np.nonzero(ok)
        src = ys * w + (xs + 1)
        dst = (ys + 1) * w + xs
        rows.append(src)
        cols.append(dst)
        data.append(np.full(src.shape, _SQRT2 * grid.resolution))
    elif connectivity != 4:
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")

    n = h * w
    graph = csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols)))
        if rows
        else ((), ((), ())),
        shape=(n, n),
    )
    grid._graphs[connectivity] = graph
    return graph


def shortest_distances(grid: GridMap, source: Cell, connectivity: int) -> np.ndarray:
    """Exact single-source shortest-path field in meters.

    Returns a (height, width) float array; unreachable cells (and
    obstacles) hold +inf.
    """
    if not grid.is_free(source):
        raise ValueError(f"source {source} is not a free cell")
    graph = _motion_graph(grid, connectivity)
    flat = source.y * grid.width + source.x
    dist = _sparse_dijkstra(graph, directed=False, indices=flat)
    return dist.reshape(grid.height, grid.width)


def travel_time(distance: float, speed: float) -> float:
    """Seconds to travel ``distance`` meters at ``speed`` m/s."""
    if not (distance >= 0 and math.isfinite(distance)):
        raise ValueError(f"distance must be finite and >= 0, got {distance}")
    if not speed > 0:
        raise ValueError(f"speed must be > 0, got {speed}")
    return distance / speed
