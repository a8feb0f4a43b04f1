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

from .grid import Cell, GridMap, neighbor_offsets, padded, shifted

__all__ = ["shortest_distances", "travel_time"]


def _motion_graph(grid: GridMap, connectivity: int) -> csr_matrix:
    """Sparse free-cell adjacency; cached on the map (obstacles are static)."""
    cached = grid._graphs.get(connectivity)
    if cached is not None:
        return cached
    free = padded(grid.free_mask())
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    data: list[np.ndarray] = []
    for dx, dy in neighbor_offsets(connectivity):
        if (dy, dx) < (0, 0):
            continue  # one direction per edge; the graph is used undirected
        ok = shifted(free, 0, 0) & shifted(free, dx, dy)
        if dx and dy:
            # no squeezing between two obstacles that touch at a corner
            ok &= shifted(free, dx, 0) | shifted(free, 0, dy)
        src = np.flatnonzero(ok)
        rows.append(src)
        cols.append(src + dy * grid.width + dx)
        data.append(np.full(src.shape, math.hypot(dx, dy) * grid.resolution))

    n = grid.height * grid.width
    graph = csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
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
