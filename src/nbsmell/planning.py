"""Grid shortest paths and travel-time conversion.

Motion is 4- or 8-connected over free cells. Axial steps cost one cell
resolution, diagonal steps cost sqrt(2) times that. A diagonal step that
would squeeze between two obstacle cells touching at a corner is forbidden.
Both distance fields are exact: 4-connected ones come from breadth-first
levels (every edge weighs one resolution), 8-connected ones from Dijkstra.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, dijkstra as _sparse_dijkstra

from .grid import GridMap, _checked, _of_type, neighbor_offsets, padded, shifted

__all__ = ["shortest_distances", "travel_time"]


# One graph: a map and its copies share a key, and the runs on one map follow
# each other.
@lru_cache(maxsize=1)
def _motion_graph(free: bytes, width: int, resolution: float,
                  connectivity: int) -> tuple[csr_matrix, np.ndarray]:
    """Free-cell adjacency of the layout whose row-major free mask is ``free``, and the
    parity of x + y at each flat index (a 4-connected step always flips it).

    Both directions of every edge are stored, so the graph is searched directed.
    ValueError unless the longest path, (free cells - 1) * sqrt(2) * resolution,
    is finite, so that no distance overflows.
    """
    cells = np.frombuffer(free, dtype=bool)
    count = int(np.count_nonzero(cells))
    if not math.isfinite((count - 1) * math.sqrt(2) * resolution):
        raise ValueError(f"resolution {resolution!r} m gives a path over {count} free cells "
                         "no finite length")
    pad = padded(cells.reshape(-1, width))
    edges = []  # (sources, targets, weights) per neighbor offset
    for dx, dy in neighbor_offsets(connectivity):
        ok = shifted(pad, 0, 0) & shifted(pad, dx, dy)
        if dx and dy:
            # no squeezing between two obstacles that touch at a corner
            ok &= shifted(pad, dx, 0) | shifted(pad, 0, dy)
        src = np.flatnonzero(ok)
        weight = math.hypot(dx, dy) * resolution
        edges.append((src, src + dy * width + dx, np.full(src.size, weight)))
    rows, cols, data = map(np.concatenate, zip(*edges))
    parity = (np.add(*np.divmod(np.arange(len(free)), width)) & 1).astype(bool)
    return csr_matrix((data, (rows, cols)), shape=(len(free), len(free))), parity


def shortest_distances(grid: GridMap, source: tuple[int, int], connectivity: int) -> np.ndarray:
    """Exact single-source shortest-path field in meters.

    Returns a (height, width) float array; unreachable cells (and
    obstacles) hold +inf.  The motion graph is built once per layout (free
    mask, width, resolution, connectivity), so every copy of a map shares it.
    """
    if not _of_type("grid", grid, GridMap).is_free(source):
        raise ValueError(f"source {source} is not a free cell")
    graph, parity = _motion_graph(grid.free_mask().tobytes(), grid.width, grid.resolution,
                                  connectivity)
    s = source[1] * grid.width + source[0]
    if connectivity != 4:  # diagonal edges weigh sqrt(2) resolutions
        return _sparse_dijkstra(graph, indices=s).reshape(grid.height, grid.width)
    # BFS order is level order, and a level is one step deeper exactly where the
    # parity of x + y flips. A cell at depth d is d resolutions away, added one at
    # a time as Dijkstra adds them (d * res differs in the last bit at 0.1 m).
    order = breadth_first_order(graph, s, return_predecessors=False).astype(np.intp)
    odd = parity.take(order)
    depth = np.zeros(order.size)  # res at each depth's first position, 0.0 elsewhere
    np.multiply(odd[1:] != odd[:-1], grid.resolution, out=depth[1:])
    dist = np.full(graph.shape[0], np.inf)
    dist[order] = depth.cumsum(out=depth)  # adding 0.0 keeps each running sum exact
    return dist.reshape(grid.height, grid.width)


def travel_time(distance: float, speed: float) -> float:
    """Seconds to travel ``distance`` meters at ``speed`` m/s; ValueError (``grid._checked``)
    unless the distance is a finite number >= 0 and the speed a finite number > 0."""
    distance = _checked("distance", distance, "finite and >= 0", lambda d: 0 <= d < math.inf)
    return distance / _checked("speed", speed, "finite and > 0", lambda s: 0 < s < math.inf)
