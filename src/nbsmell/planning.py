"""Grid shortest paths.

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

from .grid import _NEIGHBORS, GridMap, _four_or_eight, _of_type, padded, shifted

__all__ = ["shortest_distances"]


# Upper bound on the bytes of the depth fields one layout stores (16 MiB).
_FIELD_BYTES = 1 << 24


# One graph: a map and its copies share a key, and the runs on one map follow
# each other.
@lru_cache(maxsize=1)
def _motion_graph(free: bytes, width: int, resolution: float, connectivity: int
                  ) -> tuple[csr_matrix, np.ndarray, np.ndarray, dict[int, np.ndarray]]:
    """Free-cell adjacency of the layout whose row-major free mask is ``free``, the
    parity of x + y at each flat index (a 4-connected step always flips it), the
    ``levels`` table and the store of depth fields.

    Both directions of every edge are stored, so the graph is searched directed.
    ValueError unless the longest path, (free cells - 1) * sqrt(2) * resolution,
    is finite, so that no distance overflows.  With F free cells, ``levels[d]``
    is d resolutions added one at a time from 0.0 for d < F, and ``levels[F]``
    is +inf.  The store maps a source's flat index to its 4-connected field as
    BFS depths of dtype ``np.min_scalar_type(F)`` (1 byte a cell up to 255 free
    cells, 2 up to 65,535), F at unreachable cells; it grows while its fields
    take at most ``_FIELD_BYTES``.  It is mutable state inside this cache, like
    the masks of ``sensing._layout``, and stays held until a call on another
    layout replaces the entry.
    """
    cells = np.frombuffer(free, dtype=bool)
    count = int(np.count_nonzero(cells))
    if not math.isfinite((count - 1) * math.sqrt(2) * resolution):
        raise ValueError(f"resolution {resolution!r} m gives a path over {count} free cells "
                         "no finite length")
    pad = padded(cells.reshape(-1, width))
    edges = []  # (sources, targets, weights) per neighbor offset
    for dx, dy in _NEIGHBORS[connectivity]:
        ok = shifted(pad, 0, 0) & shifted(pad, dx, dy)
        if dx and dy:
            # no squeezing between two obstacles that touch at a corner
            ok &= shifted(pad, dx, 0) | shifted(pad, 0, dy)
        src = np.flatnonzero(ok)
        weight = math.hypot(dx, dy) * resolution
        edges.append((src, src + dy * width + dx, np.full(src.size, weight)))
    rows, cols, data = map(np.concatenate, zip(*edges))
    parity = (np.add(*np.divmod(np.arange(len(free)), width)) & 1).astype(bool)
    # resolutions added one at a time, as Dijkstra adds them (d * res would differ
    # in the last bit at 0.1 m); the deepest level is F - 1, so every sum is finite
    levels = np.full(count + 1, resolution)
    levels[0] = 0.0
    levels[:count].cumsum(out=levels[:count])
    levels[count] = np.inf
    return (csr_matrix((data, (rows, cols)), shape=(len(free), len(free))), parity, levels,
            {})


def shortest_distances(grid: GridMap, source: tuple[int, int], connectivity: int) -> np.ndarray:
    """Exact single-source shortest-path field in meters.

    Returns a fresh (height, width) float array; unreachable cells (and
    obstacles) hold +inf.  The motion graph is built once per layout (free
    mask, width, resolution, connectivity), so every copy of a map shares it,
    and so do its 4-connected fields: each is kept as BFS depths in the
    layout's store (see :func:`_motion_graph`) and read back as
    ``levels[depth]``, whether just computed or stored by an earlier call.
    8-connected fields come from Dijkstra at every call.  ``connectivity`` must be the
    integer 4 or 8, checked before the cache lookup: the cache keys by value, and 4.0 == 4.
    """
    if not _of_type("grid", grid, GridMap).is_free(source):
        raise ValueError(f"source {source} is not a free cell")
    connectivity = _four_or_eight("connectivity", connectivity)
    graph, parity, levels, store = _motion_graph(grid.free_mask().tobytes(), grid.width,
                                                 grid.resolution, connectivity)
    s = source[1] * grid.width + source[0]
    if connectivity != 4:  # diagonal edges weigh sqrt(2) resolutions
        return _sparse_dijkstra(graph, indices=s).reshape(grid.height, grid.width)
    depth = store.get(s)
    if depth is None:
        # BFS order is level order, and a level is one step deeper exactly
        # where the parity of x + y flips
        order = breadth_first_order(graph, s, return_predecessors=False).astype(np.intp)
        odd = parity.take(order)
        count = levels.size - 1  # F, the free-cell count: the depth of unreachable cells
        depth = np.full(graph.shape[0], count, dtype=np.min_scalar_type(count))
        steps = np.zeros(order.size, dtype=depth.dtype)
        np.not_equal(odd[1:], odd[:-1], out=steps[1:])
        depth[order] = steps.cumsum(out=steps)
        if (len(store) + 1) * depth.nbytes <= _FIELD_BYTES:
            depth.flags.writeable = False
            store[s] = depth
    return levels.take(depth).reshape(grid.height, grid.width)
