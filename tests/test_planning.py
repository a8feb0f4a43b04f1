import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import dijkstra_oracle, free_cells
from scipy.sparse.csgraph import breadth_first_order, dijkstra

from nbsmell import engine, planning
from nbsmell.engine import run_coverage, uncoverable_cells
from nbsmell.grid import Cell, CellState, GridMap, generate_random_grid, parse_map
from nbsmell.mapgen import empty_map, generate_map, rooms_map, shipped_map
from nbsmell.mcdm import NAMED_CONFIGS
from nbsmell.planning import _motion_graph, shortest_distances
from nbsmell.sensing import SensorModel

SQRT2 = math.sqrt(2.0)

# start corners of a 2x2 map whose diagonal to the opposite corner runs
# down-right, down-left, up-right and up-left
DIAGONAL_STARTS = [(0, 0), (1, 0), (0, 1), (1, 1)]


def random_layout(width, height, seed, resolution=1.0, obstacle_ratio=0.25):
    """``width`` x ``height`` map with about ``obstacle_ratio`` obstacles and one cell kept free."""
    rng = np.random.default_rng(seed)
    states = np.where(rng.random((height, width)) < obstacle_ratio, CellState.OBSTACLE,
                      CellState.FREE_UNSCANNED).astype(np.uint8)
    states.flat[rng.integers(states.size)] = CellState.FREE_UNSCANNED
    return GridMap.from_states(states, resolution)


def assert_matches_oracle(grid, connectivity, label=None):
    field = shortest_distances(grid, grid.start, connectivity)
    oracle = dijkstra_oracle(grid, grid.start, connectivity)
    for cell in free_cells(grid):
        expected = oracle.get(cell, math.inf)
        assert field[cell.y, cell.x] == pytest.approx(expected, abs=1e-9), (label, cell)


def two_by_two(start, obstacles):
    rows = [["#" if (x, y) in obstacles else "." for x in range(2)] for y in range(2)]
    rows[start[1]][start[0]] = "S"
    return parse_map("resolution 1.0\n" + "\n".join("".join(row) for row in rows))


class TestShortestDistances:
    def test_source_distance_zero(self):
        grid = parse_map("resolution 1.0\nS..\n...\n...")
        field = shortest_distances(grid, Cell(0, 0), 4)
        assert field[0, 0] == 0.0

    @pytest.mark.parametrize("source", [Cell(1.5, 0), Cell(True, 0), Cell(0, 1.0)])
    def test_non_integer_source_rejected_naming_it(self, source):
        grid = parse_map("resolution 1.0\nS..\n...\n...")
        with pytest.raises(ValueError, match=re.escape(f"integers, got {source}")):
            shortest_distances(grid, source, 4)
        field = shortest_distances(grid, Cell(np.int64(1), np.int64(0)), 4)
        assert field[0, 1] == 0.0

    def test_plain_pair_source_matches_cell(self):
        grid = parse_map("resolution 1.0\nS.#\n...\n...")
        field = shortest_distances(grid, Cell(1, 2), 4)
        for source in ((1, 2), [1, 2], (np.int32(1), np.int64(2))):
            assert np.array_equal(shortest_distances(grid, source, 4), field)
        with pytest.raises(ValueError, match=re.escape("source (2, 0) is not a free cell")):
            shortest_distances(grid, (2, 0), 4)

    def test_manhattan_corner_to_corner(self):
        grid = parse_map("resolution 1.0\nS..\n...\n...")
        field = shortest_distances(grid, Cell(0, 0), 4)
        assert field[2, 2] == pytest.approx(4.0)

    def test_octile_corner_to_corner(self):
        grid = parse_map("resolution 1.0\nS..\n...\n...")
        field = shortest_distances(grid, Cell(0, 0), 8)
        assert field[2, 2] == pytest.approx(2 * SQRT2)

    def test_obstacles_unreachable_are_inf(self):
        grid = parse_map("resolution 1.0\nS#.\n.#.\n.#.")
        field = shortest_distances(grid, Cell(0, 0), 4)
        assert math.isinf(field[0, 2])
        assert math.isinf(field[0, 1])  # obstacle cell itself

    def test_resolution_scales_distances(self):
        grid = parse_map("resolution 0.5\nS....")
        field = shortest_distances(grid, Cell(0, 0), 4)
        assert field[0, 4] == pytest.approx(2.0)

    def test_corner_cutting_forbidden_between_two_obstacles(self):
        # diagonal between two touching obstacle corners must detour
        for sx, sy in DIAGONAL_STARTS:
            grid = two_by_two((sx, sy), [(1 - sx, sy), (sx, 1 - sy)])
            field = shortest_distances(grid, Cell(sx, sy), 8)
            assert math.isinf(field[1 - sy, 1 - sx]), (sx, sy)

    def test_diagonal_past_single_obstacle_allowed(self):
        for sx, sy in DIAGONAL_STARTS:
            grid = two_by_two((sx, sy), [(1 - sx, sy)])
            field = shortest_distances(grid, Cell(sx, sy), 8)
            assert field[1 - sy, 1 - sx] == pytest.approx(SQRT2), (sx, sy)

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_matches_dijkstra_oracle(self, connectivity):
        grids = [generate_random_grid(10, 0.25, seed) for seed in range(20)]
        # single cell, single row and single column
        grids += [empty_map(1, 1), empty_map(7, 1), empty_map(1, 7),
                  generate_map("random", 1, 1), rooms_map(16, 16)]
        # non-square layouts: the graph's column offsets depend on the width
        grids += [random_layout(w, h, seed) for seed in range(3) for w, h in ((12, 5), (5, 12))]
        for i, grid in enumerate(grids):
            assert_matches_oracle(grid, connectivity, i)

    def test_triangle_inequality(self):
        grid = generate_random_grid(9, 0.15, 3)
        free = free_cells(grid)
        fields = {c: shortest_distances(grid, c, 8) for c in free[:12]}
        for a in list(fields)[:6]:
            for b in list(fields)[:6]:
                for c in free[:12]:
                    dab = fields[a][b.y, b.x]
                    dbc = fields[b][c.y, c.x]
                    dac = fields[a][c.y, c.x]
                    if all(map(math.isfinite, (dab, dbc, dac))):
                        assert dac <= dab + dbc + 1e-9


class TestBreadthFirstField:
    """4-connected fields come from BFS levels, found where the parity of x + y flips
    along the BFS order; they must equal scipy's Dijkstra bit for bit, both when
    computed and when read back from the layout's store of depths."""

    @staticmethod
    def assert_same_bytes(grid, sources):
        _motion_graph.cache_clear()  # so that the first call at each source computes
        graph, _, _, store = _motion_graph(grid.free_mask().tobytes(), grid.width,
                                           grid.resolution, 4)
        for i in sources:
            expected = dijkstra(graph, indices=i).reshape(grid.height, grid.width)
            for stored in (False, True):
                assert (i in store) == stored, (grid.resolution, i)
                field = shortest_distances(grid, Cell(i % grid.width, i // grid.width), 4)
                assert field.dtype == expected.dtype and field.shape == expected.shape
                assert field.tobytes() == expected.tobytes(), (grid.resolution, i, stored)

    @pytest.mark.parametrize("resolution", [1.0, 0.5, 0.3, 0.1, 0.7, 0.013])
    def test_random_layouts_match_dijkstra(self, resolution):
        rng = np.random.default_rng(int(resolution * 1000))
        for seed, (w, h) in enumerate(((40, 25), (25, 40), (17, 9), (9, 17))):
            grid = random_layout(w, h, seed, resolution)
            free = np.flatnonzero(grid.free_mask().reshape(-1))
            self.assert_same_bytes(grid, rng.choice(free, min(25, free.size), replace=False))

    # 1- and 2-wide strips; odd and even widths and heights, where an even width
    # makes the parity of the flat index differ from the parity of x + y; up to
    # 0.6 obstacles, so that some sources sit in walled pockets
    @given(st.one_of(st.sampled_from([1, 2]), st.integers(1, 24)),
           st.one_of(st.sampled_from([1, 2]), st.integers(1, 24)),
           st.floats(0.0, 0.6), st.integers(0, 2**32 - 1),
           st.sampled_from([1.0, 0.5, 0.3, 0.1, 0.7, 0.013]))
    @example(24, 2, 0.0, 0, 0.1)
    @example(2, 24, 0.3, 1, 0.3)
    @settings(max_examples=100, deadline=None)
    def test_every_source_of_random_layouts(self, width, height, obstacle_ratio, seed,
                                            resolution):
        grid = random_layout(width, height, seed, resolution, obstacle_ratio)
        self.assert_same_bytes(grid, np.flatnonzero(grid.free_mask().reshape(-1)))

    def test_depth_times_resolution_is_not_the_field(self):
        # the field adds the resolution once per step, as Dijkstra does; a
        # product ``depth * 0.1`` differs in the last bit at some depths
        field = shortest_distances(empty_map(40, 1, 0.1), Cell(0, 0), 4)[0]
        assert (field != np.arange(40) * 0.1).any()
        assert field.tolist() == list(itertools.accumulate([0.0] + [0.1] * 39))

    @pytest.mark.parametrize("resolution", [1.0, 0.1])
    def test_every_source_on_small_maps(self, resolution):
        grids = [empty_map(1, 1, resolution), empty_map(9, 1, resolution),
                 empty_map(1, 9, resolution), random_layout(6, 4, 3, resolution),
                 random_layout(4, 6, 4, resolution), rooms_map(16, 16, resolution=resolution)]
        for grid in grids:
            self.assert_same_bytes(grid, np.flatnonzero(grid.free_mask().reshape(-1)))

    def test_walled_in_source_leaves_far_cells_unreachable(self):
        grid = parse_map("resolution 0.1\nS.#....\n..#....\n###....\n.......")
        field = shortest_distances(grid, Cell(0, 0), 4)
        assert field[1, 1] == 0.1 + 0.1
        assert np.isinf(field[:, 3:]).all() and np.isinf(field[3]).all()
        self.assert_same_bytes(grid, [0, 1, 7, 8, 3, 27])

    def test_writing_into_a_field_leaves_the_next_one_unchanged(self):
        grid = random_layout(12, 5, 2, 0.1)
        _motion_graph.cache_clear()
        expected = shortest_distances(grid, grid.start, 4).tobytes()
        for _ in range(2):  # into the field as computed, then as read from the store
            shortest_distances(grid, grid.start, 4)[...] = -1.0
            assert shortest_distances(grid, grid.start, 4).tobytes() == expected

    def test_store_stops_at_its_byte_cap(self, monkeypatch):
        # 60 cells and fewer than 256 free ones: one byte a cell, so the cap holds two fields
        grid = random_layout(12, 5, 2, 0.1)
        monkeypatch.setattr(planning, "_FIELD_BYTES", 2 * grid.width * grid.height)
        sources = np.flatnonzero(grid.free_mask().reshape(-1))[:3].tolist()
        _motion_graph.cache_clear()
        graph, _, levels, store = _motion_graph(grid.free_mask().tobytes(), grid.width,
                                                grid.resolution, 4)
        assert levels.size == np.count_nonzero(grid.free_mask()) + 1 and levels[-1] == np.inf
        for i in sources:
            field = shortest_distances(grid, Cell(i % grid.width, i // grid.width), 4)
            expected = dijkstra(graph, indices=i).reshape(grid.height, grid.width)
            assert field.tobytes() == expected.tobytes(), i
        assert sorted(store) == sources[:2]  # the third is computed, not stored
        assert all(d.dtype == np.uint8 and not d.flags.writeable for d in store.values())

    def test_only_eight_connected_fields_run_dijkstra(self, monkeypatch):
        calls = []
        monkeypatch.setattr(planning, "_sparse_dijkstra",
                            lambda *a, **k: calls.append("dijkstra") or dijkstra(*a, **k))
        # scipy's BFS builds a predecessor array unless told not to; the field needs none
        monkeypatch.setattr(planning, "breadth_first_order", lambda *a, **k: calls.append(
            ("bfs", k.get("return_predecessors", True))) or breadth_first_order(*a, **k))
        grid = random_layout(12, 5, 2)
        shortest_distances(grid, grid.start, 8)
        shortest_distances(grid, grid.start, 4)
        assert calls == ["dijkstra", ("bfs", False)]
        for connectivity in (0, 3, 6):
            with pytest.raises(ValueError, match=f"must be 4 or 8, got {connectivity}"):
                shortest_distances(grid, grid.start, connectivity)
        assert calls == ["dijkstra", ("bfs", False)]


class TestDistanceBound:
    """A path crosses each free cell at most once, in steps of at most sqrt(2) resolutions:
    a layout whose longest path has no finite length is refused, naming the resolution."""

    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("call", [
        lambda grid, c: shortest_distances(grid, grid.start, c),
        lambda grid, c: uncoverable_cells(grid, SensorModel(r_max=10.0), 4, c),
    ], ids=["shortest_distances", "uncoverable_cells"])
    def test_resolution_whose_paths_overflow_refused(self, call, connectivity):
        # 4-connected fields added 1e308 + 1e308 (an overflow warning); 8-connected
        # ones read reachable cells as unreachable
        grid = parse_map("resolution 1e308\nS..\n...")
        message = "resolution 1e+308 m gives a path over 6 free cells no finite length"
        with pytest.raises(ValueError, match=re.escape(message)):
            call(grid, connectivity)

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_largest_finite_bound_gives_finite_distances(self, connectivity):
        # 5 * sqrt(2) * 2.5e307 is finite: every free cell of the 3x2 map is reached
        grid = parse_map("resolution 2.5e307\nS..\n...")
        field = shortest_distances(grid, grid.start, connectivity)
        assert np.isfinite(field).all()
        assert field[1, 2] == (3 if connectivity == 4 else 1 + SQRT2) * 2.5e307


class TestMotionGraphCache:
    def test_map_and_copy_share_one_graph(self):
        grid = random_layout(12, 5, 1)
        _motion_graph.cache_clear()
        shortest_distances(grid, grid.start, 4)
        assert _motion_graph.cache_info().misses == 1
        shortest_distances(grid.copy(), grid.start, 4)
        info = _motion_graph.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    @pytest.mark.parametrize("pair", [
        # all free: the free-mask bytes of 2x3 and 3x2 are identical
        [(empty_map(2, 3), 8), (empty_map(3, 2), 8)],
        [(random_layout(12, 5, 4, 0.5), 4), (random_layout(12, 5, 4, 1.0), 4)],
        [(random_layout(5, 12, 4), 4), (random_layout(5, 12, 4), 8)],
        # the same source cell: a store keyed by source alone would serve the first field
        [(parse_map("resolution 1.0\nS...\n.##.\n...."), 4),
         (parse_map("resolution 1.0\nS...\n....\n.##."), 4)],
    ], ids=["width", "resolution", "connectivity", "same source"])
    def test_back_to_back_layouts_match_the_oracle(self, pair):
        # the cache holds one graph; a key that misses a field would serve the
        # first map's graph to the second
        _motion_graph.cache_clear()
        for grid, connectivity in pair:
            assert_matches_oracle(grid, connectivity)
        assert _motion_graph.cache_info().misses == 2

    def test_sweep_runs_share_their_fields(self, monkeypatch):
        # the 13 configurations on the corridor (r 10 m, 8 headings, 4-connected) ask for
        # 704 fields from 241 distinct robot cells; only the first field at a cell is searched
        searched, asked = [], []
        monkeypatch.setattr(planning, "breadth_first_order",
                            lambda *a, **k: searched.append(a[1]) or breadth_first_order(*a, **k))
        monkeypatch.setattr(engine, "shortest_distances",
                            lambda *a: asked.append(a[1]) or shortest_distances(*a))
        corridor = shipped_map("corridor")
        _motion_graph.cache_clear()
        for name in NAMED_CONFIGS:
            run_coverage(corridor.copy(), name, SensorModel(r_max=10.0), orientations=8,
                         connectivity=4)
        assert (len(asked), len(searched), len(set(asked))) == (704, 241, 241)


class TestConnectivityCheck:
    @pytest.mark.parametrize("integer,value", [(4, 4.0), (8, 8.0), (4, True), (8, np.float64(8))],
                             ids=["4.0", "8.0", "True", "float64-8.0"])
    def test_non_integer_connectivity_rejected_after_an_integer_call(self, integer, value):
        # the motion graph is cached by value and 4.0 == 4: once an integer call has
        # cached the layout, a float must still be refused, not served that graph
        grid, sensor = generate_random_grid(6, 0.1, 3), SensorModel(r_max=3.0)
        message = re.escape(f"connectivity must be 4 or 8, got {value!r}")
        shortest_distances(grid, grid.start, integer)
        with pytest.raises(ValueError, match=message):
            shortest_distances(grid, grid.start, value)
        uncoverable_cells(grid, sensor, 4, integer)
        with pytest.raises(ValueError, match=message):
            uncoverable_cells(grid, sensor, 4, value)

    def test_numpy_integer_connectivity_gives_the_python_integer_field(self):
        grid = generate_random_grid(6, 0.1, 3)
        for connectivity in (4, 8):
            field = shortest_distances(grid, grid.start, connectivity)
            same = shortest_distances(grid, grid.start, np.int64(connectivity))
            assert field.tobytes() == same.tobytes()
