import math

import numpy as np
import pytest
from oracles import free_cells

from nbsmell.grid import CellState, parse_map, serialize_map
from nbsmell.mapgen import (
    corridor_map,
    empty_map,
    generate_map,
    rooms_map,
    shipped_map,
)
from nbsmell.planning import shortest_distances


def all_free_reachable(grid, connectivity=4):
    field = shortest_distances(grid, grid.start, connectivity)
    return all(math.isfinite(field[c.y, c.x]) for c in free_cells(grid))


class TestEmptyMap:
    def test_all_cells_free_with_central_start(self):
        grid = empty_map(5, 5)
        assert grid.free_count() == 25
        assert grid.start == (2, 2)
        body = serialize_map(grid).split("\n", 1)[1]
        assert body.count(".") == 24
        assert body.count("S") == 1

    def test_even_size_start_tie_break(self):
        grid = empty_map(4, 4)
        assert grid.start == (1, 1)  # nearest to center, smallest row then column

    @pytest.mark.parametrize("width,height", [(0, 5), (5, 0), (0, 0)])
    def test_no_free_cells_rejected(self, width, height):
        with pytest.raises(ValueError, match="map has no free cells"):
            empty_map(width, height)


class TestCorridorMap:
    def test_deterministic_given_seed(self):
        a = corridor_map(60, 10, seed=3)
        b = corridor_map(60, 10, seed=3)
        assert np.array_equal(a.states, b.states)
        assert serialize_map(a) == serialize_map(b)

    def test_seeds_differ(self):
        a = corridor_map(60, 10, seed=3)
        b = corridor_map(60, 10, seed=4)
        assert not np.array_equal(a.states, b.states)

    @pytest.mark.parametrize("seed", range(6))
    def test_connected_with_open_corridor(self, seed):
        grid = corridor_map(60, 10, seed=seed)
        cy = grid.height // 2 - 1
        assert all(grid.states[cy, x] != CellState.OBSTACLE for x in range(grid.width))
        assert all_free_reachable(grid)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            corridor_map(5, 5)

    def test_negative_seed_rejected_naming_it(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            corridor_map(60, 10, seed=-1)


class TestRoomsMap:
    def test_deterministic_given_seed(self):
        a = rooms_map(40, 40, seed=9)
        b = rooms_map(40, 40, seed=9)
        assert np.array_equal(a.states, b.states)

    @pytest.mark.parametrize("seed", range(6))
    def test_connected(self, seed):
        assert all_free_reachable(rooms_map(48, 48, seed=seed))

    def test_mostly_open(self):
        grid = rooms_map(80, 80, seed=7)
        assert grid.free_count() / (80 * 80) > 0.9

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            rooms_map(8, 8)

    def test_negative_seed_rejected_naming_it(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            rooms_map(40, 40, seed=-1)


class TestShippedMaps:
    def test_corridor_matches_generator_seed_7(self):
        shipped = shipped_map("corridor")
        generated = corridor_map(60, 10, seed=7)
        assert np.array_equal(shipped.states, generated.states)
        assert shipped.start == generated.start
        assert shipped.resolution == generated.resolution == 0.5

    def test_rooms_matches_generator_seed_7(self):
        shipped = shipped_map("rooms")
        generated = rooms_map(80, 80, seed=7)
        assert np.array_equal(shipped.states, generated.states)
        assert shipped.start == generated.start
        assert shipped.resolution == generated.resolution == 1.0

    def test_both_shipped_maps_connected(self):
        for name in ("corridor", "rooms"):
            assert all_free_reachable(shipped_map(name))

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            shipped_map("warehouse")


class TestGenerateMap:
    def test_random_kind_has_exact_obstacle_share(self):
        grid = generate_map("random", 90, 90, seed=5, obstacle_ratio=0.1)
        assert int(np.count_nonzero(grid.states == CellState.OBSTACLE)) == 810
        assert serialize_map(grid).count("#") == 810

    def test_random_kind_requires_square(self):
        with pytest.raises(ValueError):
            generate_map("random", 10, 20)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            generate_map("maze", 10, 10)

    @pytest.mark.parametrize("kind", ["empty", "corridor", "rooms", "random"])
    @pytest.mark.parametrize("resolution", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_resolution_rejected(self, kind, resolution):
        with pytest.raises(ValueError):
            generate_map(kind, 20, 20, resolution=resolution)

    @pytest.mark.parametrize("kind", ["empty", "corridor", "rooms", "random"])
    def test_explicit_resolution_applied(self, kind):
        assert generate_map(kind, 20, 20, resolution=0.25).resolution == 0.25

    @pytest.mark.parametrize("kind,size", [
        ("empty", (12, 9)),
        ("corridor", (60, 10)),
        ("rooms", (40, 40)),
        ("random", (15, 15)),
    ])
    def test_serialized_maps_reparse(self, kind, size):
        grid = generate_map(kind, *size, seed=2)
        again = parse_map(serialize_map(grid))
        assert np.array_equal(again.states, grid.states)
        assert again.start == grid.start
