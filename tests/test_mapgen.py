import hashlib
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


class TestGeneratorBytes:
    # sha256 of serialize_map: the smallest sizes, odd sizes, and both sides
    # of the rooms count change (2 rooms per side up to 70 cells, 3 at 71)
    DIGESTS = [
        (corridor_map, 8, 7, 0,
         "dff0030f579e1c1fa8f6667cc6618e5d49a5d38129c5836a4af925b8c3026e83"),
        (corridor_map, 8, 7, 1,
         "1f26365b506cc8d8b2f85ff94bb584f1843079328470ea3397bb2fdec92bada2"),
        (corridor_map, 9, 8, 2,
         "05912ee5b7f2ef33ee7309a020af9191725b9b9e89bf6d856b9b08a71ae9f9f0"),
        (corridor_map, 23, 11, 3,
         "f5f36055dd2261048d33d83d8eef2eea7f8ce262039d71cc147220bbc98ef157"),
        (corridor_map, 61, 13, 5,
         "df1fd74bd1a44fe59a28f01939be3a063f8fa0381ae9b9b30f6990a9bc0e7e82"),
        (corridor_map, 128, 40, 2,
         "ecf6b092fd7bd77fa180523ff5a4f874f1cb663cd112903b9ef6f17a53994838"),
        (rooms_map, 16, 16, 0,
         "f7ef29f9c08915945a1df2909df5f3f8764d49638ee5365c2aa400719dba29f7"),
        (rooms_map, 16, 16, 1,
         "9a91278e3e0ad82bffae8cca7312bd0fcd55541337e42707fae7040b43aa3f60"),
        (rooms_map, 17, 19, 2,
         "800ab743fb6a0388160bdaa1baa317c5ac6a09e874a186b173b5da77f7b48ccf"),
        (rooms_map, 70, 70, 3,
         "a9f37be24f02e81909a00ba0c20f404f11e8d9a33a4432dd0eff34fb0d47380a"),
        (rooms_map, 71, 71, 3,
         "4782ee0141bc46118d6e2ad28dee20517fddf2e6582d2f1abf7985f054b0a1ce"),
        (rooms_map, 70, 71, 4,
         "b2942132c31ed3bf46205c92c7587dba5c890f6ef86df2d8c297a42ea6de76f3"),
        (rooms_map, 43, 99, 5,
         "ed5cfcb3dc9405ee50bbfde7f38fd0c0bf32a2e8fa194e20d0a2cc56ac406960"),
        (rooms_map, 126, 31, 6,
         "b1b39ac7bcce48ae7fb029ba52492514e17b8dff7187684442fc24498ea45dfb"),
    ]

    def test_serialized_maps_match_pinned_digests(self):
        digests = [(make, w, h, seed, hashlib.sha256(
            serialize_map(make(w, h, seed)).encode()).hexdigest())
            for make, w, h, seed, _ in self.DIGESTS]
        assert digests == self.DIGESTS


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
