import math

import pytest
from oracles import dijkstra_oracle

from nbsmell.grid import Cell, generate_random_grid, parse_map
from nbsmell.planning import shortest_distances, travel_time

SQRT2 = math.sqrt(2.0)


class TestShortestDistances:
    def test_source_distance_zero(self):
        grid = parse_map("resolution 1.0\nS..\n...\n...")
        field = shortest_distances(grid, Cell(0, 0), 4)
        assert field[0, 0] == 0.0

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
        grid = parse_map("resolution 1.0\nS#\n#.")
        field = shortest_distances(grid, Cell(0, 0), 8)
        assert math.isinf(field[1, 1])

    def test_diagonal_past_single_obstacle_allowed(self):
        grid = parse_map("resolution 1.0\nS#\n..")
        field = shortest_distances(grid, Cell(0, 0), 8)
        assert field[1, 1] == pytest.approx(SQRT2)

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_matches_dijkstra_oracle(self, connectivity):
        for seed in range(20):
            grid = generate_random_grid(10, 0.25, seed)
            field = shortest_distances(grid, grid.start, connectivity)
            oracle = dijkstra_oracle(grid, grid.start, connectivity)
            for cell in grid.free_cells():
                expected = oracle.get(cell, math.inf)
                assert field[cell.y, cell.x] == pytest.approx(expected, abs=1e-9), (
                    seed, cell)

    def test_triangle_inequality(self):
        grid = generate_random_grid(9, 0.15, 3)
        free = grid.free_cells()
        fields = {c: shortest_distances(grid, c, 8) for c in free[:12]}
        for a in list(fields)[:6]:
            for b in list(fields)[:6]:
                for c in free[:12]:
                    dab = fields[a][b.y, b.x]
                    dbc = fields[b][c.y, c.x]
                    dac = fields[a][c.y, c.x]
                    if all(map(math.isfinite, (dab, dbc, dac))):
                        assert dac <= dab + dbc + 1e-9


class TestTravelTime:
    def test_zero_distance(self):
        assert travel_time(0.0, 2.0) == 0.0

    def test_ten_meters_at_unit_speed(self):
        assert travel_time(10.0, 1.0) == 10.0

    def test_default_speed_convention(self):
        assert travel_time(5.0, 1.0) == 5.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            travel_time(-1.0, 1.0)
        with pytest.raises(ValueError):
            travel_time(math.inf, 1.0)
        with pytest.raises(ValueError):
            travel_time(1.0, 0.0)
