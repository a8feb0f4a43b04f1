import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import sampled_line_of_sight, sampled_sweeps

from nbsmell.grid import (
    Cell,
    CellState,
    GridMap,
    Pose,
    cells_at,
    generate_random_grid,
    heading_set,
    mark_scanned,
    parse_map,
)
from nbsmell.sensing import (
    FosEvaluator,
    SensorModel,
    _in_range,
    _RayDisk,
    _ray_disk,
    compute_fos,
    line_of_sight,
    sensing_time,
    traverse_segment,
    visible_cells,
)

DEFAULT = SensorModel(r_max=10.0)


class TestSensorModel:
    def test_defaults_give_published_scan_times(self):
        assert sensing_time(45.0, DEFAULT) == 21.0
        assert sensing_time(90.0, DEFAULT) == 36.0

    def test_zero_angle_means_no_scan(self):
        assert sensing_time(0.0, DEFAULT) == 0.0

    def test_out_of_range_phi_rejected(self):
        with pytest.raises(ValueError):
            sensing_time(-1.0, DEFAULT)
        with pytest.raises(ValueError):
            sensing_time(181.0, DEFAULT)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SensorModel(r_max=0.0)
        with pytest.raises(ValueError):
            SensorModel(r_max=5.0, phi_max=200.0)
        with pytest.raises(ValueError):
            SensorModel(r_max=5.0, setup_time=-1.0)
        with pytest.raises(ValueError):
            SensorModel(r_max=5.0, sweep_rate=0.0)
        for bad in ({"r_max": math.inf}, {"r_max": math.nan},
                    {"setup_time": math.inf}, {"setup_time": math.nan},
                    {"sweep_rate": math.inf}, {"sweep_rate": math.nan}):
            with pytest.raises(ValueError):
                SensorModel(**{"r_max": 5.0, **bad})


class TestTraverseSegment:
    def test_zero_length(self):
        assert traverse_segment(2, 3, 2, 3) == [(2, 3)]

    def test_axial(self):
        assert traverse_segment(0, 0, 3, 0) == [(0, 0), (1, 0), (2, 0), (3, 0)]

    def test_pure_diagonal_steps_through_corners(self):
        # exact corner crossings step diagonally; the side cells stay untouched
        assert traverse_segment(0, 0, 2, 2) == [(0, 0), (1, 1), (2, 2)]

    def test_knight_offset(self):
        assert traverse_segment(0, 0, 2, 1) == [(0, 0), (1, 0), (1, 1), (2, 1)]

    def test_direction_symmetry(self):
        fwd = traverse_segment(1, 2, 7, 5)
        back = traverse_segment(7, 5, 1, 2)
        assert set(fwd) == set(back)


class TestLineOfSight:
    def test_same_cell(self):
        grid = parse_map("resolution 1.0\nS.")
        assert line_of_sight(grid, Cell(0, 0), Cell(0, 0))

    def test_blocked_strip(self):
        grid = parse_map("resolution 1.0\nS#.")
        assert not line_of_sight(grid, Cell(0, 0), Cell(2, 0))

    def test_empty_grid_all_pairs_visible(self):
        grid = parse_map("resolution 1.0\n" + "\n".join(
            ("S" + "." * 4 if y == 0 else "." * 5) for y in range(5)
        ))
        cells = grid.free_cells()
        for a in cells:
            for b in cells:
                assert line_of_sight(grid, a, b)

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_symmetry_on_random_grids(self, seed):
        grid = generate_random_grid(8, 0.3, seed)
        rng = np.random.default_rng(seed)
        free = grid.free_cells()
        for _ in range(10):
            a = free[int(rng.integers(len(free)))]
            b = free[int(rng.integers(len(free)))]
            assert line_of_sight(grid, a, b) == line_of_sight(grid, b, a)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_matches_sampling_oracle(self, seed):
        grid = generate_random_grid(7, 0.25, seed)
        free = grid.free_cells()
        rng = np.random.default_rng(seed)
        for _ in range(15):
            a = free[int(rng.integers(len(free)))]
            b = free[int(rng.integers(len(free)))]
            assert line_of_sight(grid, a, b) == sampled_line_of_sight(grid, a, b)


class TestComputeFos:
    def test_single_cell_map_covers_own_cell(self):
        grid = parse_map("resolution 1.0\nS")
        scan = compute_fos(grid, Pose(Cell(0, 0), 0.0), DEFAULT)
        assert scan.smellable_all == {Cell(0, 0)}
        assert scan.smellable_new == {Cell(0, 0)}
        assert scan.info_gain == 1
        assert scan.phi_used == 0.0
        # a zero-angle scan that still covers a new cell costs the setup time
        assert scan.sensing_time == DEFAULT.setup_time

    def test_rescanning_own_cell_costs_nothing(self):
        grid = parse_map("resolution 1.0\nS")
        mark_scanned(grid, [Cell(0, 0)])
        scan = compute_fos(grid, Pose(Cell(0, 0), 0.0), DEFAULT)
        assert scan.info_gain == 0
        assert scan.sensing_time == 0.0
        assert scan.smellable_all == {Cell(0, 0)}
        assert scan.smellable_new == set()

    def test_eastward_strip_sweep_is_degenerate(self):
        grid = parse_map("resolution 1.0\nS....")
        scan = compute_fos(grid, Pose(Cell(0, 0), 0.0), DEFAULT)
        assert scan.smellable_all == {Cell(x, 0) for x in range(5)}
        assert scan.phi_used == 0.0  # all rays share one bearing
        assert scan.sensing_time == DEFAULT.setup_time

    def test_window_excludes_cells_behind(self):
        grid = parse_map("resolution 1.0\n.S...")
        scan = compute_fos(grid, Pose(Cell(1, 0), 0.0), DEFAULT)
        assert Cell(0, 0) not in scan.smellable_all
        assert scan.smellable_all == {Cell(x, 0) for x in range(1, 5)}

    def test_sweep_trimmed_to_unscanned_span(self):
        # scanned cells outside the first/last unscanned ray are not re-swept,
        # and cells between those rays are covered even when already scanned
        grid = parse_map("resolution 1.0\n...\n.S.\n...")
        mark_scanned(grid, [Cell(1, 1), Cell(2, 1)])  # own cell + due east
        scan = compute_fos(grid, Pose(Cell(1, 1), 0.0), SensorModel(r_max=1.0))
        # unscanned rays at bearings -90 (north) and +90 (south) span 180 deg
        assert scan.phi_used == pytest.approx(180.0)
        assert scan.smellable_all == {Cell(1, 0), Cell(1, 1), Cell(1, 2), Cell(2, 1)}
        assert scan.smellable_new == {Cell(1, 0), Cell(1, 2)}
        assert scan.info_gain == 2

    def test_range_limit_is_metric(self):
        grid = parse_map("resolution 0.5\nS....")
        scan = compute_fos(grid, Pose(Cell(0, 0), 0.0), SensorModel(r_max=1.0))
        # 1 m at 0.5 m cells reaches two cells out
        assert scan.smellable_all == {Cell(0, 0), Cell(1, 0), Cell(2, 0)}

    def test_occlusion_blocks_cells_behind_obstacle(self):
        grid = parse_map("resolution 1.0\nS#...")
        scan = compute_fos(grid, Pose(Cell(0, 0), 0.0), DEFAULT)
        assert scan.smellable_all == {Cell(0, 0)}

    def test_invariants_on_random_maps(self):
        sensor = SensorModel(r_max=4.0, phi_max=120.0)
        for seed in range(25):
            grid = generate_random_grid(9, 0.2, seed)
            free = grid.free_cells()
            rng = np.random.default_rng(seed)
            mark_scanned(grid, [free[i] for i in rng.choice(len(free), 5)])
            cell = free[int(rng.integers(len(free)))]
            theta = float(rng.choice([0, np.pi / 2, np.pi, 3 * np.pi / 2]))
            scan = compute_fos(grid, Pose(cell, theta), sensor)
            assert scan.smellable_new <= scan.smellable_all
            assert 0.0 <= scan.phi_used <= sensor.phi_max
            assert scan.info_gain == len(scan.smellable_new)
            half = math.radians(sensor.phi_max) / 2
            for c in scan.smellable_all:
                if c == cell:
                    continue
                dist = math.hypot(c.x - cell.x, c.y - cell.y) * grid.resolution
                assert dist <= sensor.r_max
                bearing = math.atan2(c.y - cell.y, c.x - cell.x)
                rel = math.atan2(math.sin(bearing - theta), math.cos(bearing - theta))
                assert abs(rel) <= half + 1e-12
                assert line_of_sight(grid, cell, c)

    def test_ninety_degree_sweep_costs_36_seconds(self):
        # unscanned cells on the exact diagonals force a 90-degree sweep
        grid = parse_map("resolution 1.0\n...\n.S.\n...")
        mark_scanned(grid, [c for c in grid.free_cells()
                            if c not in (Cell(2, 0), Cell(2, 2))])
        scan = compute_fos(grid, Pose(Cell(1, 1), 0.0), DEFAULT)
        assert scan.phi_used == 90.0
        assert scan.sensing_time == 36.0

    def test_adding_obstacle_never_enlarges_visibility(self):
        for seed in range(15):
            grid = generate_random_grid(8, 0.15, seed)
            rng = np.random.default_rng(seed + 77)
            free = grid.free_cells()
            origin = grid.start
            before = visible_cells(grid, origin, 6.0)
            victim = free[int(rng.integers(len(free)))]
            if victim == origin:
                continue
            grid.states[victim.y, victim.x] = CellState.OBSTACLE
            after = visible_cells(grid, origin, 6.0)
            assert after <= before
            assert victim not in after


class TestScoreCache:
    def test_scan_invalidates_only_cells_that_see_it(self):
        grid = parse_map("resolution 1.0\nS#...")
        headings = heading_set(4)
        evaluator = FosEvaluator(grid, DEFAULT, headings)
        occluded, scanned, seer = 0, 2, 4  # flat indices on a one-row map
        cells = [occluded, scanned, seer]
        evaluator.scores(cells)

        mark_scanned(grid, [Cell(scanned, 0)])
        evaluator.mark_scanned([scanned])
        recomputed = []
        evaluate = evaluator.evaluate_cell
        evaluator.evaluate_cell = lambda cell: recomputed.append(cell) or evaluate(cell)
        gain, time = evaluator.scores(cells)

        # the wall hides the scanned cell from `occluded`, so its entry stays;
        # the scanned cell itself and the cell that sees it are recomputed
        assert recomputed == [scanned, seer]
        cold_gain, cold_time = FosEvaluator(grid, DEFAULT, headings).scores(cells)
        assert np.array_equal(gain, cold_gain)
        assert np.array_equal(time, cold_time)

    def test_scan_state_is_read_from_the_grid(self):
        # a scan made only through the grid, without telling the evaluator;
        # the warm evaluator swept cell 0 before it, so the scanned cell is
        # still in cell 0's live list
        grid = parse_map("resolution 1.0\nS....")
        warm = FosEvaluator(grid, DEFAULT, heading_set(4))
        assert warm.evaluate_cell(0)[0].info_gain == 5
        evaluator = FosEvaluator(grid, DEFAULT, heading_set(4))
        scanned = Cell(2, 0)
        mark_scanned(grid, [scanned])
        for sweeper in (evaluator, warm):
            score, new = sweeper.sweep(0, 0)
            assert scanned not in cells_at(grid, new)
            assert score.info_gain == 4

    @given(
        width=st.integers(1, 14),
        height=st.integers(1, 14),
        obstacle_ratio=st.floats(0.0, 0.4),
        seed=st.integers(0, 10**6),
        resolution=st.sampled_from([0.5, 1.0]),
        r_max=st.sampled_from([0.9, 2.0, 3.5, 6.0, 40.0]),  # 40 m reaches past every map
        orientations=st.sampled_from([4, 8]),
    )
    @example(width=1, height=14, obstacle_ratio=0.1, seed=3, resolution=1.0, r_max=40.0,
             orientations=4)
    @example(width=14, height=1, obstacle_ratio=0.1, seed=3, resolution=1.0, r_max=3.5,
             orientations=4)
    @example(width=13, height=4, obstacle_ratio=0.2, seed=5, resolution=1.0, r_max=40.0,
             orientations=8)
    @settings(max_examples=50, deadline=None)
    def test_warm_cache_matches_a_cold_evaluator_across_scans(
            self, width, height, obstacle_ratio, seed, resolution, r_max, orientations):
        rng = np.random.default_rng(seed)
        obstacle = rng.random((height, width)) < obstacle_ratio
        obstacle.flat[rng.integers(obstacle.size)] = False  # keep one free cell
        states = np.where(obstacle, CellState.OBSTACLE, CellState.FREE_UNSCANNED)
        grid = GridMap.from_states(states.astype(np.uint8), resolution)
        sensor, headings = SensorModel(r_max=r_max, phi_max=120.0), heading_set(orientations)
        warm = FosEvaluator(grid, sensor, headings)
        free = np.flatnonzero(~obstacle)
        cell = dict(zip(free.tolist(), cells_at(grid, free)))
        reach2 = Fraction(r_max) ** 2 / Fraction(resolution) ** 2

        def sees(a, b):
            da, db = cell[a], cell[b]
            d2 = (da.x - db.x) ** 2 + (da.y - db.y) ** 2
            return d2 <= reach2 and line_of_sight(grid, da, db)

        warm.scores(free)
        for _ in range(8):
            unscanned = free[grid.states.reshape(-1)[free] == CellState.FREE_UNSCANNED]
            if not unscanned.size:
                break
            for i in rng.choice(free, min(3, free.size), replace=False).tolist():
                warm.sweep(i, int(rng.integers(orientations)))  # sweeps refresh live lists too
            scan = rng.choice(unscanned, int(rng.integers(1, min(6, unscanned.size) + 1)),
                              replace=False)
            mark_scanned(grid, scan)
            warm.mark_scanned(scan)

            # every free cell was cached, so the cells evaluated again are the stale ones
            recomputed = []
            evaluate = warm.evaluate_cell
            warm.evaluate_cell = lambda i: recomputed.append(i) or evaluate(i)
            gain, time = warm.scores(free)
            del warm.evaluate_cell
            new = set(scan.tolist())
            assert set(recomputed) == {
                c for c in cell if c in new or any(sees(c, n) for n in new)
            }

            cold = FosEvaluator(grid, sensor, headings)
            cold_gain, cold_time = cold.scores(free)
            assert np.array_equal(gain, cold_gain) and np.array_equal(time, cold_time)
            for i in free.tolist():
                h = int(rng.integers(orientations))
                score, covered = warm.sweep(i, h)
                cold_score, cold_covered = cold.sweep(i, h)
                assert score == cold_score and np.array_equal(covered, cold_covered)

    @staticmethod
    def entry_points(evaluator):
        return (evaluator.visible, evaluator.evaluate_cell,
                lambda i: evaluator.sweep(i, 0), lambda i: evaluator.scores([0, i]))

    def test_off_map_cell_rejected_before_any_cache_lookup(self):
        # on a 4x2 map numpy would read index -1 as 7 and index 8 as off the
        # end; the last cell's entries are cached, so a wrapped -1 would hit them
        grid = parse_map("resolution 1.0\nS...\n....")
        evaluator = FosEvaluator(grid, DEFAULT, heading_set(4))
        evaluator.evaluate_cell(7)
        for off_map in (-1, 8):
            for call in self.entry_points(evaluator):
                with pytest.raises(ValueError, match=f"flat index {off_map} is off the 4x2 map"):
                    call(off_map)
        with pytest.raises(ValueError, match=r"Cell\(x=-1, y=1\) is off the map"):
            visible_cells(grid, Cell(-1, 1), 5.0)
        with pytest.raises(ValueError, match=r"Cell\(x=-1, y=1\) is not a free cell"):
            compute_fos(grid, Pose(Cell(-1, 1), 0.0), DEFAULT)

    def test_off_map_cell_rejected_on_a_fresh_evaluator(self):
        grid = parse_map("resolution 1.0\nS...\n....")
        for off_map in (-1, 8):
            for call in self.entry_points(FosEvaluator(grid, DEFAULT, heading_set(4))):
                with pytest.raises(ValueError, match=f"flat index {off_map} is off the 4x2 map"):
                    call(off_map)
        with pytest.raises(ValueError, match=r"Cell\(x=4, y=0\) is off the map"):
            visible_cells(grid, Cell(4, 0), 5.0)

    def test_one_ray_disk_stays_cached(self):
        # a disk can take K * ceil(K/8) bytes; only the last map extent's is kept
        for size in (5, 9):
            FosEvaluator(generate_random_grid(size, 0.1, 1), DEFAULT, heading_set(4))
        assert _ray_disk.cache_info().currsize == 1


class TestShortRange:
    def test_range_below_resolution_covers_only_own_cell(self):
        grid = parse_map("resolution 1.0\nS....")
        scan = compute_fos(grid, Pose(Cell(0, 0), 0.0), SensorModel(r_max=0.5))
        assert scan.smellable_all == {Cell(0, 0)}
        assert scan.info_gain == 1
        assert scan.phi_used == 0.0

    def test_range_exactly_one_cell(self):
        grid = parse_map("resolution 1.0\nS....")
        scan = compute_fos(grid, Pose(Cell(0, 0), 0.0), SensorModel(r_max=1.0))
        assert scan.smellable_all == {Cell(0, 0), Cell(1, 0)}


class TestVisibleCells:
    def test_matches_line_of_sight_definition(self):
        # a 100 m range on a 5x3 map: the sensor disk is clipped to the map
        small = parse_map("resolution 1.0\n..#..\n.S#..\n.....")
        assert FosEvaluator(small, SensorModel(r_max=100.0), ()).disk.k <= 80
        for grid, r_max in ((generate_random_grid(9, 0.2, 4), 5.0), (small, 100.0)):
            # every free cell, so corner and edge windows reach into the padding
            for origin in grid.free_cells():
                expected = set()
                for c in grid.free_cells():
                    if c == origin:
                        continue
                    if math.hypot(c.x - origin.x, c.y - origin.y) * grid.resolution <= r_max:
                        if line_of_sight(grid, origin, c):
                            expected.add(c)
                assert visible_cells(grid, origin, r_max) == expected

    @given(
        width=st.integers(1, 16),
        height=st.integers(1, 16),
        obstacle_ratio=st.floats(0.0, 0.5),
        seed=st.integers(0, 10**6),
        resolution=st.sampled_from([0.5, 1.0]),
        r_max=st.floats(0.5, 30.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_kernel_matches_line_of_sight_from_every_free_cell(
            self, width, height, obstacle_ratio, seed, resolution, r_max):
        # maps of up to 16 cells a side: long ranges give disks clipped to the
        # map, short ones disks whose rays stop inside it
        rng = np.random.default_rng(seed)
        obstacle = rng.random((height, width)) < obstacle_ratio
        obstacle.flat[rng.integers(obstacle.size)] = False  # keep one free cell
        states = np.where(obstacle, CellState.OBSTACLE, CellState.FREE_UNSCANNED)
        grid = GridMap.from_states(states.astype(np.uint8), resolution)
        evaluator = FosEvaluator(grid, SensorModel(r_max=r_max), ())
        free = grid.free_cells()
        for origin in free:
            expected = {
                c for c in free
                if c != origin
                and ((c.x - origin.x) ** 2 + (c.y - origin.y) ** 2) * resolution * resolution
                <= r_max * r_max
                and line_of_sight(grid, origin, c)
            }
            assert visible_cells(grid, origin, r_max) == expected
            i = origin.y * width + origin.x
            first = evaluator.visible(i)
            assert np.array_equal(evaluator.visible(i), first)  # served from the cache


class TestRayDisk:
    @pytest.mark.parametrize("r_max, resolution, extent", [
        (30.0, 1.0, 89), (30.0, 1.0, 29), (10.0, 0.5, 59), (30.0, 1.0, 9), (15.0, 1.0, 79),
        # a range far past the map, or a tiny cell: squaring the range overflowed
        (1e160, 1.0, 9), (1.0, 1e-200, 9),
    ])
    def test_tables_match_plain_loops(self, r_max, resolution, extent):
        disk = _RayDisk(r_max, resolution, extent)
        offsets = list(zip(disk.dx.tolist(), disk.dy.tolist()))
        position = {offset: j for j, offset in enumerate(offsets)}
        through = np.zeros((disk.k, disk.k), dtype=bool)
        for k, (dx, dy) in enumerate(offsets):
            for cell in traverse_segment(0, 0, dx, dy)[1:]:
                through[position[cell], k] = True
        assert disk.through.shape == (disk.k, (disk.k + 7) // 8)
        assert np.array_equal(disk.through, np.packbits(through, axis=1, bitorder="little"))

        def unpack(rows):
            return np.unpackbits(rows, axis=1, count=disk.k, bitorder="little").astype(bool)
        a = np.arange(disk.reach + 1)[:, None]
        assert np.array_equal(unpack(disk.left), disk.dx < -a)
        assert np.array_equal(unpack(disk.right), disk.dx > a)
        assert np.array_equal(unpack(disk.up), disk.dy < -a)
        assert np.array_equal(unpack(disk.down), disk.dy > a)
        # the pad bits past K are set in every ``left`` row
        assert np.unpackbits(disk.left, axis=1, bitorder="little")[:, disk.k:].all()


    @pytest.mark.parametrize("resolution", [0.1, 0.2])
    def test_membership_matches_exact_rationals(self, resolution):
        # every range from 0.1 to 99.9 m in 0.1 m steps, on the squared
        # offset lengths next to its boundary
        float_rule_wrong = 0
        for k in range(1, 1000):
            r_max = k / 10
            q2 = (r_max / resolution) ** 2
            d2 = np.arange(max(1, math.floor(q2) - 2), math.ceil(q2) + 3)
            exact = [Fraction(d) * Fraction(resolution) ** 2 <= Fraction(r_max) ** 2
                     for d in d2.tolist()]
            assert _in_range(d2, r_max, resolution).tolist() == exact, r_max
            float_rule_wrong += sum((d2 * resolution * resolution <= r_max * r_max) != exact)
        assert float_rule_wrong  # the float product rule errs on some of these

    def test_membership_at_tiny_scales(self):
        # (dx^2 + dy^2) * resolution^2 underflows to 0 <= 0 in floats
        assert _in_range(np.array([1, 2]), 1e-200, 1e-200).tolist() == [True, False]
        tiny, unit = _RayDisk(1e-200, 1e-200, 5), _RayDisk(1.0, 1.0, 5)
        assert tiny.k == unit.k == 4
        assert np.array_equal(tiny.dx, unit.dx) and np.array_equal(tiny.dy, unit.dy)


class TestSweepOracle:
    @given(
        size=st.integers(3, 14),
        obstacle_ratio=st.floats(0.0, 0.4),
        seed=st.integers(0, 10**6),
        orientations=st.sampled_from([4, 8]),
        r_max=st.floats(0.5, 8.0),
        phi_max=st.floats(45.0, 180.0),
        resolution=st.sampled_from([0.5, 1.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_kernel_matches_plain_loops(self, size, obstacle_ratio, seed,
                                        orientations, r_max, phi_max, resolution):
        grid = generate_random_grid(size, obstacle_ratio, seed, resolution)
        rng = np.random.default_rng(seed)
        free = grid.free_cells()
        scanned = rng.random(len(free)) < rng.random()
        mark_scanned(grid, [c for c, s in zip(free, scanned) if s])
        sensor = SensorModel(r_max=r_max, phi_max=phi_max)
        evaluator = FosEvaluator(grid, sensor, heading_set(orientations))
        for j in rng.choice(len(free), min(3, len(free)), replace=False):
            cell = free[j]
            i = cell.y * grid.width + cell.x
            expected = sampled_sweeps(grid, cell, sensor, evaluator)
            scores = evaluator.evaluate_cell(i)
            for h, (score, (gain, phi, time, new)) in enumerate(zip(scores, expected)):
                assert score.info_gain == gain
                assert score.phi_used == pytest.approx(phi, abs=1e-9)
                assert score.sensing_time == pytest.approx(time, abs=1e-9)
                # the kernel and sensing_time share one sweep-time rule; a
                # rounding overshoot above phi_max is one sensing_time rejects
                if 0 < score.phi_used <= phi_max:
                    assert score.sensing_time == sensing_time(score.phi_used, sensor)
                fresh, new_idx = evaluator.sweep(i, h)
                cells = cells_at(grid, new_idx)
                assert fresh == score
                assert set(cells) == new and len(cells) == len(new)
                if cell in new:
                    assert cells[-1] == cell
