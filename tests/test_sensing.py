import copy
import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    compute_fos,
    free_cells,
    line_of_sight,
    mark_cells,
    sampled_line_of_sight,
    sampled_sweeps,
    traverse_segment,
    visible_cells,
    visible_mask,
)

from nbsmell import sensing
from nbsmell.engine import CoverageEngine, run_coverage
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
from nbsmell.mapgen import empty_map, generate_map, shipped_map
from nbsmell.mcdm import NAMED_CONFIGS
from nbsmell.sensing import (
    _LOOK_BYTES,
    _PAIR_BLOCK,
    _SWEEP_BLOCK,
    FosEvaluator,
    SensorModel,
    _heading_tables,
    _Layout,
    _layout,
    _RayDisk,
    _ray_disk,
)

DEFAULT = SensorModel(r_max=10.0)


class TestSensorModel:
    def test_defaults_give_published_scan_times(self):
        assert DEFAULT.sweep_time(45.0) == 21.0
        assert DEFAULT.sweep_time(90.0) == 36.0

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

    @pytest.mark.parametrize("fields,full_sweep", [
        ({"sweep_rate": 1e308}, None),
        ({"setup_time": 1e308, "sweep_rate": 1e306}, None),
        ({"phi_max": 90.0, "sweep_rate": 2e306}, None),
        ({"sweep_rate": 9e305}, 6.0 + 9e305 * 180.0),
        ({"phi_max": 90.0, "sweep_rate": 1.9e306}, 6.0 + 1.9e306 * 90.0),  # inf at 180
        ({"setup_time": 1.7e308}, 1.7e308 + 60.0),
    ])
    def test_full_sweep_must_take_a_finite_time(self, fields, full_sweep):
        # each field is finite; the sweep over phi_max is priced from all three
        if full_sweep is None:
            with pytest.raises(ValueError) as exc:
                SensorModel(r_max=5.0, **fields)
            assert str(exc.value) == "setup_time + sweep_rate * phi_max must be finite, got inf"
        else:
            sensor = SensorModel(r_max=5.0, **fields)
            assert sensor.sweep_time(sensor.phi_max) == full_sweep < math.inf


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
        cells = free_cells(grid)
        for a in cells:
            for b in cells:
                assert line_of_sight(grid, a, b)

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_symmetry_on_random_grids(self, seed):
        grid = generate_random_grid(8, 0.3, seed)
        rng = np.random.default_rng(seed)
        free = free_cells(grid)
        for _ in range(10):
            a = free[int(rng.integers(len(free)))]
            b = free[int(rng.integers(len(free)))]
            assert line_of_sight(grid, a, b) == line_of_sight(grid, b, a)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_matches_sampling_oracle(self, seed):
        grid = generate_random_grid(7, 0.25, seed)
        free = free_cells(grid)
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
        mark_cells(grid, [Cell(0, 0)])
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
        mark_cells(grid, [Cell(1, 1), Cell(2, 1)])  # own cell + due east
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
            free = free_cells(grid)
            rng = np.random.default_rng(seed)
            mark_cells(grid, [free[i] for i in rng.choice(len(free), 5)])
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
        mark_cells(grid, [c for c in free_cells(grid)
                          if c not in (Cell(2, 0), Cell(2, 2))])
        scan = compute_fos(grid, Pose(Cell(1, 1), 0.0), DEFAULT)
        assert scan.phi_used == 90.0
        assert scan.sensing_time == 36.0

    def test_adding_obstacle_never_enlarges_visibility(self):
        for seed in range(15):
            grid = generate_random_grid(8, 0.15, seed)
            rng = np.random.default_rng(seed + 77)
            free = free_cells(grid)
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
        cells = np.array([occluded, scanned, seer])
        evaluator.scores(cells)

        mark_scanned(grid, np.array([scanned]))
        evaluator.mark_scanned(np.array([scanned]))
        recomputed = []
        sweep = evaluator._sweep_cells
        evaluator._sweep_cells = lambda stale: recomputed.extend(stale.tolist()) or sweep(stale)
        gain, phi = evaluator.scores(cells)

        # the wall hides the scanned cell from `occluded`, so its entry stays;
        # the scanned cell itself and the cell that sees it are recomputed
        assert recomputed == [scanned, seer]
        _layout.cache_clear()  # so that the cold evaluator builds its own visibility masks
        cold_gain, cold_phi = FosEvaluator(grid, DEFAULT, headings).scores(cells)
        assert np.array_equal(gain, cold_gain)
        assert np.array_equal(phi, cold_phi)

    def test_scan_state_is_read_from_the_grid(self):
        # a scan made only through the grid, without telling the evaluator;
        # the warm evaluator swept cell 0 before it, so the scanned cell is
        # still in cell 0's live list
        grid = parse_map("resolution 1.0\nS....")
        warm = FosEvaluator(grid, DEFAULT, heading_set(4))
        assert warm.evaluate_cell(0)[0].info_gain == 5
        evaluator = FosEvaluator(grid, DEFAULT, heading_set(4))
        scanned = Cell(2, 0)
        mark_cells(grid, [scanned])
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
            sweep = warm._sweep_cells
            warm._sweep_cells = lambda stale: recomputed.extend(stale.tolist()) or sweep(stale)
            gain, phi = warm.scores(free)
            del warm._sweep_cells
            new = set(scan.tolist())
            assert set(recomputed) == {
                c for c in cell if c in new or any(sees(c, n) for n in new)
            }

            _layout.cache_clear()  # so that `cold` builds its own visibility masks
            cold = FosEvaluator(grid, sensor, headings)
            cold_gain, cold_phi = cold.scores(free)
            assert np.array_equal(gain, cold_gain) and np.array_equal(phi, cold_phi)
            for i in free.tolist():
                h = int(rng.integers(orientations))
                score, covered = warm.sweep(i, h)
                cold_score, cold_covered = cold.sweep(i, h)
                assert score == cold_score and np.array_equal(covered, cold_covered)

    def test_sweep_of_a_fresh_cell_reuses_its_live_list(self):
        # after `scores`, the executed sweep of a cell must not sweep it again,
        # yet give a cold evaluator's score and cells for every heading
        grid = generate_random_grid(9, 0.2, 5)
        rng = np.random.default_rng(5)
        free = np.flatnonzero(grid.free_mask().reshape(-1))
        mark_scanned(grid, rng.choice(free, free.size * 3 // 4, replace=False))
        sensor, headings = SensorModel(r_max=3.0, phi_max=90.0), heading_set(8)
        warm = FosEvaluator(grid, sensor, headings)
        gain, phi = warm.scores(free)
        swept = []
        sweep = warm._sweep_cells
        warm._sweep_cells = lambda cells: swept.extend(cells.tolist()) or sweep(cells)
        _layout.cache_clear()  # so that `cold` builds its own visibility masks
        cold = FosEvaluator(grid, sensor, headings)
        covers = set()
        for row, i in enumerate(free.tolist()):
            for h in range(len(headings)):
                score, covered = warm.sweep(i, h)
                cold_score, cold_covered = cold.sweep(i, h)
                assert score == cold_score and np.array_equal(covered, cold_covered), (i, h)
                assert (score.info_gain, score.phi_used) == (gain[row, h], phi[row, h])
                # the step prices a candidate from its cached angle alone
                if score.info_gain:
                    assert score.sensing_time == sensor.sweep_time(phi[row, h])
                covers.add("nothing" if not covered.size else
                           "own cell only" if covered.tolist() == [i] else "others")
        assert swept == []
        assert covers == {"nothing", "own cell only", "others"}

        # a cell that a scan made stale is swept once, and agrees with a cold sweep
        stale = int(free[grid.states.reshape(-1)[free] == CellState.FREE_UNSCANNED][0])
        mark_scanned(grid, np.array([stale]))
        warm.mark_scanned(np.array([stale]))
        _layout.cache_clear()
        cold = FosEvaluator(grid, sensor, headings)
        for h in range(len(headings)):
            score, covered = warm.sweep(stale, h)
            cold_score, cold_covered = cold.sweep(stale, h)
            assert score == cold_score and np.array_equal(covered, cold_covered)
        assert swept == [stale]

    def test_own_cell_scanned_through_the_grid_only_is_rescored(self):
        # cell 2 was unscanned when swept; a scan through the grid only leaves
        # its live list (cells 0, 1, 3, 4) whole, but its own cell now scanned
        grid = parse_map("resolution 1.0\nS....")
        warm = FosEvaluator(grid, DEFAULT, heading_set(4))
        warm.scores(np.array([2]))
        before = [s.info_gain for s in warm.evaluate_cell(2)]
        assert before[0] == 3  # cells 2, 3 and 4 to the east
        mark_scanned(grid, np.array([2]))
        assert [s.info_gain for s in warm.evaluate_cell(2)] == [g - 1 for g in before]
        score, covered = warm.sweep(2, 0)
        assert score.info_gain == 2 and covered.tolist() == [3, 4]
        _layout.cache_clear()
        cold = FosEvaluator(grid, DEFAULT, heading_set(4))
        assert warm.evaluate_cell(2) == cold.evaluate_cell(2)

    def test_executed_sweep_reuses_the_batch_scores(self):
        # after `scores`, neither `evaluate_cell` nor `sweep` scores a cell again
        # while the grid holds the state it was scored with
        grid = generate_random_grid(9, 0.2, 5)
        free = np.flatnonzero(grid.free_mask().reshape(-1))
        mark_scanned(grid, free[::3])
        sensor, headings = SensorModel(r_max=3.0, phi_max=90.0), heading_set(8)
        warm = FosEvaluator(grid, sensor, headings)
        gain, phi = warm.scores(free)
        scored = []
        sweep = warm._sweep_cells
        warm._sweep_cells = lambda cells: scored.extend(cells.tolist()) or sweep(cells)
        for row, i in enumerate(free.tolist()):
            scores = warm.evaluate_cell(i)
            assert [(s.info_gain, s.phi_used) for s in scores] == list(zip(gain[row], phi[row]))
            assert [s.sensing_time for s in scores] == [
                sensor.sweep_time(p) if g else 0.0 for g, p in zip(gain[row], phi[row])]
            warm.sweep(i, 0)
        assert scored == []
        # a scan through the grid only: the cells whose live list loses an offset are rescored
        seer = next(i for i in free.tolist() if warm._live[i].size)
        gone = seer + warm.end[warm._live[seer][0]]
        mark_scanned(grid, np.array([gone]))
        warm.evaluate_cell(seer)
        assert scored == [seer]

    @pytest.mark.parametrize("seed", [3, 11])
    def test_cells_that_left_the_candidates_drop_their_live_lists(self, seed):
        # a frontier cell that leaves it never returns; its live list and cached
        # score go with it, at the next call of ``scores``
        engine = CoverageEngine(generate_random_grid(24, 0.15, seed), "F",
                                SensorModel(r_max=5.0), orientations=4)
        evaluator, calls = engine.evaluator, []
        scores = evaluator.scores
        evaluator.scores = lambda idx: calls.append(idx.tolist()) or scores(idx)
        while engine.step() is not None:
            kept = {i for i, live in enumerate(evaluator._live) if live is not None}
            assert kept == set(calls[-1]), len(calls)
            assert set(evaluator._fresh.nonzero()[0].tolist()) <= kept
        assert len(calls) > 20 and any(set(a) - set(b) for a, b in zip(calls, calls[1:]))
        assert {i for i, live in enumerate(evaluator._live) if live is not None} == set(calls[-1])

    @given(
        width=st.integers(1, 12),
        height=st.integers(1, 12),
        obstacle_ratio=st.floats(0.0, 0.4),
        seed=st.integers(0, 10**6),
        r_max=st.sampled_from([0.9, 2.0, 4.0, 30.0]),
        orientations=st.sampled_from([4, 8]),
        steps=st.integers(0, 10),
        grid_only=st.integers(0, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_reuse_after_engine_steps_matches_a_cold_evaluator(
            self, width, height, obstacle_ratio, seed, r_max, orientations, steps, grid_only):
        # random engine steps, every free cell scored, then maybe a few scans through
        # the grid only; at every free cell, so at every candidate, the warm evaluator
        # must give a cold one's scores
        rng = np.random.default_rng(seed)
        obstacle = rng.random((height, width)) < obstacle_ratio
        obstacle.flat[rng.integers(obstacle.size)] = False  # keep one free cell
        states = np.where(obstacle, CellState.OBSTACLE, CellState.FREE_UNSCANNED)
        grid = GridMap.from_states(states.astype(np.uint8), 1.0)
        sensor = SensorModel(r_max=r_max, phi_max=120.0)
        engine = CoverageEngine(grid, "F", sensor, orientations=orientations)
        for _ in range(steps):
            if engine.step() is None:
                break
        free = np.flatnonzero(~obstacle)
        engine.evaluator.scores(free)
        unscanned = np.flatnonzero(grid.states == CellState.FREE_UNSCANNED)
        mark_scanned(grid, rng.choice(unscanned, min(grid_only, unscanned.size), replace=False))
        _layout.cache_clear()  # so that `cold` builds its own visibility masks
        cold = FosEvaluator(grid.copy(), sensor, engine.headings)
        for i in free.tolist():
            assert engine.evaluator.evaluate_cell(i) == cold.evaluate_cell(i)
            for h in range(orientations):
                score, covered = engine.evaluator.sweep(i, h)
                cold_score, cold_covered = cold.sweep(i, h)
                assert score == cold_score and np.array_equal(covered, cold_covered)

    def test_obstacle_cell_sees_its_line_of_sight_but_not_itself(self):
        grid = parse_map("resolution 1.0\nS#.\n...")
        visible = visible_mask(FosEvaluator(grid, SensorModel(r_max=5.0), (0.0,)), 1)
        assert not visible[-1] and visible.any()

    def test_no_orientations_give_empty_score_rows(self):
        grid = parse_map("resolution 1.0\nS.#.\n....")
        evaluator = FosEvaluator(grid, DEFAULT, ())
        gain, phi = evaluator.scores(np.array([0, 3, 5]))
        assert gain.shape == phi.shape == (3, 0)
        assert evaluator.evaluate_cell(1) == []

    def test_one_ray_disk_stays_cached(self):
        # a disk can take K * ceil(K/8) bytes; only the last map extent's is kept
        for size in (5, 9):
            FosEvaluator(generate_random_grid(size, 0.1, 1), DEFAULT, heading_set(4))
        assert _ray_disk.cache_info().currsize == 1


class TestOneAnswerPerCell:
    """The batch ``scores``, the per-cell ``evaluate_cell`` and ``sweep`` give one answer per
    cell and heading, whichever of them filled the cache, across scans."""

    @pytest.mark.parametrize("orientations", [4, 8])
    @pytest.mark.parametrize("r_max", [1.5, 4.0, 30.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_batch_and_single_cell_scores_agree_across_scans(self, seed, r_max, orientations):
        rng = np.random.default_rng(seed)
        grid = generate_random_grid(12, 0.15, seed)
        sensor, headings = SensorModel(r_max=r_max), heading_set(orientations)
        batch, single = FosEvaluator(grid, sensor, headings), FosEvaluator(grid, sensor, headings)
        free = np.flatnonzero(grid.free_mask())
        while (grid.states == CellState.FREE_UNSCANNED).any():
            idx = rng.choice(free, int(rng.integers(1, free.size + 1)), replace=False)
            gain, phi = batch.scores(idx)
            assert gain.shape == phi.shape == (idx.size, orientations)
            for j, i in enumerate(idx.tolist()):
                scores = single.evaluate_cell(i)
                assert gain[j].tolist() == [s.info_gain for s in scores]
                assert phi[j].tolist() == [s.phi_used for s in scores]
            i, h = int(rng.choice(free)), int(rng.integers(orientations))
            (score, covered), (want, want_covered) = batch.sweep(i, h), single.sweep(i, h)
            assert score == want == single.evaluate_cell(i)[h]
            assert covered.tobytes() == want_covered.tobytes()
            # the sweep's cells, or a random unscanned one, scanned for both
            unscanned = np.flatnonzero(grid.states == CellState.FREE_UNSCANNED)
            scan = covered if covered.size else rng.choice(unscanned, 1)
            mark_scanned(grid, scan)
            batch.mark_scanned(scan)
            single.mark_scanned(scan)


class TestPairBlocks:
    """The stale set across block boundaries of the (cached, new) pair test."""

    @staticmethod
    def seers(grid, r_max, cells, new):
        """The ``cells`` that see a cell of ``new``, by the line-of-sight rule."""
        reach2 = Fraction(r_max) ** 2 / Fraction(grid.resolution) ** 2
        at = dict(zip([*cells, *new], cells_at(grid, [*cells, *new])))

        def sees(a, b):
            d2 = (at[a].x - at[b].x) ** 2 + (at[a].y - at[b].y) ** 2
            return d2 <= reach2 and line_of_sight(grid, at[a], at[b])

        return {c for c in cells if any(sees(c, n) for n in new)}

    def scan_and_compare(self, grid, sensor, headings, warm, scan):
        """Scan ``scan`` and check the cells swept again and every score against
        the line-of-sight rule and a cold evaluator.  A scanned cell sees
        itself, so a cached one must come out stale through the pair test."""
        free = np.flatnonzero(grid.free_mask().reshape(-1))
        cached = np.flatnonzero(warm._fresh).tolist()
        mark_scanned(grid, scan)
        warm.mark_scanned(scan)
        recomputed = []
        sweep = warm._sweep_cells
        warm._sweep_cells = lambda stale: recomputed.extend(stale.tolist()) or sweep(stale)
        gain, phi = warm.scores(free)
        del warm._sweep_cells
        stale = set(recomputed) & set(cached)
        assert stale == self.seers(grid, sensor.r_max, cached, scan.tolist())
        assert set(scan.tolist()) & set(cached) <= stale
        _layout.cache_clear()  # so that `cold` builds its own visibility masks
        cold_gain, cold_phi = FosEvaluator(grid, sensor, headings).scores(free)
        assert gain.tobytes() == cold_gain.tobytes() and phi.tobytes() == cold_phi.tobytes()
        return cached

    @pytest.mark.parametrize("block", [_PAIR_BLOCK, 1, 3])
    def test_scans_over_several_blocks_match_the_oracle(self, block, monkeypatch):
        monkeypatch.setattr("nbsmell.sensing._PAIR_BLOCK", block)
        grid = generate_random_grid(24, 0.15, 3)
        sensor, headings = SensorModel(r_max=8.0, phi_max=120.0), heading_set(4)
        warm = FosEvaluator(grid, sensor, headings)
        free = np.flatnonzero(grid.free_mask().reshape(-1))
        rng = np.random.default_rng(3)
        for _ in range(3):
            warm.scores(free)
            unscanned = free[grid.states.reshape(-1)[free] == CellState.FREE_UNSCANNED]
            scan = rng.choice(unscanned, 80, replace=False)
            before = free.tolist()  # every free cell is cached, the scanned ones too
            first = max(1, block // len(before))  # the new cells of the first block
            assert first < scan.size
            # a cell found stale in the first block also sees new cells of later blocks
            assert self.seers(grid, sensor.r_max, before, scan[:first].tolist()) & self.seers(
                grid, sensor.r_max, before, scan[first:].tolist())
            assert self.scan_and_compare(grid, sensor, headings, warm, scan) == before

    @pytest.mark.parametrize("block", [_PAIR_BLOCK, 1, 3])
    def test_every_cell_stale_in_the_first_block(self, block, monkeypatch):
        # on an open map in range every cached cell sees the first new cell, so
        # the loop runs out of cached cells before it runs out of new ones
        monkeypatch.setattr("nbsmell.sensing._PAIR_BLOCK", block)
        grid = empty_map(4, 3)
        sensor, headings = SensorModel(r_max=10.0), heading_set(8)
        warm = FosEvaluator(grid, sensor, headings)
        for scan in ([0, 5, 6, 11], [1, 2, 3, 4, 7, 8, 9], [10]):
            warm.scores(np.flatnonzero(grid.free_mask().reshape(-1)))
            scan = np.array(scan)
            cached = self.scan_and_compare(grid, sensor, headings, warm, scan)
            assert self.seers(grid, sensor.r_max, cached, scan[:1].tolist()) == set(cached)

    @pytest.mark.parametrize("block", [_PAIR_BLOCK, 1, 3])
    def test_most_pairs_outside_the_disk(self, block, monkeypatch):
        # a long map and a short range: most (new, cached) offsets are off the
        # disk and read the always-clear bit K of the cached cell's mask
        monkeypatch.setattr("nbsmell.sensing._PAIR_BLOCK", block)
        grid = generate_random_grid(40, 0.15, 5)
        grid = GridMap.from_states(grid.states[:4].copy(), grid.resolution)
        sensor, headings = SensorModel(r_max=3.0), heading_set(8)
        warm = FosEvaluator(grid, sensor, headings)
        free = np.flatnonzero(grid.free_mask().reshape(-1))
        rng = np.random.default_rng(5)
        for _ in range(3):
            warm.scores(free)
            unscanned = free[grid.states.reshape(-1)[free] == CellState.FREE_UNSCANNED]
            scan = rng.choice(unscanned, 6, replace=False)
            cached = np.flatnonzero(warm._fresh)
            vis, w = warm._vis, grid.width
            k = vis.offset_index[(scan + scan // w * (w - 1) + vis.zero)[:, None]
                                 - (cached + cached // w * (w - 1))]
            assert (k == warm.disk.k).mean() > 0.8
            self.scan_and_compare(grid, sensor, headings, warm, scan)

    @pytest.mark.parametrize("block", [_PAIR_BLOCK, 1, 3])
    def test_no_cached_cells(self, block, monkeypatch):
        monkeypatch.setattr("nbsmell.sensing._PAIR_BLOCK", block)
        grid = generate_random_grid(12, 0.2, 4)
        sensor, headings = SensorModel(r_max=5.0), heading_set(4)
        warm = FosEvaluator(grid, sensor, headings)
        free = np.flatnonzero(grid.free_mask().reshape(-1))
        scan = np.random.default_rng(4).choice(free, 10, replace=False)
        assert self.scan_and_compare(grid, sensor, headings, warm, scan) == []


class TestReachBox:
    """``_Layout.stale`` with and without the reach box against a test of every pair
    and the line-of-sight rule, on a 40x25 map wider and taller than 2 * reach + 1."""

    @staticmethod
    def every_pair(vis, cached, new):
        """The ``cached`` cells whose masks hold the offset to a cell of ``new``, one
        lookup per pair, with no block and no box (bit K of a mask is clear)."""
        bits = np.unpackbits(vis.bits[cached], axis=1, bitorder="little").view(bool)
        k = vis.offset_index[vis.place[2][new][:, None] + vis.zero - vis.place[2][cached]]
        return set(cached[bits[np.arange(cached.size), k].any(axis=0)].tolist())

    # a map seed and a heading whose scan from the start has, for the line-of-sight
    # rule, cells exactly ``reach`` outside its box that see it, on all four sides
    @pytest.mark.parametrize("r_max, seed, heading", [(4.0, 4, 0), (6.0, 6, 0), (6.0, 7, 2)])
    # the box as it falls, on every call, on none
    @pytest.mark.parametrize("block", [_PAIR_BLOCK, 0, 1 << 40])
    def test_scan_around_the_robot_matches_every_pair(self, r_max, seed, heading, block,
                                                      monkeypatch):
        monkeypatch.setattr("nbsmell.sensing._PAIR_BLOCK", block)
        rng = np.random.default_rng(seed)
        obstacle = rng.random((25, 40)) < 0.1
        grid = GridMap.from_states(
            np.where(obstacle, CellState.OBSTACLE, CellState.FREE_UNSCANNED).astype(np.uint8), 1.0)
        evaluator = FosEvaluator(grid, SensorModel(r_max=r_max, phi_max=90.0), heading_set(4))
        vis, r, w = evaluator._vis, evaluator.disk.reach, grid.width
        assert 2 * r + 1 < grid.height < w
        free = np.flatnonzero(~obstacle.reshape(-1))
        vis.look(free)
        # the cells one scan from the start covers, clustered around the robot
        scan = evaluator.sweep(grid.start.y * w + grid.start.x, heading)[1]
        x, y = scan % w, scan // w
        lines = [(free % w == x.min() - r - d, free % w == x.max() + r + d,
                  free // w == y.min() - r - d, free // w == y.max() + r + d) for d in (0, 1)]
        assert all(line.any() for line in [*lines[0], *lines[1]])  # on the map, free cells
        seers = [TestPairBlocks.seers(grid, r_max, free.tolist(), new.tolist())
                 for new in (scan, scan[:2])]
        for new, expected in zip((scan, scan[:2]), seers):
            assert set(vis.stale(free, new).tolist()) == expected == self.every_pair(vis, free, new)
        # a cell exactly ``reach`` outside the box on each side sees the scan; none farther does
        assert all(set(free[line].tolist()) & seers[0] for line in lines[0])
        assert not any(set(free[line].tolist()) & seers[0] for line in lines[1])
        # at the default block, the r 6 scans are above the gate and their first two cells below
        assert [free.size * n > _PAIR_BLOCK for n in (scan.size, 2)] == [r == 6, False]


def moved_obstacle(grid):
    """``grid`` with its first obstacle moved to its last free cell."""
    states = grid.states.copy().reshape(-1)
    states[np.flatnonzero(states == CellState.OBSTACLE)[0]] = CellState.FREE_UNSCANNED
    states[np.flatnonzero(states == CellState.FREE_UNSCANNED)[-1]] = CellState.OBSTACLE
    return GridMap.from_states(states.reshape(grid.states.shape), grid.resolution)


class TestLayoutCache:
    def test_map_and_copy_share_one_layout(self):
        grid = generate_random_grid(9, 0.25, 1)
        _layout.cache_clear()
        FosEvaluator(grid, DEFAULT, heading_set(4))
        assert _layout.cache_info().misses == 1
        FosEvaluator(grid.copy(), DEFAULT, heading_set(8))
        info = _layout.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_evaluators_share_heading_tables(self):
        grid = generate_random_grid(9, 0.25, 1)
        _heading_tables.cache_clear()
        first = FosEvaluator(grid, DEFAULT, heading_set(8))
        second = FosEvaluator(grid.copy(), DEFAULT, heading_set(8))
        tables = ("window_masks", "_sweep_table")
        for name in tables:
            assert getattr(second, name) is getattr(first, name)
            assert not getattr(first, name).flags.writeable
        narrow = FosEvaluator(grid, SensorModel(r_max=10.0, phi_max=90.0), heading_set(8))
        for name in tables:
            assert getattr(narrow, name) is not getattr(first, name)
        # columns: the K - 1 offsets but the own cell, the own cell, the sentinel
        k = first.disk.k
        assert first._sweep_table.shape == narrow._sweep_table.shape == (24, k + 1)
        # the first 8 rows hold the relative bearings inside the window, else +inf
        rel = first._sweep_table[:8, :k - 1]
        assert np.array_equal(narrow.window_masks[:, :-1], np.abs(rel) <= math.pi / 4)
        narrow_rel = narrow._sweep_table[:8, :k - 1]
        assert np.array_equal(narrow_rel, np.where(narrow.window_masks[:, :-1], rel, np.inf))
        for evaluator in (first, narrow):
            table = evaluator._sweep_table
            # the own cell is in every window, with +inf in both edge rows
            assert evaluator.window_masks[:, -1].all()
            assert table[:16, k - 1].tolist() == [math.inf] * 16
            assert table[16:, k - 1].tolist() == [1.0] * 8
            # the sentinel is in no window, with +inf in both edge rows
            assert table[:, k].tolist() == [math.inf] * 16 + [0.0] * 8
        assert _heading_tables.cache_info().misses == 2

    @pytest.mark.parametrize("pair", [
        [(generate_random_grid(9, 0.25, 2), 4.0),
         (moved_obstacle(generate_random_grid(9, 0.25, 2)), 4.0)],
        # all free: the obstacle-mask bytes of 2x3 and 3x2 are identical
        [(empty_map(2, 3), 5.0), (empty_map(3, 2), 5.0)],
        [(generate_random_grid(9, 0.25, 3, 0.5), 3.0), (generate_random_grid(9, 0.25, 3), 3.0)],
        [(generate_random_grid(9, 0.25, 4), 2.0), (generate_random_grid(9, 0.25, 4), 4.5)],
    ], ids=["obstacle", "width", "resolution", "r_max"])
    def test_back_to_back_layouts_match_the_oracle(self, pair):
        # the cache holds one layout; a key that misses a field would serve the
        # first map's masks to the second
        _layout.cache_clear()
        for grid, r_max in pair:
            reach2 = Fraction(r_max) ** 2 / Fraction(grid.resolution) ** 2
            free = free_cells(grid)
            for origin in free:
                assert visible_cells(grid, origin, r_max) == {
                    c for c in free
                    if c != origin and (c.x - origin.x) ** 2 + (c.y - origin.y) ** 2 <= reach2
                    and line_of_sight(grid, origin, c)
                }
        info = _layout.cache_info()
        assert (info.misses, info.currsize) == (2, 1)


def packed(vis, i):
    """Cell ``i``'s packed mask on the layout ``vis``, made by a look at ``i`` alone if new."""
    if not vis.known[i]:
        vis.look(np.array([i]))
    return vis.bits[i]


def steps_of(grid, config, sensor, orientations):
    """The step records of a run on a copy of ``grid``, ``decision_time`` aside."""
    result = run_coverage(grid.copy(), config, sensor, orientations=orientations)
    return [dataclasses.replace(step, decision_time=0.0) for step in result.steps]


def check_kept(vis):
    """Each of the layout ``vis``'s kept offset lists is its mask's set bits, read-only."""
    kept = [(i, a) for i, a in enumerate(vis.kept) if a is not None]
    for i, offsets in kept:
        bits = np.unpackbits(packed(vis, i), count=vis.disk.k, bitorder="little")
        assert np.array_equal(offsets, np.flatnonzero(bits)), i
        assert offsets.dtype == np.min_scalar_type(vis.disk.k) and not offsets.flags.writeable
        assert vis.asked[i]
    assert vis.kept_bytes == sum(offsets.nbytes for _, offsets in kept)
    return len(kept)


class TestKeptOffsets:
    """The visible offsets a layout keeps for the runs that share it (``_Layout.offsets``)."""

    def test_runs_on_one_layout_equal_runs_on_fresh_layouts(self):
        grid, sensor = shipped_map("corridor"), SensorModel(r_max=10.0)
        _layout.cache_clear()
        shared = [steps_of(grid, name, sensor, 8) for name in NAMED_CONFIGS]
        assert check_kept(FosEvaluator(grid, sensor, ())._vis) > 0
        for name, steps in zip(NAMED_CONFIGS, shared):
            _layout.cache_clear()
            assert steps_of(grid, name, sensor, 8) == steps, name

    def test_offsets_are_kept_from_the_second_ask(self):
        grid = generate_random_grid(12, 0.2, 5)
        _layout.cache_clear()
        evaluator = FosEvaluator(grid, DEFAULT, ())
        vis = evaluator._vis
        for i in range(grid.width * grid.height):
            first = evaluator.visible(i)
            assert vis.kept[i] is None and vis.asked[i]
            second = evaluator.visible(i)
            assert vis.kept[i] is second and np.array_equal(second, first)
            assert evaluator.visible(i) is second
            with pytest.raises(ValueError, match="read-only"):
                second[:1] = 0
        assert check_kept(vis) == grid.width * grid.height

    def test_kept_offsets_stay_within_the_budget(self, monkeypatch):
        # on an open map nearly all K offsets are visible from every cell
        grid, sensor = generate_map("empty", 40, 40), SensorModel(r_max=30.0)
        fresh = []
        for name in NAMED_CONFIGS:
            _layout.cache_clear()
            fresh.append(steps_of(grid, name, sensor, 4))
        _layout.cache_clear()
        assert [steps_of(grid, name, sensor, 4) for name in NAMED_CONFIGS] == fresh
        unbounded = check_kept(FosEvaluator(grid, sensor, ())._vis)
        budget = 1 << 15
        monkeypatch.setattr(sensing, "_KEPT_BYTES", budget)
        _layout.cache_clear()
        vis = FosEvaluator(grid, sensor, ())._vis
        for name, steps in zip(NAMED_CONFIGS, fresh):
            assert steps_of(grid, name, sensor, 4) == steps, name
            assert vis.kept_bytes <= budget
        assert 0 < check_kept(vis) < unbounded

    def test_visible_is_called_once_per_first_sweep(self, monkeypatch):
        # what the benchmark's sensing.visible.calls and .misses count
        visible, sweep_cells = FosEvaluator.visible, FosEvaluator._sweep_cells
        calls, first_sweeps = [], []

        def counted_visible(self, i):
            calls.append((id(self), i))
            return visible(self, i)

        def counted_sweep(self, cells):
            first_sweeps.extend((id(self), i) for i in cells.tolist() if self._live[i] is None)
            sweep_cells(self, cells)

        monkeypatch.setattr(FosEvaluator, "visible", counted_visible)
        monkeypatch.setattr(FosEvaluator, "_sweep_cells", counted_sweep)
        grid, sensor = shipped_map("corridor"), SensorModel(r_max=10.0)
        _layout.cache_clear()
        engines = [CoverageEngine(grid.copy(), name, sensor, orientations=8) for name in "FCF"]
        for engine in engines:
            engine.run()
        assert calls == first_sweeps and all(type(i) is int for _, i in calls)
        # no evaluator sweeps a corridor cell first twice: the calls equal the misses
        assert len(set(calls)) == len(calls)


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
        # a 100 m range on a 5x3 map: the sensor disk is clipped to the 9x9
        # box of offsets between two cells of the map, the own cell included
        small = parse_map("resolution 1.0\n..#..\n.S#..\n.....")
        assert FosEvaluator(small, SensorModel(r_max=100.0), ()).disk.k <= 81
        for grid, r_max in ((generate_random_grid(9, 0.2, 4), 5.0), (small, 100.0)):
            # every free cell, so corner and edge windows reach into the padding
            for origin in free_cells(grid):
                expected = set()
                for c in free_cells(grid):
                    if c == origin:
                        continue
                    if math.hypot(c.x - origin.x, c.y - origin.y) * grid.resolution <= r_max:
                        if line_of_sight(grid, origin, c):
                            expected.add(c)
                assert visible_cells(grid, origin, r_max) == expected

    @pytest.mark.parametrize("r_max", [2.0, 3.5, 5.0, 6.0])
    def test_masks_on_a_map_wider_and_taller_than_the_disk(self, r_max):
        # a miss reads only the obstacles of the rows within reach: the ones in
        # farther rows, and those on every map edge, must leave no trace
        _layout.cache_clear()  # so that every mask below is a miss
        rng = np.random.default_rng(int(r_max * 2))
        obstacle = rng.random((25, 40)) < 0.15
        for edge in (obstacle[0], obstacle[-1], obstacle[:, 0], obstacle[:, -1]):
            edge[rng.integers(2)::3] = True
        grid = GridMap.from_states(
            np.where(obstacle, CellState.OBSTACLE, CellState.FREE_UNSCANNED).astype(np.uint8), 1.0)
        evaluator = FosEvaluator(grid, SensorModel(r_max=r_max), ())
        disk = evaluator.disk
        assert 2 * disk.reach + 1 < grid.height < grid.width
        for i in np.flatnonzero(~obstacle.reshape(-1)).tolist():
            y, x = divmod(i, grid.width)
            expected = [0 <= x + dx < grid.width and 0 <= y + dy < grid.height
                        and line_of_sight(grid, Cell(x, y), Cell(x + dx, y + dy))
                        for dx, dy in zip(disk.dx.tolist(), disk.dy.tolist())]
            assert visible_mask(evaluator, i).tolist() == expected
        # bit K, which the pair test reads for an offset outside the disk, stays clear
        assert disk.k % 8 and not np.unpackbits(
            evaluator._vis.bits, axis=1, bitorder="little")[:, disk.k:].any()

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
        free = free_cells(grid)
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

    @given(
        width=st.integers(1, 12),
        height=st.integers(1, 12),
        obstacle_ratio=st.floats(0.0, 0.6),
        seed=st.integers(0, 10**6),
        r_max=st.floats(0.5, 20.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_a_cell_sees_itself_exactly_when_free(self, width, height, obstacle_ratio, seed,
                                                   r_max):
        # the disk's last offset is the cell itself: seen from a free cell, and
        # hidden at an obstacle, whose own ray is blocked by the cell itself
        rng = np.random.default_rng(seed)
        obstacle = rng.random((height, width)) < obstacle_ratio
        obstacle.flat[rng.integers(obstacle.size)] = False  # keep one free cell
        states = np.where(obstacle, CellState.OBSTACLE, CellState.FREE_UNSCANNED)
        grid = GridMap.from_states(states.astype(np.uint8), 1.0)
        evaluator = FosEvaluator(grid, SensorModel(r_max=r_max), ())
        assert (evaluator.disk.dx[-1], evaluator.disk.dy[-1], evaluator.end[-1]) == (0, 0, 0)
        own = [bool(visible_mask(evaluator, i)[-1]) for i in range(width * height)]
        assert own == (~obstacle).reshape(-1).tolist()


class TestFirstLooks:
    """Masks made in batches (``_Layout.look``) against masks made one cell at a
    time (``_Layout.mask``) and the line-of-sight walk of ``oracles``."""

    @staticmethod
    def layout(obstacle, r_max):
        """A layout of its own (not the cached one) for the obstacle mask ``obstacle``."""
        h, w = obstacle.shape
        return _Layout(obstacle.tobytes(), w, r_max, 1.0, max(w, h) - 1)

    @staticmethod
    def expected(obstacle, vis, i):
        """Free cell ``i``'s mask by the oracle: offsets on the map with line of sight."""
        grid = GridMap.from_states(
            np.where(obstacle, CellState.OBSTACLE, CellState.FREE_UNSCANNED).astype(np.uint8), 1.0)
        h, w = obstacle.shape
        y, x = divmod(i, w)
        return [0 <= x + dx < w and 0 <= y + dy < h
                and line_of_sight(grid, Cell(x, y), Cell(x + dx, y + dy))
                for dx, dy in zip(vis.disk.dx.tolist(), vis.disk.dy.tolist())]

    @staticmethod
    def unpacked(vis, i):
        return np.unpackbits(packed(vis, i), count=vis.disk.k, bitorder="little").astype(bool)

    @staticmethod
    def assert_pad_clear(vis):
        # the bits past K (bit K is read by the pair test) stay clear, in every row
        assert not np.unpackbits(vis.bits, axis=1, bitorder="little")[:, vis.disk.k:].any()

    @pytest.mark.parametrize("r_max, cap", [(2.0, _LOOK_BYTES), (3.5, _LOOK_BYTES),
                                            (3.5, 1), (5.0, 4096), (6.0, 20000)])
    def test_batches_match_single_cells_and_the_oracle(self, r_max, cap, monkeypatch):
        # a 40x25 map wider and taller than the disk, so the row band of a block
        # cuts obstacles, with obstacles on every edge; a small cap splits a
        # batch into blocks of one cell or of a few
        monkeypatch.setattr("nbsmell.sensing._LOOK_BYTES", cap)
        rng = np.random.default_rng(int(r_max * 4))
        obstacle = rng.random((25, 40)) < 0.15
        for edge in (obstacle[0], obstacle[-1], obstacle[:, 0], obstacle[:, -1]):
            edge[rng.integers(2)::3] = True
        batched, single = self.layout(obstacle, r_max), self.layout(obstacle, r_max)
        assert 2 * batched.disk.reach + 1 < obstacle.shape[0] < obstacle.shape[1]
        h, w = obstacle.shape
        cells = np.arange(w * h)
        edges = np.unique(np.concatenate((cells[:w], cells[-w:], cells[::w], cells[w - 1::w])))
        # half the cells, shuffled, then the rest with the edge cells again, repeats included
        order = rng.permutation(cells)
        batched.look(order[:order.size // 2])
        assert batched.known.sum() == order.size // 2
        batched.look(np.concatenate((edges, order, order[:5])))
        assert batched.known.all()
        for i in cells.tolist():
            assert np.array_equal(packed(batched, i), packed(single, i)), i
        free = ~obstacle.reshape(-1)
        sample = rng.choice(cells[free], 60, replace=False)
        for i in [*edges[free[edges]].tolist(), *sample.tolist()]:
            assert self.unpacked(batched, i).tolist() == self.expected(obstacle, batched, i), i
        self.assert_pad_clear(batched)
        self.assert_pad_clear(single)

    @pytest.mark.parametrize("cells", [[0], [39], [960], [999], [517], [517, 517], [3, 3, 998]])
    def test_one_cell_and_repeated_cells(self, cells):
        # corner, edge and inner cells, alone or repeated in one batch
        rng = np.random.default_rng(7)
        obstacle = rng.random((25, 40)) < 0.2
        obstacle.flat[cells] = False
        vis = self.layout(obstacle, 4.5)
        vis.look(np.array(cells))
        assert vis.known.sum() == len(set(cells))
        assert not vis.bits[~vis.known].any()  # no other row is written
        for i in set(cells):
            assert self.unpacked(vis, i).tolist() == self.expected(obstacle, vis, i)
        self.assert_pad_clear(vis)
        vis.look(np.array(cells[:0], dtype=np.int64))  # an empty batch changes nothing
        assert vis.known.sum() == len(set(cells))

    def test_block_gather_stays_within_the_cap(self):
        # a 90x90 map at r 30 m: each cell's row band holds hundreds of obstacles,
        # so one block holds a few cells; its gather (obstacles x cells x words)
        # takes at most _LOOK_BYTES, and the masks match cells looked at alone
        grid = generate_random_grid(90, 0.1, 90001)
        obstacle = grid.states == CellState.OBSTACLE
        vis, alone = self.layout(obstacle, 30.0), self.layout(obstacle, 30.0)
        gathers = []

        class Recorded(np.ndarray):
            def take(self, *args, **kwargs):
                out = super().take(*args, **kwargs)
                gathers.append(out.shape)
                return out

        vis.disk = copy.copy(vis.disk)  # so that the cached disk stays as it is
        vis.disk.through = vis.disk.through.view(Recorded)
        free = np.flatnonzero(~obstacle.reshape(-1))
        vis.look(free)
        assert vis.known.sum() == free.size
        assert sum(n for _, n, _ in gathers) == free.size  # (obstacles, cells, words) blocks
        assert max(n for _, n, _ in gathers) > 1
        assert all(np.prod(shape) * 8 <= _LOOK_BYTES for shape in gathers)
        for i in np.random.default_rng(1).choice(free, 40, replace=False).tolist():
            assert np.array_equal(packed(vis, i), packed(alone, i))


class TestRayDisk:
    @pytest.mark.parametrize("r_max, resolution, extent", [
        (30.0, 1.0, 89), (30.0, 1.0, 29), (10.0, 0.5, 59), (30.0, 1.0, 9), (15.0, 1.0, 79),
        # a range far past the map, or a tiny cell: squaring the range overflowed
        (1e160, 1.0, 9), (1.0, 1e-200, 9),
        # empty disks: a range below one cell, and a one-cell map
        (0.5, 1.0, 9), (30.0, 1.0, 0),
    ])
    def test_tables_match_plain_loops(self, r_max, resolution, extent):
        disk = _RayDisk(r_max, resolution, extent)
        offsets = list(zip(disk.dx.tolist(), disk.dy.tolist()))
        assert offsets[-1] == (0, 0) and (0, 0) not in offsets[:-1]
        position = {offset: j for j, offset in enumerate(offsets)}
        through = np.zeros((disk.k, disk.k), dtype=bool)
        for k, (dx, dy) in enumerate(offsets):
            # the cells past the start that the ray crosses, and its endpoint:
            # the own cell's ray is the own cell alone
            for cell in {*traverse_segment(0, 0, dx, dy)[1:], (dx, dy)}:
                through[position[cell], k] = True
        assert through[-1].tolist() == [False] * (disk.k - 1) + [True]
        assert not through[:-1, -1].any()
        # rows of ceil(K/64) words, and the sentinel row K; read as bytes, the
        # first ceil(K/8) of each offset's row are its packed set
        words, nbytes = (disk.k + 63) // 64, (disk.k + 7) // 8
        assert disk.through.dtype == np.uint64 and disk.through.shape == (disk.k + 1, words)
        rows = disk.through.view(np.uint8)
        assert np.array_equal(rows[:-1, :nbytes], np.packbits(through, axis=1, bitorder="little"))
        # the pad bytes, and the sentinel row K, hold no offset
        assert not rows[:-1, nbytes:].any() and not rows[-1].any()

        def unpack(rows):
            return np.unpackbits(rows.view(np.uint8), axis=1, count=disk.k,
                                 bitorder="little").astype(bool)
        a = np.arange(disk.reach + 1)[:, None]
        assert np.array_equal(unpack(disk.left), disk.dx < -a)
        assert np.array_equal(unpack(disk.right), disk.dx > a)
        assert np.array_equal(unpack(disk.up), disk.dy < -a)
        assert np.array_equal(unpack(disk.down), disk.dy > a)
        for rows in (disk.left, disk.right, disk.up, disk.down):
            assert rows.dtype == np.uint64 and rows.shape == (disk.reach + 1, words)
            # no map edge hides the own cell
            assert not unpack(rows)[:, -1].any()
            # the pad bits past K are set in every row
            assert np.unpackbits(rows.view(np.uint8), axis=1, bitorder="little")[:, disk.k:].all()


    @pytest.mark.parametrize("resolution", [0.1, 0.2])
    def test_membership_matches_exact_rationals(self, resolution):
        # every range in 0.1 m steps up to 17 cells, so that the boundary
        # crosses the box of a 12-cell extent
        box = range(-12, 13)
        float_rule_wrong = 0
        for k in range(1, round(170 * resolution) + 1):
            r_max = k / 10
            disk, exact = _RayDisk(r_max, resolution, 12), exact_offsets(r_max, resolution, 12)
            assert list(zip(disk.dx.tolist(), disk.dy.tolist())) == exact, r_max
            floats = {(dx, dy) for dy in box for dx in box
                      if (dx * dx + dy * dy) * resolution * resolution <= r_max * r_max}
            float_rule_wrong += len(floats ^ set(exact))
        assert float_rule_wrong  # the float product rule errs on some of these

    def test_membership_at_tiny_scales(self):
        # (dx^2 + dy^2) * resolution^2 underflows to 0 <= 0 in floats
        tiny, unit = _RayDisk(1e-200, 1e-200, 5), _RayDisk(1.0, 1.0, 5)
        assert tiny.k == unit.k == 5 and tiny.reach == unit.reach == 1
        assert np.array_equal(tiny.dx, unit.dx) and np.array_equal(tiny.dy, unit.dy)

    def test_reach_is_the_farthest_offset(self):
        # the float 0.5 / 0.1 rounds up to 5.0, but the doubles 0.5 and 0.1
        # give 0.5^2 / 0.1^2 < 25, so the disk stops 4 cells away
        disk = _RayDisk(0.5, 0.1, 9)
        assert max(np.abs(disk.dx).max(), np.abs(disk.dy).max()) == 4
        assert disk.reach == 4

    @given(
        r_max=st.floats(1e-200, 1e160),
        resolution=st.floats(1e-200, 1e160),
        extent=st.integers(0, 12),
        d2=st.none() | st.integers(1, 300),
    )
    @example(r_max=0.5, resolution=0.1, extent=9, d2=None)
    @settings(max_examples=150, deadline=None)
    def test_offsets_and_reach_match_a_rational_filter(self, r_max, resolution, extent, d2):
        if d2 is not None:  # a range on, or a rounding away from, a squared length's boundary
            r_max = resolution * math.sqrt(d2)
        disk, exact = _RayDisk(r_max, resolution, extent), exact_offsets(r_max, resolution, extent)
        assert list(zip(disk.dx.tolist(), disk.dy.tolist())) == exact
        assert disk.reach == max(max(abs(dx), abs(dy)) for dx, dy in exact)
        assert disk.k % 2  # so that rows of ceil(K/8) bytes hold the always-clear bit K


def exact_offsets(r_max, resolution, extent):
    """The offsets of the ``extent`` box but (0, 0), row by row, that
    ``(dx^2 + dy^2) * resolution^2 <= r_max^2`` keeps in rationals; then the
    own cell (0, 0), which every range keeps."""
    r2, res2 = Fraction(r_max) ** 2, Fraction(resolution) ** 2
    box = range(-extent, extent + 1)
    return [(dx, dy) for dy in box for dx in box
            if (dx, dy) != (0, 0) and (dx * dx + dy * dy) * res2 <= r2] + [(0, 0)]


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
        free = free_cells(grid)
        scanned = rng.random(len(free)) < rng.random()
        mark_cells(grid, [c for c, s in zip(free, scanned) if s])
        sensor = SensorModel(r_max=r_max, phi_max=phi_max)
        evaluator = FosEvaluator(grid, sensor, heading_set(orientations))
        swept = rng.choice(len(free), min(3, len(free)), replace=False)
        for j in swept:
            cell = free[j]
            i = cell.y * grid.width + cell.x
            expected = sampled_sweeps(grid, cell, sensor, evaluator)
            scores = evaluator.evaluate_cell(i)
            for h, (score, (gain, phi, time, new)) in enumerate(zip(scores, expected)):
                assert score.info_gain == gain
                assert score.phi_used == pytest.approx(phi, abs=1e-9)
                assert score.sensing_time == pytest.approx(time, abs=1e-9)
                # a sweep that covers a cell is timed by the sensor's one rule
                if score.info_gain:
                    assert score.sensing_time == sensor.sweep_time(score.phi_used)
                fresh, new_idx = evaluator.sweep(i, h)
                cells = cells_at(grid, new_idx)
                assert fresh == score
                assert set(cells) == new and len(cells) == len(new)
                if cell in new:
                    assert cells[-1] == cell

        # one batch over every free cell after more scans: re-sweeps of the
        # cells swept above, first sweeps, cells whose live list is empty and
        # cells that cover only themselves; the oracle checks the swept cells,
        # a sample, and a sample of the cells that gain at most their own
        unscanned = [c for c in free if grid.states[c.y, c.x] == CellState.FREE_UNSCANNED]
        more = [c for c in unscanned if rng.random() < 0.3]
        mark_cells(grid, more)
        evaluator.mark_scanned(np.array([c.y * grid.width + c.x for c in more], dtype=np.int64))
        batch = np.array([c.y * grid.width + c.x for c in free])
        gain, phi = evaluator.scores(batch)
        low = np.flatnonzero(gain.max(axis=1) <= 1)
        checked = {*swept.tolist(), *rng.choice(len(free), min(8, len(free)), replace=False).tolist(),
                   *rng.choice(low, min(6, low.size), replace=False).tolist()}
        for j in sorted(checked):
            cell, i, gain_row, phi_row = free[j], int(batch[j]), gain[j].tolist(), phi[j].tolist()
            expected = sampled_sweeps(grid, cell, sensor, evaluator)
            assert gain_row == [g for g, _, _, _ in expected]
            assert phi_row == pytest.approx([p for _, p, _, _ in expected], abs=1e-9)
            # a covering heading is timed by the sensor's one rule on its cached angle
            assert [sensor.sweep_time(p) for g, p in zip(gain_row, phi_row) if g] == (
                pytest.approx([t for g, _, t, _ in expected if g], abs=1e-9))
            h = int(rng.integers(orientations))  # the live list the batch stored
            assert set(cells_at(grid, evaluator.sweep(i, h)[1])) == expected[h][3]

    @pytest.mark.parametrize("block", [_SWEEP_BLOCK, 1])
    def test_batch_past_the_block_bound_matches_single_cells(self, block, monkeypatch):
        # block 1 puts every cell in a block of its own, past the bound
        monkeypatch.setattr("nbsmell.sensing._SWEEP_BLOCK", block)
        grid = generate_random_grid(30, 0.1, 5)
        sensor, headings = SensorModel(r_max=10.0, phi_max=120.0), heading_set(8)
        batched = FosEvaluator(grid, sensor, headings)
        single = FosEvaluator(grid, sensor, headings)
        free = np.flatnonzero(grid.free_mask().reshape(-1))
        rng = np.random.default_rng(5)
        for _ in range(2):  # first sweeps, then re-sweeps after a scan
            gain, phi = batched.scores(free)
            assert sum(batched._live[i].size for i in free.tolist()) > 2 * _SWEEP_BLOCK
            for i in free.tolist():
                single.evaluate_cell(i)
            single_gain, single_phi = single.scores(free)
            assert gain.tobytes() == single_gain.tobytes()
            assert phi.tobytes() == single_phi.tobytes()
            for i in free.tolist():
                assert np.array_equal(batched._live[i], single._live[i])
            scan = rng.choice(free, 200, replace=False)
            mark_scanned(grid, scan)
            batched.mark_scanned(scan)
            single.mark_scanned(scan)
