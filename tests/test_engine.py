import dataclasses
import hashlib
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nbsmell.engine
from nbsmell.cli import render_ppm
from nbsmell.engine import CoverageEngine, resolve_measure, run_coverage, uncoverable_cells
from nbsmell.engine import select_best as select_row
from nbsmell.grid import (
    Cell,
    CellState,
    GridMap,
    Pose,
    cells_at,
    coverage_ratio,
    generate_random_grid,
    heading_set,
    mark_scanned,
    on_map,
    parse_map,
    serialize_map,
)
from nbsmell.mapgen import corridor_map, empty_map, generate_map, rooms_map, shipped_map
from nbsmell.mcdm import (
    NAMED_CONFIGS,
    FuzzyMeasure,
    InvalidConfigError,
    WeightConfig,
    build_measure,
    named_measure,
    normalize_utilities,
)
from nbsmell.planning import shortest_distances
from nbsmell.sensing import FosEvaluator, SensorModel, _layout
from oracles import (
    choquet,
    cover_lower_bound,
    enumerate_candidates,
    free_cells,
    mark_cells,
    select_best,
)

SENSOR = SensorModel(r_max=10.0)


def empty_text(width, height, start=(0, 0)):
    rows = []
    for y in range(height):
        row = ["."] * width
        if y == start[1]:
            row[start[0]] = "S"
        rows.append("".join(row))
    return "resolution 1.0\n" + "\n".join(rows)


class TestEnumerateCandidates:
    def test_bootstrap_offers_start_cell_with_every_heading(self):
        grid = parse_map(empty_text(4, 4))
        robot = Pose(grid.start, 0.0)
        cands = enumerate_candidates(grid, robot, 4, SENSOR, 4)
        assert {c.pose.cell for c in cands} == {grid.start}
        assert [c.pose.theta for c in cands] == pytest.approx(
            [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
        assert all(c.distance == 0.0 for c in cands)
        assert all(c.scan.info_gain >= 1 for c in cands)

    def test_fully_scanned_map_yields_nothing(self):
        grid = parse_map(empty_text(3, 3))
        mark_cells(grid, free_cells(grid))
        cands = enumerate_candidates(grid, Pose(grid.start, 0.0), 4, SENSOR, 4)
        assert cands == []

    def test_strip_frontier_candidates_face_the_unscanned_cell(self):
        grid = parse_map("resolution 1.0\nS..")
        mark_cells(grid, [Cell(0, 0), Cell(1, 0)])
        cands = enumerate_candidates(grid, Pose(Cell(0, 0), 0.0), 4, SENSOR, 4)
        assert {c.pose.cell for c in cands} == {Cell(1, 0)}
        thetas = {c.pose.theta for c in cands}
        assert np.pi not in thetas  # west-facing sweep cannot reach cell 2
        assert 0.0 in thetas
        for c in cands:
            assert c.new_cells == [Cell(2, 0)]
            assert c.scan.info_gain == 1

    def test_unreachable_frontier_positions_are_dropped(self):
        # the right chamber is visible through the corner but not walkable
        grid = parse_map("resolution 1.0\nS#.\n#..\n...")
        mark_cells(grid, [Cell(0, 0)])
        cands = enumerate_candidates(grid, Pose(Cell(0, 0), 0.0), 4, SENSOR, 4)
        assert cands == []


class TestSelectBest:
    def test_single_candidate_returned(self):
        grid = parse_map(empty_text(3, 1))
        cands = enumerate_candidates(grid, Pose(grid.start, 0.0), 4, SENSOR, 4)
        east = [c for c in cands if c.pose.theta == 0.0]
        best = select_best(east, named_measure("E"))
        assert best is east[0]
        assert best.score is not None and best.utilities is not None

    def test_nearer_candidate_wins_on_equal_gain_and_time(self):
        grid = parse_map(empty_text(9, 1, start=(4, 0)))
        sensor = SensorModel(r_max=2.0)
        mark_cells(grid, [Cell(x, 0) for x in range(2, 7)])
        robot = Pose(Cell(4, 0), 0.0)
        cands = enumerate_candidates(grid, robot, 4, sensor, 4)
        eastish = [c for c in cands if c.pose.cell == Cell(6, 0) and c.pose.theta == 0.0]
        westish = [c for c in cands if c.pose.cell == Cell(2, 0) and c.pose.theta == np.pi]
        assert eastish and westish
        for config in ("D", "E", "F", "G"):  # any config with positive x2
            best = select_best([westish[0], eastish[0]], named_measure(config))
            assert best.distance == 2.0

    def test_score_ties_break_row_major_then_theta(self):
        grid = parse_map(empty_text(3, 3, start=(1, 1)))
        cands = enumerate_candidates(grid, Pose(grid.start, 0.0), 4, SENSOR, 4)
        same_gain = [c for c in cands if c.scan.info_gain == 6]
        assert len(same_gain) >= 2
        best = select_best(same_gain, named_measure("A"))
        keyed = sorted(
            same_gain,
            key=lambda c: (c.pose.cell.y, c.pose.cell.x, c.pose.theta),
        )
        assert best is keyed[0]

    def test_empty_candidate_list_rejected(self):
        with pytest.raises(ValueError):
            select_best([], named_measure("A"))

    def test_score_ties_break_on_distance_then_time_then_row(self):
        # configuration A scores gain only, so equal gains tie on the score
        measure = named_measure("A")
        rows = [(5, 3.0, 20.0), (5, 2.0, 30.0), (5, 2.0, 25.0), (5, 2.0, 25.0), (4, 0.0, 6.0)]
        raw = np.array(rows, dtype=np.float64).T
        # candidates 2 and 3 tie on all three keys, in the (3, n) rows the
        # step builds and in a strided view of them
        for layout in (np.ascontiguousarray(raw), raw):
            assert select_row(layout, measure) == 2

    def test_equal_score_and_distance_break_on_time(self):
        # configuration B scores distance only, so rows at one distance tie
        # on the score whatever their gain and time
        measure = named_measure("B")
        rows = [(9, 2.0, 36.0), (1, 2.0, 21.0), (4, 2.0, 6.5), (7, 2.0, 6.5), (9, 3.0, 6.0)]
        raw = np.array(rows, dtype=np.float64).T
        for layout in (np.ascontiguousarray(raw), raw):
            assert select_row(layout, measure) == 2

    @pytest.mark.parametrize("base", [0.3, 3.0, 7.0])
    def test_last_bit_differences_decide_exactly(self, base):
        # gains a few ulps apart give utilities that differ in the last bit;
        # their scores either tie exactly (then distance, time and row
        # decide) or differ in the last bit (then the larger wins)
        gains = [base]
        for _ in range(3):
            gains.append(float(np.nextafter(gains[-1], np.inf)))
        rows = [(0.0, 2.0, 21.0)] + [(g, d, t) for t in (21.0, 6.0)
                                      for d in (2.0, 1.0) for g in gains]
        raw = np.array(rows).T
        tied_distinct = decided_by_bit = False
        for config in ("A", "D", "F", "H", "L"):
            measure = named_measure(config)
            u = normalize_utilities(raw)
            scores = [choquet(tuple(col), measure) for col in u.T]
            top = [r for r, s in enumerate(scores) if s == max(scores)]
            expected = min(top, key=lambda r: (rows[r][1], rows[r][2], r))
            assert select_row(raw, measure) == expected, config
            tied_distinct |= len({u[0, r] for r in top}) > 1
            decided_by_bit |= any(0 < max(scores) - s <= np.spacing(max(scores))
                                  for s in scores)
        assert tied_distinct and decided_by_bit

    def test_distance_scaling_leaves_choice_unchanged(self):
        grid = generate_random_grid(15, 0.1, 21)
        robot = Pose(grid.start, 0.0)
        mark_cells(grid, [grid.start])
        base = enumerate_candidates(grid, robot, 4, SENSOR, 4)
        if not base:
            pytest.skip("no candidates on this seed")
        for scale in (2.5, 17.0):
            scaled = enumerate_candidates(grid, robot, 4, SENSOR, 4)
            for c in scaled:
                c.distance *= scale
            a = select_best(base, named_measure("F"))
            b = select_best(scaled, named_measure("F"))
            assert (a.pose, a.scan.info_gain) == (b.pose, b.scan.info_gain)


class TestStepAndRun:
    def test_single_cell_map_takes_one_step(self):
        grid = parse_map("resolution 1.0\nS")
        result = run_coverage(grid, "E", SENSOR)
        assert result.total_sensing_ops == 1
        assert result.coverage_satisfied
        assert result.steps[0].info_gain == 1
        assert result.steps[0].travel_time == 0.0
        assert result.total_time == result.steps[0].sensing_time

    @pytest.mark.parametrize("text, uncovered", [
        ("resolution 1.0\nS", []), ("resolution 1.0\nS.", [Cell(1, 0)]),
    ])
    def test_empty_sensor_disk_scans_the_own_cell_once(self, text, uncovered):
        # r 0.5 m with 1 m cells: reach 0, so one scan of the own cell, and
        # then no candidate gains anything
        grid = parse_map(text)
        result = run_coverage(grid, "F", SensorModel(r_max=0.5))
        assert [(s.pose, s.info_gain, s.phi_used, s.sensing_time) for s in result.steps] == [
            (Pose(Cell(0, 0), 0.0), 1, 0.0, 6.0)]
        assert (result.total_time, result.uncovered_cells) == (6.0, uncovered)

    def test_strip_covered_in_at_most_two_steps(self):
        grid = parse_map("resolution 1.0\n..S..")
        result = run_coverage(grid, "E", SensorModel(r_max=4.0))
        assert result.coverage_satisfied
        assert result.total_sensing_ops <= 2

    # Cost-dominant configurations (e.g. D) legitimately split the second
    # sweep: a short nearby scan can outscore the single full-gain sweep
    # under min-max normalization.  The two-op bound is checked for the
    # gain-led configurations, where it is structural.
    @pytest.mark.parametrize("config", ["A", "E", "F"])
    @pytest.mark.parametrize("orientations", [4, 8])
    def test_empty_convex_maps_need_at_most_two_ops(self, config, orientations):
        for w, h in ((3, 3), (5, 4), (7, 7), (2, 6)):
            grid = parse_map(empty_text(w, h, start=(w // 2, h // 2)))
            sensor = SensorModel(r_max=1.0 + math.hypot(w, h))
            result = run_coverage(grid, config, sensor, orientations=orientations)
            assert result.coverage_satisfied, (w, h)
            assert result.total_sensing_ops <= 2, (w, h)

    def test_unreachable_pocket_reported_uncovered(self):
        # pocket at the right is sealed by obstacles; not coverable
        grid = parse_map("resolution 1.0\nS.#.\n..##\n....")
        result = run_coverage(grid, "E", SensorModel(r_max=1.2), connectivity=4)
        assert not result.coverage_satisfied
        assert Cell(3, 0) in result.uncovered_cells

    def test_accounting_identity(self):
        grid = generate_random_grid(15, 0.15, 5)
        result = run_coverage(grid, "D", SensorModel(r_max=5.0))
        assert result.total_time == result.total_travel_time + result.total_sensing_time
        assert result.total_travel_time == sum(s.travel_time for s in result.steps)
        assert result.total_sensing_time == sum(s.sensing_time for s in result.steps)
        assert result.total_sensing_ops == len(result.steps)

    def test_coverage_strictly_increases(self):
        grid = generate_random_grid(15, 0.15, 6)
        result = run_coverage(grid, "E", SensorModel(r_max=5.0))
        coverages = [s.cumulative_coverage for s in result.steps]
        assert all(b > a for a, b in zip(coverages, coverages[1:]))
        assert all(s.info_gain >= 1 for s in result.steps)

    def test_executed_poses_reachable_from_start(self):
        from nbsmell.planning import shortest_distances

        grid = generate_random_grid(15, 0.2, 7)
        pristine = grid.copy()
        result = run_coverage(grid, "F", SensorModel(r_max=6.0), connectivity=8)
        field = shortest_distances(pristine, pristine.start, 8)
        for step in result.steps:
            assert math.isfinite(field[step.pose.cell.y, step.pose.cell.x])

    def test_deterministic_run_results(self):
        a = run_coverage(generate_random_grid(20, 0.1, 77), "F",
                         SensorModel(r_max=8.0))
        b = run_coverage(generate_random_grid(20, 0.1, 77), "F",
                         SensorModel(r_max=8.0))
        assert a.total_sensing_ops == b.total_sensing_ops
        assert a.total_time == b.total_time
        for sa, sb in zip(a.steps, b.steps):
            assert sa.pose == sb.pose
            assert sa.phi_used == sb.phi_used
            assert sa.info_gain == sb.info_gain

    def test_target_coverage_stops_early(self):
        grid = generate_random_grid(20, 0.1, 13)
        full = run_coverage(generate_random_grid(20, 0.1, 13), "E",
                            SensorModel(r_max=8.0))
        partial = run_coverage(grid, "E", SensorModel(r_max=8.0),
                               target_coverage=0.8)
        assert partial.total_sensing_ops < full.total_sensing_ops
        assert partial.steps[-1].cumulative_coverage >= 0.8
        assert partial.steps[-2].cumulative_coverage < 0.8

    @pytest.mark.parametrize("options,match", [
        ({"connectivity": 6}, "connectivity"),
        ({"speed": 0.0}, "speed"),
        ({"target_coverage": 1.5}, "target_coverage"),
        # 4.0 == 4: it reached range() as a heading count, and passed as a connectivity
        ({"orientations": 4.0}, r"orientation count must be 4 or 8, got 4\.0"),
        ({"connectivity": 4.0}, r"connectivity must be 4 or 8, got 4\.0"),
        ({"connectivity": True}, "connectivity must be 4 or 8, got True"),
    ])
    def test_invalid_motion_rejected_at_construction(self, options, match):
        grid = parse_map("resolution 1.0\nS.")
        with pytest.raises(ValueError, match=match):
            CoverageEngine(grid, "E", SENSOR, **options)

    @pytest.mark.parametrize("options", [{"orientations": 6}, {"connectivity": 6},
                                         {"speed": 0.0}, {"target_coverage": 1.5}])
    def test_configuration_checked_before_motion(self, options):
        # the order of `nbsmell run --config Q --orientations 6`
        grid = parse_map("resolution 1.0\nS.")
        with pytest.raises(InvalidConfigError, match="unknown configuration 'Q'"):
            CoverageEngine(grid, "Q", SENSOR, **options)

    @pytest.mark.parametrize("orientations,connectivity,match", [
        (4.0, 4, "orientation count must be 4 or 8, got 4.0"),
        (np.float64(8.0), 4, "orientation count must be 4 or 8, got np.float64(8.0)"),
        (4, 4.0, "connectivity must be 4 or 8, got 4.0"),
    ])
    def test_non_integer_counts_rejected_by_uncoverable_cells(self, orientations, connectivity,
                                                             match):
        grid = parse_map("resolution 1.0\nS.\n..")
        with pytest.raises(ValueError, match=re.escape(match)):
            uncoverable_cells(grid, SENSOR, orientations, connectivity)

    def test_numpy_integer_counts_run_like_python_ints(self):
        grid = generate_random_grid(8, 0.1, 2)
        numpy_counts = run_coverage(grid.copy(), "F", SENSOR, orientations=np.int64(8),
                                    connectivity=np.int64(8))
        python_counts = run_coverage(grid.copy(), "F", SENSOR, orientations=8, connectivity=8)
        assert [(s.pose, s.info_gain, s.sensing_time) for s in numpy_counts.steps] == [
            (s.pose, s.info_gain, s.sensing_time) for s in python_counts.steps]
        assert all(type(s.pose.theta) is float for s in numpy_counts.steps)
        assert uncoverable_cells(grid, SENSOR, np.int64(8), np.int64(8)) == uncoverable_cells(
            grid, SENSOR, 8, 8)

    @pytest.mark.parametrize("values,match", [
        ((0.0, math.nan, 0.4, 0.9, 0.1, 0.6, 0.5, 1.0), r"range: mu\(\{1\}\) = nan"),
        ((0.0, 0.4, 0.4, 0.9, 0.1, 0.6, 0.5, 5.0),
         r"boundary: mu\(\{1,2,3\}\) = 5\.0, expected 1; range: mu\(\{1,2,3\}\) = 5\.0 outside"),
        ((0.0, -0.2, 0.4, 0.9, 0.1, 0.6, 0.5, 1.0), r"range: mu\(\{1\}\) = -0\.2"),
        ((0.0, 0.7, 0.4, 0.5, 0.1, 0.6, 0.5, 1.0), r"monotonicity: mu\(\{1\}\) = 0\.7 > mu\(\{1,2\}\)"),
        ((0.0, "x", 0.4, 0.9, 0.1, 0.6, 0.5, 1.0), r"type: mu\(\{1\}\) = 'x' is not a number"),
        ((0.0, 0.2, None, 0.9, 0.1, 0.6, 0.5, 1.0), r"type: mu\(\{2\}\) = None is not a number"),
        ((0.0, 0.2, 0.4, 0.9, 0.1, 0.6, 0.5, True),
         r"^type: mu\(\{1,2,3\}\) = True is not a number$"),
    ])
    def test_invalid_fuzzy_measure_rejected_at_construction(self, values, match):
        # unchecked, a NaN weight ends in a bare IndexError from select_best,
        # a str or None weight in a bare TypeError, and the other measures run
        # to completion
        measure = FuzzyMeasure(values=values)
        with pytest.raises(InvalidConfigError, match=match):
            CoverageEngine(generate_random_grid(10, 0.1, 3), measure, SENSOR)
        with pytest.raises(InvalidConfigError, match=match):
            run_coverage(generate_random_grid(10, 0.1, 3), measure, SENSOR)

    def test_fuzzy_measure_values_must_be_a_sequence(self):
        with pytest.raises(ValueError, match=r"^values must be a sequence of 8 subset weights, "
                                             r"got nan$"):
            FuzzyMeasure(values=math.nan)

    @pytest.mark.parametrize("seed", range(6))
    def test_kept_coverage_equals_a_recount(self, seed):
        # the engine counts scanned cells from each scan's marked count; on
        # maps that start partly scanned the count must match the grid's
        rng = np.random.default_rng(seed)
        grid = generate_random_grid(int(rng.integers(4, 13)), 0.2, seed)
        free = free_cells(grid)
        mark_cells(grid, [free[i] for i in rng.choice(len(free), len(free) // (seed + 2))])
        engine = CoverageEngine(grid, "FLAB"[seed % 4], SensorModel(r_max=3.0),
                                orientations=8 if seed % 2 else 4)
        records = 0
        while (record := engine.step()) is not None:
            assert record.cumulative_coverage == coverage_ratio(grid)
            records += 1
        assert records

    def test_step_returns_none_when_done(self):
        grid = parse_map("resolution 1.0\nS")
        engine = CoverageEngine(grid, "E", SENSOR)
        assert engine.step() is not None
        assert engine.step() is None
        assert engine.step() is None

    @given(
        width=st.integers(1, 14),
        height=st.integers(1, 14),
        ratio=st.floats(0.0, 0.4),
        seed=st.integers(0, 2**32 - 1),
        connectivity=st.sampled_from([4, 8]),
        orientations=st.sampled_from([4, 8]),
        r_max=st.sampled_from([0.5, 1.0, 2.5, 4.0, 8.0]),
        phi_max=st.sampled_from([45.0, 90.0, 135.0, 180.0]),
        resolution=st.sampled_from([0.5, 1.0]),
        config=st.sampled_from(["A", "B", "F", "L"]),
        speed=st.sampled_from([0.7, np.float32(0.3), np.float64(2.5)]),
    )
    @settings(max_examples=100, deadline=None)
    def test_engine_matches_contract_operations(self, width, height, ratio, seed,
                                                connectivity, orientations, r_max,
                                                phi_max, resolution, config, speed):
        # the engine reuses scores between steps and selects by filtering on
        # its tie-break keys; every record must equal a replay that evaluates
        # all candidates from scratch at each step and selects by a plain sort key
        rng = np.random.default_rng(seed)
        states = np.where(rng.random((height, width)) < ratio, CellState.OBSTACLE,
                          CellState.FREE_UNSCANNED).astype(np.uint8)
        states.flat[rng.integers(states.size)] = CellState.FREE_UNSCANNED
        grid_engine = GridMap.from_states(states.copy(), resolution)
        grid_replay = GridMap.from_states(states, resolution)
        sensor = SensorModel(r_max=r_max, phi_max=phi_max)
        measure = named_measure(config)
        engine = CoverageEngine(grid_engine, measure, sensor, orientations=orientations,
                                connectivity=connectivity, speed=speed)
        robot = Pose(grid_replay.start, 0.0)
        while True:
            record = engine.step()
            expected = enumerate_candidates(grid_replay, robot, orientations, sensor,
                                            connectivity)
            if record is None:
                assert expected == []
                break
            best = select_best(expected, measure)
            mark_cells(grid_replay, best.new_cells)
            robot = best.pose
            replayed = dataclasses.replace(
                record,
                pose=best.pose,
                phi_used=best.scan.phi_used,
                info_gain=best.scan.info_gain,
                travel_time=best.distance / float(speed),  # the speed as the engine keeps it
                sensing_time=best.scan.sensing_time,
                cumulative_coverage=coverage_ratio(grid_replay),
                candidates_evaluated=len(expected),
            )
            assert record == replayed


class TestRunBound:
    """At most F steps on F free cells, each a full sweep and a path of at most (F - 1) diagonal
    steps: a run whose bound is not finite is refused before it starts."""

    @pytest.mark.parametrize("text,sensor,speed,message", [
        (None, SENSOR, 1e-320, "a run over 475 free cells has no finite time bound at speed "
                               "1e-320 m/s, resolution 0.5 m and full sweep 66.0 s"),
        (None, SensorModel(10.0, setup_time=1.7e308), 1.0,
         "a run over 475 free cells has no finite time bound at speed 1.0 m/s, resolution "
         "0.5 m and full sweep 1.7e+308 s"),
        # 4-connected distances add one resolution per step: 1e308 + 1e308 overflowed
        ("resolution 1e308\nS..\n...", SENSOR, 1.0,
         "a run over 6 free cells has no finite time bound at speed 1.0 m/s, resolution "
         "1e+308 m and full sweep 66.0 s"),
    ], ids=["speed", "setup", "resolution"])
    def test_run_whose_totals_could_overflow_refused(self, text, sensor, speed, message):
        grid = shipped_map("corridor") if text is None else parse_map(text)
        with pytest.raises(InvalidConfigError) as exc:
            CoverageEngine(grid, "F", sensor, speed=speed)
        assert str(exc.value) == message

    @pytest.mark.parametrize("speed", [1e-36, np.float32(1e-36)], ids=["float", "float32"])
    def test_slow_run_with_a_finite_bound_goes_ahead(self, speed):
        # the bound is taken on the checked Python number: in float32 it overflowed
        engine = CoverageEngine(shipped_map("corridor"), "F", SensorModel(30.0), speed=speed)
        assert (engine.speed, type(engine.speed)) == (float(speed), float)
        records = [engine.step() for _ in range(3)]
        assert records[-1].travel_time > 1e36 and math.isfinite(records[-1].travel_time)


def step_digest(records):
    """sha256 over every StepRecord field but the decision time, floats as ``repr``."""
    h = hashlib.sha256()
    for rec in records:
        h.update((" ".join(repr(getattr(rec, f.name)) for f in dataclasses.fields(rec)
                           if f.name != "decision_time") + "\n").encode())
    return h.hexdigest()


class TestGoldenSteps:
    # full-precision step records, so a last-bit change in the Choquet, travel or field code
    # fails here; numpy 2.4.6 with AVX-512, Python 3.11 (as TestGoldenOutputs in test_cli.py)
    RUNS = {
        "random12": (lambda: generate_random_grid(12, 0.1, 12), "F", 30.0, {}, 5,
                     "14428d30133b3eb111d5987a344dfa1a74be5184e2901ca6de8700854692afc5"),
        "corridor": (lambda: shipped_map("corridor"), "B", 10.0, {"orientations": 8}, 84,
                     "72502c604b8479cd58fff5ab1ef888a98b640252d2f3adc8acc48b9c2de31718"),
        # 4-connected at 0.1 m: travel distances are running sums of the resolution, and at
        # 0.7 m/s distance * (1 / speed) differs from distance / speed in the last bit
        "rooms": (lambda: rooms_map(40, 30, seed=3, resolution=0.1), "F", 0.8, {"speed": 0.7},
                  28, "9afb8ab84c86a64b0807a5f0c7cfb3ef6215b1294c2e7d25a67476ab9668c366"),
    }

    @pytest.mark.parametrize("name", RUNS)
    def test_step_records_match_pinned_digests(self, name):
        make, config, r_max, options, steps, digest = self.RUNS[name]
        records = run_coverage(make(), config, SensorModel(r_max), **options).steps
        assert (len(records), step_digest(records)) == (steps, digest)


def profile_steps(seed=7):
    """Steps, and calls of functions defined under ``src/nbsmell/`` made inside ``step()``, of
    one run on a seeded 10x10 map (F, r 30), and the code objects those calls entered."""
    package = str(Path(nbsmell.engine.__file__).parent)
    engine = CoverageEngine(generate_random_grid(10, 0.1, seed), "F", SensorModel(30.0))
    entered, calls, steps = set(), 0, 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls += 1
            entered.add(frame.f_code)

    while True:
        sys.setprofile(count)
        try:
            record = engine.step()
        finally:
            sys.setprofile(None)
        if record is None:
            return steps, calls, entered
        steps += 1


class TestStepCalls:
    """The step calls each evaluator operation in its one form and prices travel itself, so it
    re-checks nothing it built; its own Python calls are counted exactly, whatever numpy and
    scipy versions."""

    # (steps, calls) measured from the root of the checkout (635 calls before the step called
    # unchecked cores, 528 before the re-checks left) by
    # PYTHONPATH=src:tests python -c "import test_engine as t; print(t.profile_steps()[:2])"
    STEPS, MOST_CALLS = 8, 412

    def test_step_calls_no_public_check_and_stays_within_its_count(self):
        steps, calls, entered = profile_steps()
        assert {FosEvaluator.scores.__code__, FosEvaluator.sweep.__code__,
                FosEvaluator.mark_scanned.__code__, mark_scanned.__code__,
                select_row.__code__} <= entered
        assert on_map.__code__ not in entered
        assert steps == self.STEPS and calls <= self.MOST_CALLS, (steps, calls)

    def test_dropped_checks_and_twins_are_gone_from_src(self):
        package = Path(nbsmell.engine.__file__).parent
        text = "\n".join(path.read_text() for path in sorted(package.glob("*.py")))
        for name in ("_check_cell", "_free_on_map", "travel_time", "_scores", "_sweep"):
            assert not re.search(rf"\bdef {name}\b", text), name


class TestSelfChecks:
    """The two checks each step makes on its own bookkeeping fire when it breaks."""

    @pytest.mark.parametrize("seed", range(20))
    def test_missed_stale_marks_raise_score_cache_out_of_sync(self, seed):
        # an evaluator that is never told of a scan keeps every cached score;
        # the executed sweep rescores the cell from the grid and disagrees
        grid = generate_random_grid(12, 0.1, seed)
        engine = CoverageEngine(grid, "F", SensorModel(r_max=4.0))
        engine.evaluator.mark_scanned = lambda idx: None
        with pytest.raises(RuntimeError) as exc:
            engine.run()
        found = re.fullmatch(r"score cache out of sync at (Pose\(.+\)): cached gain (\S+) "
                             r"and time (\S+), fresh (\d+) and (\S+)", str(exc.value))
        assert found, str(exc.value)
        cached = float(found[2]), float(found[3])
        assert cached != (float(found[4]), float(found[5]))
        assert engine.records  # the first step, before any scan, is sound

    def test_marked_count_out_of_line_with_the_scan_raises(self, monkeypatch):
        grid = generate_random_grid(12, 0.1, 3)
        twin = CoverageEngine(grid.copy(), "F", SensorModel(r_max=4.0))
        first, second = twin.step(), twin.step()
        engine = CoverageEngine(grid, "F", SensorModel(r_max=4.0))
        assert engine.step().pose == first.pose
        # the engine's own name, which the step calls; one cell fewer than the scan covers
        monkeypatch.setattr(nbsmell.engine, "mark_scanned",
                            lambda g, flat: mark_scanned(g, flat) - 1)
        with pytest.raises(RuntimeError) as exc:
            engine.step()
        assert str(exc.value) == (f"scan bookkeeping out of sync: marked {second.info_gain - 1}, "
                                  f"expected {second.info_gain}")


CELL_CALLS = {
    "in_bounds": lambda grid, cell: grid.in_bounds(cell),
    "is_free": lambda grid, cell: grid.is_free(cell),
    "GridMap": lambda grid, cell: GridMap(grid.resolution, grid.states, cell),
    "shortest_distances": lambda grid, cell: shortest_distances(grid, cell, 4),
    "render_ppm": render_ppm,
}
CELLS = [Cell(2, 1), (2, 1), [0, 1], (np.int64(2), np.int32(0)), (1, 0), (3, 0), (0, -1),
         (1, 2, 3), (1,), (), None, 5, (True, False), (1.5, 0), "ab", np.array([1, 1])]
CONFIG_CALLS = {
    "named_measure": lambda grid, config: named_measure(config),
    "resolve_measure": lambda grid, config: resolve_measure(config),
    "CoverageEngine": lambda grid, config: CoverageEngine(grid, config, SENSOR),
}
CONFIGS = ["F", "f", "custom", "z", "", None, 5, 1.5, ("A",), b"A",
           WeightConfig(0.2, 0.3, 0.5), named_measure("E")]
# every numeric argument of the exported entry points, as a call of its value
NUMBER_CALLS = {
    "SensorModel-r_max": lambda v: SensorModel(r_max=v),
    "SensorModel-phi_max": lambda v: SensorModel(10.0, phi_max=v),
    "SensorModel-setup_time": lambda v: SensorModel(10.0, setup_time=v),
    "SensorModel-sweep_rate": lambda v: SensorModel(10.0, sweep_rate=v),
    "GridMap-resolution": lambda v: GridMap(v, np.ones((2, 2), np.uint8), Cell(0, 0)),
    "generate_random_grid-size": lambda v: generate_random_grid(v, 0.1, 1),
    "generate_random_grid-obstacle_ratio": lambda v: generate_random_grid(5, v, 1),
    "generate_random_grid-seed": lambda v: generate_random_grid(5, 0.1, v),
    "generate_random_grid-resolution": lambda v: generate_random_grid(5, 0.1, 1, resolution=v),
    "empty_map-width": lambda v: empty_map(v, 2),
    "empty_map-height": lambda v: empty_map(2, v),
    "corridor_map-width": lambda v: corridor_map(v, 10),
    "corridor_map-height": lambda v: corridor_map(60, v),
    "corridor_map-seed": lambda v: corridor_map(60, 10, seed=v),
    "rooms_map-width": lambda v: rooms_map(v, 20),
    "rooms_map-height": lambda v: rooms_map(20, v),
    "rooms_map-seed": lambda v: rooms_map(20, 20, seed=v),
    **{f"generate_map-{kind}-size": lambda v, kind=kind: generate_map(kind, v, v)
       for kind in ("empty", "corridor", "rooms", "random")},
    "generate_map-seed": lambda v: generate_map("random", 5, 5, seed=v),
    "generate_map-obstacle_ratio": lambda v: generate_map("random", 5, 5, obstacle_ratio=v),
    "heading_set": heading_set,
    **{f"CoverageEngine-{name}": lambda v, name=name: CoverageEngine(
        parse_map("resolution 1.0\nS."), "E", SENSOR, **{name: v})
       for name in ("orientations", "connectivity", "speed", "target_coverage")},
    "build_measure-x1": lambda v: build_measure(WeightConfig(v, 0.0, 0.0)),
    "build_measure-x2": lambda v: build_measure(WeightConfig(0.0, v, 0.0)),
    "build_measure-x3": lambda v: build_measure(WeightConfig(0.0, 0.0, v)),
    "build_measure-synergy_bonus": lambda v: build_measure(WeightConfig(1.0, 0.0, 0.0, v)),
    # the measure builder's checks as the public entry points reach them
    **{f"CoverageEngine-WeightConfig-{name}": lambda v, at=at: CoverageEngine(
        parse_map("resolution 1.0\nS."), WeightConfig(*(v if k == at else w for k, w in
                                                      enumerate((1.0, 0.0, 0.0, 0.0)))), SENSOR)
       for at, name in enumerate(("x1", "x2", "x3", "synergy_bonus"))},
    **{f"run_coverage-{name}": lambda v, name=name: run_coverage(
        parse_map("resolution 1.0\nS."), "E", SENSOR, **{name: v})
       for name in ("orientations", "connectivity", "speed", "target_coverage")},
    "uncoverable_cells-orientations": lambda v: uncoverable_cells(
        parse_map("resolution 1.0\nS."), SENSOR, v, 4),
    "uncoverable_cells-connectivity": lambda v: uncoverable_cells(
        parse_map("resolution 1.0\nS."), SENSOR, 4, v),
    "shortest_distances-connectivity": lambda v: shortest_distances(
        parse_map("resolution 1.0\nS."), Cell(0, 0), v),
}
# the entry points that take a map and a sensor, as a call of both
RUN_CALLS = {
    "CoverageEngine": lambda grid, sensor: CoverageEngine(grid, "F", sensor),
    "run_coverage": lambda grid, sensor: run_coverage(grid, "F", sensor),
    "uncoverable_cells": lambda grid, sensor: uncoverable_cells(grid, sensor, 4, 4),
    "FosEvaluator": lambda grid, sensor: FosEvaluator(grid, sensor, heading_set(4)),
}
# neither a map nor a sensor; each of the two also gets the other in its place
NOT_OBJECTS = {"None": None, "str": "map", "float": 3.0, "Cell": Cell(0, 0)}
# the other entry points that take a map or a measure: its argument name and type, a call of
# it, and the argument the call takes beside it (a map's states for a map alone), which
# also goes in its place
OBJECT_CALLS = {
    "shortest_distances": ("grid", "GridMap", lambda v: shortest_distances(v, Cell(0, 0), 4),
                           Cell(0, 0)),
    "cells_at": ("grid", "GridMap", lambda v: cells_at(v, [0]), [0]),
    "coverage_ratio": ("grid", "GridMap", coverage_ratio, np.ones((2, 3), np.uint8)),
    "serialize_map": ("grid", "GridMap", serialize_map, np.ones((2, 3), np.uint8)),
    "render_ppm": ("grid", "GridMap", lambda v: render_ppm(v, Cell(0, 0)), Cell(0, 0)),
}
# every flat index argument of the entry points, as a call of a map and its value
FLAT_CALLS = {
    "cells_at": lambda grid, v: cells_at(grid, v),
    "render_ppm-frontier": lambda grid, v: render_ppm(grid, None, v),
}
# none of these is a 1-D integer array of on-map flat indices (None draws no frontier)
NOT_INDICES = ["ab", b"\x00", {}, [[1]], [1.5], [True], [None], [-1], [6], [2**70],
               np.array([0.0]), np.array(["a"]), 1.5, True, "3"]
NUMBERS = [-1, 1.5, math.nan, math.inf, -math.inf]
NOT_NUMBERS = ["3", None, True, False, np.True_, []]  # a bool is no number here
# numpy numbers equal to Python ones; each run keeps to Python arithmetic
NUMPY_RUN = {"size": np.int64(8), "obstacle_ratio": np.float64(0.1), "seed": np.int64(2),
             "resolution": np.float32(0.5), "r_max": np.float32(3.0),
             "phi_max": np.float64(90.0), "setup_time": np.int64(6),
             "sweep_rate": np.float32(0.25), "speed": np.float32(0.5),
             "target_coverage": np.float16(0.75), "x1": np.float32(0.5),
             "x2": np.float16(0.25), "x3": np.float64(0.25), "synergy_bonus": np.float32(0.1)}


class TestEntryPointArguments:
    """A result, or a ValueError (InvalidConfigError is one) naming the argument.

    Never a bare AttributeError or TypeError, from every entry point that takes
    a cell or a weight configuration, and from the run entry points for a map
    or a sensor of another type.
    """

    @pytest.mark.parametrize("call,value", [
        pytest.param(calls[name], value, id=f"{name}-{value!r}")
        for calls, values in ((CELL_CALLS, CELLS), (CONFIG_CALLS, CONFIGS))
        for name in calls for value in values])
    def test_result_or_value_error_naming_the_argument(self, call, value):
        grid = parse_map("resolution 1.0\nS#.\n...")
        try:
            call(grid, value)
        except ValueError as exc:
            assert repr(value) in str(exc)

    @pytest.mark.parametrize("call,value,number", [
        pytest.param(NUMBER_CALLS[name], value, number, id=f"{name}-{value!r}")
        for name in NUMBER_CALLS
        for values, number in ((NUMBERS, True), (NOT_NUMBERS, False)) for value in values])
    def test_number_gives_a_result_or_value_error_naming_it(self, call, value, number):
        try:
            call(value)
        except ValueError as exc:
            assert repr(value) in str(exc)
        else:
            assert number, "a value that is no number gave a result"

    @pytest.mark.parametrize("call,value", [
        pytest.param(FLAT_CALLS[name], value, id=f"{name}-{value!r}")
        for name in FLAT_CALLS for value in NOT_INDICES])
    def test_flat_indices_rejected_with_value_error(self, call, value):
        # numpy alone would raise TypeError or IndexError for some, cast others,
        # or wrap a negative index to the far edge
        grid = parse_map("resolution 1.0\nS#.\n...")
        with pytest.raises(ValueError):
            call(grid, value)

    @pytest.mark.parametrize("call", [parse_map, shipped_map], ids=["parse_map", "shipped_map"])
    @pytest.mark.parametrize("value", [None, ["x"], 5, b"rooms"],
                             ids=["None", "list", "int", "bytes"])
    def test_string_argument_rejected_naming_it(self, call, value):
        with pytest.raises(ValueError, match=re.escape(repr(value))):
            call(value)

    @pytest.mark.parametrize("value", [*NOT_OBJECTS, "swapped"])
    @pytest.mark.parametrize("argument,kind", [("grid", "GridMap"), ("sensor", "SensorModel")])
    @pytest.mark.parametrize("name", RUN_CALLS)
    def test_map_or_sensor_of_another_type_rejected_naming_it(self, name, argument, kind,
                                                              value):
        arguments = {"grid": parse_map("resolution 1.0\nS#.\n..."), "sensor": SENSOR}
        other = arguments["sensor" if argument == "grid" else "grid"]
        arguments[argument] = other if value == "swapped" else NOT_OBJECTS[value]
        with pytest.raises(ValueError) as exc:
            RUN_CALLS[name](**arguments)
        assert str(exc.value) == (
            f"{argument} must be a {kind}, got {type(arguments[argument]).__name__}")

    @pytest.mark.parametrize("value", [*NOT_OBJECTS, "swapped"])
    @pytest.mark.parametrize("name", OBJECT_CALLS)
    def test_map_or_measure_of_another_type_rejected_naming_it(self, name, value):
        # numpy or a missing attribute would raise a bare AttributeError or TypeError
        argument, kind, call, other = OBJECT_CALLS[name]
        value = other if value == "swapped" else NOT_OBJECTS[value]
        with pytest.raises(ValueError) as exc:
            call(value)
        assert str(exc.value) == f"{argument} must be a {kind}, got {type(value).__name__}"

    def test_numpy_numbers_run_like_the_equal_python_numbers(self):
        python = {name: value.item() for name, value in NUMPY_RUN.items()}
        records, measures = [], []
        for numbers in (NUMPY_RUN, python):
            grid = generate_random_grid(numbers["size"], numbers["obstacle_ratio"],
                                        numbers["seed"], resolution=numbers["resolution"])
            sensor = SensorModel(numbers["r_max"], numbers["phi_max"], numbers["setup_time"],
                                 numbers["sweep_rate"])
            config = WeightConfig(*(numbers[x] for x in ("x1", "x2", "x3", "synergy_bonus")))
            measures.append(build_measure(config).values)
            result = run_coverage(grid, config, sensor, speed=numbers["speed"],
                                  target_coverage=numbers["target_coverage"])
            records.append([dataclasses.replace(r, decision_time=0.0) for r in result.steps])
        assert records[0] == records[1] and len(records[0]) > 1
        # the pair weights in Python floats: float32 gives 0.85000002 for 0.5 + 0.25 + 0.1
        assert [(v, type(v)) for v in measures[0]] == [(v, type(v)) for v in measures[1]]
        assert all(type(v) is float for r in records[0]
                   for v in (r.phi_used, r.travel_time, r.sensing_time, r.cumulative_coverage))


class TestSharedCaches:
    def test_back_to_back_runs_match_cold_runs(self):
        # the 13 runs share one visibility layout, and each run reuses its
        # distance field while the robot stays; neither may carry state from
        # one run or step into the next
        corridor, sensor = shipped_map("corridor"), SensorModel(r_max=10.0)

        def records(engine):
            return [dataclasses.replace(r, decision_time=0.0) for r in engine.records]

        warm = []
        for config in NAMED_CONFIGS:
            engine = CoverageEngine(corridor.copy(), config, sensor, orientations=8)
            engine.run()
            warm.append(records(engine))
        for config, expected in zip(NAMED_CONFIGS, warm):
            _layout.cache_clear()
            engine = CoverageEngine(corridor.copy(), config, sensor, orientations=8)
            while coverage_ratio(engine.grid) < 1.0:
                engine._field = engine._field_from = None  # a fresh distance field every step
                if engine.step() is None:
                    break
            assert records(engine) == expected, config


class TestReachBox:
    @pytest.mark.parametrize("seed, r_max", [(1, 4.0), (2, 5.0), (3, 6.0)])
    def test_runs_with_and_without_the_box_agree(self, seed, r_max, monkeypatch):
        # 40x25 maps wider and taller than 2 * reach + 1, so that the box drops
        # cached cells; a block of 0 pairs sends every stale test through the
        # box, an unbounded one none
        rng = np.random.default_rng(seed)
        states = np.where(rng.random((25, 40)) < 0.1, CellState.OBSTACLE,
                          CellState.FREE_UNSCANNED).astype(np.uint8)
        sensor, runs = SensorModel(r_max=r_max), []
        for block in (0, 1 << 40):
            monkeypatch.setattr("nbsmell.sensing._PAIR_BLOCK", block)
            _layout.cache_clear()
            engine = CoverageEngine(GridMap.from_states(states.copy(), 1.0), "F", sensor)
            assert 2 * engine.evaluator.disk.reach + 1 < engine.grid.height
            runs.append([dataclasses.replace(r, decision_time=0.0) for r in engine.run().steps])
        assert runs[0] == runs[1] and len(runs[0]) > 10


class TestCoverBound:
    """No run makes fewer sensing operations than the fewest full windows that
    cover the cells it scanned (``oracles.cover_lower_bound``)."""

    @pytest.mark.parametrize("text, r_max, cells, expected", [
        # from the corner, heading 0 with phi 180 holds every cell of an open map
        ("S..\n...\n...", 30.0, "free", 1),
        # a wall hides the right column from the cells left of it
        ("S#.\n.#.\n...", 30.0, "free", 2),
        ("S..\n...", 30.0, "none", 0),
        # a free cell walled off from the start: no reachable cell sees it
        ("S.#\n.##\n##.", 30.0, "free", math.inf),
    ])
    def test_small_covers(self, text, r_max, cells, expected):
        grid = parse_map("resolution 1.0\n" + text)
        idx = np.flatnonzero(grid.free_mask()) if cells == "free" else np.array([], dtype=int)
        assert cover_lower_bound(grid, SensorModel(r_max=r_max), 4, 4, idx) == expected

    def test_every_named_configuration_needs_at_least_the_cover(self):
        # at r 30 m every cell of a 10x10 map is in range, so that a few windows
        # cover a map and the bound is within a factor 2 of the best runs
        sensor, bounds = SensorModel(r_max=30.0), {}
        for seed in (1, 2, 3):
            grid = generate_random_grid(10, 0.2, seed)
            for config in NAMED_CONFIGS:
                run = grid.copy()
                ops = run_coverage(run, config, sensor).total_sensing_ops
                scanned = np.flatnonzero(run.states == CellState.FREE_SCANNED)
                key = (seed, scanned.tobytes())
                if key not in bounds:
                    bounds[key] = cover_lower_bound(grid, sensor, 4, 4, scanned)
                assert ops >= bounds[key] > 1, (seed, config)


class TestUncoverableCells:
    def test_fully_coverable_map_has_none(self):
        grid = parse_map(empty_text(5, 5))
        assert uncoverable_cells(grid, SENSOR, 4, 4) == []

    def test_walled_pocket_detected(self):
        grid = parse_map("resolution 1.0\nS.#.\n..##\n....")
        sealed = uncoverable_cells(grid, SensorModel(r_max=1.2), 4, 4)
        assert Cell(3, 0) in sealed

    def test_run_leftovers_are_unreachable(self):
        # candidate positions live on the frontier, so anything walkable
        # gets covered; leftovers can only sit in walled-off components
        from nbsmell.planning import shortest_distances

        for seed in range(10):
            grid = generate_random_grid(15, 0.25, seed)
            pristine = grid.copy()
            result = run_coverage(grid, "E", SensorModel(r_max=6.0))
            field = shortest_distances(pristine, pristine.start, 4)
            for cell in result.uncovered_cells:
                assert math.isinf(field[cell.y, cell.x])

    def test_connected_maps_are_fully_covered(self):
        from nbsmell.planning import shortest_distances

        covered_some = 0
        for seed in range(40):
            grid = generate_random_grid(12, 0.2, seed)
            field = shortest_distances(grid, grid.start, 4)
            reachable = np.isfinite(field[grid.free_mask()])
            if not reachable.all():
                continue
            covered_some += 1
            result = run_coverage(grid, "E", SensorModel(r_max=6.0))
            assert result.coverage_satisfied
        assert covered_some >= 3
