"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines as they happen (they also appear in captured output).

Criterion 9's "B and L rank in the bottom three" clause is known to fail.
On the rooms map (r 15 m, 8 headings) the 13 configurations rank F first
(59.54 min), K second and B third (67.30); the bottom three are L, H and C,
which take over 1,000 steps each against F's 77.  B's measure is 1 on every
subset that holds distance, so its score is exactly the distance utility:
nearest frontier first, which is competitive here.  The check is asserted
as stated rather than weakened; README's criterion-9 note gives the full
ranking and how it was measured.
"""

import csv
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from oracles import compute_fos, dijkstra_oracle, free_cells, mark_cells, sampled_visible_set

from nbsmell.cli import main
from nbsmell.engine import run_coverage, uncoverable_cells
from nbsmell.grid import (
    Cell,
    Pose,
    generate_random_grid,
    heading_set,
)
from nbsmell.mapgen import shipped_map
from nbsmell.mcdm import (
    NAMED_CONFIGS,
    WeightConfig,
    build_measure,
    choquet_batch,
    named_measure,
    validate_measure,
)
from nbsmell.planning import shortest_distances
from nbsmell.sensing import SensorModel


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_sensing_time_calibration():
    sensor = SensorModel(r_max=10.0)  # default setup 6 s, sweep 1/3 s/deg
    t45 = sensor.sweep_time(45.0)
    t90 = sensor.sweep_time(90.0)
    _verdict(1, t45 == 21.0 and t90 == 36.0,
             f"sweep_time(45)={t45}, sweep_time(90)={t90} (exact)")


def _random_valid_measure(rng):
    x = rng.uniform(0.0, 1.0, 3)
    pairs = [float(rng.uniform(max(a, b), 1.0)) for a, b in
             ((x[0], x[1]), (x[0], x[2]), (x[1], x[2]))]
    from nbsmell.mcdm import FuzzyMeasure
    return FuzzyMeasure(values=(
        0.0, float(x[0]), float(x[1]), pairs[0], float(x[2]), pairs[1],
        pairs[2], 1.0,
    ))


def test_criterion_2_choquet_property_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(20240816)
    n = 10_000
    tol = 1e-12

    worst_idem = worst_bound = worst_mono = worst_add = 0.0
    for i in range(n):
        measure = _random_valid_measure(rng)
        assert validate_measure(measure) == []

        v = float(rng.uniform(0, 1))
        u = rng.uniform(0, 1, 3)
        j = int(rng.integers(3))
        bumped = u.copy()
        bumped[j] = float(rng.uniform(bumped[j], 1.0))
        idem, low, high, at_u, at_bumped = choquet_batch(
            np.array([(v, v, v), (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), u, bumped]).T, measure)
        worst_idem = max(worst_idem, abs(idem - v))
        worst_bound = max(worst_bound, abs(low), abs(high - 1.0))
        worst_mono = max(worst_mono, at_u - at_bumped)

        weights = rng.dirichlet((1.0, 1.0, 1.0))
        additive = build_measure(
            WeightConfig(*map(float, weights), synergy_bonus=0.0))
        u2 = rng.uniform(0, 1, 3)
        worst_add = max(worst_add,
                        abs(choquet_batch(u2[:, None], additive)[0] - float(weights @ u2)))

    elapsed = time.perf_counter() - started
    ok = (worst_idem <= tol and worst_bound <= tol and worst_mono <= tol
          and worst_add <= tol and elapsed < 5.0)
    _verdict(2, ok,
             f"{n} vectors/property: idempotence err {worst_idem:.2e}, "
             f"boundary err {worst_bound:.2e}, monotonicity slack {worst_mono:.2e}, "
             f"additive err {worst_add:.2e}, {elapsed:.2f} s")


# every cell of the published weight table: x1, x2, x3, mu12, mu13, mu23
TABLE_ROWS = {
    "A": (1.0, 0.0, 0.0, 1.0, 1.0, 0.0),
    "B": (0.0, 1.0, 0.0, 1.0, 0.0, 1.0),
    "C": (0.0, 0.0, 1.0, 0.0, 1.0, 1.0),
    "D": (0.333, 0.333, 0.333, 0.766, 0.766, 0.766),
    "E": (0.6, 0.2, 0.2, 0.9, 0.9, 0.5),
    "F": (0.428, 0.428, 0.144, 0.956, 0.672, 0.672),
    "G": (0.2, 0.6, 0.2, 0.9, 0.5, 0.9),
    "H": (0.144, 0.428, 0.428, 0.672, 0.672, 0.956),
    "I": (0.2, 0.2, 0.6, 0.5, 0.9, 0.9),
    "J": (0.428, 0.144, 0.428, 0.672, 0.956, 0.672),
    "K": (0.5, 0.5, 0.0, 1.0, 0.6, 0.6),
    "L": (0.0, 0.5, 0.5, 0.6, 0.6, 1.0),
    "M": (0.5, 0.0, 0.5, 0.6, 1.0, 0.6),
}


def test_criterion_3_weight_table_fidelity():
    mask_order = (1, 2, 4, 3, 5, 6)  # {1},{2},{3},{1,2},{1,3},{2,3}
    exact = True
    for name, (x1, x2, x3, m12, m13, m23) in TABLE_ROWS.items():
        measure = named_measure(name)
        expected = {1: x1, 2: x2, 4: x3, 3: m12, 5: m13, 6: m23, 0: 0.0, 7: 1.0}
        for mask in range(8):
            if measure.values[mask] != expected[mask]:
                exact = False
        if validate_measure(measure) != []:
            exact = False
        # monotone over all 28 unordered subset pairs (vacuous if incomparable)
        for a in range(8):
            for b in range(a + 1, 8):
                if (a & b) == a and measure.values[a] > measure.values[b]:
                    exact = False
                if (a & b) == b and measure.values[b] > measure.values[a]:
                    exact = False
    _verdict(3, exact, "13 measures match the table exactly and satisfy all axioms")


def test_criterion_4_hand_computed_choquet():
    value = choquet_batch(np.array([[0.5], [0.3], [0.8]]), named_measure("D")).item()
    _verdict(4, abs(value - 0.5531) <= 1e-9, f"choquet_batch([[0.5],[0.3],[0.8]], D) = {value!r}")


def test_criterion_5_geometry_oracles():
    started = time.perf_counter()
    sensor = SensorModel(r_max=4.5, phi_max=180.0)
    headings = heading_set(4)
    half = math.radians(sensor.phi_max) / 2.0

    fos_checked = 0
    for layout in range(200):
        ratio = 0.15 if layout % 2 == 0 else 0.3
        grid = generate_random_grid(7, ratio, layout)
        rng = np.random.default_rng(layout)
        free = free_cells(grid)
        pre_scanned = [free[i] for i in rng.choice(len(free),
                                                   size=min(8, len(free)),
                                                   replace=False)]
        mark_cells(grid, pre_scanned)
        for idx, cell in enumerate(free):
            theta = headings[(layout + idx) % 4]
            scan = compute_fos(grid, Pose(cell, theta), sensor)
            oracle_visible = sampled_visible_set(grid, cell, sensor.r_max)

            # mirror the window/trim logic on top of the sampled oracle
            def rel_bearing(c):
                b = math.atan2(c.y - cell.y, c.x - cell.x)
                return math.atan2(math.sin(b - theta), math.cos(b - theta))

            in_window = {c for c in oracle_visible if abs(rel_bearing(c)) <= half}
            new_rays = {c for c in in_window
                        if grid.states[c.y, c.x] == 1}  # FREE_UNSCANNED
            own_new = grid.states[cell.y, cell.x] == 1
            if new_rays:
                rels = [rel_bearing(c) for c in new_rays]
                lo, hi = min(rels), max(rels)
                expected_all = {c for c in in_window if lo <= rel_bearing(c) <= hi}
                expected_all.add(cell)
                expected_phi = math.degrees(hi - lo)
            else:
                expected_all = {cell}
                expected_phi = 0.0
            expected_new = {c for c in expected_all
                            if grid.states[c.y, c.x] == 1}
            if own_new:
                expected_new.add(cell)

            assert scan.smellable_all == expected_all, (layout, cell, theta)
            assert scan.smellable_new == expected_new, (layout, cell, theta)
            assert scan.phi_used == pytest.approx(expected_phi, abs=1e-9)
            fos_checked += 1

    paths_checked = 0
    for layout in range(40):
        grid = generate_random_grid(10, 0.25, 1000 + layout)
        for connectivity in (4, 8):
            field = shortest_distances(grid, grid.start, connectivity)
            oracle = dijkstra_oracle(grid, grid.start, connectivity)
            for goal in free_cells(grid):
                expected = oracle.get(goal, math.inf)
                assert field[goal.y, goal.x] == pytest.approx(
                    expected, abs=1e-9), (layout, connectivity, goal)
                paths_checked += 1

    elapsed = time.perf_counter() - started
    _verdict(5, elapsed < 60.0,
             f"{fos_checked} poses vs 1000-sample oracle, "
             f"{paths_checked} path lengths vs Dijkstra oracle, {elapsed:.1f} s")


def test_criterion_6_coverage_completeness():
    started = time.perf_counter()
    sensor = SensorModel(r_max=30.0, phi_max=180.0)
    covered = 0
    seed = 0
    while covered < 100:
        grid = generate_random_grid(20, 0.1, seed)
        seed += 1
        field = shortest_distances(grid, grid.start, 4)
        if not np.isfinite(field[grid.free_mask()]).all():
            continue  # regenerate disconnected maps, for this test only
        pristine = grid.copy()
        result = run_coverage(grid, "E", sensor, orientations=4, connectivity=4)
        if not result.coverage_satisfied:
            sealed = set(uncoverable_cells(pristine, sensor, 4, 4))
            assert set(result.uncovered_cells) <= sealed, f"seed {seed - 1}"
        covered += 1
    elapsed = time.perf_counter() - started
    _verdict(6, elapsed < 120.0,
             f"100 connected 20x20 maps fully accounted for, {elapsed:.1f} s")


def test_criterion_7_random_grid_scaling(tmp_path):
    started = time.perf_counter()
    out = tmp_path / "randgrid"
    timing = tmp_path / "timing.csv"
    code = main([
        "randgrid", "--sizes", "10,30,50,70,90", "--grids-per-size", "10",
        "--seed", "1", "--out", str(out), "--timing-out", str(timing),
    ])
    assert code == 0
    rows = list(csv.DictReader((out / "randgrid.csv").open()))
    mean_ops = {int(r["size"]): float(r["sensing_ops"])
                for r in rows if r["row_type"] == "size_mean"}
    timing_rows = list(csv.DictReader(timing.open()))
    mean_plan = {int(r["size"]): float(r["planning_time_s"])
                 for r in timing_rows if r["row_type"] == "size_mean"}

    sizes = [10, 30, 50, 70, 90]
    ops_curve = [mean_ops[s] for s in sizes]
    plan_curve = [mean_plan[s] for s in sizes]
    in_band = 175.0 <= mean_ops[90] <= 325.0
    plan_ok = mean_plan[90] <= 40.0
    ops_monotone = all(b > a for a, b in zip(ops_curve, ops_curve[1:]))
    plan_monotone = all(b > a for a, b in zip(plan_curve, plan_curve[1:]))
    elapsed = time.perf_counter() - started
    _verdict(7, in_band and plan_ok and ops_monotone and plan_monotone
             and elapsed < 1800.0,
             f"mean ops {['%.1f' % v for v in ops_curve]} "
             f"(90x90 target 250 +/- 30%), mean planning "
             f"{['%.2f' % v for v in plan_curve]} s, {elapsed:.0f} s total")


def test_criterion_8_coverage_curve_knee():
    started = time.perf_counter()
    rooms = shipped_map("rooms")
    result = run_coverage(rooms, "F", SensorModel(r_max=15.0),
                          orientations=4, connectivity=4)
    assert result.coverage_satisfied
    knee = next(rec.index for rec in result.steps
                if rec.cumulative_coverage >= 0.8)
    fraction = knee / result.total_sensing_ops
    elapsed = time.perf_counter() - started
    _verdict(8, fraction <= 0.70 and elapsed < 120.0,
             f"80% coverage at step {knee} of {result.total_sensing_ops} "
             f"({fraction:.1%} <= 70%), {elapsed:.1f} s")


def test_criterion_9_configuration_orderings():
    started = time.perf_counter()
    corridor = shipped_map("corridor")
    corridor_sensor = SensorModel(r_max=10.0)
    total = {}
    for name in ("M", "B"):
        total[name] = run_coverage(corridor.copy(), name, corridor_sensor,
                                   orientations=8, connectivity=4).total_time
    corridor_ok = total["M"] < total["B"]

    rooms = shipped_map("rooms")
    rooms_sensor = SensorModel(r_max=15.0)
    rooms_total = {}
    for name in NAMED_CONFIGS:
        rooms_total[name] = run_coverage(rooms.copy(), name, rooms_sensor,
                                         orientations=8, connectivity=4).total_time
    f_ok = rooms_total["F"] < rooms_total["B"]
    ranking = sorted(rooms_total, key=rooms_total.get)
    bottom_three = set(ranking[-3:])
    bottom_ok = {"B", "L"} <= bottom_three

    elapsed = time.perf_counter() - started
    _verdict(
        9,
        corridor_ok and f_ok and bottom_ok and elapsed < 300.0,
        f"corridor M {total['M'] / 60:.2f} min < B {total['B'] / 60:.2f} min: "
        f"{corridor_ok}; rooms F {rooms_total['F'] / 60:.2f} < "
        f"B {rooms_total['B'] / 60:.2f}: {f_ok}; "
        f"bottom three {sorted(bottom_three)} contains B and L: {bottom_ok}; "
        f"{elapsed:.0f} s",
    )


def test_criterion_10_determinism(tmp_path):
    started = time.perf_counter()
    map_path = tmp_path / "map.txt"
    assert main(["genmap", "--kind", "rooms", "--size", "24x24", "--seed", "3",
                 "--out", str(map_path)]) == 0
    map_again = tmp_path / "map2.txt"
    assert main(["genmap", "--kind", "rooms", "--size", "24x24", "--seed", "3",
                 "--out", str(map_again)]) == 0
    identical = map_path.read_bytes() == map_again.read_bytes()

    run_dirs = [tmp_path / "run_a", tmp_path / "run_b"]
    for out in run_dirs:
        assert main(["run", "--map", str(map_path), "--config", "F",
                     "--out", str(out), "--snapshots"]) == 0
    for name in ("run.csv", "summary.json"):
        identical &= ((run_dirs[0] / name).read_bytes()
                      == (run_dirs[1] / name).read_bytes())
    snaps_a = sorted((run_dirs[0] / "snapshots").iterdir())
    snaps_b = sorted((run_dirs[1] / "snapshots").iterdir())
    identical &= len(snaps_a) == len(snaps_b)
    identical &= all(a.read_bytes() == b.read_bytes()
                     for a, b in zip(snaps_a, snaps_b))

    sweep_dirs = [tmp_path / "sweep_a", tmp_path / "sweep_b"]
    for out in sweep_dirs:
        assert main(["sweep", "--map", str(map_path), "--out", str(out)]) == 0
    identical &= ((sweep_dirs[0] / "sweep.csv").read_bytes()
                  == (sweep_dirs[1] / "sweep.csv").read_bytes())

    rand_args = ["randgrid", "--sizes", "6,9", "--grids-per-size", "4",
                 "--seed", "11"]
    rand_dirs = [tmp_path / "rg_serial", tmp_path / "rg_serial2",
                 tmp_path / "rg_parallel"]
    assert main(rand_args + ["--out", str(rand_dirs[0])]) == 0
    assert main(rand_args + ["--out", str(rand_dirs[1])]) == 0
    assert main(rand_args + ["--out", str(rand_dirs[2]), "--jobs", "3"]) == 0
    blobs = [(d / "randgrid.csv").read_bytes() for d in rand_dirs]
    identical &= blobs[0] == blobs[1] == blobs[2]

    elapsed = time.perf_counter() - started
    _verdict(10, identical and elapsed < 60.0,
             f"genmap/run/sweep/randgrid byte-identical across repeats "
             f"(randgrid also under --jobs 3), {elapsed:.1f} s")
