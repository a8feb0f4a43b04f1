import csv
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from nbsmell import cli
from nbsmell.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_MAP,
    EXIT_OK,
    RANDGRID_CSV_HEADER,
    RUN_CSV_HEADER,
    SWEEP_CSV_HEADER,
    main,
    render_ppm,
)
from nbsmell.engine import CoverageEngine
from nbsmell.grid import Cell, mark_scanned, parse_map


@pytest.fixture
def tiny_map(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text("resolution 1.0\nS....\n.....\n..#..\n.....\n")
    return path


def command_args(command, map_path, out):
    """Smallest argument list of each command that writes below ``out``."""
    return {
        "run": ["run", "--map", str(map_path), "--out", str(out)],
        "sweep": ["sweep", "--map", str(map_path), "--out", str(out)],
        "randgrid": ["randgrid", "--sizes", "3", "--grids-per-size", "1",
                     "--out", str(out)],
        "genmap": ["genmap", "--kind", "empty", "--size", "3",
                   "--out", str(out / "map.txt")],
    }[command]


class TestExitPaths:
    @pytest.mark.parametrize("command", ["run", "sweep", "randgrid", "genmap"])
    def test_output_below_regular_file_exit_io(self, tiny_map, tmp_path, capsys, command):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(command_args(command, tiny_map, blocker / "out")) == EXIT_IO
        assert capsys.readouterr().err.startswith("i/o error: ")

    @pytest.mark.parametrize("argv,code,prefix", [
        (["--map", "{bad}"], EXIT_MAP, "map error: "),
        (["--map", "{missing}"], EXIT_MAP, "map error: "),
        (["--map", "{tiny}", "--speed-mps", "0"], EXIT_CONFIG, "invalid configuration: "),
        (["--map", "{tiny}", "--rmax-m", "nan"], EXIT_CONFIG, "invalid configuration: "),
        (["--map", "{tiny}", "--target-coverage", "0"], EXIT_CONFIG,
         "invalid configuration: "),
    ], ids=["broken-map", "missing-map", "speed", "rmax", "target"])
    def test_sweep_input_errors(self, tiny_map, tmp_path, capsys, argv, code, prefix):
        bad = tmp_path / "bad.txt"
        bad.write_text("resolution 1.0\nSS\n")
        paths = {"bad": bad, "missing": tmp_path / "nope.txt", "tiny": tiny_map}
        argv = [a.format(**paths) for a in argv]
        out = tmp_path / "o"
        assert main(["sweep", *argv, "--out", str(out)]) == code
        assert capsys.readouterr().err.startswith(prefix)
        assert not out.exists()

    @pytest.mark.parametrize("argv,prefix", [
        (["run", "--map", "{tiny}", "--config", "Q"], "invalid configuration: "),
        (["run", "--map", "{bad}"], "map error: "),
        (["randgrid", "--sizes", "0"], "invalid configuration: "),
        (["genmap", "--kind", "empty", "--size", "abc"], "invalid configuration: "),
        (["genmap", "--kind", "empty", "--size", "3xabc"], "invalid configuration: "),
    ], ids=["run-config", "run-map", "randgrid-sizes", "genmap-size", "genmap-height"])
    def test_stderr_prefix(self, tiny_map, tmp_path, capsys, argv, prefix):
        bad = tmp_path / "bad.txt"
        bad.write_text("resolution 1.0\n#\n")
        argv = [a.format(tiny=tiny_map, bad=bad) for a in argv]
        code = main([*argv, "--out", str(tmp_path / "o")])
        assert code == (EXIT_MAP if prefix == "map error: " else EXIT_CONFIG)
        assert capsys.readouterr().err.startswith(prefix)

    @pytest.mark.parametrize("argv,message", [
        (["genmap", "--kind", "empty", "--size", "3x"],
         "--size expects WxH or one side length, got '3x'"),
        (["genmap", "--kind", "empty", "--size", "abc"],
         "--size expects WxH or one side length, got 'abc'"),
        (["genmap", "--kind", "empty", "--size", "3xabc"],
         "--size expects WxH or one side length, got '3xabc'"),
        (["genmap", "--kind", "empty", "--size=-3x4"],
         "empty map width must be an integer >= 0, got -3"),
        (["genmap", "--kind", "rooms", "--size", "20x8"],
         "rooms map height must be an integer >= 16, got 8"),
        (["genmap", "--kind", "random", "--size", "5x6"], "random maps are square, got 5x6"),
        (["randgrid", "--sizes", "a"], "invalid --sizes 'a'"),
        (["randgrid", "--sizes", "3,a"], "invalid --sizes '3,a'"),
        # sizes are ASCII integers: Python's int also reads digit separators and other scripts
        (["genmap", "--kind", "empty", "--size", "1_0x٣"],
         "--size expects WxH or one side length, got '1_0x٣'"),
        (["randgrid", "--sizes", "1_0"], "invalid --sizes '1_0'"),
        (["randgrid", "--sizes", "٣"], "invalid --sizes '٣'"),
        (["randgrid", "--sizes", "3", "--grids-per-size", "0"],
         "--grids-per-size must be >= 1, got 0"),
        (["genmap", "--kind", "empty", "--size", " 3"], None),
        (["randgrid", "--sizes", " 3, 10", "--grids-per-size", "1"], None),
    ], ids=["size-no-height", "size-word", "size-height-word", "size-negative", "size-small",
            "size-not-square", "sizes-word", "sizes-one-word", "size-not-ascii",
            "sizes-separator", "sizes-not-ascii", "grids-per-size", "size-blanks",
            "sizes-blanks"])
    def test_size_error_lines(self, tmp_path, capsys, argv, message):
        # the flag and the value as typed, or the argument the value became;
        # no message: blanks around a number, which must keep working
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out / "map.txt" if argv[0] == "genmap" else out)]) == (
            EXIT_CONFIG if message else EXIT_OK)
        err = capsys.readouterr().err
        if message:
            assert err == f"invalid configuration: {message}\n"
            assert not out.exists()

    @pytest.mark.parametrize("command,flag,value", [
        ("run", "--rmax-m", "1_0"),
        ("run", "--phimax-deg", "٩٠"),
        ("run", "--setup-s", "６"),
        ("run", "--sweep-s-per-deg", "0_5"),
        ("run", "--orientations", "٤"),
        ("run", "--connectivity", "٨"),
        ("run", "--speed-mps", "1_0"),
        ("run", "--target-coverage", "٠.٥"),
        ("run", "--synergy-bonus", "0_1"),
        ("randgrid", "--grids-per-size", "1_0"),
        ("randgrid", "--obstacle-ratio", "٠.١"),
        ("randgrid", "--seed", "٧"),
        ("randgrid", "--jobs", "２"),
        ("genmap", "--seed", "٧"),
        ("genmap", "--obstacle-ratio", "0_1"),
        ("genmap", "--resolution", "١"),
    ])
    def test_typed_flags_take_only_ascii_numbers(self, tiny_map, tmp_path, capsys, command,
                                                 flag, value):
        # Python's int and float read digit separators and other scripts' digits
        assert math.isfinite(float(value))
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exit_info:
            main([*command_args(command, tiny_map, out), flag, value])
        assert exit_info.value.code == EXIT_CONFIG
        assert f"error: argument {flag}: invalid " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,flag,value", [
        ("run", "--setup-s", "-inf"),
        ("run", "--rmax-m", "-NaN"),
        ("run", "--speed-mps", "-1e-3"),
        ("run", "--target-coverage", "-NaN"),
        ("run", "--phimax-deg", "-Infinity"),
        ("randgrid", "--obstacle-ratio", "-.5e-1"),
        ("run", "--weights", "-0.5,0.5,1"),
        ("randgrid", "--sizes", "-3,4"),
        ("genmap", "--resolution", "-inf"),
    ])
    def test_negative_value_after_its_flag(self, tiny_map, tmp_path, capsys, command, flag,
                                           value):
        # argparse takes a value for an option unless it reads as a plain negative number
        out = tmp_path / "o"
        errors = []
        for pair in ([flag, value], [f"{flag}={value}"]):
            assert main([*command_args(command, tiny_map, out), *pair]) == EXIT_CONFIG
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("invalid configuration: ")
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--config", "z"], "unknown configuration 'z'; expected one of "
                            "A, B, C, D, E, F, G, H, I, J, K, L, M"),
        (["--config", "custom"], "--config custom requires --weights"),
        (["--weights", "0.5,0.5"], "--weights expects 'x1,x2,x3', got '0.5,0.5'"),
        (["--weights", "a,b,c"], "--weights expects numbers, got 'a,b,c'"),
        (["--weights", "0.5,0.5,0.5"],
         "weights must satisfy x1 + x2 + x3 = 1 (got 1.5, tolerance 1e-09)"),
        (["--weights", "1.5,-0.5,0"], "x1 = 1.5 outside [0, 1]"),
        (["--weights", "0.2,0.3,0.5", "--synergy-bonus", "-1"],
         "synergy_bonus must be >= 0, got -1.0"),
        (["--weights", "٠.٥,٠.٥,٠"], "--weights expects numbers, got '٠.٥,٠.٥,٠'"),
        (["--orientations", "6"], "orientation count must be 4 or 8, got 6"),
        (["--connectivity", "6"], "connectivity must be 4 or 8, got 6"),
        # each value is finite, but a full sweep of 180 degrees takes longer than any float
        (["--sweep-s-per-deg", "1e308"],
         "setup_time + sweep_rate * phi_max must be finite, got inf"),
        # the configuration is checked before the motion flags
        (["--config", "Q", "--connectivity", "6"], "unknown configuration 'Q'; expected one "
                                                   "of A, B, C, D, E, F, G, H, I, J, K, L, M"),
        (["--weights", "0.5, 0.3, 0.2"], None),
    ], ids=["unknown", "custom", "two-parts", "non-numeric", "off-simplex", "range",
            "negative-bonus", "not-ascii", "orientations", "connectivity", "full-sweep",
            "config-first", "blanks"])
    @pytest.mark.parametrize("command", ["run", "randgrid"])
    def test_configuration_error_lines(self, tiny_map, tmp_path, capsys, command, flags,
                                       message):
        # no message: blanks around a number, which must keep working
        argv = command_args(command, tiny_map, tmp_path / "o")
        assert main([*argv, *flags]) == (EXIT_CONFIG if message else EXIT_OK)
        err = capsys.readouterr().err
        if message:
            assert err == f"invalid configuration: {message}\n"
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags,message", [
        (["--speed-mps", "1e-320"], "a run over 475 free cells has no finite time bound at "
                                    "speed 1e-320 m/s, resolution 0.5 m and full sweep 66.0 s"),
        (["--setup-s", "1.7e308"], "a run over 475 free cells has no finite time bound at "
                                   "speed 1.0 m/s, resolution 0.5 m and full sweep 1.7e+308 s"),
        (["--map", "{huge}"], "a run over 6 free cells has no finite time bound at speed 1.0 "
                              "m/s, resolution 1e+308 m and full sweep 66.0 s"),
    ], ids=["speed", "setup", "resolution"])
    def test_run_whose_totals_could_overflow_exits_2(self, tmp_path, capsys, flags, message):
        # each value passes its own check, but the times of a run could overflow, which
        # failed the JSON summary with "Out of range float values", or the distance field
        huge = tmp_path / "huge.txt"
        huge.write_text("resolution 1e308\nS..\n...\n")
        corridor = Path(cli.__file__).parent / "maps" / "corridor_60x10.txt"
        out = tmp_path / "o"
        argv = ["run", "--map", str(corridor), "--rmax-m", "10", "--out", str(out),
                *(f.format(huge=huge) for f in flags)]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"invalid configuration: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep", "randgrid"])
    def test_error_inside_coverage_run_propagates(self, tiny_map, tmp_path, monkeypatch,
                                                  command):
        def broken_run(self):
            raise ValueError("broken run")

        monkeypatch.setattr(CoverageEngine, "run", broken_run)
        with pytest.raises(ValueError, match="broken run"):
            main(command_args(command, tiny_map, tmp_path / "o"))


class TestGoldenOutputs:
    # sha256 of each deterministic output; a change to any of them changes
    # what the program computes (numpy 2.4.6, Python 3.11)
    DIGESTS = {
        "run/run.csv": "eaff397eb6b41fbbfa419a5c8c85bbe78a08a8c344e917e225c317b895c8d34e",
        "sweep/sweep.csv": "0621042ca02cc1e4b00967f16c1aa214e9e978f480aa32a1527a7ece24adea08",
        "randgrid/randgrid.csv": "b55b36863d3619a454436920793227289a56026b2b3b202a3d08283526fc3039",
        # 4-connected at 0.1 m on an even width: the travel distances are running
        # sums of the resolution, and a field of depth * 0.1 changes this run
        "rooms/run.csv": "0636787d417f5768e877be322f08bdab38d326712dd848b3f1a9a66c44037c4f",
    }

    def test_outputs_match_pinned_digests(self, tmp_path):
        corridor = str(Path(cli.__file__).parent / "maps" / "corridor_60x10.txt")
        rooms = str(tmp_path / "rooms.txt")
        assert main(["genmap", "--kind", "rooms", "--size", "40x30", "--seed", "3",
                     "--resolution", "0.1", "--out", rooms]) == EXIT_OK
        for out, argv in (
            ("run", ["run", "--map", corridor, "--config", "F", "--orientations", "8",
                     "--rmax-m", "10"]),
            ("sweep", ["sweep", "--map", corridor, "--rmax-m", "10"]),
            ("randgrid", ["randgrid", "--sizes", "3,10", "--grids-per-size", "2"]),
            ("rooms", ["run", "--map", rooms, "--config", "F", "--rmax-m", "6"]),
        ):
            assert main([*argv, "--out", str(tmp_path / out)]) == EXIT_OK
        digests = {f"{path.parent.name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in tmp_path.glob("*/*.csv")}
        assert digests == self.DIGESTS


class TestRunCommand:
    def test_single_cell_map(self, tmp_path):
        map_path = tmp_path / "one.txt"
        map_path.write_text("resolution 1.0\nS\n")
        out = tmp_path / "out"
        code = main(["run", "--map", str(map_path), "--out", str(out)])
        assert code == EXIT_OK
        rows = list(csv.reader((out / "run.csv").open()))
        assert rows[0] == RUN_CSV_HEADER
        assert len(rows) == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["coverage_satisfied"] is True
        assert summary["total_sensing_ops"] == 1

    def test_run_outputs_are_byte_identical(self, tiny_map, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main([
                "run", "--map", str(tiny_map), "--config", "F",
                "--out", str(out),
            ]) == EXIT_OK
        assert (out_a / "run.csv").read_bytes() == (out_b / "run.csv").read_bytes()
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()

    def test_bad_weights_exit_config(self, tiny_map, tmp_path):
        code = main([
            "run", "--map", str(tiny_map),
            "--weights", "0.5,0.3,0.1",
            "--out", str(tmp_path / "o"),
        ])
        assert code == EXIT_CONFIG

    def test_unknown_config_exit_config(self, tiny_map, tmp_path):
        code = main([
            "run", "--map", str(tiny_map), "--config", "Q",
            "--out", str(tmp_path / "o"),
        ])
        assert code == EXIT_CONFIG

    def test_broken_map_exit_map(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("resolution 1.0\nSS\n")
        assert main(["run", "--map", str(bad), "--out", str(tmp_path / "o")]) == EXIT_MAP

    def test_missing_map_exit_map(self, tmp_path):
        assert main([
            "run", "--map", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o")
        ]) == EXIT_MAP

    def test_custom_weights_accepted(self, tiny_map, tmp_path):
        out = tmp_path / "out"
        code = main([
            "run", "--map", str(tiny_map),
            "--weights", "0.5,0.3,0.2",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["configuration"] == "custom"
        assert summary["weights"] == [0.5, 0.3, 0.2]

    def test_snapshots_written(self, tiny_map, tmp_path):
        out = tmp_path / "out"
        code = main([
            "run", "--map", str(tiny_map), "--out", str(out), "--snapshots",
        ])
        assert code == EXIT_OK
        snaps = sorted((out / "snapshots").glob("*.ppm"))
        summary = json.loads((out / "summary.json").read_text())
        assert len(snaps) == summary["total_sensing_ops"]
        head = snaps[0].read_bytes()
        assert head.startswith(b"P6\n5 4\n255\n")
        assert len(head) == len(b"P6\n5 4\n255\n") + 5 * 4 * 3

    def test_timing_sidecar(self, tiny_map, tmp_path):
        out = tmp_path / "out"
        timing = tmp_path / "timing.csv"
        assert main([
            "run", "--map", str(tiny_map), "--out", str(out),
            "--timing-out", str(timing),
        ]) == EXIT_OK
        rows = list(csv.reader(timing.open()))
        assert rows[0] == ["index", "decision_time_s"]
        assert len(rows) >= 2

    def test_bad_speed_exit_config(self, tiny_map, tmp_path):
        assert main([
            "run", "--map", str(tiny_map), "--speed-mps", "0",
            "--out", str(tmp_path / "o"),
        ]) == EXIT_CONFIG

    @pytest.mark.parametrize("flag,value", [
        ("--setup-s", "nan"),
        ("--sweep-s-per-deg", "inf"),
        ("--rmax-m", "inf"),
        ("--speed-mps", "inf"),
        # the other spellings Python's float reads reach the library check as well
        ("--phimax-deg", " Infinity"),
        ("--target-coverage", "+NaN"),
    ])
    def test_non_finite_value_exit_config(self, tiny_map, tmp_path, flag, value):
        out = tmp_path / "o"
        assert main([
            "run", "--map", str(tiny_map), flag, value, "--out", str(out),
        ]) == EXIT_CONFIG
        assert not (out / "summary.json").exists()

    def test_bad_target_exit_config(self, tiny_map, tmp_path):
        assert main([
            "run", "--map", str(tiny_map), "--target-coverage", "1.5",
            "--out", str(tmp_path / "o"),
        ]) == EXIT_CONFIG

    def test_target_coverage_flag(self, tiny_map, tmp_path):
        out = tmp_path / "out"
        assert main([
            "run", "--map", str(tiny_map), "--out", str(out),
            "--target-coverage", "0.5",
        ]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["coverage_ratio"] >= 0.5


class TestSweepCommand:
    def test_thirteen_rows_with_schema(self, tiny_map, tmp_path):
        out = tmp_path / "out"
        assert main(["sweep", "--map", str(tiny_map), "--out", str(out)]) == EXIT_OK
        rows = list(csv.reader((out / "sweep.csv").open()))
        assert rows[0] == SWEEP_CSV_HEADER
        assert len(rows) == 14
        assert [r[0] for r in rows[1:]] == list("ABCDEFGHIJKLM")
        # obstacle-free interior map: everything coverable
        assert all(r[1] == "yes" for r in rows[1:])

    def test_sweep_deterministic(self, tiny_map, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["sweep", "--map", str(tiny_map), "--out", str(out)]) == EXIT_OK
        assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()


class TestRandgridCommand:
    def test_small_batch_schema_and_aggregates(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "randgrid", "--sizes", "3,5", "--grids-per-size", "3",
            "--seed", "9", "--out", str(out),
        ])
        assert code == EXIT_OK
        rows = list(csv.reader((out / "randgrid.csv").open()))
        assert rows[0] == RANDGRID_CSV_HEADER
        grid_rows = [r for r in rows[1:] if r[0] == "grid"]
        mean_rows = [r for r in rows[1:] if r[0] == "size_mean"]
        assert len(grid_rows) == 6
        assert len(mean_rows) == 2
        assert [r[1] for r in mean_rows] == ["3", "5"]
        # documented seed derivation: master + 1000*size + index
        assert grid_rows[0][3] == str(9 + 1000 * 3 + 0)
        assert grid_rows[5][3] == str(9 + 1000 * 5 + 2)

    def test_zero_ratio_grids_identical_across_seeds(self, tmp_path):
        out = tmp_path / "out"
        assert main([
            "randgrid", "--sizes", "3", "--grids-per-size", "4",
            "--obstacle-ratio", "0.0", "--out", str(out),
        ]) == EXIT_OK
        rows = list(csv.reader((out / "randgrid.csv").open()))
        ops = {r[7] for r in rows[1:] if r[0] == "grid"}
        assert len(ops) == 1  # identical obstacle-free grids cover identically

    def test_parallel_matches_serial(self, tmp_path):
        out_a, out_b = tmp_path / "serial", tmp_path / "parallel"
        base = ["randgrid", "--sizes", "4,6", "--grids-per-size", "2",
                "--seed", "3"]
        assert main(base + ["--out", str(out_a)]) == EXIT_OK
        assert main(base + ["--out", str(out_b), "--jobs", "2"]) == EXIT_OK
        assert (out_a / "randgrid.csv").read_bytes() == (out_b / "randgrid.csv").read_bytes()

    # taken before the results travelled by name: grid rows by size, means in the order given
    UNSORTED_CSV = "6d1170488383fcbd4f6bc7e60d72b151dd7345a3a6adb7aeddd8caafbda16956"
    UNSORTED_TIMING_KEYS = [
        ["row_type", "size", "grid_index"], ["grid", "3", "0"], ["grid", "3", "1"],
        ["grid", "3", "2"], ["grid", "10", "0"], ["grid", "10", "1"], ["grid", "10", "2"],
        ["size_mean", "10", ""], ["size_mean", "3", ""]]
    UNSORTED_STDOUT = ("size=10 grids=3 mean_sensing_ops=6.67\n"
                       "size=3 grids=3 mean_sensing_ops=2.33\n")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_unsorted_sizes_pinned(self, tmp_path, capsys, jobs):
        out, timing = tmp_path / "out", tmp_path / "timing.csv"
        assert main(["randgrid", "--sizes", "10,3", "--grids-per-size", "3", "--jobs", jobs,
                     "--timing-out", str(timing), "--out", str(out)]) == EXIT_OK
        csv_bytes = (out / "randgrid.csv").read_bytes()
        assert hashlib.sha256(csv_bytes).hexdigest() == self.UNSORTED_CSV
        rows = list(csv.reader(timing.open()))
        assert [r[:3] for r in rows] == self.UNSORTED_TIMING_KEYS
        assert all(re.fullmatch(r"\d+\.\d{6}", r[3]) for r in rows[1:])
        captured = capsys.readouterr()
        assert captured.out == self.UNSORTED_STDOUT
        assert re.fullmatch(r"size=10 mean_planning_time_s=\d+\.\d{3}\n"
                            r"size=3 mean_planning_time_s=\d+\.\d{3}\n", captured.err)

    def test_bad_sizes_exit_config(self, tmp_path):
        assert main([
            "randgrid", "--sizes", "0", "--out", str(tmp_path / "o")
        ]) == EXIT_CONFIG

    @pytest.mark.parametrize("sizes,repeated", [("3,3", 3), ("5,3,05", 5)])
    def test_repeated_size_exit_config_before_any_grid_runs(
            self, tmp_path, capsys, monkeypatch, sizes, repeated):
        def no_run(*args, **kwargs):
            raise AssertionError("a grid ran before the batch was validated")

        monkeypatch.setattr(cli, "run_coverage", no_run)
        assert main([
            "randgrid", "--sizes", sizes, "--grids-per-size", "2",
            "--out", str(tmp_path / "o"),
        ]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"invalid configuration: --sizes repeats size {repeated}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("sizes,ratio", [("3,2", "0.9"), ("1", "0.6")])
    def test_ratio_leaving_no_free_cell_exit_config_before_any_grid_runs(
            self, tmp_path, capsys, monkeypatch, sizes, ratio):
        def no_run(*args, **kwargs):
            raise AssertionError("a grid ran before the batch was validated")

        monkeypatch.setattr(cli, "run_coverage", no_run)
        assert main([
            "randgrid", "--sizes", sizes, "--obstacle-ratio", ratio,
            "--out", str(tmp_path / "o"),
        ]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("invalid configuration: ")

    @pytest.mark.parametrize("sizes,seed", [("3", "-3005"), ("10,3", "-3001")])
    def test_negative_grid_seed_exit_config_before_any_grid_runs(
            self, tmp_path, capsys, monkeypatch, sizes, seed):
        def no_run(*args, **kwargs):
            raise AssertionError("a grid ran before the batch was validated")

        monkeypatch.setattr(cli, "run_coverage", no_run)
        assert main([
            "randgrid", "--sizes", sizes, "--seed", seed, "--jobs", "2",
            "--out", str(tmp_path / "o"),
        ]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("invalid configuration: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_config(self, tmp_path, jobs):
        assert main([
            "randgrid", "--sizes", "3", "--jobs", jobs, "--out", str(tmp_path / "o")
        ]) == EXIT_CONFIG

    @pytest.mark.parametrize("jobs,grids,expected", [
        (64, 4, [3]),  # capped by the CPU count
        (64, 2, [2]),  # capped by the number of grids
        (2, 4, [2]),
        (64, 1, []),  # one grid runs in this process
    ])
    def test_jobs_capped_by_grids_and_cpus(self, tmp_path, monkeypatch, jobs, grids,
                                           expected):
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        assert main([
            "randgrid", "--sizes", "3", "--grids-per-size", str(grids),
            "--jobs", str(jobs), "--out", str(tmp_path / "o"),
        ]) == EXIT_OK
        assert started == expected


class TestGenmapCommand:
    def test_empty_five_by_five(self, tmp_path):
        out = tmp_path / "empty.txt"
        assert main(["genmap", "--kind", "empty", "--size", "5", "--out", str(out)]) == EXIT_OK
        text = out.read_text()
        body = text.split("\n", 1)[1]
        assert body.count(".") == 24
        assert body.count("S") == 1
        grid = parse_map(text)
        assert grid.start == Cell(2, 2)

    def test_corridor_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            assert main([
                "genmap", "--kind", "corridor", "--size", "60x10",
                "--seed", "5", "--out", str(path),
            ]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_random_ninety_has_810_obstacles(self, tmp_path):
        out = tmp_path / "r.txt"
        assert main([
            "genmap", "--kind", "random", "--size", "90", "--seed", "2",
            "--obstacle-ratio", "0.1", "--out", str(out),
        ]) == EXIT_OK
        assert out.read_text().count("#") == 810

    def test_bad_size_exit_config(self, tmp_path):
        assert main([
            "genmap", "--kind", "corridor", "--size", "4x4",
            "--out", str(tmp_path / "x.txt"),
        ]) == EXIT_CONFIG

    def test_negative_seed_exit_config_naming_it(self, tmp_path, capsys):
        out = tmp_path / "x.txt"
        assert main(["genmap", "--kind", "random", "--size", "5", "--seed", "-1",
                     "--out", str(out)]) == EXIT_CONFIG
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("size", ["0", "0x5", "5x0"])
    def test_map_without_free_cells_exit_config(self, tmp_path, capsys, size):
        out = tmp_path / "x.txt"
        assert main(["genmap", "--kind", "empty", "--size", size, "--out", str(out)]) \
            == EXIT_CONFIG
        assert "map has no free cells" in capsys.readouterr().err
        assert not out.exists()


class TestRenderPpm:
    def test_colors_and_dimensions(self):
        grid = parse_map("resolution 1.0\nS#\n..")
        mark_scanned(grid, np.array([0]))
        data = render_ppm(grid, robot=Cell(0, 1), frontier=[0])
        header = b"P6\n2 2\n255\n"
        assert data.startswith(header)
        pixels = data[len(header):]
        assert len(pixels) == 2 * 2 * 3
        px = [tuple(pixels[i:i + 3]) for i in range(0, 12, 3)]
        assert px[0] == (0, 0, 255)      # frontier over scanned
        assert px[1] == (0, 0, 0)        # obstacle
        assert px[2] == (255, 0, 0)      # robot
        assert px[3] == (255, 255, 255)  # unscanned

    @pytest.mark.parametrize("robot", [Cell(-1, 0), Cell(3, 0), Cell(0, -1), Cell(0, 2)])
    def test_off_map_robot_rejected_naming_it(self, robot):
        grid = parse_map("resolution 1.0\nS..\n...")
        with pytest.raises(ValueError, match=re.escape(f"robot cell {robot} is off the 3x2 map")):
            render_ppm(grid, robot)

    @pytest.mark.parametrize("frontier, message", [
        ([-1], "flat index -1 is off the 3x2 map"),
        ([6], "flat index 6 is off the 3x2 map"),
        ([1.5], "integer dtype, got float64"),
        ([True, False], "integer dtype, got bool"),
    ])
    def test_off_map_or_non_integer_frontier_rejected(self, frontier, message):
        grid = parse_map("resolution 1.0\nS..\n...")
        with pytest.raises(ValueError, match=re.escape(message)):
            render_ppm(grid, None, frontier)

    def test_plain_pair_robot_matches_cell(self):
        grid = parse_map("resolution 1.0\nS..\n...")
        assert render_ppm(grid, (1, 1)) == render_ppm(grid, Cell(1, 1))
        with pytest.raises(ValueError, match=re.escape("robot cell (3, 0) is off the 3x2 map")):
            render_ppm(grid, (3, 0))

    def test_non_integer_robot_rejected(self):
        grid = parse_map("resolution 1.0\nS..\n...")
        with pytest.raises(ValueError, match="integers"):
            render_ppm(grid, Cell(1.5, 0))
