import re
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import free_cells, loop_parse_map, mark_cells, start_near_center

from nbsmell.grid import (
    Cell,
    CellState,
    GridMap,
    MapFormatError,
    cells_at,
    coverage_ratio,
    frontier_cells,
    generate_random_grid,
    heading_set,
    mark_scanned,
    parse_map,
    serialize_map,
)
from nbsmell.mapgen import SHIPPED_MAPS


class TestParseMap:
    def test_minimal_two_by_two(self):
        grid = parse_map("resolution 1.0\nS.\n.#")
        assert (grid.width, grid.height) == (2, 2)
        assert grid.resolution == 1.0
        assert grid.start == Cell(0, 0)
        assert grid.free_count() == 3
        assert grid.states[1, 1] == CellState.OBSTACLE
        assert grid.states[0, 0] == CellState.FREE_UNSCANNED

    def test_single_cell_map(self):
        grid = parse_map("resolution 0.5\nS")
        assert (grid.width, grid.height) == (1, 1)
        assert grid.resolution == 0.5
        assert grid.start == Cell(0, 0)

    def test_multiple_starts_rejected(self):
        with pytest.raises(MapFormatError, match="multiple start"):
            parse_map("resolution 1.0\nSS")

    def test_missing_start_rejected(self):
        with pytest.raises(MapFormatError, match="no start"):
            parse_map("resolution 1.0\n..\n..")

    def test_ragged_rows_rejected(self):
        with pytest.raises(MapFormatError, match="line 3.*ragged"):
            parse_map("resolution 1.0\nS..\n..")

    def test_illegal_character_names_position(self):
        with pytest.raises(MapFormatError, match="line 2, column 2"):
            parse_map("resolution 1.0\nSx.")

    def test_missing_resolution_header(self):
        with pytest.raises(MapFormatError, match="resolution"):
            parse_map("S.\n..")

    def test_bad_resolution_value(self):
        with pytest.raises(MapFormatError):
            parse_map("resolution zero\nS.")
        with pytest.raises(MapFormatError):
            parse_map("resolution -1\nS.")

    @pytest.mark.parametrize("header, message", [
        # digit separators and other scripts' digits, which float() reads
        ("resolution 1_0", "line 1: invalid resolution '1_0'"),
        ("resolution \u0661.\u0660", "line 1: invalid resolution '\u0661.\u0660'"),
        ("resolution \uff11.0", "line 1: invalid resolution '\uff11.0'"),
        # separators other than ASCII blanks, which str.split() takes
        ("resolution\x0c1.0", "line 1: expected 'resolution <meters>', got 'resolution\\x0c1.0'"),
        ("resolution\x851.0", "line 1: expected 'resolution <meters>', got 'resolution\\x851.0'"),
        ("resolution\u20281.0",
         "line 1: expected 'resolution <meters>', got 'resolution\\u20281.0'"),
        ("resolution 1.0\x0b", "line 1: invalid resolution '1.0\\x0b'"),
        ("\u3000resolution 1.0",
         "line 1: expected 'resolution <meters>', got '\\u3000resolution 1.0'"),
        # no digits, no exponent digits, or words float() reads but that are no decimal
        ("resolution .", "line 1: invalid resolution '.'"),
        ("resolution 1e", "line 1: invalid resolution '1e'"),
        ("resolution 1e+", "line 1: invalid resolution '1e+'"),
        ("resolution inf", "line 1: invalid resolution 'inf'"),
        ("resolution nan", "line 1: invalid resolution 'nan'"),
        ("resolution 0x10", "line 1: invalid resolution '0x10'"),
        ("resolution +-1", "line 1: invalid resolution '+-1'"),
        # decimals, but not a valid resolution
        ("resolution -1", "line 1: resolution must be > 0, got '-1'"),
        ("resolution 0e5", "line 1: resolution must be > 0, got '0e5'"),
        ("resolution 1e999", "line 1: resolution must be > 0, got '1e999'"),
    ])
    def test_header_outside_the_ascii_rule_rejected(self, header, message):
        text = f"{header}\nS."
        with pytest.raises(MapFormatError) as exc:
            parse_map(text)
        assert str(exc.value) == message
        assert parse_outcome(loop_parse_map, text) == message

    @pytest.mark.parametrize("header, resolution", [
        ("resolution 2", 2.0),
        ("resolution 5.", 5.0),
        ("resolution .25", 0.25),
        ("resolution +0.5", 0.5),
        ("resolution 1E-05", 1e-05),
        ("\t resolution \t 2.5e+1 \t", 25.0),
    ])
    def test_header_with_ascii_blanks_and_decimal_accepted(self, header, resolution):
        text = f"{header}\nS."
        assert parse_map(text).resolution == resolution
        assert loop_parse_map(text).resolution == resolution

    @given(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    @example(1e-05)
    @example(5e-324)
    @example(1.7976931348623157e308)
    @settings(max_examples=200, deadline=None)
    def test_every_serialized_header_parses_back(self, resolution):
        text = serialize_map(GridMap(resolution, np.ones((1, 2), np.uint8), Cell(0, 0)))
        assert parse_map(text).resolution == resolution
        assert loop_parse_map(text).resolution == resolution

    def test_roundtrip_identity(self):
        text = "resolution 0.5\n..#.S\n#...#\n.....\n"
        grid = parse_map(text)
        assert serialize_map(grid) == text
        again = parse_map(serialize_map(grid))
        assert np.array_equal(again.states, grid.states)
        assert again.start == grid.start
        assert again.resolution == grid.resolution


def parse_outcome(parse, text):
    """What ``parse`` makes of ``text``: the map's fields, or the error message."""
    try:
        grid = parse(text)
    except MapFormatError as exc:
        return str(exc)
    return grid.states.tobytes(), grid.states.shape, grid.start, grid.resolution


# map characters, and ones the format rejects: an ASCII letter, a space, a
# tab, a non-ASCII letter, and line separators other than the line feed
# (a carriage return is dropped only right before a line feed)
MAP_ALPHABET = ".#S" + "x \té" + "\r\x0b\x0c\x1c\x85\u2028"


@st.composite
def map_documents(draw):
    """A valid map document, then a few cells overwritten and maybe one row replaced.

    The overwrites may add starts, remove the start or add illegal
    characters; the replaced row has a random length, so it is often ragged.
    Lines end in LF or CRLF.
    """
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = draw(st.lists(st.sampled_from(".#"), min_size=width * height,
                          max_size=width * height))
    position = st.integers(0, width * height - 1)
    cells[draw(position)] = "S"
    for _ in range(draw(st.integers(0, 3))):
        cells[draw(position)] = draw(st.sampled_from(MAP_ALPHABET))
    rows = ["".join(cells[y * width:(y + 1) * width]) for y in range(height)]
    if draw(st.booleans()):
        rows[draw(st.integers(0, height - 1))] = draw(st.text(st.sampled_from(MAP_ALPHABET),
                                                              max_size=7))
    header = draw(st.sampled_from(["resolution 1.0", "resolution 0.25", " resolution\t2e-1 ",
                                   "resolution 1_0", "resolution \u0661", "resolution\x0c1",
                                   "resolution 1\x85", "resolution -1", "resolution 1e",
                                   "resolution inf", "resolution .5"]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join([header, *rows]) + draw(st.sampled_from(["", newline]))


class TestParseMapAgainstLoop:
    """``parse_map`` against the per-character loop it replaced."""

    @given(map_documents())
    @settings(max_examples=400, deadline=None)
    def test_same_map_or_same_message(self, text):
        assert parse_outcome(parse_map, text) == parse_outcome(loop_parse_map, text)

    @pytest.mark.parametrize("rows, message", [
        # a second start before an illegal character in its row, and after it
        (["S.Sx."], "line 2, column 3: multiple start cells"),
        (["S.xS."], "line 2, column 3: illegal character 'x'"),
        # a second start in a later row
        (["S..", "...", ".S."], "line 4, column 2: multiple start cells"),
        # an illegal character in a row before a ragged one, and after it
        (["S..", ".\u00e9.", ".."], "line 3, column 2: illegal character '\u00e9'"),
        (["S..", "..", ".\t."], "line 3: ragged row (length 2, expected 3)"),
        # a second start after a ragged row
        (["S..", "..", "S.."], "line 3: ragged row (length 2, expected 3)"),
        (["...", "#.#"], "map document has no start cell 'S'"),
        ([".. ", "S.."], "line 2, column 3: illegal character ' '"),
    ])
    def test_first_problem_in_reading_order(self, rows, message):
        text = "\n".join(["resolution 1.0", *rows])
        with pytest.raises(MapFormatError) as exc:
            parse_map(text)
        assert str(exc.value) == message
        assert parse_outcome(loop_parse_map, text) == message

    @pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\r"])
    def test_only_a_line_feed_ends_a_line(self, separator):
        # characters that str.splitlines takes as line breaks, inside a row
        text = f"resolution 1.0\nS.{separator}..\n"
        message = f"line 2, column 3: illegal character {separator!r}"
        assert parse_outcome(parse_map, text) == message
        assert parse_outcome(loop_parse_map, text) == message

    @pytest.mark.parametrize("text", [
        "resolution 0.5\nS.#\n...\n",
        "resolution 0.5\nS.#\n...",  # no final line feed
        "resolution 1.0\n",  # no rows
        "resolution 1.0\nS.\n.\n",  # ragged
    ])
    def test_crlf_document_parses_as_its_lf_twin(self, text):
        crlf = text.replace("\n", "\r\n")
        assert parse_outcome(parse_map, crlf) == parse_outcome(parse_map, text)
        assert parse_outcome(loop_parse_map, crlf) == parse_outcome(parse_map, text)

    def test_shipped_maps_match_the_loop_and_round_trip(self):
        for filename in SHIPPED_MAPS.values():
            text = (files("nbsmell") / "maps" / filename).read_text()
            assert parse_outcome(parse_map, text) == parse_outcome(loop_parse_map, text)
            assert serialize_map(parse_map(text)) == text
            crlf = text.replace("\n", "\r\n")
            assert parse_outcome(parse_map, crlf) == parse_outcome(parse_map, text)


class TestGridMap:
    def test_shape_comes_from_states(self):
        grid = GridMap(0.5, np.ones((2, 3), np.uint8), Cell(2, 1)).copy()
        assert (grid.width, grid.height) == (3, 2)

    def test_values_outside_cell_state_rejected(self):
        with pytest.raises(ValueError, match=r"outside CellState: \[3\]"):
            GridMap.from_states(np.array([[1, 3], [1, 1]], np.uint8), 1.0)

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2)])
    def test_states_must_be_two_dimensional(self, shape):
        with pytest.raises(ValueError, match="2-D"):
            GridMap(1.0, np.ones(shape, np.uint8), Cell(0, 0))

    def test_states_must_have_an_integer_dtype(self):
        for dtype in (bool, np.float64):
            with pytest.raises(ValueError, match=f"integer array, got dtype {np.dtype(dtype)} "):
                GridMap(1.0, np.ones((2, 2), dtype), Cell(0, 0))
        for dtype in (np.uint8, np.int64):
            assert GridMap(1.0, np.ones((2, 2), dtype), Cell(0, 0)).free_count() == 4

    @pytest.mark.parametrize("start", [Cell(1.5, 0), Cell(True, 0), Cell(0, False),
                                       Cell(1.0, 0), Cell(np.bool_(True), 0)])
    def test_non_integer_start_rejected_naming_it(self, start):
        with pytest.raises(ValueError, match=f"integers, got {re.escape(str(start))}"):
            GridMap(1.0, np.ones((2, 2), np.uint8), start)

    def test_plain_pairs_accepted_and_start_stored_as_cell(self):
        states = np.ones((2, 3), np.uint8)
        states[0, 1] = CellState.OBSTACLE
        grid = GridMap(1.0, states, (np.int64(2), 1))
        assert type(grid.start) is Cell and grid.start == Cell(2, 1)
        assert grid.start.x == 2 and grid.copy().start == grid.start
        assert grid.in_bounds((1, 1)) and grid.in_bounds([2, 0])
        assert not grid.in_bounds((3, 0)) and not grid.in_bounds((0, -1))
        assert grid.is_free((0, 0)) and not grid.is_free((1, 0)) and not grid.is_free((0, 2))

    @pytest.mark.parametrize("cell", [(1, 2, 3), (1,), None, 5, (True, False), "ab"],
                             ids=["three", "one", "none", "int", "bools", "str"])
    def test_anything_but_a_pair_of_integers_rejected_naming_it(self, cell):
        grid = GridMap(1.0, np.ones((3, 3), np.uint8), Cell(0, 0))
        message = re.escape(f"a cell (x, y) must be a pair of integers, got {cell!r}")
        for call in (grid.in_bounds, grid.is_free,
                     lambda cell: GridMap(1.0, grid.states, cell)):
            with pytest.raises(ValueError, match=message):
                call(cell)

    def test_numpy_integer_cells_accepted(self):
        grid = GridMap(1.0, np.ones((2, 2), np.uint8), Cell(np.int64(1), np.int32(0)))
        assert grid.is_free(Cell(np.int64(1), np.int64(1)))
        assert not grid.in_bounds(Cell(np.int64(2), 0))
        with pytest.raises(ValueError, match="integers"):
            grid.is_free(Cell(0.5, 0))


class TestRandomGrid:
    def test_zero_ratio_all_free(self):
        grid = generate_random_grid(3, 0.0, 7)
        assert grid.free_count() == 9

    def test_exact_obstacle_count_ninety(self):
        grid = generate_random_grid(90, 0.1, 42)
        assert int(np.count_nonzero(grid.states == CellState.OBSTACLE)) == 810

    def test_determinism(self):
        a = generate_random_grid(25, 0.2, 99)
        b = generate_random_grid(25, 0.2, 99)
        assert np.array_equal(a.states, b.states)
        assert a.start == b.start

    def test_different_seeds_differ(self):
        a = generate_random_grid(25, 0.2, 1)
        b = generate_random_grid(25, 0.2, 2)
        assert not np.array_equal(a.states, b.states)

    def test_start_is_central_free_cell(self):
        grid = generate_random_grid(9, 0.0, 5)
        assert grid.start == Cell(4, 4)

    def test_start_matches_the_three_key_sort(self):
        # maps of 1-29 cells a side, some obstacles, so that ties on the distance occur
        rng = np.random.default_rng(29)
        for _ in range(1000):
            h, w = rng.integers(1, 30, size=2)
            states = np.where(rng.random((h, w)) < rng.random(), CellState.OBSTACLE,
                              CellState.FREE_UNSCANNED).astype(np.uint8)
            states.flat[rng.integers(states.size)] = CellState.FREE_UNSCANNED
            assert GridMap.from_states(states, 1.0).start == start_near_center(states)

    def test_start_tie_goes_to_the_smallest_row(self):
        # four cells one step from the blocked center: row first gives (1, 0),
        # column first would give (0, 1)
        states = np.full((3, 3), CellState.FREE_UNSCANNED, dtype=np.uint8)
        states[1, 1] = CellState.OBSTACLE
        assert GridMap.from_states(states, 1.0).start == start_near_center(states) == Cell(1, 0)

    def test_all_obstacles_rejected(self):
        with pytest.raises(ValueError):
            generate_random_grid(2, 0.9, 3)  # round(3.6) = 4 = all cells

    def test_resolution_is_one_meter(self):
        assert generate_random_grid(4, 0.1, 0).resolution == 1.0

    def test_negative_seed_rejected_naming_it(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            generate_random_grid(5, 0.1, -1)


class TestFrontier:
    def test_fresh_map_has_no_frontier(self):
        grid = parse_map("resolution 1.0\nS..\n...")
        assert cells_at(grid, frontier_cells(grid, 4)) == []

    def test_single_boundary_cell_on_strip(self):
        grid = parse_map("resolution 1.0\nS..")
        mark_scanned(grid, np.array([0, 1]))
        assert cells_at(grid, frontier_cells(grid, 4)) == [Cell(1, 0)]

    def test_fully_scanned_map_has_no_frontier(self):
        grid = parse_map("resolution 1.0\nS..")
        mark_scanned(grid, np.array([0, 1, 2]))
        assert cells_at(grid, frontier_cells(grid, 4)) == []

    def test_diagonal_neighbor_counts_only_under_8(self):
        grid = parse_map("resolution 1.0\nS#\n#.")
        mark_scanned(grid, np.array([0]))
        assert cells_at(grid, frontier_cells(grid, 4)) == []
        assert cells_at(grid, frontier_cells(grid, 8)) == [Cell(0, 0)]

    def test_row_major_order(self):
        grid = parse_map("resolution 1.0\nS..\n...\n...")
        mark_cells(grid, [Cell(2, 0), Cell(0, 1), Cell(1, 2)])
        assert cells_at(grid, frontier_cells(grid, 4)) == [Cell(2, 0), Cell(0, 1), Cell(1, 2)]

    def test_frontier_cells_are_scanned_with_unscanned_neighbor(self):
        rng = np.random.default_rng(3)
        # non-square maps too: the flat index is y * width + x, not y * height + x
        wide, tall = (GridMap.from_states(
            np.where(rng.random(shape) < 0.2, CellState.OBSTACLE,
                     CellState.FREE_UNSCANNED).astype(np.uint8), 1.0)
            for shape in ((3, 7), (7, 3)))
        for grid, marked in ((generate_random_grid(12, 0.2, 8), 30), (wide, 6), (tall, 6)):
            self._check_frontier(grid, marked, rng)

    def _check_frontier(self, grid, marked, rng):
        assert cells_at(grid, [y * grid.width + x for y in range(grid.height)
                               for x in range(grid.width)]) == [
            Cell(x, y) for y in range(grid.height) for x in range(grid.width)]
        free = free_cells(grid)
        mark_cells(grid, [free[i] for i in rng.choice(len(free), marked)])
        for conn in (4, 8):
            frontier = cells_at(grid, frontier_cells(grid, conn))
            assert frontier  # a map without a frontier would check nothing
            for cell in frontier:
                assert grid.states[cell.y, cell.x] == CellState.FREE_SCANNED
                neighbors = [
                    Cell(cell.x + dx, cell.y + dy)
                    for dx, dy in (
                        [(1, 0), (-1, 0), (0, 1), (0, -1)] if conn == 4 else
                        [(1, 0), (-1, 0), (0, 1), (0, -1),
                         (1, 1), (1, -1), (-1, 1), (-1, -1)]
                    )
                ]
                assert any(
                    grid.in_bounds(n) and grid.states[n.y, n.x] == CellState.FREE_UNSCANNED
                    for n in neighbors
                )


class TestMarkScanned:
    def test_empty_set_marks_nothing(self):
        grid = parse_map("resolution 1.0\nS..")
        assert mark_scanned(grid, np.array([], dtype=np.intp)) == 0

    def test_idempotent(self):
        grid = parse_map("resolution 1.0\nS..")
        assert mark_scanned(grid, np.array([1])) == 1
        assert mark_scanned(grid, np.array([1])) == 0

    def test_counts_only_new_transitions(self):
        grid = parse_map("resolution 1.0\nS...")
        mark_scanned(grid, np.array([0]))
        assert mark_scanned(grid, np.array([0, 1, 2])) == 2

    def test_flat_duplicates_count_once(self):
        grid = parse_map("resolution 1.0\nS...")
        assert mark_scanned(grid, np.array([1, 2, 1])) == 2
        assert mark_scanned(grid, np.array([2, 3, 3])) == 1
        assert grid.scanned_count() == 3

    def test_any_integer_dtype_accepted(self):
        grid = parse_map("resolution 1.0\nS...")
        assert mark_scanned(grid, np.array([1, 2], dtype=np.uint8)) == 2
        assert cells_at(grid, np.array([3], dtype=np.int32)) == [Cell(3, 0)]

    def test_cells_and_flat_indices_leave_the_same_states(self):
        # flat indices through mark_scanned against a plain loop over their cells
        rng = np.random.default_rng(5)
        for seed in range(5):
            by_cell = generate_random_grid(9, 0.25, seed)
            by_flat = by_cell.copy()
            for grid in (by_cell, by_flat):  # the same cells scanned beforehand
                mark_cells(grid, free_cells(by_cell)[::3])
            flat = rng.choice(np.flatnonzero(by_cell.free_mask()), 20)  # with repeats
            new = set()
            for c in cells_at(by_cell, flat):
                if by_cell.states[c.y, c.x] == CellState.FREE_UNSCANNED:
                    by_cell.states[c.y, c.x] = CellState.FREE_SCANNED
                    new.add(c)
            assert mark_scanned(by_flat, flat) == len(new)
            assert np.array_equal(by_cell.states, by_flat.states)

    def test_obstacles_never_change(self):
        grid = generate_random_grid(10, 0.3, 11)
        before = (grid.states == CellState.OBSTACLE).copy()
        mark_cells(grid, free_cells(grid))
        assert np.array_equal(grid.states == CellState.OBSTACLE, before)


class TestCellsAt:
    def test_empty_index_array_of_any_dtype_accepted(self):
        grid = parse_map("resolution 1.0\nS..")
        for flat in ([], np.array([], dtype=bool), np.array([], dtype=np.float32)):
            assert cells_at(grid, flat) == []


class TestCoverageRatio:
    def test_fresh_map_is_zero(self):
        assert coverage_ratio(parse_map("resolution 1.0\nS..")) == 0.0

    def test_fully_scanned_is_one(self):
        grid = parse_map("resolution 1.0\nS..")
        mark_scanned(grid, np.array([0, 1, 2]))
        assert coverage_ratio(grid) == 1.0

    def test_partial_ratio(self):
        # 4868 of 6113 scanned is just under 80%
        assert 4868 / 6113 == pytest.approx(0.79634, abs=1e-5)
        grid = parse_map("resolution 1.0\nS...\n....\n..##")
        mark_scanned(grid, np.array([0, 1, 2]))
        assert coverage_ratio(grid) == pytest.approx(0.3)


class TestHeadings:
    def test_four_orientations(self):
        hs = heading_set(4)
        assert hs == pytest.approx((0.0, np.pi / 2, np.pi, 3 * np.pi / 2))

    def test_eight_orientations_include_diagonals(self):
        hs = heading_set(8)
        assert len(hs) == 8
        assert hs[1] == pytest.approx(np.pi / 4)
        assert all(b > a for a, b in zip(hs, hs[1:]))
        assert all(0 <= h < 2 * np.pi for h in hs)

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError):
            heading_set(6)

    @pytest.mark.parametrize("count", [4.0, 8.0, np.float64(4.0), True, np.True_, "4"])
    def test_non_integer_count_rejected_by_name(self, count):
        # 4.0 == 4, so a membership test alone let it through to range()
        with pytest.raises(ValueError, match=re.escape(
                f"orientation count must be 4 or 8, got {count!r}")):
            heading_set(count)

    def test_numpy_integer_count_accepted(self):
        headings = heading_set(np.int64(8))
        assert headings == heading_set(8) and all(type(h) is float for h in headings)
