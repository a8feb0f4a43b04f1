import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import choquet, loop_normalize_utilities

from nbsmell.engine import select_best
from nbsmell.mcdm import (
    NAMED_CONFIGS,
    Criterion,
    FuzzyMeasure,
    InvalidConfigError,
    WeightConfig,
    build_measure,
    choquet_batch,
    named_measure,
    normalize_utilities,
    validate_measure,
)

# (x1, x2, x3, mu12, mu13, mu23) for every named configuration
EXPECTED_ROWS = {
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

G1 = Criterion.INFORMATION_GAIN
G2 = Criterion.TRAVEL_DISTANCE
G3 = Criterion.SENSING_TIME


def weight(measure, criteria):
    """The measure's weight of the subset ``criteria``."""
    return measure.values[sum(c.bit for c in criteria)]


def integral(u, measure):
    """:func:`choquet_batch` of the single utility vector ``u``."""
    return choquet_batch(np.array([u], dtype=np.float64).T, measure).item()


def simplex_points(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    raw = rng.dirichlet((1.0, 1.0, 1.0), size=n)
    return raw


class TestNamedMeasures:
    @pytest.mark.parametrize("name", NAMED_CONFIGS)
    def test_measure_matches_table(self, name):
        x1, x2, x3, m12, m13, m23 = EXPECTED_ROWS[name]
        m = named_measure(name)
        assert weight(m, []) == 0.0
        assert weight(m, [G1]) == x1
        assert weight(m, [G2]) == x2
        assert weight(m, [G3]) == x3
        assert weight(m, [G1, G2]) == m12
        assert weight(m, [G1, G3]) == m13
        assert weight(m, [G2, G3]) == m23
        assert weight(m, [G1, G2, G3]) == 1.0

    @pytest.mark.parametrize("name", NAMED_CONFIGS)
    def test_all_named_measures_valid(self, name):
        assert validate_measure(named_measure(name)) == []

    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidConfigError):
            named_measure("Z")

    @pytest.mark.parametrize("name", [5, None, 1.5, ("A",)])
    def test_non_string_rejected_naming_it(self, name):
        with pytest.raises(InvalidConfigError, match=re.escape(f"configuration {name!r}; ")):
            named_measure(name)


class TestBuildMeasure:
    def test_named_config_d_uses_table_pairs(self):
        m = named_measure("D")
        assert weight(m, [G1, G2]) == 0.766
        assert weight(m, [G1, G3]) == 0.766
        assert weight(m, [G2, G3]) == 0.766

    def test_named_config_a_pair_without_bonus(self):
        # row A assigns 0 to the pair of the two zero-weight criteria,
        # which the +0.1 bonus formula would not produce
        m = named_measure("A")
        assert weight(m, [G2, G3]) == 0.0
        assert weight(m, [G1, G2]) == 1.0

    def test_custom_weights_of_row_a_use_the_bonus(self):
        # custom weights are never mistaken for a named row
        m = build_measure(WeightConfig(1.0, 0.0, 0.0))
        assert weight(m, [G2, G3]) == 0.1
        assert weight(m, [G1, G2]) == 1.0

    def test_named_config_h_pair(self):
        assert weight(named_measure("H"), [G2, G3]) == 0.956

    def test_custom_pairs_use_synergy_bonus(self):
        config = WeightConfig(0.5, 0.3, 0.2)
        m = build_measure(config)
        assert weight(m, [G1, G2]) == pytest.approx(0.9)
        assert weight(m, [G1, G3]) == pytest.approx(0.8)
        assert weight(m, [G2, G3]) == pytest.approx(0.6)
        assert validate_measure(m) == []

    def test_custom_pair_capped_at_one(self):
        m = build_measure(WeightConfig(0.95, 0.05, 0.0))
        assert weight(m, [G1, G2]) == 1.0

    def test_simplex_violation_rejected(self):
        with pytest.raises(InvalidConfigError, match="x1 \\+ x2 \\+ x3"):
            build_measure(WeightConfig(0.5, 0.3, 0.1))

    def test_simplex_tolerance_is_tight(self):
        build_measure(WeightConfig(0.5, 0.3, 0.2 + 5e-10))
        with pytest.raises(InvalidConfigError):
            build_measure(WeightConfig(0.5, 0.3, 0.2 + 5e-9))

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidConfigError):
            build_measure(WeightConfig(1.2, -0.1, -0.1))

    @pytest.mark.parametrize("bonus", [-0.1, float("nan")])
    def test_bad_synergy_bonus_rejected(self, bonus):
        with pytest.raises(InvalidConfigError):
            build_measure(WeightConfig(0.5, 0.3, 0.2, synergy_bonus=bonus))

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.one_of(st.just(0.0), st.floats(0.0, 1e300), st.just(math.inf)))
    @example(1.0, 0.0, 0.0)
    @example(0.0, 1.0, math.inf)
    @example(0.5, 0.5, 1e300)
    @settings(max_examples=300, deadline=None)
    def test_every_valid_configuration_gives_a_valid_measure(self, a, b, bonus):
        # build_measure does not re-check its measure: the pair formula keeps every axiom
        x1, x2 = a, (1.0 - a) * b
        config = WeightConfig(x1, x2, 1.0 - x1 - x2, synergy_bonus=bonus)
        config.validate()
        assert validate_measure(build_measure(config)) == []


class TestValidateMeasure:
    def test_bad_boundary_reported(self):
        m = FuzzyMeasure(values=(0.0, 0.2, 0.2, 0.4, 0.2, 0.4, 0.4, 0.9))
        violations = validate_measure(m)
        assert any("boundary" in v for v in violations)

    def test_monotonicity_violation_reported(self):
        m = FuzzyMeasure(values=(0.0, 0.5, 0.1, 0.4, 0.1, 0.6, 0.6, 1.0))
        violations = validate_measure(m)
        assert any("monotonicity" in v and "{1}" in v for v in violations)

    def test_valid_measure_reports_nothing(self):
        m = FuzzyMeasure(values=(0.0, 0.2, 0.3, 0.6, 0.1, 0.4, 0.5, 1.0))
        assert validate_measure(m) == []


class TestChoquet:
    def test_hand_computed_value_config_d(self):
        value = integral((0.5, 0.3, 0.8), named_measure("D"))
        assert value == pytest.approx(0.5531, abs=1e-9)

    @pytest.mark.parametrize("name", NAMED_CONFIGS)
    def test_idempotence(self, name):
        m = named_measure(name)
        for v in (0.0, 0.25, 0.5531, 1.0):
            assert integral((v, v, v), m) == pytest.approx(v, abs=1e-12)

    def test_boundary(self):
        for name in NAMED_CONFIGS:
            m = named_measure(name)
            assert integral((0.0, 0.0, 0.0), m) == 0.0
            assert integral((1.0, 1.0, 1.0), m) == 1.0

    @staticmethod
    def _choquet_with_permutation(u, perm, measure):
        """Evaluate the integral using an explicit sorting permutation."""
        mu = measure.values
        levels = [u[i] for i in perm]
        m2 = 0b111 ^ (1 << perm[0])
        m3 = 1 << perm[2]
        return (levels[0] * mu[0b111]
                + (levels[1] - levels[0]) * mu[m2]
                + (levels[2] - levels[1]) * mu[m3])

    @given(st.floats(0, 1), st.floats(0, 1), st.sampled_from(NAMED_CONFIGS))
    @settings(max_examples=300, deadline=None)
    def test_tied_utilities_sort_stably(self, a, b, name):
        # every sorting permutation consistent with the (tied) ordering must
        # evaluate identically, and match the implementation
        import itertools

        m = named_measure(name)
        for u in ((a, a, b), (a, b, a), (b, a, a), (a, a, a)):
            values = {
                self._choquet_with_permutation(u, perm, m)
                for perm in itertools.permutations(range(3))
                if u[perm[0]] <= u[perm[1]] <= u[perm[2]]
            }
            assert values == {integral(u, m)}

    @given(st.integers(0, 10**9))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_each_utility(self, seed):
        rng = np.random.default_rng(seed)
        name = NAMED_CONFIGS[int(rng.integers(len(NAMED_CONFIGS)))]
        m = named_measure(name)
        u = rng.uniform(0, 1, 3)
        i = int(rng.integers(3))
        bumped = u.copy()
        bumped[i] = min(1.0, bumped[i] + float(rng.uniform(0, 1 - bumped[i] + 1e-9)))
        assert integral(bumped, m) >= integral(u, m) - 1e-12

    def test_additive_measure_equals_weighted_sum(self):
        rng = np.random.default_rng(42)
        for x in simplex_points(50, seed=1):
            m = build_measure(WeightConfig(*x, synergy_bonus=0.0))
            u = rng.uniform(0, 1, 3)
            expected = float(np.dot(x, u))
            assert integral(u, m) == pytest.approx(expected, abs=1e-12)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(7)
        u = rng.uniform(0, 1, (500, 3))
        for name in ("A", "D", "F", "M"):
            m = named_measure(name)
            batch = choquet_batch(u.T, m)
            for row, value in zip(u, batch):
                assert value == pytest.approx(choquet(tuple(row), m), abs=1e-12)

    @given(
        st.lists(st.tuples(*[st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                                       st.floats(0, 1))] * 3),
                 min_size=1, max_size=40),
        st.sampled_from(NAMED_CONFIGS),
    )
    @settings(max_examples=300, deadline=None)
    def test_batch_equals_sorted_reference_bitwise(self, rows, name):
        # the sort-free batch against a stable argsort and the scalar
        # integral, on utilities full of ties
        m = named_measure(name)
        u = np.array(rows, dtype=np.float64)
        mu = np.array(m.values)
        order = np.argsort(u, axis=1, kind="stable")
        s = np.take_along_axis(u, order, axis=1)
        reference = (s[:, 0] * mu[0b111] + (s[:, 1] - s[:, 0]) * mu[0b111 ^ (1 << order[:, 0])]
                     + (s[:, 2] - s[:, 1]) * mu[1 << order[:, 2]])
        scalar = np.array([choquet(row, m) for row in rows])
        assert reference.tobytes() == scalar.tobytes()
        # (3, n) rows as the step builds them, and a strided view of them
        for layout in (np.ascontiguousarray(u.T), u.T):
            assert choquet_batch(layout, m).tobytes() == reference.tobytes()

    def test_out_of_range_utilities_rejected(self):
        with pytest.raises(ValueError):
            integral((1.2, 0.0, 0.0), named_measure("A"))

    @pytest.mark.parametrize("row", [
        (0.5, 2.0, -1.0), (1.0 + 1e-11, 0.0, 0.0), (0.0, -1e-11, 1.0), (0.2, 0.3, math.nan),
        (math.nan, 0.0, 0.0), (0.0, math.inf, 0.5), (1.0 + 1e-13, -1e-13, 0.5),
    ])
    def test_batch_rejects_what_the_scalar_rejects(self, row):
        m = named_measure("F")
        try:
            expected = choquet(row, m)
        except ValueError as e:
            for rows in ([row], [(0.1, 0.2, 0.3), row, (0.4, 0.5, 0.6)]):
                with pytest.raises(ValueError, match=re.escape(str(e))):
                    choquet_batch(np.array(rows).T, m)
        else:  # within the tolerance
            assert choquet_batch(np.array([row]).T, m).tolist() == [expected]


class TestNormalizeUtilities:
    def test_single_candidate_gets_all_ones(self):
        out = normalize_utilities([[10.0], [5.0], [30.0]])
        assert np.array_equal(out, [[1.0], [1.0], [1.0]])

    def test_gain_is_benefit(self):
        out = normalize_utilities([[10, 30, 50], [0, 0, 0], [0, 0, 0]])
        assert out[0] == pytest.approx([0.0, 0.5, 1.0])

    def test_costs_are_inverted(self):
        out = normalize_utilities([[0, 0], [2, 4], [0, 0]])
        assert out[1] == pytest.approx([1.0, 0.0])
        out = normalize_utilities([[0, 0, 0], [0, 0, 0], [6, 21, 36]])
        assert out[2] == pytest.approx([1.0, 0.5, 0.0])

    def test_constant_column_maps_to_one(self):
        out = normalize_utilities([[5, 5], [1, 2], [7, 7]])
        assert out[0] == pytest.approx([1.0, 1.0])
        assert out[2] == pytest.approx([1.0, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("row, name", [(0, "information gain"), (1, "travel distance"),
                                           (2, "sensing time")])
    def test_non_finite_value_rejected(self, bad, row, name):
        for col in (0, 1):
            raw = np.array([[1.0, 2.0], [2.0, 3.0], [3.0, 4.0]])
            raw[row, col] = bad
            with pytest.raises(ValueError, match=f"non-finite {name}"):
                normalize_utilities(raw)
            with pytest.raises(ValueError, match=f"non-finite {name}"):
                select_best(raw, named_measure("F"))

    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 40),
           constant=st.lists(st.booleans(), min_size=3, max_size=3))
    @example(seed=0, rows=1, constant=[False, False, False])
    @settings(max_examples=200, deadline=None)
    def test_matches_column_loop_bit_for_bit(self, seed, rows, constant):
        # gains are counts, distances and times floats; some columns constant
        rng = np.random.default_rng(seed)
        raw = np.column_stack((rng.integers(0, 50, rows), rng.random(rows) * 90.0,
                               6.0 + rng.random(rows) * 60.0))
        raw[:, constant] = raw[0, constant]
        expected = loop_normalize_utilities(raw).T.tobytes()
        # (3, n) rows as the step builds them, a strided view and a list
        for layout in (np.ascontiguousarray(raw.T), raw.T, raw.T.tolist()):
            assert normalize_utilities(layout).tobytes() == expected
