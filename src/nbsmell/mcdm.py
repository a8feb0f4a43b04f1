"""Multi-criteria candidate scoring: fuzzy measures and the Choquet integral.

Three criteria are aggregated: information gain (benefit), travel distance
and sensing time (costs). A fuzzy measure assigns a weight to every subset
of criteria; the discrete Choquet integral of the per-criterion utilities
with respect to that measure is the candidate's global score.

Thirteen named weight configurations ("A" through "M") sample the weight
simplex: the vertices, the centroid, the edge midpoints, and six symmetric
points on the bisectors. Their subset weights are shipped verbatim as a
lookup table; the synergy-bonus construction rule is applied only to custom
weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .grid import _checked, _is_number

__all__ = ["FuzzyMeasure", "InvalidConfigError", "NAMED_CONFIGS", "WeightConfig"]

SIMPLEX_TOLERANCE = 1e-9
_UTILITY_TOLERANCE = 1e-12  # how far past [0, 1] a utility may round
_BENEFIT = (True, False, False)  # per criterion: gain, distance, time
ALL_MASK = 0b111


class Criterion(IntEnum):
    INFORMATION_GAIN = 1
    TRAVEL_DISTANCE = 2
    SENSING_TIME = 3

    @property
    def bit(self) -> int:
        return 1 << (self.value - 1)


class InvalidConfigError(ValueError):
    """A weight configuration violates its constraints."""


def _mask_name(mask: int) -> str:
    members = [str(c.value) for c in Criterion if mask & c.bit]
    return "{" + ",".join(members) + "}"


@dataclass(frozen=True)
class FuzzyMeasure:
    """Weight for every subset of the three criteria.

    ``values[mask]`` is the weight of the subset whose members are the
    criteria with ordinal bit set in ``mask`` (bit 0 = information gain,
    bit 1 = travel distance, bit 2 = sensing time).
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        try:
            count = len(self.values)
        except TypeError:
            raise ValueError(f"values must be a sequence of 8 subset weights, "
                             f"got {self.values!r}") from None
        if count != 8:
            raise ValueError("a fuzzy measure needs exactly 8 subset weights")


def validate_measure(measure: FuzzyMeasure) -> list[str]:
    """Check the fuzzy-measure axioms; returns violations (empty = valid).

    A weight that is not a number (:func:`grid._is_number`: a bool, a str, None)
    is reported as such and takes part in no other check.
    """
    mu = measure.values
    number = [_is_number(value) for value in mu]
    violations = []
    if number[0] and mu[0] != 0.0:
        violations.append(f"boundary: mu({{}}) = {mu[0]!r}, expected 0")
    if number[ALL_MASK] and mu[ALL_MASK] != 1.0:
        violations.append(f"boundary: mu({_mask_name(ALL_MASK)}) = {mu[ALL_MASK]!r}, expected 1")
    for mask, value in enumerate(mu):
        if not number[mask]:
            violations.append(f"type: mu({_mask_name(mask)}) = {value!r} is not a number")
        elif not 0.0 <= value <= 1.0:
            violations.append(f"range: mu({_mask_name(mask)}) = {value!r} outside [0, 1]")
    for a in range(8):
        for b in range(8):
            if a != b and (a & b) == a and number[a] and number[b] and mu[a] > mu[b]:
                violations.append(
                    f"monotonicity: mu({_mask_name(a)}) = {mu[a]!r} > "
                    f"mu({_mask_name(b)}) = {mu[b]!r}"
                )
    return violations


@dataclass(frozen=True)
class WeightConfig:
    """Custom singleton criterion weights plus the pairwise synergy bonus.

    The weights must lie on the simplex x1 + x2 + x3 = 1.  The named
    configurations come from :func:`named_measure` instead.
    """

    x1: float
    x2: float
    x3: float
    synergy_bonus: float = 0.1

    def validate(self) -> tuple[float, float, float, float]:
        """x1-x3 and the bonus as Python numbers (``grid._checked``); InvalidConfigError unless
        x1-x3 lie in [0, 1] and sum to 1 and ``synergy_bonus`` is >= 0."""
        xs = []
        for label, x in (("x1", self.x1), ("x2", self.x2), ("x3", self.x3)):
            try:
                xs.append(_checked(label, x, "in [0, 1]", lambda x: 0 <= x <= 1))
            except ValueError:  # the CLI prints this wording
                raise InvalidConfigError(f"{label} = {x!r} outside [0, 1]") from None
        total = sum(xs)
        if abs(total - 1.0) > SIMPLEX_TOLERANCE:
            raise InvalidConfigError(
                f"weights must satisfy x1 + x2 + x3 = 1 "
                f"(got {total!r}, tolerance {SIMPLEX_TOLERANCE})"
            )
        return (*xs, _checked("synergy_bonus", self.synergy_bonus, ">= 0", lambda b: b >= 0,
                              error=InvalidConfigError))


# Named configurations: (x1, x2, x3, mu12, mu13, mu23), shipped verbatim.
# x1 weighs information gain, x2 travel distance, x3 sensing time.
_NAMED_ROWS: dict[str, tuple[float, float, float, float, float, float]] = {
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

NAMED_CONFIGS: tuple[str, ...] = tuple(_NAMED_ROWS)


def named_measure(name: str) -> FuzzyMeasure:
    """Measure of a configuration name, in any case; InvalidConfigError naming any other value."""
    row = _NAMED_ROWS.get(name.upper()) if isinstance(name, str) else None
    if row is None:
        raise InvalidConfigError(
            f"unknown configuration {name!r}; expected one of {', '.join(NAMED_CONFIGS)}")
    x1, x2, x3, m12, m13, m23 = row
    return FuzzyMeasure(values=(0.0, x1, x2, m12, x3, m13, m23, 1.0))


def build_measure(config: WeightConfig) -> FuzzyMeasure:
    """Measure for custom weights, which must pass :meth:`WeightConfig.validate`.

    Singletons are the checked weights and pairs ``min(1, x_i + x_j + synergy_bonus)``,
    between either singleton and 1, so the measure passes :func:`validate_measure`.
    """
    x1, x2, x3, bonus = config.validate()
    pair = lambda a, b: min(1.0, a + b + bonus)
    return FuzzyMeasure(values=(0.0, x1, x2, pair(x1, x2), x3, pair(x1, x3), pair(x2, x3), 1.0))


def choquet_batch(utilities: np.ndarray, measure: FuzzyMeasure) -> np.ndarray:
    """Discrete Choquet integral of each column of a (3, n) utility array (shape not checked).

    The rows are the criteria: information gain, travel distance, sensing
    time.  No sort: the levels are each candidate's exact min, median and
    max.  The middle increment weighs the criteria left after the first one
    at the min, the top increment the first one at the max; "first" comes
    from equality tests against the min and max levels, the index
    ``argmin`` and ``argmax`` would return.  Where a tie moves those from a
    stable sort's, the increment is 0.  NaN or a utility outside [0, 1]
    raises ValueError, as in the scalar sorted form it is checked against
    (``tests/oracles.py``).
    """
    u = np.asarray(utilities, dtype=np.float64)
    mu = measure.values
    a, b, c = u
    ab_lo, ab_hi = np.minimum(a, b), np.maximum(a, b)
    lo, hi = np.minimum(ab_lo, c), np.maximum(ab_hi, c)
    # NaN propagates into the levels, so a NaN anywhere fails this test too
    if not (np.minimum.reduce(lo, initial=0.0) >= -_UTILITY_TOLERANCE
            and np.maximum.reduce(hi, initial=1.0) <= 1.0 + _UTILITY_TOLERANCE):
        bad = u[~((u >= -_UTILITY_TOLERANCE) & (u <= 1.0 + _UTILITY_TOLERANCE))]
        raise ValueError(f"utility {bad[0].item()!r} outside [0, 1]")
    mid = np.maximum(ab_lo, np.minimum(ab_hi, c, out=ab_hi), out=ab_hi)
    # subset weights: the two criteria after the first at the min, and the
    # first at the max
    w2 = np.where(a == lo, mu[0b110], np.where(b == lo, mu[0b101], mu[0b011]))
    w3 = np.where(a == hi, mu[0b001], np.where(b == hi, mu[0b010], mu[0b100]))
    # lo * mu + (mid - lo) * w2 + (hi - mid) * w3, the increments built in place
    score = lo * mu[ALL_MASK]
    score += np.multiply(np.subtract(mid, lo, out=ab_lo), w2, out=ab_lo)
    score += np.multiply(np.subtract(hi, mid, out=mid), w3, out=mid)
    return score


def normalize_utilities(raw: np.ndarray) -> np.ndarray:
    """Min-max normalization of raw criterion values over a candidate set.

    ``raw`` is (3, n) with n >= 1, one row per criterion: information gain,
    travel distance, sensing time (the step's candidates; the shape is not
    checked); the result has the same shape.  Gain is a
    benefit criterion, the other two are costs (lower is better).  Each row
    takes one subtraction from its minimum (gain) or maximum (costs), then
    one division by its span.  When a criterion is constant every candidate
    gets utility 1 for it.  A NaN or infinite value raises ValueError naming
    its criterion.
    """
    values = np.asarray(raw, dtype=np.float64)
    lo, hi = np.minimum.reduce(values, axis=1).tolist(), np.maximum.reduce(values, axis=1).tolist()
    # NaN and +-inf propagate into a criterion's minimum or maximum
    finite = [math.isfinite(a) and math.isfinite(b) for a, b in zip(lo, hi)]
    if not all(finite):
        name = Criterion(finite.index(False) + 1).name.lower().replace("_", " ")
        raise ValueError(f"non-finite {name} among the raw values")
    out = np.empty_like(values)
    for row, low, high, benefit, target in zip(values, lo, hi, _BENEFIT, out):
        span = high - low
        if span > 0:
            # gain rises from its minimum, the costs fall from their maximum
            if benefit:
                np.subtract(row, low, out=target)
            else:
                np.subtract(high, row, out=target)
            target /= span
        else:
            target.fill(1.0)
    return out
