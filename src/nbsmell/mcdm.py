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

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Criterion",
    "FuzzyMeasure",
    "InvalidConfigError",
    "NAMED_CONFIGS",
    "WeightConfig",
    "build_measure",
    "choquet",
    "choquet_batch",
    "named_measure",
    "normalize_utilities",
    "validate_measure",
]

SIMPLEX_TOLERANCE = 1e-9
_BENEFIT = np.array([[True], [False], [False]])  # per criterion: gain, distance, time
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
        if len(self.values) != 8:
            raise ValueError("a fuzzy measure needs exactly 8 subset weights")

    def weight(self, criteria: Iterable[Criterion]) -> float:
        mask = 0
        for c in criteria:
            mask |= Criterion(c).bit
        return self.values[mask]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)


def validate_measure(measure: FuzzyMeasure) -> list[str]:
    """Check the fuzzy-measure axioms; returns violations (empty = valid)."""
    mu = measure.values
    violations = []
    if mu[0] != 0.0:
        violations.append(f"boundary: mu({{}}) = {mu[0]!r}, expected 0")
    if mu[ALL_MASK] != 1.0:
        violations.append(f"boundary: mu({_mask_name(ALL_MASK)}) = {mu[ALL_MASK]!r}, expected 1")
    for mask, value in enumerate(mu):
        if not 0.0 <= value <= 1.0:
            violations.append(f"range: mu({_mask_name(mask)}) = {value!r} outside [0, 1]")
    for a in range(8):
        for b in range(8):
            if a != b and (a & b) == a and mu[a] > mu[b]:
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

    def validate(self) -> None:
        for label, x in (("x1", self.x1), ("x2", self.x2), ("x3", self.x3)):
            if not 0.0 <= x <= 1.0:
                raise InvalidConfigError(f"{label} = {x!r} outside [0, 1]")
        total = self.x1 + self.x2 + self.x3
        if abs(total - 1.0) > SIMPLEX_TOLERANCE:
            raise InvalidConfigError(
                f"weights must satisfy x1 + x2 + x3 = 1 "
                f"(got {total!r}, tolerance {SIMPLEX_TOLERANCE})"
            )
        if not self.synergy_bonus >= 0:
            raise InvalidConfigError(
                f"synergy_bonus must be >= 0, got {self.synergy_bonus!r}"
            )


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


def _measure_from_row(row: tuple[float, ...]) -> FuzzyMeasure:
    x1, x2, x3, m12, m13, m23 = row
    return FuzzyMeasure(values=(0.0, x1, x2, m12, x3, m13, m23, 1.0))


def named_measure(name: str) -> FuzzyMeasure:
    try:
        return _measure_from_row(_NAMED_ROWS[name.upper()])
    except KeyError:
        raise InvalidConfigError(
            f"unknown configuration {name!r}; expected one of {', '.join(NAMED_CONFIGS)}"
        ) from None


def build_measure(config: WeightConfig) -> FuzzyMeasure:
    """Measure for custom weights.

    Singleton weights are used as given and pairs as
    ``min(1, x_i + x_j + synergy_bonus)``; the result must pass
    :func:`validate_measure`.
    """
    config.validate()
    bonus = config.synergy_bonus
    pair = lambda a, b: min(1.0, a + b + bonus)
    measure = FuzzyMeasure(values=(
        0.0,
        config.x1,
        config.x2,
        pair(config.x1, config.x2),
        config.x3,
        pair(config.x1, config.x3),
        pair(config.x2, config.x3),
        1.0,
    ))
    violations = validate_measure(measure)
    if violations:
        raise InvalidConfigError("; ".join(violations))
    return measure


def choquet(u: Sequence[float], measure: FuzzyMeasure) -> float:
    """Discrete Choquet integral of a 3-component utility vector.

    Utilities are sorted ascending; each increment is weighted by the
    measure of the criteria whose utility is at least the current level.
    Ties between equal utilities produce zero-width increments, so the
    result does not depend on their permutation.
    """
    if len(u) != 3:
        raise ValueError(f"expected 3 utilities, got {len(u)}")
    for value in u:
        if not -1e-12 <= value <= 1.0 + 1e-12:
            raise ValueError(f"utility {value!r} outside [0, 1]")
    mu = measure.values
    order = sorted(range(3), key=lambda i: u[i])
    u1, u2, u3 = (u[i] for i in order)
    m1 = ALL_MASK
    m2 = ALL_MASK ^ (1 << order[0])
    m3 = 1 << order[2]
    return u1 * mu[m1] + (u2 - u1) * mu[m2] + (u3 - u2) * mu[m3]


def choquet_batch(utilities: np.ndarray, measure: FuzzyMeasure) -> np.ndarray:
    """Vectorized :func:`choquet` over an (n, 3) utility array, without a sort.

    Levels are an exact min / median / max, the masks come from the argmin and
    argmax; where a tie moves those from a stable sort's, the increment is 0.
    """
    u = np.asarray(utilities, dtype=np.float64)
    if u.ndim != 2 or u.shape[1] != 3:
        raise ValueError(f"expected (n, 3) utilities, got shape {u.shape}")
    mu = measure.as_array()
    a, b, c = u.T
    ab_lo, ab_hi = np.minimum(a, b), np.maximum(a, b)
    lo, hi = np.minimum(ab_lo, c), np.maximum(ab_hi, c)
    mid = np.maximum(ab_lo, np.minimum(ab_hi, c))
    m2 = ALL_MASK ^ (1 << u.argmin(axis=1))
    m3 = 1 << u.argmax(axis=1)
    return lo * mu[ALL_MASK] + (mid - lo) * mu[m2] + (hi - mid) * mu[m3]


def normalize_utilities(raw: np.ndarray) -> np.ndarray:
    """Min-max normalization of raw criterion values over a candidate set.

    ``raw`` is (n, 3): information gain, travel distance, sensing time.
    Gain is a benefit criterion, the other two are costs (lower is better).
    When a column is constant every candidate gets utility 1 for it.
    """
    values = np.asarray(raw, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != 3:
        raise ValueError(f"expected (n, 3) raw values, got shape {values.shape}")
    if values.shape[0] == 0:
        raise ValueError("need at least one candidate")
    # one row per criterion, so that every operation runs along contiguous memory
    rows = np.ascontiguousarray(values.T)
    lo, hi = rows.min(axis=1, keepdims=True), rows.max(axis=1, keepdims=True)
    span = hi - lo
    varies = span > 0
    # gain rises from its minimum, the costs fall from their maximum
    gap = np.where(_BENEFIT, rows - lo, hi - rows)
    return np.where(varies, gap / np.where(varies, span, 1.0), 1.0).T.copy()
