"""The coverage runs each benchmark workload makes in one pass.

Every run is single-process and single-threaded, with 4-connected motion,
1 m/s and target coverage 1.0.  A workload turns the ``--seed`` argument
into its list of runs; the program only ever sees the generated maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from program import nb

CONNECTIVITY = 4
SPEED_MPS = 1.0
TARGET_COVERAGE = 1.0
OBSTACLE_RATIO = 0.1


@dataclass(frozen=True)
class RunSpec:
    """One coverage run: a map, a weight configuration and a sensor."""

    label: str
    config: str
    r_max: float
    orientations: int
    shipped: str | None = None  # shipped map name; None means a random grid
    size: int = 0
    map_seed: int = 0

    def load_map(self):
        if self.shipped is not None:
            return nb.shipped_map(self.shipped)
        return nb.generate_random_grid(self.size, OBSTACLE_RATIO, self.map_seed)

    def sensor(self):
        return nb.SensorModel(r_max=self.r_max)

    def engine(self, grid):
        return nb.CoverageEngine(
            grid,
            self.config,
            self.sensor(),
            orientations=self.orientations,
            connectivity=CONNECTIVITY,
            speed=SPEED_MPS,
            target_coverage=TARGET_COVERAGE,
        )


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int | None  # None: the runs do not depend on the seed
    runs: Callable[[int], list[RunSpec]]

    def has_reference(self, seed: int) -> bool:
        """True when the seed gives the inputs the stored digests were taken on."""
        return self.default_seed is None or seed == self.default_seed


GRID90_SEED = 90001


def _grid90(seed: int) -> list[RunSpec]:
    # One 90x90 map per pass cannot average out map-to-map differences:
    # seeds 1, 2, 3, 7, 8 and 90001 took 142 to 293 steps and 14 to 28 s.
    # So this workload always runs the ROADMAP's reference map and ignores
    # the seed; randgrid-small covers seeded random maps, 60 per pass.
    return [RunSpec(f"grid90/F/seed{GRID90_SEED}", "F", 30.0, 4, size=90,
                    map_seed=GRID90_SEED)]


def _corridor_sweep(seed: int) -> list[RunSpec]:
    return [
        RunSpec(f"corridor/{name}", name, 10.0, 8, shipped="corridor")
        for name in nb.NAMED_CONFIGS
    ]


# With 10 grids per size, as in the criterion-7 batch, the mix of maps moved
# run_s by up to 23% between seeds 101, 4242, 7777 and 31337; 30 per size
# narrows that to 17% and still fits one pass in a run.
GRIDS_PER_SIZE = 30


def _randgrid_small(seed: int) -> list[RunSpec]:
    # per-grid seeds follow the `nbsmell randgrid` rule: seed + 1000*size + i
    return [
        RunSpec(f"randgrid/{size}/seed{s}", "F", 30.0, 4, size=size, map_seed=s)
        for size in (10, 30)
        for s in (seed + 1000 * size + i for i in range(GRIDS_PER_SIZE))
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid90", None, _grid90),
        Workload("corridor-sweep", None, _corridor_sweep),
        Workload("randgrid-small", 1, _randgrid_small),
    )
}
