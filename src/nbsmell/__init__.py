"""Online coverage planning for a mobile robot with a remote gas sensor.

The planner repeatedly evaluates candidate poses on the frontier between
scanned and unscanned space, scores them with a Choquet integral over
travel distance, information gain, and sensing time, and executes the best
one until the map is covered.
"""

from .engine import CoverageEngine, RunResult, StepRecord, run_coverage, uncoverable_cells
from .grid import (
    Cell,
    CellState,
    GridMap,
    MapFormatError,
    Pose,
    coverage_ratio,
    generate_random_grid,
    parse_map,
    serialize_map,
)
from .mapgen import generate_map, shipped_map
from .mcdm import NAMED_CONFIGS, FuzzyMeasure, InvalidConfigError, WeightConfig
from .planning import shortest_distances
from .sensing import SensorModel

__version__ = "0.1.0"
