"""Online coverage planning for a mobile robot with a remote gas sensor.

The planner repeatedly evaluates candidate poses on the frontier between
scanned and unscanned space, scores them with a Choquet integral over
travel distance, information gain, and sensing time, and executes the best
one until the map is covered.
"""

from .engine import (
    CoverageEngine,
    RunResult,
    StepRecord,
    run_coverage,
    select_best,
    uncoverable_cells,
)
from .grid import (
    Cell,
    CellState,
    GridMap,
    MapFormatError,
    Pose,
    coverage_ratio,
    frontier_cells,
    generate_random_grid,
    heading_set,
    mark_scanned,
    parse_map,
    serialize_map,
)
from .mapgen import corridor_map, empty_map, generate_map, rooms_map, shipped_map
from .mcdm import (
    Criterion,
    FuzzyMeasure,
    InvalidConfigError,
    NAMED_CONFIGS,
    WeightConfig,
    build_measure,
    named_measure,
    normalize_utilities,
    validate_measure,
)
from .planning import shortest_distances, travel_time
from .sensing import SensorModel

__version__ = "0.1.0"
