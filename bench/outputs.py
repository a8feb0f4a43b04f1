"""Output checks for coverage runs: reference digests and invariants.

A digest covers every deterministic output of a run: each ``StepRecord``
field except ``decision_time`` (floats as ``repr``) and the ``RunResult``
totals, ``coverage_satisfied`` and ``uncovered_cells``.  The field lists are
spelled out so that fields added later do not change the digest.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from program import nb
from workloads import CONNECTIVITY

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def digest(result) -> str:
    h = hashlib.sha256()
    for rec in result.steps:
        fields = (
            rec.index,
            rec.pose.cell.x,
            rec.pose.cell.y,
            repr(rec.pose.theta),
            repr(rec.phi_used),
            rec.info_gain,
            repr(rec.travel_time),
            repr(rec.sensing_time),
            repr(rec.cumulative_coverage),
            rec.candidates_evaluated,
        )
        h.update(("step " + " ".join(map(str, fields)) + "\n").encode())
    totals = (
        result.total_sensing_ops,
        repr(result.total_travel_time),
        repr(result.total_sensing_time),
        repr(result.total_time),
        result.coverage_satisfied,
    )
    h.update(("totals " + " ".join(map(str, totals)) + "\n").encode())
    uncovered = " ".join(f"{c.x},{c.y}" for c in result.uncovered_cells)
    h.update(f"uncovered {uncovered}\n".encode())
    return h.hexdigest()


def load_reference() -> dict[str, str]:
    """Run label -> digest, for the workloads' default seeds."""
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["digests"]


def invariant_errors(result, scanned_count: int, pristine, spec) -> tuple[list[str], int]:
    """Checks that hold for every correct run, whatever the map.

    ``scanned_count`` is the scanned-cell count of the map after the run and
    ``pristine`` a copy of the map taken before it.  Returns the failed
    checks and the number of uncovered cells that some reachable pose could
    smell but that sit in a walled-off pocket.  Candidate poses are frontier
    cells, so the planner never aims at such a pocket; the package's own tests
    accept those leftovers, so they are counted, not failed.
    """
    errors = []
    gains = [rec.info_gain for rec in result.steps]
    if any(g < 1 for g in gains):
        errors.append("a step has info_gain < 1")
    coverage = [rec.cumulative_coverage for rec in result.steps]
    if any(b < a for a, b in zip(coverage, coverage[1:])):
        errors.append("cumulative_coverage falls")
    if sum(gains) != scanned_count:
        errors.append(f"gains sum to {sum(gains)} but {scanned_count} cells are scanned")
    sealed = set(
        nb.uncoverable_cells(pristine, spec.sensor(), spec.orientations, CONNECTIVITY)
    )
    reach = nb.shortest_distances(pristine, pristine.start, CONNECTIVITY)
    smellable = [c for c in result.uncovered_cells if c not in sealed]
    stray = [c for c in smellable if math.isfinite(reach[c.y, c.x])]
    if stray:
        errors.append(f"{len(stray)} reachable uncovered cells are coverable, e.g. {stray[0]}")
    return errors, len(smellable) - len(stray)
