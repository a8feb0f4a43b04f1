"""Tests of the benchmark itself, on a tiny workload that runs in well under a second."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import run
import spans
from program import nb
from workloads import RunSpec, Workload

TINY = Workload(
    "tiny",
    5,
    lambda seed: [RunSpec(f"tiny/F/seed{seed}", "F", 4.0, 4, size=8, map_seed=seed)],
)


def _reference(passes):
    return {o.spec.label: o.digest for o in passes[0].outcomes}


def test_matching_reference_digest_passes():
    passes = run._timed_passes(TINY.runs(5), 0.0, ("plain",))["plain"]
    assert run.check(TINY, 5, passes, _reference(passes))[:2] == (1, 0)


def test_perturbed_reference_digest_counts_as_failed_run():
    passes = run._timed_passes(TINY.runs(5), 0.0, ("plain",))["plain"]
    reference = _reference(passes)
    label, good = next(iter(reference.items()))
    reference[label] = ("0" if good[0] != "0" else "1") + good[1:]
    attempted, failed, messages = run.check(TINY, 5, passes, reference)
    assert (attempted, failed) == (1, 1)
    assert "differs from reference" in messages[0]


def test_other_seed_is_checked_by_invariants():
    passes = run._timed_passes(TINY.runs(6), 0.0, ("plain",))["plain"]
    assert not TINY.has_reference(6)
    assert run.check(TINY, 6, passes, {})[:2] == (1, 0)


def test_broken_invariant_counts_as_failed_run():
    passes = run._timed_passes(TINY.runs(6), 0.0, ("plain",))["plain"]
    passes[0].outcomes[0].scanned += 1  # gains no longer sum to the scanned count
    attempted, failed, messages = run.check(TINY, 6, passes, {})
    assert (attempted, failed) == (1, 1)
    assert "gains sum to" in messages[0]


def test_reachable_coverable_cell_left_uncovered_counts_as_failed_run():
    passes = run._timed_passes(TINY.runs(6), 0.0, ("plain",))["plain"]
    outcome = passes[0].outcomes[0]
    outcome.result.uncovered_cells.append(outcome.pristine.start)
    attempted, failed, messages = run.check(TINY, 6, passes, {})
    assert (attempted, failed) == (1, 1)
    assert "reachable uncovered cells are coverable" in messages[0]


def test_tiny_workload_completes_traced_and_untraced_pass():
    tracer = spans.Tracer()
    got = run._timed_passes(TINY.runs(5), 0.0, ("traced", "plain"), tracer)
    assert len(got["traced"]) == len(got["plain"]) == 1
    assert got["plain"][0].meter.scaled_steps and got["plain"][0].run_s > 0
    assert tracer.missing == []
    values, residual = spans.layer_values(tracer, tracer.pass_stats[0],
                                          got["traced"][0].outcomes)
    assert residual < 1e-9
    for name in spans.LAYER_METRICS:
        if name != "trace.overhead_s":
            assert values[name] is not None, name
    steps = got["traced"][0].outcomes[0].result.steps
    assert values["engine.candidates"] == sum(r.candidates_evaluated for r in steps)
    assert values["grid.mark_scanned.cells"] == sum(r.info_gain for r in steps)
    # the hooks are gone again and did not change the outputs
    assert not hasattr(nb.engine.select_best, "__wrapped__")
    assert not hasattr(nb.sensing.FosEvaluator.evaluate_cell, "__wrapped__")
    assert got["traced"][0].outcomes[0].digest == got["plain"][0].outcomes[0].digest


def test_missing_hook_is_reported_and_its_metric_absent(monkeypatch):
    hooks = tuple(
        (name, owner, "no_such_method" if name == "sensing.mark_scanned" else attr)
        for name, owner, attr in spans.HOOKS
    )
    monkeypatch.setattr(spans, "HOOKS", hooks)
    tracer = spans.Tracer()
    got = run._timed_passes(TINY.runs(5), 0.0, ("traced",), tracer)
    assert tracer.missing == ["nbsmell.sensing.FosEvaluator.no_such_method"]
    values, _ = spans.layer_values(tracer, tracer.pass_stats[0], got["traced"][0].outcomes)
    assert values["sensing.mark_scanned.s"] is None
    assert values["sensing.evaluate_cell.calls"] > 0


def test_fails_without_printing_a_result_when_sources_are_missing(tmp_path):
    bench = Path(__file__).resolve().parent
    shutil.copytree(bench, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid90", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
