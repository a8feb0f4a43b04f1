"""Traced runs: spans around the calls into each nbsmell module.

The tracer replaces public functions and methods at the module boundaries
with wrappers that record a span (name, start, end, parent span, run id) and
restores them afterwards.  Spans stay in memory and are written out when the
benchmark ends.  A hook whose target no longer exists is reported as missing
and the metrics that need it come out absent.

A span's self time is its duration minus the time its child spans cover.
Work the wrappers do after a call returns (counting frontier cells, cache
misses, unchanged evaluations) is charged to the ``trace.hooks`` pseudo-layer,
not to the caller, so the self times of a step's spans plus that pseudo-layer
add up to the step span.
"""

from __future__ import annotations

import csv
import importlib
import weakref
from array import array
from time import perf_counter

import numpy as np

# (span name, owner of the attribute, attribute name).  The engine reaches
# grid, planning and mcdm through names bound in ``nbsmell.engine``, so those
# are wrapped there; the benchmark loads maps through the package namespace.
HOOKS = (
    ("mapgen.load", "nbsmell", "shipped_map"),
    ("mapgen.load", "nbsmell", "generate_random_grid"),
    ("engine.step", "nbsmell.engine.CoverageEngine", "step"),
    ("engine.select_best", "nbsmell.engine", "select_best"),
    ("planning.shortest_distances", "nbsmell.engine", "shortest_distances"),
    ("grid.frontier_cells", "nbsmell.engine", "frontier_cells"),
    ("grid.mark_scanned", "nbsmell.engine", "mark_scanned"),
    ("grid.coverage_ratio", "nbsmell.engine", "coverage_ratio"),
    ("mcdm.normalize_utilities", "nbsmell.engine", "normalize_utilities"),
    ("mcdm.choquet_batch", "nbsmell.engine", "choquet_batch"),
    ("sensing.FosEvaluator.init", "nbsmell.sensing.FosEvaluator", "__init__"),
    ("sensing.evaluate_cell", "nbsmell.sensing.FosEvaluator", "evaluate_cell"),
    ("sensing.visible", "nbsmell.sensing.FosEvaluator", "visible"),
    ("sensing.mark_scanned", "nbsmell.sensing.FosEvaluator", "mark_scanned"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in HOOKS))

# per-layer metric -> (unit, spans it needs)
LAYER_METRICS = {
    "sensing.evaluate_cell.calls": ("count", ("sensing.evaluate_cell",)),
    "sensing.evaluate_cell.self_s": ("s", ("sensing.evaluate_cell",)),
    "sensing.evaluate_cell.unchanged_share": ("ratio", ("sensing.evaluate_cell",)),
    "sensing.visible.calls": ("count", ("sensing.visible",)),
    "sensing.visible.s": ("s", ("sensing.visible",)),
    "sensing.visible.misses": ("count", ("sensing.visible",)),
    "sensing.visible.hit_ratio": ("ratio", ("sensing.visible",)),
    "sensing.vis_cache_mb": ("MB", ("sensing.visible",)),
    "sensing.FosEvaluator.init_s": ("s", ("sensing.FosEvaluator.init",)),
    "sensing.mark_scanned.s": ("s", ("sensing.mark_scanned",)),
    "engine.step.calls": ("count", ("engine.step",)),
    "engine.step.self_s": ("s", ("engine.step",)),
    "engine.select_best.self_s": ("s", ("engine.select_best",)),
    "engine.candidates": ("count", ()),
    "engine.executed_per_candidate": ("ratio", ()),
    "mcdm.normalize_utilities.s": ("s", ("mcdm.normalize_utilities",)),
    "mcdm.choquet_batch.s": ("s", ("mcdm.choquet_batch",)),
    "planning.shortest_distances.calls": ("count", ("planning.shortest_distances",)),
    "planning.shortest_distances.s": ("s", ("planning.shortest_distances",)),
    "grid.frontier_cells.s": ("s", ("grid.frontier_cells",)),
    "grid.frontier_cells.cells_mean": ("count", ("grid.frontier_cells",)),
    "grid.frontier_cells.cells_max": ("count", ("grid.frontier_cells",)),
    "grid.mark_scanned.s": ("s", ("grid.mark_scanned",)),
    "grid.mark_scanned.cells": ("count", ("grid.mark_scanned",)),
    "grid.writes_per_eval": ("ratio", ("grid.mark_scanned", "sensing.evaluate_cell")),
    "grid.coverage_ratio.calls": ("count", ("grid.coverage_ratio",)),
    "grid.coverage_ratio.s": ("s", ("grid.coverage_ratio",)),
    "mapgen.load_s": ("s", ("mapgen.load",)),
    "trace.overhead_s": ("s", ()),
}


def _resolve(owner_path: str):
    """Import the longest module prefix of ``owner_path``, then getattr the rest."""
    parts = owner_path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(owner_path)


class _EvaluatorStats:
    """What the hooks learn about one FosEvaluator."""

    __slots__ = ("seen", "last", "misses", "k", "reevals", "unchanged")

    def __init__(self) -> None:
        self.seen: set = set()
        self.last: dict = {}
        self.misses = 0
        self.k: int | None = None
        self.reevals = 0
        self.unchanged = 0


class PassStats:
    """Span range and boundary counters of one traced pass."""

    def __init__(self, lo: int) -> None:
        self.lo = lo
        self.hi = lo
        self.evaluators: list[_EvaluatorStats] = []
        self.frontier_sizes: list[int] = []
        self.cells_marked = 0


class Tracer:
    def __init__(self) -> None:
        self.name = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.run = array("l")
        self.hook = array("d")  # hook time spent right after the span closed
        self._stack: list[int] = []
        self.run_id = 0
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self.pass_stats: list[PassStats] = []
        self._evaluators: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def begin_pass(self) -> None:
        self._evaluators = weakref.WeakKeyDictionary()
        self.pass_stats.append(PassStats(len(self.name)))

    def end_pass(self) -> None:
        self.pass_stats[-1].hi = len(self.name)

    # -- installing the hooks ------------------------------------------------

    def install(self) -> None:
        after = {
            "sensing.visible": self._after_visible,
            "sensing.evaluate_cell": self._after_evaluate,
            "grid.frontier_cells": self._after_frontier,
            "grid.mark_scanned": self._after_mark,
        }
        self.missing = []
        for span_name, owner_path, attr in HOOKS:
            try:
                owner = _resolve(owner_path)
                fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{owner_path}.{attr}")
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(SPAN_NAMES.index(span_name), fn,
                                            after.get(span_name)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def missing_spans(self) -> set[str]:
        """Span names none of whose hooks could be installed."""
        found = {
            name for name, owner, attr in HOOKS
            if f"{owner}.{attr}" not in self.missing
        }
        return set(SPAN_NAMES) - found

    def _wrap(self, name_id: int, fn, after):
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.name)
            stack = tracer._stack
            tracer.name.append(name_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.run.append(tracer.run_id)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.hook.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if after is not None:
                after(args, out)
                tracer.hook[idx] = perf_counter() - t1
            return out

        traced.__wrapped__ = fn
        return traced

    # -- counters taken at the boundaries ------------------------------------

    def _stats(self, evaluator) -> _EvaluatorStats:
        stats = self._evaluators.get(evaluator)
        if stats is None:
            stats = _EvaluatorStats()
            disk = getattr(evaluator, "disk", None)
            stats.k = getattr(disk, "k", None)
            self._evaluators[evaluator] = stats
            self.pass_stats[-1].evaluators.append(stats)
        return stats

    def _after_visible(self, args, out) -> None:
        stats = self._stats(args[0])
        cell = args[1]
        if cell not in stats.seen:
            stats.seen.add(cell)
            stats.misses += 1

    def _after_evaluate(self, args, out) -> None:
        stats = self._stats(args[0])
        sig = tuple((r.info_gain, r.phi_used) for r in out)
        prev = stats.last.get(args[1])
        if prev is not None:
            stats.reevals += 1
            stats.unchanged += prev == sig
        stats.last[args[1]] = sig

    def _after_frontier(self, args, out) -> None:
        self.pass_stats[-1].frontier_sizes.append(len(out))

    def _after_mark(self, args, out) -> None:
        self.pass_stats[-1].cells_marked += int(out)

    # -- analysis ------------------------------------------------------------

    def arrays(self, lo: int, hi: int):
        """Span fields of spans ``lo:hi`` as numpy arrays (parents re-based)."""
        # slicing an array.array copies it, so no buffer stays exported
        name = np.asarray(self.name[lo:hi], dtype=np.uint8)
        start = np.asarray(self.start[lo:hi], dtype=np.float64)
        end = np.asarray(self.end[lo:hi], dtype=np.float64)
        parent = np.asarray(self.parent[lo:hi], dtype=np.int64) - lo
        parent[parent < 0] = -1
        hook = np.asarray(self.hook[lo:hi], dtype=np.float64)
        return name, start, end, parent, hook

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["span", "name", "start_s", "end_s", "parent", "run"])
            for i in range(len(self.start)):
                writer.writerow([i, SPAN_NAMES[self.name[i]], repr(self.start[i]),
                                 repr(self.end[i]), self.parent[i], self.run[i]])


def self_times(name, start, end, parent, hook):
    """Per-span self time, plus the worst nesting error among step spans.

    Returns ``(self_s, residual)``: ``residual`` is the largest gap between
    an ``engine.step`` span's duration and the self times plus hook time of
    all spans under it; children must nest inside their parent and not
    overlap each other.
    """
    dur = end - start
    n = len(dur)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=(dur + hook)[has_parent],
                          minlength=n)
    self_s = dur - covered

    kids = np.nonzero(has_parent)[0]
    nested = np.all(start[kids] >= start[parent[kids]]) and np.all(
        end[kids] <= end[parent[kids]])
    order = kids[np.lexsort((start[kids], parent[kids]))]
    same = parent[order[1:]] == parent[order[:-1]]
    disjoint = np.all(start[order[1:]][same] >= end[order[:-1]][same])
    if not (nested and disjoint):
        return self_s, float("inf")

    step_id = SPAN_NAMES.index("engine.step")
    root = np.arange(n)
    while True:  # walk each span up to its enclosing step span (or a root)
        up = parent[root]
        move = (up >= 0) & (name[root] != step_id)
        if not move.any():
            break
        root = np.where(move, up, root)
    steps = np.nonzero(name == step_id)[0]
    if steps.size == 0:
        return self_s, 0.0
    under = name[root] == step_id
    total = np.bincount(root[under], weights=(self_s + hook)[under], minlength=n)
    # a step's own hook time lies outside it; subtract it back
    residual = np.abs(total[steps] - hook[steps] - dur[steps])
    return self_s, float(residual.max())


def layer_values(tracer: Tracer, stats: PassStats, outcomes) -> tuple[dict, float]:
    """Per-layer metric values of one traced pass, and its nesting residual.

    Metrics whose spans are missing come out as None.
    """
    name, start, end, parent, hook = tracer.arrays(stats.lo, stats.hi)
    self_s, residual = self_times(name, start, end, parent, hook)
    dur = end - start
    masks = {n: name == i for i, n in enumerate(SPAN_NAMES)}

    def calls(n):
        return int(np.count_nonzero(masks[n]))

    def total(n):
        return float(dur[masks[n]].sum())

    def own(n):
        return float(self_s[masks[n]].sum())

    def ratio(a, b):
        return a / b if b else None

    evs = stats.evaluators
    evals = calls("sensing.evaluate_cell")
    vis_calls = calls("sensing.visible")
    misses = sum(e.misses for e in evs)
    cache_bytes = [e.misses * e.k for e in evs if e.k is not None]
    records = [r for o in outcomes if o.result is not None for r in o.result.steps]
    candidates = sum(r.candidates_evaluated for r in records)
    sizes = stats.frontier_sizes
    values = {
        "sensing.evaluate_cell.calls": evals,
        "sensing.evaluate_cell.self_s": own("sensing.evaluate_cell"),
        "sensing.evaluate_cell.unchanged_share": ratio(
            sum(e.unchanged for e in evs), sum(e.reevals for e in evs)),
        "sensing.visible.calls": vis_calls,
        "sensing.visible.s": total("sensing.visible"),
        "sensing.visible.misses": misses,
        "sensing.visible.hit_ratio": ratio(vis_calls - misses, vis_calls),
        # computed, not measured: one K-byte mask per cached cell
        "sensing.vis_cache_mb": max(cache_bytes) / 1e6 if cache_bytes else None,
        "sensing.FosEvaluator.init_s": total("sensing.FosEvaluator.init"),
        "sensing.mark_scanned.s": total("sensing.mark_scanned"),
        "engine.step.calls": calls("engine.step"),
        "engine.step.self_s": own("engine.step"),
        "engine.select_best.self_s": own("engine.select_best"),
        "engine.candidates": candidates,
        "engine.executed_per_candidate": ratio(len(records), candidates),
        "mcdm.normalize_utilities.s": total("mcdm.normalize_utilities"),
        "mcdm.choquet_batch.s": total("mcdm.choquet_batch"),
        "planning.shortest_distances.calls": calls("planning.shortest_distances"),
        "planning.shortest_distances.s": total("planning.shortest_distances"),
        "grid.frontier_cells.s": total("grid.frontier_cells"),
        "grid.frontier_cells.cells_mean": ratio(sum(sizes), len(sizes)),
        "grid.frontier_cells.cells_max": max(sizes) if sizes else None,
        "grid.mark_scanned.s": total("grid.mark_scanned"),
        "grid.mark_scanned.cells": stats.cells_marked,
        "grid.writes_per_eval": ratio(stats.cells_marked, evals),
        "grid.coverage_ratio.calls": calls("grid.coverage_ratio"),
        "grid.coverage_ratio.s": total("grid.coverage_ratio"),
        "mapgen.load_s": total("mapgen.load"),
        "trace.hooks_s": float(hook.sum()),
    }
    missing = tracer.missing_spans()
    for metric, (_, needs) in LAYER_METRICS.items():
        if missing.intersection(needs):
            values[metric] = None
    return values, residual
