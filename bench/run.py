"""nbsmell benchmark: coverage-run latency end to end and per module.

Usage, from the root of a checkout:

    python3 bench/run.py --workload randgrid-small --seed 7 --seconds 25 --trace 0
    python3 bench/run.py --workload all            # every workload, default seeds

Each workload drives the public API the way ``nbsmell run`` does: load or
generate a map, build a ``CoverageEngine``, call ``step()`` until it returns
None or coverage reaches 1.0, then ``run()``.  One pass makes every coverage
run of the workload once; passes repeat while the next one is expected to
end within ``--seconds`` (at least one pass is always made).

With ``--trace 0`` the end-to-end metrics are measured with no hooks
installed:

- ``run_s``: median over passes of the wall time of one pass, set-up excluded;
- ``step_p50_ms``, ``step_p95_ms``: latency of every ``step()`` call;
- ``setup_s``: median over fresh processes of map loading plus engine
  construction for one pass (ray-disk and motion-graph caches cold, imports
  excluded);
- ``peak_rss_mb``: peak resident set size of this process.

Times are rescaled to a reference machine speed (see ``speed.py``); the raw
wall times are printed beside them.

With ``--trace 1`` the first pass is traced (see ``spans.py``), then untraced
and traced passes alternate; the per-layer metrics are medians over traced
passes, except ``sensing.FosEvaluator.init_s``, which comes from the first
(cold) one.  Span times are raw wall times; ``trace.overhead_s`` is the
rescaled ``run_s`` of traced minus untraced passes.  Spans are written to
``bench/out/spans-<workload>.csv``.

Every run's output is checked: against a stored digest when the seed is the
workload's default (or the workload ignores the seed), against invariants
otherwise.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from speed import REFERENCE_KERNEL_S, SpeedMeter, kernel_time

try:  # fails when the checkout's sources are missing; main() reports it
    import spans
    from outputs import digest, invariant_errors, load_reference
    from program import nb
    from workloads import TARGET_COVERAGE, WORKLOADS
except ImportError as exc:
    LOAD_ERROR: ImportError | None = exc
else:
    LOAD_ERROR = None

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="grid90, corridor-sweep, randgrid-small, or all")
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: the workload's reference seed)")
    p.add_argument("--seconds", type=float, default=25.0,
                   help="measuring time; passes stop once the next would overrun")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


@dataclass
class RunOutcome:
    spec: object
    result: object = None
    scanned: int = 0
    pristine: object = None
    digest: str | None = None
    error: str | None = None


@dataclass
class Pass:
    meter: SpeedMeter
    outcomes: list[RunOutcome] = field(default_factory=list)

    @property
    def run_s(self) -> float:
        return self.meter.scaled_s


def _one_run(spec, meter: SpeedMeter, keep_pristine: bool, tracer) -> RunOutcome:
    if tracer is not None:
        tracer.run_id += 1
    try:
        grid = spec.load_map()
        engine = spec.engine(grid)
        pristine = grid.copy() if keep_pristine else None
        meter.begin()
        while nb.coverage_ratio(grid) < TARGET_COVERAGE:
            s0 = perf_counter()
            record = engine.step()
            meter.step(perf_counter() - s0)
            if record is None:
                break
            meter.tick()
        result = engine.run()
        meter.end()
    except Exception:  # a failing run is counted, the benchmark carries on
        return RunOutcome(spec, error=traceback.format_exc(limit=3))
    return RunOutcome(spec, result, grid.scanned_count(), pristine, digest(result))


def one_pass(specs, keep_pristine: bool, tracer=None) -> Pass:
    p = Pass(SpeedMeter())
    for spec in specs:
        p.outcomes.append(_one_run(spec, p.meter, keep_pristine, tracer))
    return p


def setup_once(specs) -> float:
    """Map loading plus engine construction for one pass, in this process."""
    total = 0.0
    for spec in specs:
        t0 = perf_counter()
        spec.engine(spec.load_map())
        total += perf_counter() - t0
    return total


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """``setup_once`` in a fresh interpreter, so every cache starts cold.

    Returns the rescaled and the raw set-up time.
    """
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    got = json.loads(proc.stdout.splitlines()[-1])
    return got["setup_s"], got["raw_s"]


def check(workload, seed: int, passes: list[Pass], reference: dict[str, str]):
    """Count attempted and failed runs; return (attempted, failed, messages).

    The first pass is checked against the reference digests or the
    invariants; every later pass must reproduce the first pass's digests.
    """
    by_reference = workload.has_reference(seed)
    walled_runs = walled_cells = 0
    verdict: dict[str, str | None] = {}
    first = {o.spec.label: o for o in passes[0].outcomes}
    for label, o in first.items():
        if o.error:
            verdict[label] = o.error
        elif by_reference:
            ref = reference.get(label)
            verdict[label] = None if ref == o.digest else (
                f"digest {o.digest} differs from reference {ref}")
        else:
            errors, walled_off = invariant_errors(o.result, o.scanned, o.pristine, o.spec)
            verdict[label] = "; ".join(errors) or None
            walled_runs += walled_off > 0
            walled_cells += walled_off
    messages = []
    if walled_runs:
        messages.append(f"{walled_runs} runs left {walled_cells} smellable but walled-off "
                        f"cells uncovered (counted, not failed)")
    attempted = failed = 0
    for i, p in enumerate(passes):
        for o in p.outcomes:
            attempted += 1
            label = o.spec.label
            problem = o.error or verdict[label]
            if problem is None and o.digest != first[label].digest:
                problem = "output differs from the first pass"
            if problem:
                failed += 1
                messages.append(f"run {label} (pass {i + 1}) failed: {problem}")
    return attempted, failed, messages


def _timed_passes(specs, seconds: float, kinds, tracer=None) -> dict[str, list[Pass]]:
    """Cycle through pass kinds ('plain' or 'traced') while time allows."""
    out: dict[str, list[Pass]] = {k: [] for k in kinds}
    started = perf_counter()
    n = 0
    first = True
    while True:
        for kind in kinds:
            if kind == "traced":
                tracer.begin_pass()
                tracer.install()
                try:
                    out[kind].append(one_pass(specs, first, tracer))
                finally:
                    tracer.uninstall()
                tracer.end_pass()
            else:
                out[kind].append(one_pass(specs, first))
            first = False
            n += 1
        elapsed = perf_counter() - started
        if elapsed + elapsed / n * len(kinds) > seconds:
            return out


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure_plain(workload, seed: int, seconds: float):
    setups = [setup_probe(workload.name, seed) for _ in range(SETUP_PROBES)]
    passes = _timed_passes(workload.runs(seed), seconds, ("plain",))["plain"]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    steps = [s for p in passes for s in p.meter.scaled_steps]
    raw_steps = [s for p in passes for s in p.meter.raw_steps]
    p50, p95 = np.percentile(steps, [50, 95]) * 1e3
    raw50, raw95 = np.percentile(raw_steps, [50, 95]) * 1e3
    metrics = {
        "run_s": _metric(statistics.median(p.run_s for p in passes), "s"),
        "step_p50_ms": _metric(float(p50), "ms"),
        "step_p95_ms": _metric(float(p95), "ms"),
        "setup_s": _metric(statistics.median(s for s, _ in setups), "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    speeds = [p.meter.speed() for p in passes]
    notes = [
        f"passes {len(passes)}, step samples {len(steps)} "
        f"({len(steps) // len(passes)} per pass), set-up probes {SETUP_PROBES}",
        f"raw wall times: run_s {statistics.median(p.meter.raw_s for p in passes):.4g} s, "
        f"step_p50_ms {raw50:.4g}, step_p95_ms {raw95:.4g}, "
        f"setup_s {statistics.median(r for _, r in setups):.4g} s; "
        f"machine speed {min(speeds):.3g}-{max(speeds):.3g} x reference",
    ]
    return passes, metrics, notes


def measure_traced(workload, seed: int, seconds: float):
    tracer = spans.Tracer()
    got = _timed_passes(workload.runs(seed), seconds, ("traced", "plain"), tracer)
    traced, plain = got["traced"], got["plain"]
    per_pass = []
    residual = 0.0
    for p, stats in zip(traced, tracer.pass_stats):
        values, res = spans.layer_values(tracer, stats, p.outcomes)
        per_pass.append(values)
        residual = max(residual, res)
    metrics = {}
    for name, (unit, _) in spans.LAYER_METRICS.items():
        if name == "trace.overhead_s":
            continue
        vals = [v[name] for v in per_pass]
        if name == "sensing.FosEvaluator.init_s":
            vals = vals[:1]
        metrics[name] = _metric(None if None in vals else statistics.median(vals), unit)
    overhead = (statistics.median(p.run_s for p in traced)
                - statistics.median(p.run_s for p in plain))
    metrics["trace.overhead_s"] = _metric(overhead, "s")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}.csv"
    tracer.write_csv(spans_path)
    notes = [
        f"traced passes {len(traced)}, untraced passes {len(plain)}, "
        f"spans {len(tracer.name)} written to {spans_path.relative_to(HERE.parent)}",
        f"self times under each engine.step add up to the span "
        f"(largest residual {residual:.3g} s); trace hooks took "
        f"{statistics.median(v['trace.hooks_s'] for v in per_pass):.3g} s per traced pass",
    ]
    notes += [f"missing hook: {h}" for h in tracer.missing]
    notes += [f"absent: {k}" for k, m in metrics.items() if m["value"] is None]
    consistent = residual < 1e-6
    if not consistent:
        notes.append("trace inconsistent: child spans do not nest in their parents")
    return traced + plain, metrics, notes, consistent


def run_all(args) -> int:
    """Run every workload in its own process and relay what each prints."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status |= proc.returncode
    return 1 if status else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if LOAD_ERROR is not None:
        print(f"bench: cannot load the program: {LOAD_ERROR}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"bench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)} or all", file=sys.stderr)
        return 2
    seed = args.seed if args.seed is not None else (workload.default_seed or 0)
    if args.setup_probe:
        kernel_time()  # first run pays for lazy set-up inside numpy
        before = kernel_time()
        raw = setup_once(workload.runs(seed))
        factor = REFERENCE_KERNEL_S / ((before + kernel_time()) / 2)
        print(json.dumps({"setup_s": raw * factor, "raw_s": raw}))
        return 0

    if args.trace:
        passes, metrics, notes, consistent = measure_traced(workload, seed, args.seconds)
    else:
        passes, metrics, notes = measure_plain(workload, seed, args.seconds)
        consistent = True
    attempted, failed, messages = check(workload, seed, passes, load_reference())

    print(f"{workload.name} seed={seed} trace={args.trace} "
          f"(outputs checked by {'digest' if workload.has_reference(seed) else 'invariants'})")
    print(f"  machine: nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"numpy {np.__version__}, scipy {scipy.__version__}")
    for name, m in metrics.items():
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:40s} {value:>12s} {m['unit']}")
    print(f"  {'runs_failed / runs_attempted':40s} {f'{failed}/{attempted}':>12s} runs")
    for line in notes + messages:
        print(f"  {line}")
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
