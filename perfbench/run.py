"""End-to-end benchmark of the Muri reproduction, with a traced run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload replay-fifo --seed 1 --seconds 30 --trace 0

A run cycles through :data:`SUBTRACES` traces generated from
``--seed`` (a traced run through the first :data:`TRACED_SUBTRACES`),
building and driving one per repetition, until every trace has run and
``--seconds`` have passed.

``--trace 0`` measures with no instrumentation and reports the
end-to-end metrics.  ``--trace 1`` measures an untraced and then a
traced half, checks that the wrappers leave every simulated result
unchanged, prints the per-layer table and reports the per-layer
metrics.  Either way the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

from checks import fingerprint, result_differences, tail_percentile
from spans import Recorder
from speed import Speedometer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: Traces per run; each repetition drives the next one in turn.
SUBTRACES = 32

#: Traces per half of a traced run: the first ones of the same set.
TRACED_SUBTRACES = 8

#: Pooled latency samples a run needs for ten beyond its p99.
MIN_LATENCY_SAMPLES = 1000

#: Per-layer span names, each with the end-to-end metric and workload
#: it should move.
LAYERS: Dict[str, str] = {
    "sim.step": "jobs_per_s, latency_p99_ms on replay-fifo; jobs_per_s on burst-muri",
    "sim.next_event_time": "jobs_per_s, latency_p99_ms on replay-fifo",
    "cluster.placement": "jobs_per_s on replay-fifo",
    "sim.finalize": "peak_rss_mb on replay-fifo",
    "schedulers.decide": "latency_p99_ms on online-muri; jobs_per_s on burst-muri",
    "core.grouping": "latency_p99_ms on online-muri; jobs_per_s on burst-muri",
    "matching": "latency_p99_ms on online-muri; jobs_per_s on burst-muri",
    "service.dispatch": "latency_p50_ms on online-muri",
    "service.protocol": "latency_p50_ms on online-muri",
    "replay.harness": "jobs_per_s on replay-fifo",
    "sim.inject": "jobs_per_s on replay-fifo",
    "sim.engine": "jobs_per_s on replay-fifo",
}

#: Per-layer counts and ratios beside the span aggregates:
#: name -> (unit, what it should move).
EXTRA_LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "cluster.placement.unplaced_ratio": ("ratio", "jobs_per_s on replay-fifo"),
    "schedulers.decide.calls_tick": ("count", "jobs_per_s on burst-muri"),
    "schedulers.decide.calls_arrival": ("count", "latency_p99_ms on online-muri"),
    "schedulers.decide.calls_completion": ("count", "latency_p99_ms on online-muri"),
    "core.grouping.jobs_in": ("count", "jobs_per_s on burst-muri"),
    "core.grouping.interleaved_share": ("ratio", "avg_jct_s on burst-muri, online-muri"),
    "core.grouping.decision_cache_hit_ratio": ("ratio", "latency_p99_ms on online-muri"),
    "service.dispatch.rejects": ("count", "failed on online-muri"),
    "sim.metrics.timepoints": ("count", "peak_rss_mb on replay-fifo"),
    "sim.metrics.result_bytes": ("bytes", "peak_rss_mb on replay-fifo"),
    "tracing.jobs_per_s_delta": ("jobs/s", "traced minus untraced jobs_per_s"),
}


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


class Rep(NamedTuple):
    """One repetition: set-up plus a timed drive of one trace.

    ``scale`` converts its host times to the reference speed (see
    :mod:`speed`).
    """

    subseed: int
    setup_s: float
    host_s: float
    scale: float
    finished: int
    avg_jct_s: float
    makespan_s: float


@dataclass
class Phase:
    """Repetitions of one workload, all traced or all untraced."""

    reps: List[Rep] = field(default_factory=list)
    #: Latency samples scaled to the reference speed, and as measured.
    latencies: List[float] = field(default_factory=list)
    raw_latencies: List[float] = field(default_factory=list)
    #: Fingerprint of the first ``SimulationResult.to_dict()`` per trace
    #: seed, and that result's time points and JSON size in bytes.
    results: Dict[int, Dict[str, str]] = field(default_factory=dict)
    result_sizes: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    recorders: list = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    def jobs_per_s(self, scaled: bool = True) -> float:
        """One pass over the traces at each trace's median host time."""
        hosts: Dict[int, List[float]] = {}
        finished: Dict[int, int] = {}
        for rep in self.reps:
            host_s = rep.host_s * rep.scale if scaled else rep.host_s
            hosts.setdefault(rep.subseed, []).append(host_s)
            finished[rep.subseed] = rep.finished
        return sum(finished.values()) / sum(
            statistics.median(samples) for samples in hosts.values()
        )

    def per_trace_mean(self, attr: str) -> float:
        """Mean over the traces of one per-trace simulated outcome."""
        by_trace = {rep.subseed: getattr(rep, attr) for rep in self.reps}
        return statistics.mean(by_trace.values())


def _counting_checker():
    """An armed checker (all invariants, non-strict) that keeps counters.

    ``InvariantChecker`` drops ``Tracer`` counters unless it also
    stores every event; the traced run needs only the counters, such
    as ``grouping.decision_cache.hit``.
    """
    from repro.observe.tracer import Tracer
    from repro.verify import InvariantChecker

    class CountingChecker(InvariantChecker):
        def count(self, name: str, amount: int = 1) -> None:
            Tracer.count(self, name, amount)

    return CountingChecker(strict=False)


def measure(
    workload: str, seed: int, seconds: float, traced: bool, traces: int
) -> Phase:
    """Repeat set-up + drive over ``traces`` traces until ``seconds`` pass."""
    from workloads import drive, instrument, setup

    subseeds = [seed * SUBTRACES + index for index in range(traces)]
    phase = Phase()
    started = time.perf_counter()
    # Every trace runs at least once; a traced phase also ends on a whole
    # pass, so its per-repetition layer means weigh every trace alike.
    while (
        len(phase.reps) < traces
        or (traced and len(phase.reps) % traces)
        or (not traced and len(phase.latencies) < MIN_LATENCY_SAMPLES)
        or time.perf_counter() - started < seconds
    ):
        subseed = subseeds[len(phase.reps) % traces]
        checker = recorder = None
        meter = Speedometer()
        if traced:
            checker = _counting_checker()
            recorder = Recorder(f"{workload}/seed{seed}/rep{len(phase.reps)}")
            recorder.wrap_attr(meter, "probe", "perfbench.calibration")
        meter.sample()
        setup_started = time.perf_counter()
        prepared = setup(workload, subseed, tracer=checker)
        setup_s = time.perf_counter() - setup_started
        if traced:
            instrument(prepared, recorder)
        outcome = drive(prepared, recorder, meter)
        meter.sample()
        scale = meter.scale()
        result = outcome.result
        finished = len(result.jcts)
        phase.reps.append(Rep(
            subseed, setup_s, outcome.host_s, scale, finished,
            result.avg_jct, result.makespan,
        ))
        phase.latencies.extend(sample * scale for sample in outcome.latencies_s)
        phase.raw_latencies.extend(outcome.latencies_s)
        phase.attempted += outcome.attempted
        accepted = outcome.attempted - outcome.rejected
        violations = len(checker.violations) if traced else 0
        phase.failed += outcome.rejected + (accepted - finished) + violations
        if violations:
            phase.problems.append(
                f"trace seed {subseed}: {violations} invariant violations, "
                f"first: {checker.violations[0]}"
            )
        payload = result.to_dict()
        digest = fingerprint(payload)
        if subseed not in phase.results:
            phase.results[subseed] = digest
            phase.result_sizes[subseed] = (
                len(payload["timeseries"]), len(json.dumps(payload))
            )
        del payload
        differences = result_differences(phase.results[subseed], digest)
        if differences:
            phase.problems.append(
                f"trace seed {subseed}: repetition {len(phase.reps)} differs "
                f"from the first in {differences}"
            )
        if traced:
            phase.recorders.append(recorder)
            for name, value in checker.counters.items():
                phase.counters[name] = phase.counters.get(name, 0) + value
    return phase


def end_to_end(phase: Phase) -> Tuple[Dict[str, dict], List[str]]:
    """The end-to-end metrics of an untraced phase, and report lines."""
    p50 = tail_percentile(phase.latencies, 50)
    p99 = tail_percentile(phase.latencies, 99)
    raw_p50 = tail_percentile(phase.raw_latencies, 50)
    raw_p99 = tail_percentile(phase.raw_latencies, 99)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (
            statistics.median(rep.setup_s * rep.scale for rep in phase.reps), "s"
        ),
        "jobs_per_s": (phase.jobs_per_s(), "jobs/s"),
        "latency_p50_ms": (p50.value * 1e3, "ms"),
        "latency_p99_ms": (p99.value * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "avg_jct_s": (phase.per_trace_mean("avg_jct_s"), "s"),
        "makespan_s": (phase.per_trace_mean("makespan_s"), "s"),
    }
    scales = sorted(rep.scale for rep in phase.reps)
    notes = [
        f"{len(phase.reps)} repetitions over {len(phase.results)} traces; setup_s is "
        f"their median, jobs_per_s uses each trace's median host time",
        f"latency_p50_ms over {p50.samples} samples, {p50.beyond} beyond it",
        f"latency_p99_ms over {p99.samples} samples, {p99.beyond} beyond it",
        f"host times are scaled to the reference speed; per-repetition "
        f"scale {scales[0]:.3f} to {scales[-1]:.3f}",
        f"as measured: setup_s "
        f"{statistics.median(rep.setup_s for rep in phase.reps):.4f}, "
        f"jobs_per_s {phase.jobs_per_s(scaled=False):.4f}, latency_p50_ms "
        f"{raw_p50.value * 1e3:.4f}, latency_p99_ms {raw_p99.value * 1e3:.4f}",
    ]
    return (
        {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        notes,
    )


def per_layer(traced: Phase, untraced: Phase) -> Dict[str, dict]:
    """Per-repetition means of every per-layer metric of a traced phase.

    Busy and self times are scaled to the reference speed like the
    end-to-end timings.
    """
    reps = len(traced.recorders)
    totals: Dict[str, List[float]] = {name: [0, 0.0, 0.0] for name in LAYERS}
    counts: Dict[str, float] = {}
    for recorder, rep in zip(traced.recorders, traced.reps):
        for name, stats in recorder.layers().items():
            if name in totals:
                totals[name][0] += stats.calls
                totals[name][1] += stats.busy_s * rep.scale
                totals[name][2] += stats.self_s * rep.scale
        for name, value in recorder.counts.items():
            counts[name] = counts.get(name, 0) + value
    metrics: Dict[str, dict] = {}
    for name, (calls, busy, own) in totals.items():
        metrics[f"{name}.calls"] = {"value": calls / reps, "unit": "count"}
        metrics[f"{name}.busy_s"] = {"value": busy / reps, "unit": "s"}
        metrics[f"{name}.self_s"] = {"value": own / reps, "unit": "s"}

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def per_rep(name: str) -> float:
        return counts.get(name, 0) / reps

    hits = traced.counters.get("grouping.decision_cache.hit", 0)
    misses = traced.counters.get("grouping.decision_cache.miss", 0)
    sizes = list(traced.result_sizes.values())
    extras = {
        "cluster.placement.unplaced_ratio": ratio(
            counts.get("cluster.placement.unplaced", 0),
            totals["cluster.placement"][0],
        ),
        "schedulers.decide.calls_tick": per_rep("schedulers.decide.calls_tick"),
        "schedulers.decide.calls_arrival": per_rep("schedulers.decide.calls_arrival"),
        "schedulers.decide.calls_completion": per_rep("schedulers.decide.calls_completion"),
        "core.grouping.jobs_in": per_rep("core.grouping.jobs_in"),
        "core.grouping.interleaved_share": ratio(
            counts.get("core.grouping.jobs_interleaved", 0),
            counts.get("core.grouping.jobs_in", 0),
        ),
        "core.grouping.decision_cache_hit_ratio": ratio(hits, hits + misses),
        "service.dispatch.rejects": per_rep("service.dispatch.rejects"),
        "sim.metrics.timepoints": statistics.mean(points for points, _ in sizes),
        "sim.metrics.result_bytes": statistics.mean(size for _, size in sizes),
        "tracing.jobs_per_s_delta": traced.jobs_per_s() - untraced.jobs_per_s(),
    }
    for name, value in extras.items():
        metrics[name] = {"value": value, "unit": EXTRA_LAYER_METRICS[name][0]}
    return metrics


def layer_table(metrics: Dict[str, dict], wall_s: float) -> List[str]:
    """Human-readable per-layer table: calls, busy and self time."""
    lines = [
        f"{'layer':<22}{'calls':>10}{'busy_s':>11}{'self_s':>11}{'self%':>7}  moves",
    ]
    for name, target in LAYERS.items():
        calls = metrics[f"{name}.calls"]["value"]
        busy = metrics[f"{name}.busy_s"]["value"]
        own = metrics[f"{name}.self_s"]["value"]
        share = 100.0 * own / wall_s if wall_s else 0.0
        lines.append(
            f"{name:<22}{calls:>10.0f}{busy:>11.4f}{own:>11.4f}{share:>6.1f}%  {target}"
        )
    for name, (unit, target) in EXTRA_LAYER_METRICS.items():
        lines.append(f"{name:<40}{metrics[name]['value']:>14.4f} {unit:<7} {target}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()

    from workloads import JOBS, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    print(f"workload {args.workload}: {WORKLOADS[args.workload]}")
    traces = TRACED_SUBTRACES if args.trace else SUBTRACES
    print(f"seed {args.seed}: {traces} traces of {JOBS[args.workload]} jobs")
    if not args.trace:
        phase = measure(args.workload, args.seed, args.seconds, False, SUBTRACES)
        metrics, notes = end_to_end(phase)
        for name, metric in metrics.items():
            print(f"{name:<16}{metric['value']:>14.4f} {metric['unit']}")
        for note in notes:
            print(note)
        problems, attempted, failed = phase.problems, phase.attempted, phase.failed
    else:
        half = args.seconds / 2
        untraced = measure(args.workload, args.seed, half, False, TRACED_SUBTRACES)
        traced = measure(args.workload, args.seed, half, True, TRACED_SUBTRACES)
        problems = untraced.problems + traced.problems
        for subseed, digest in traced.results.items():
            differences = result_differences(untraced.results[subseed], digest)
            if differences:
                problems.append(
                    f"trace seed {subseed}: traced result differs from "
                    f"untraced in {differences}"
                )
        metrics = per_layer(traced, untraced)
        traced_wall = statistics.mean(rep.host_s * rep.scale for rep in traced.reps)
        for line in layer_table(metrics, traced_wall):
            print(line)
        print(
            f"tracing overhead: traced {traced.jobs_per_s():.1f} jobs/s vs "
            f"untraced {untraced.jobs_per_s():.1f} jobs/s "
            f"(the traced run also arms the invariant checker)"
        )
        out = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
        traced.recorders[-1].write(out)
        print(f"spans of the last traced repetition: {out.relative_to(ROOT)}")
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
