"""Benchmark implementations for ``repro bench``.

:data:`SUITES` maps each suite name to the file it writes and the body
that produces its benchmarks; :func:`run_suite` wraps a body in the
shared skeleton (calibrate, normalize, assemble the document).

* **grouping** (``BENCH_grouping.json``) times Algorithm 1 itself —
  cold :class:`~repro.core.grouping.MultiRoundGrouper` runs at pinned
  queue sizes, and the warm ``event_regroup`` decision latency of a
  :class:`~repro.core.muri.MuriScheduler` fed a stream of
  queue-perturbing events (the per-bucket decision cache and the
  whole-plan memo are both on this path);
* **service** (``BENCH_service.json``) times the scheduler embedded in
  its consumers — per-``decide`` latency during a drained
  service-style simulation (arrival events are the service's
  submit-to-decision path), and the serial throughput of the sweep
  runner on a small experiment grid;
* **fleet** (``BENCH_fleet.json``) times the multi-tenant front-end of
  :mod:`repro.fleet` — per-submission admission+routing wall latency
  over a seeded multi-tenant stream, and the aggregate drain
  throughput of the sharded run as seconds per job;
* **elastic** (``BENCH_elastic.json``) times what the elastic arm adds
  on top of Muri — a cold renegotiate-and-group step and the per-tick
  renegotiation latency;
* **replay** (``BENCH_replay.json``) times production-scale trace
  replay end to end — CSV ingestion throughput of the Philly adapter,
  and the batch event-driven harness over a constant-load synthetic
  trace (100k jobs full, 10k quick) as per-job wall seconds plus
  p50/p99 simulator-step latency;
* **hetero** (``BENCH_hetero.json``) pins the throughput-aware
  placement claim — the Gavel-style
  :class:`~repro.cluster.placement.ThroughputAwarePlacer` against the
  default descending placer on one seeded mixed k80+a100 workload —
  as a simulated-makespan ratio (deterministic, gated) next to the
  wall cost of the heterogeneous scheduling path.

Every benchmark entry carries raw ``*_seconds`` plus machine-speed
normalized ``*_normalized`` values (seconds divided by the
:func:`calibrate` workload's time).  Only the normalized values are
gated by ``tools/diff_metrics.py --bench``; gating raw seconds would
tie the baseline to one machine.  Workload generation is fully seeded,
so the *work* benchmarked is identical everywhere — only the clock
differs.
"""

from __future__ import annotations

import json
import platform
import random
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.muri import MuriScheduler
from repro.jobs.job import Job, JobSpec
from repro.jobs.stage import StageProfile
from repro.jobs.resources import NUM_RESOURCES

__all__ = [
    "SUITES",
    "SCHEMA_VERSION",
    "calibrate",
    "gated_metrics",
    "load_bench",
    "run_suite",
    "write_bench",
]

#: Bumped whenever the benchmark workloads change incompatibly; the
#: diff gate refuses to compare documents with different schemas.
SCHEMA_VERSION = 1

#: Progress callback: one short human-readable line per benchmark.
Progress = Optional[Callable[[str], None]]

#: A suite body: ``(quick, seed)`` -> ``(name, entry)`` per benchmark.
Body = Callable[[bool, int], Iterator[Tuple[str, Dict[str, object]]]]


def calibrate(repeats: int = 3) -> float:
    """Time the fixed calibration workload; return the best of ``repeats``.

    The workload mirrors the instruction mix of the benchmarks —
    interpreter-bound loops over small tuples and dicts, the same mix
    the blossom and grouping inner loops execute — so dividing a
    benchmark's seconds by this time cancels machine speed to first
    order.  Taking the minimum of several runs discards scheduling
    jitter, which only ever adds time.
    """
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        acc = 0
        table: Dict[int, int] = {}
        row = (3, 1, 4, 1, 5, 9, 2, 6)
        for i in range(120_000):
            key = i & 1023
            table[key] = table.get(key, 0) + 1
            acc += row[i & 7] * (i & 15)
            if acc > 1 << 30:
                acc >>= 8
        pairs = sorted((v, k) for k, v in table.items())
        acc += pairs[0][1]
        best = min(best, time.perf_counter() - start)
    return best


def _best_of(
    repeats: int, trial: Callable[[], Dict[str, object]]
) -> Dict[str, object]:
    """Run ``trial`` ``repeats`` times; keep the best timings.

    Every ``*seconds`` key keeps its minimum over the repeats: the
    work is seeded and identical each time, so differences are pure
    scheduling jitter, which only ever adds time.  Every other key
    keeps the last trial's value.  A calibration sample is taken
    before each repeat and once after the last, and their minimum is
    recorded as ``calibration`` — speed measured *around* the
    benchmark, which cancels background-load drift far better than
    one suite-wide sample.
    """
    best: Dict[str, object] = {}
    calibration = float("inf")
    for _ in range(max(1, repeats)):
        calibration = min(calibration, calibrate(repeats=1))
        for key, value in trial().items():
            if key.endswith("seconds") and key in best:
                value = min(best[key], value)
            best[key] = value
    best["calibration"] = min(calibration, calibrate(repeats=1))
    return best


def _make_jobs(
    count: int,
    seed: int,
    gpu_choices: Sequence[int] = (1, 1, 2, 4, 8),
) -> List[Job]:
    """A seeded mixed-GPU job queue for the grouping benchmarks.

    Stage durations are drawn uniformly per resource, giving the
    matcher a realistic spread of bottlenecks; the GPU-count choices
    weight small jobs the way the paper's traces do.
    """
    rng = random.Random(seed)
    jobs = []
    for _ in range(count):
        rows = tuple(
            round(rng.uniform(0.05, 5.0), 3) for _ in range(NUM_RESOURCES)
        )
        jobs.append(
            Job(
                JobSpec(
                    profile=StageProfile(rows),
                    num_gpus=rng.choice(list(gpu_choices)),
                    num_iterations=100,
                )
            )
        )
    return jobs


def _attach_normalized(
    benchmarks: Dict[str, Dict[str, float]], fallback: float
) -> None:
    """Fill in ``*_normalized`` next to every ``*_seconds`` metric.

    Each benchmark entry is normalized by its own adjacent
    ``calibration`` sample (see :func:`_best_of`); entries without one
    fall back to the suite calibration.
    """
    for entry in benchmarks.values():
        calibration = entry.get("calibration", fallback)
        for name in list(entry):
            if name == "seconds":
                entry["normalized"] = entry[name] / calibration
            elif name.endswith("_seconds"):
                stem = name[: -len("_seconds")]
                entry[f"{stem}_normalized"] = entry[name] / calibration


def _percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (``fraction`` in [0, 1])."""
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def _tail(latencies: Sequence[float]) -> Dict[str, float]:
    """Sample count plus nearest-rank p50/p99 of one latency stream."""
    return {
        "events": len(latencies),
        "p50_seconds": _percentile(latencies, 0.50),
        "p99_seconds": _percentile(latencies, 0.99),
    }


def _event_stream(
    scheduler, queue: List[Job], events: int
) -> Iterator[Tuple[float, List[Job]]]:
    """Yield ``(now, queue)`` after each of ``events`` queue removals.

    Removals follow the scheduler's own queue order (priority tuple,
    then submit time, then id), alternating between the priority
    *tail* — which leaves the dequeued batch untouched — and the
    priority *head*, which perturbs it.  The stream stops early once
    fewer than eight jobs remain; ``now`` starts at 1 s and advances
    1 s per event.
    """
    ranked = sorted(
        queue,
        key=lambda job: (
            scheduler.policy(job, 0.0),
            job.spec.submit_time,
            job.job_id,
        ),
    )
    now = 1.0
    for event in range(events):
        if len(ranked) < 8:
            return
        victim = ranked.pop() if event % 2 == 0 else ranked.pop(0)
        queue = [job for job in queue if job is not victim]
        yield now, queue
        now += 1.0


def _environment() -> Dict[str, object]:
    """Context recorded alongside the numbers (never gated)."""
    import os

    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count() or 1,
    }


# -- grouping ----------------------------------------------------------------


def _cold_group(size: int, seed: int, repeats: int) -> Dict[str, object]:
    """Time a cold grouping of ``size`` jobs; best of ``repeats`` runs.

    Every repeat uses a freshly built grouper, so no cache survives
    between runs — this is the from-scratch decision latency the
    paper's "1,000 jobs in a few seconds" claim is about.  Jobs come
    from the repo's own trace generator (trace "1", the same workload
    ``repro simulate`` runs), whose model-zoo profiles repeat across
    jobs — the duplicate-heavy regime the weight cache is built for.
    """
    from repro.trace.philly import generate_trace
    from repro.trace.workload import build_jobs

    specs = build_jobs(generate_trace("1", num_jobs=size, seed=seed), seed=seed)
    jobs = [Job(spec) for spec in specs]

    def trial() -> Dict[str, object]:
        scheduler = MuriScheduler()
        start = time.perf_counter()
        result = scheduler.grouper.group(jobs, capacity=None)
        seconds = time.perf_counter() - start
        return {
            "seconds": seconds,
            "groups": len(result.groups),
            "total_efficiency": result.total_efficiency,
        }

    return {"jobs": len(jobs), **_best_of(repeats, trial)}


def _warm_regroup(
    size: int, events: int, seed: int, repeats: int = 3
) -> Dict[str, object]:
    """Latency distribution of warm ``event_regroup`` decisions.

    The whole event stream is replayed ``repeats`` times (fresh
    scheduler and queue each time — the stream consumes the queue) and
    the best percentile across replays is reported.

    A :class:`MuriScheduler` with ``event_regroup=True`` is warmed with
    one cold decide, then fed :func:`_event_stream` removals: from the
    priority *tail* (completions past the dequeue budget — the
    whole-plan memo's case) alternating with the priority *head*
    (batch-changing events, served by the per-bucket decision cache).
    Reported p50/p99 therefore cover both warm paths, with p99
    dominated by the cache-assisted regroups.

    The queue draws GPU counts uniformly from (1, 2, 4, 8) so no
    single GPU-count bucket dominates the dequeued batch: a
    batch-changing event then re-matches a bucket of a few dozen
    nodes, which is the service-loop regime the <10 ms p99 target is
    pinned for (priority-weighted mixes concentrate 1-GPU jobs at the
    queue head and grow that bucket past 100 nodes, where a single
    dense blossom rematch alone exceeds the budget — that regime is
    covered by the cold benchmarks instead).
    """
    capacity = 64

    def trial() -> Dict[str, object]:
        scheduler = MuriScheduler(event_regroup=True)
        queue = _make_jobs(size, seed, gpu_choices=(1, 2, 4, 8))
        scheduler.decide(0.0, queue, {}, capacity, reason="arrival")
        latencies: List[float] = []
        for now, queue in _event_stream(scheduler, queue, events):
            start = time.perf_counter()
            scheduler.decide(now, queue, {}, capacity, reason="completion")
            latencies.append(time.perf_counter() - start)
        return _tail(latencies)

    return {"jobs": size, **_best_of(repeats, trial)}


def _grouping(quick: bool, seed: int):
    """Cold grouping per queue size (4096 full-only), then warm regroup.

    Every benchmark quick mode *does* run uses the exact full
    workload, so quick results are a strict, comparable subset of full
    results and gate cleanly against a committed full baseline.
    """
    for size in (512, 1024) if quick else (512, 1024, 4096):
        yield f"cold_group_{size}", _cold_group(size, seed, repeats=2)
    yield "warm_regroup", _warm_regroup(128, 100, seed)


# -- service -----------------------------------------------------------------


def _service(quick: bool, seed: int):
    """Submit-to-decision latency, then serial sweep throughput.

    The service workloads are already cheap, and shrinking them would
    make quick-run metrics incomparable with the committed full
    baseline, so ``quick`` changes nothing here.
    """
    from repro.cluster.cluster import Cluster
    from repro.sim.simulator import ClusterSimulator
    from repro.sweep import SweepRunner, experiment_cells
    from repro.trace.philly import generate_trace
    from repro.trace.workload import build_jobs

    # Submit-to-decision: a drained service-style run (arrivals
    # reschedule immediately, completions regroup incrementally) with
    # every scheduler.decide call timed.  Arrival-reason latencies are
    # exactly what a service client waits between submit and decision.
    trace = generate_trace("1", num_jobs=200, seed=seed)
    specs = build_jobs(trace, seed=seed)
    cluster = Cluster(8, 8)
    specs = [s for s in specs if s.num_gpus <= cluster.total_gpus]

    def submit_trial() -> Dict[str, object]:
        scheduler = MuriScheduler(event_regroup=True)
        latencies: Dict[str, List[float]] = {}
        inner_decide = scheduler.decide

        def timed_decide(now, jobs, running, total_gpus, reason="tick"):
            """Record per-reason wall time around the real decide call."""
            start = time.perf_counter()
            plan = inner_decide(now, jobs, running, total_gpus, reason)
            latencies.setdefault(reason, []).append(
                time.perf_counter() - start
            )
            return plan

        scheduler.decide = timed_decide  # type: ignore[method-assign]
        simulator = ClusterSimulator(
            scheduler,
            cluster=Cluster(8, 8),
            reschedule_on_arrival=True,
            arrival_reason="arrival",
            backfill_on_completion=True,
        )
        simulator.run(specs, trace.name)
        arrivals = latencies.get("arrival", [0.0])
        return {
            "decisions": sum(len(samples) for samples in latencies.values()),
            "arrivals": len(arrivals),
            "p50_seconds": _percentile(arrivals, 0.50),
            "p99_seconds": _percentile(arrivals, 0.99),
        }

    yield "submit_decide", {"jobs": len(specs), **_best_of(3, submit_trial)}

    # Sweep throughput: the serial runner on a pinned slice of the
    # fig11 ablation grid, gated as seconds-per-cell so the direction
    # matches every other metric (higher = regression).
    cells = experiment_cells("fig11", num_jobs=40, seed=seed)[:4]

    def sweep_trial() -> Dict[str, object]:
        runner = SweepRunner(max_workers=1)
        start = time.perf_counter()
        results = runner.run(cells)
        elapsed = time.perf_counter() - start
        return {
            "cells": len(results),
            "failed": sum(1 for run in results.values() if not run.ok),
            "cell_seconds": elapsed / max(1, len(results)),
        }

    yield "sweep_serial", _best_of(3, sweep_trial)


# -- fleet -------------------------------------------------------------------


def _fleet(quick: bool, seed: int):
    """Fleet admission latency and drain throughput.

    A seeded three-tenant stream is submitted through a four-shard
    fleet (``partition_cluster(8, 8, 4)``), measuring what the fleet
    layer itself adds:

    * **fleet_submit** — per-submission admission+routing wall
      latency (ledger charge, open-job sweep, deterministic routing,
      shard admission), pooled across tenants;
    * **fleet_drain** — aggregate drain throughput of ``run_sync``
      over all shards, gated as seconds per job.

    Shards run FIFO: scheduler cost is the *service* suite's subject,
    and a cheap ``decide`` keeps this suite sensitive to the plumbing
    (routing, tenancy, merge) rather than re-measuring grouping.  The
    workload is already cheap, so ``quick`` changes nothing here.
    """
    from repro.fleet import FleetFrontEnd, partition_cluster

    num_jobs = 400
    tenants = ("alice", "bob", "carol")
    topology = partition_cluster(8, 8, 4)
    # VCs are 2x8 = 16 GPUs, so every choice fits every shard and the
    # routing decision is always a genuine least-pending comparison.
    specs = [
        job.spec
        for job in _make_jobs(num_jobs, seed, gpu_choices=(1, 1, 2, 4, 8))
    ]

    def trial() -> Dict[str, object]:
        frontend = FleetFrontEnd.build(topology, scheduler="fifo")
        for index, spec in enumerate(specs):
            frontend.submit(spec, tenant=tenants[index % len(tenants)])
        pooled = [
            value
            for samples in frontend.submit_latencies.values()
            for value in samples
        ]
        start = time.perf_counter()
        result = frontend.run_sync()
        drain = time.perf_counter() - start
        return {
            "p50_seconds": _percentile(pooled, 0.50),
            "p99_seconds": _percentile(pooled, 0.99),
            "drain_seconds": drain,
            "finished": len(result.jcts),
        }

    best = _best_of(3, trial)
    yield "fleet_submit", {
        "jobs": num_jobs,
        "shards": len(topology.vcs),
        "tenants": len(tenants),
        "p50_seconds": best["p50_seconds"],
        "p99_seconds": best["p99_seconds"],
        "calibration": best["calibration"],
    }
    yield "fleet_drain", {
        "jobs": num_jobs,
        "finished": best["finished"],
        "job_seconds": best["drain_seconds"] / max(1, best["finished"]),
        "calibration": best["calibration"],
    }


# -- elastic -----------------------------------------------------------------


def _elastic(quick: bool, seed: int):
    """Cold elastic step and per-tick renegotiation latency.

    On a seeded half-elastic trace-"1" workload:

    * **cold_elastic_group** — one full cold scheduling step: a fresh
      :class:`~repro.elastic.ElasticMuriScheduler` renegotiates GPU
      counts, the resizes are applied (with per-resize cache
      invalidation, as the simulator would), and Algorithm-1 grouping
      runs on the resized buckets;
    * **renegotiate_step** — p50/p99 latency of the per-tick
      renegotiation step alone (allocator water-fill plus resize
      application) over an :func:`_event_stream`.

    The workloads are already cheap, so ``quick`` changes nothing here.
    """
    from repro.elastic.scheduler import ElasticMuriScheduler
    from repro.elastic.workload import attach_scalability
    from repro.trace.philly import generate_trace
    from repro.trace.workload import build_jobs

    capacity = 64
    specs = build_jobs(generate_trace("1", num_jobs=512, seed=seed), seed=seed)
    specs = [s for s in specs if s.num_gpus <= capacity]
    especs = attach_scalability(specs, fraction=0.5, seed=seed)

    def apply_targets(scheduler, by_id, targets) -> None:
        for job_id in sorted(targets):
            old = by_id[job_id].resize(targets[job_id])
            scheduler.notify_resize(job_id, old, targets[job_id])

    # Resizes mutate the jobs, so every repeat rebuilds them.
    def cold_trial() -> Dict[str, object]:
        jobs = [Job(spec) for spec in especs]
        by_id = {job.job_id: job for job in jobs}
        scheduler = ElasticMuriScheduler()
        start = time.perf_counter()
        targets = scheduler.renegotiate(0.0, jobs, capacity)
        apply_targets(scheduler, by_id, targets)
        plan = scheduler.decide(0.0, jobs, {}, capacity, reason="tick")
        seconds = time.perf_counter() - start
        return {"resizes": len(targets), "groups": len(plan), "seconds": seconds}

    yield "cold_elastic_group", {"jobs": len(especs), **_best_of(3, cold_trial)}

    def step_trial() -> Dict[str, object]:
        queue = [Job(spec) for spec in especs]
        by_id = {job.job_id: job for job in queue}
        scheduler = ElasticMuriScheduler()
        latencies: List[float] = []
        for now, queue in _event_stream(scheduler, queue, 100):
            start = time.perf_counter()
            targets = scheduler.renegotiate(now, queue, capacity)
            apply_targets(scheduler, by_id, targets)
            latencies.append(time.perf_counter() - start)
        return _tail(latencies)

    yield "renegotiate_step", {"jobs": len(especs), **_best_of(3, step_trial)}


# -- replay ------------------------------------------------------------------


def _replay(quick: bool, seed: int):
    """CSV ingestion, then one end-to-end batch replay.

    On a constant-load :func:`~repro.replay.workload.synthetic_trace`
    (100k jobs over 20 simulated days; quick replays the same recipe at
    10k jobs — **not** a subset, so quick runs gate only against a
    quick baseline, which is what CI commits):

    * **csv_ingest** — the trace is serialized with
      ``write_philly_csv`` and ingested back with ``load_philly_csv``,
      gated as seconds per job row;
    * **replay_run** — the batch event-driven harness end to end
      (FIFO shards the cost to the harness and simulator rather than
      the grouping paths other suites own), gated as wall seconds per
      job plus the p99 simulator-step latency from
      :class:`~repro.replay.ReplayStats`.  One round: the run is
      deterministic and minutes long at full size, so repeats would
      only resample jitter the adjacent calibration already cancels.
    """
    import tempfile

    from repro.cluster.cluster import Cluster
    from repro.replay import replay_trace
    from repro.replay.workload import synthetic_trace
    from repro.schedulers.registry import make_scheduler
    from repro.sim.simulator import ClusterSimulator
    from repro.trace.philly_csv import load_philly_csv, write_philly_csv
    from repro.trace.workload import build_jobs

    num_jobs = 10_000 if quick else 100_000
    trace = synthetic_trace(num_jobs, seed=seed)

    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "replay.csv"

        def ingest_trial() -> Dict[str, object]:
            start = time.perf_counter()
            write_philly_csv(trace, csv_path)
            ingested, report = load_philly_csv(csv_path, min_duration=0.0)
            seconds = time.perf_counter() - start
            return {
                "ingested": ingested,
                "loaded": report.jobs_loaded,
                "job_seconds": seconds / max(1, report.jobs_loaded),
            }

        ingest = {"jobs": num_jobs, **_best_of(2, ingest_trial)}
    ingested = ingest.pop("ingested")
    yield "csv_ingest", ingest

    specs = build_jobs(ingested, seed=seed)
    simulator = ClusterSimulator(
        make_scheduler("fifo"), cluster=Cluster(256, 8)
    )

    def replay_trial() -> Dict[str, object]:
        result, stats = replay_trace(
            simulator, specs, ingested.name, batch_step_seconds=300.0
        )
        return {
            "finished": len(result.jcts),
            "steps": stats.sim_steps,
            "rounds": stats.rounds,
            "job_seconds": stats.wall_clock / max(1, num_jobs),
            "p50_step_seconds": stats.step_seconds_p50,
            "p99_step_seconds": stats.step_seconds_p99,
        }

    yield "replay_run", {"jobs": num_jobs, **_best_of(1, replay_trial)}


# -- hetero ------------------------------------------------------------------


def _hetero(quick: bool, seed: int):
    """Throughput-aware vs default placement on a k80+a100 mix.

    One seeded workload pinned/preferred onto a mixed k80+a100
    cluster, run through Muri-S twice — default descending placer vs
    the Gavel-style throughput-aware placer — with landing-speed
    scaling active on both arms, so the *only* difference is where
    preferred and unaffine groups land.
    ``makespan_ratio_normalized`` is the aware arm's simulated
    makespan divided by the baseline arm's: deterministic for the seed
    (simulated time, no clock involved — it needs no calibration, the
    ``_normalized`` suffix opts it into the gate), lower is better,
    and strictly below 1.0 while throughput-aware placement actually
    beats affinity-only placement.  Per-arm makespans and
    per-generation occupancy ride along for humans, and
    ``run_seconds`` (both arms' wall time, calibrated) gates the cost
    of the heterogeneous scheduling path itself.
    """
    from repro.cluster.placement import ThroughputAwarePlacer
    from repro.hetero.types import DEFAULT_TYPE_SCALING
    from repro.hetero.workload import make_hetero_cluster, pin_jobs
    from repro.schedulers.registry import make_scheduler
    from repro.sim.simulator import ClusterSimulator
    from repro.trace.philly import generate_trace
    from repro.trace.workload import build_jobs

    num_jobs = 256 if quick else 1_024
    type_names = ("k80", "a100")
    specs = build_jobs(
        generate_trace("1", num_jobs=num_jobs, seed=seed), seed=seed
    )
    pinned = pin_jobs(specs, list(type_names), seed=seed, prefer_fraction=0.6)

    def trial() -> Dict[str, object]:
        arms: Dict[str, object] = {}
        occupancy: Dict[str, Dict[str, float]] = {}
        wall = 0.0
        for label, placer in (
            ("baseline", None),
            ("aware", ThroughputAwarePlacer()),
        ):
            cluster = make_hetero_cluster(
                8, 8, type_names=type_names, seed=seed
            )
            simulator = ClusterSimulator(
                make_scheduler("muri-s"),
                cluster=cluster,
                landing_speed_scaling=DEFAULT_TYPE_SCALING,
                placer=placer,
            )
            start = time.perf_counter()
            result = simulator.run(pinned, "hetero-bench")
            wall += time.perf_counter() - start
            arms[f"makespan_{label}"] = result.makespan
            occupancy[label] = {
                name: round(value, 4)
                for name, value in result.utilization_by_type().items()
            }
        return {**arms, "utilization_by_type": occupancy, "run_seconds": wall}

    placement = {"jobs": num_jobs, **_best_of(1, trial)}
    ratio = placement["makespan_aware"] / placement["makespan_baseline"]
    placement["improvement"] = 1.0 - ratio
    placement["makespan_ratio_normalized"] = ratio
    yield "hetero_placement", placement


#: Every suite ``repro bench`` knows: name -> (file it writes at the
#: repo root, body yielding ``(benchmark name, entry)`` pairs).  Adding
#: a suite is one body plus one row here.
SUITES: Dict[str, Tuple[str, Body]] = {
    "grouping": ("BENCH_grouping.json", _grouping),
    "service": ("BENCH_service.json", _service),
    "fleet": ("BENCH_fleet.json", _fleet),
    "elastic": ("BENCH_elastic.json", _elastic),
    "replay": ("BENCH_replay.json", _replay),
    "hetero": ("BENCH_hetero.json", _hetero),
}


def run_suite(
    name: str, quick: bool = False, seed: int = 0, progress: Progress = None
) -> Dict[str, object]:
    """Run one suite from :data:`SUITES`; return its JSON document.

    Args:
        name: Suite name (a :data:`SUITES` key).
        quick: The CI configuration; a suite whose full workload is
            already cheap ignores it (see each body's docstring).
        seed: Workload seed; the default is what the committed
            baselines use.
        progress: Optional callback receiving one line per benchmark.

    Raises:
        KeyError: For an unknown suite name.
    """
    _filename, body = SUITES[name]

    def note(line: str) -> None:
        if progress is not None:
            progress(line)

    calibration = calibrate()
    note(f"calibration {calibration * 1e3:.1f} ms")
    benchmarks: Dict[str, Dict[str, object]] = {}
    for bench_name, entry in body(quick, seed):
        benchmarks[bench_name] = entry
        note(f"{bench_name}: " + ", ".join(
            f"{key} {value * 1e3:.3f} ms" if key.endswith("seconds")
            else f"{key} {value:g}"
            for key, value in sorted(entry.items())
            if key != "calibration" and isinstance(value, (int, float))
        ))
    calibration = min(calibration, calibrate())
    _attach_normalized(benchmarks, calibration)
    return {
        "schema": SCHEMA_VERSION,
        "suite": name,
        "quick": quick,
        "seed": seed,
        "calibration_seconds": calibration,
        "env": _environment(),
        "benchmarks": benchmarks,
    }


def write_bench(document: Dict[str, object], path: Path) -> None:
    """Write one suite document as stable, diff-friendly JSON."""
    path.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load_bench(path: Path) -> Dict[str, object]:
    """Read a suite document written by :func:`write_bench`."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def gated_metrics(document: Dict[str, object]) -> Dict[str, float]:
    """Flatten a suite document to its gated (normalized) metrics.

    Returns ``{"benchmark.metric": value}`` for every metric named
    ``normalized`` or ending in ``_normalized``, except medians:
    ``p50_*`` values are recorded for humans but never gated, because
    the warm paths are bimodal (memo hit vs cache-assisted regroup)
    and a sub-millisecond median sitting on that boundary jitters far
    beyond any honest tolerance — the tail (p99) is the latency
    contract.  The gated values are machine-speed invariant to first
    order, and all of them are lower-is-better.
    """
    flat: Dict[str, float] = {}
    for bench_name, entry in sorted(document.get("benchmarks", {}).items()):
        for metric, value in sorted(entry.items()):
            if metric.startswith("p50"):
                continue
            if metric == "normalized" or metric.endswith("_normalized"):
                flat[f"{bench_name}.{metric}"] = float(value)
    return flat
