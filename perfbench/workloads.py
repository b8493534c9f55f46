"""The three benchmark workloads: set-up, instrumentation and drive.

Each repetition of a workload builds everything from its seed
(:func:`setup`), optionally wraps the program's layers for a traced
run (:func:`instrument`), and drives the program to completion
(:func:`drive`).  The program receives only the generated
``JobSpec``\\ s; every call into ``repro`` is public API.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import repro.core.grouping
import repro.jobs.job
from repro.cluster.cluster import Cluster
from repro.core.muri import MuriScheduler
from repro.jobs.job import JobSpec
from repro.replay import replay_trace
from repro.replay.workload import synthetic_trace
from repro.schedulers.registry import make_scheduler
from repro.service.daemon import SchedulerService
from repro.service.protocol import SubmitRequest, decode_line, encode_line
from repro.service.server import ServiceServer
from repro.sim.metrics import SimulationResult
from repro.sim.simulator import ClusterSimulator
from repro.trace.philly import generate_trace
from repro.trace.workload import build_jobs

from spans import Recorder
from speed import Speedometer

#: Workload name -> one-line reason it is in the benchmark.
WORKLOADS: Dict[str, str] = {
    "replay-fifo": (
        "FIFO replay of a constant-load synthetic trace on 256x8 GPUs: "
        "the simulator loop and placement scanning dominate, grouping never runs"
    ),
    "burst-muri": (
        "Muri-S over trace 1' (all jobs at t=0) on 8x8 GPUs: a deep queue, "
        "O(pending) metrics per step and cold grouping plus Blossom per tick"
    ),
    "online-muri": (
        "the service's event-driven submit path on trace 1's bursty arrivals: "
        "protocol, dispatch, admission and warm incremental regrouping"
    ),
}

#: Jobs per repetition, sized so one repetition takes about a second.
JOBS = {"replay-fifo": 1000, "burst-muri": 400, "online-muri": 400}

#: Same tolerance the simulator uses for event-time comparisons.
_EPS = 1e-9


@dataclass
class Prepared:
    """Everything one repetition built before its timed run.

    The callables are the public ``repro`` entry points the drive
    loop goes through; a traced run wraps them in place.
    """

    workload: str
    trace_name: str
    specs: List[JobSpec]
    simulator: ClusterSimulator
    service: Optional[SchedulerService] = None
    server: Optional[ServiceServer] = None
    replay: Callable = replay_trace
    encode: Callable = encode_line
    decode: Callable = decode_line


@dataclass
class Outcome:
    """What one timed run produced."""

    host_s: float
    latencies_s: List[float]
    result: SimulationResult
    attempted: int
    rejected: int = 0


def setup(workload: str, seed: int, tracer: Any = None) -> Prepared:
    """Generate the workload's inputs and construct the program."""
    num_jobs = JOBS[workload]
    if workload == "replay-fifo":
        trace = synthetic_trace(num_jobs, seed=seed)
        scheduler = make_scheduler("fifo", tracer=tracer)
        simulator = ClusterSimulator(
            scheduler, cluster=Cluster(256, 8), tracer=tracer
        )
        return Prepared(
            workload, trace.name, build_jobs(trace, seed=seed), simulator
        )
    if workload == "burst-muri":
        trace = generate_trace("1'", num_jobs=num_jobs, seed=seed)
        scheduler = make_scheduler("muri-s", tracer=tracer)
        simulator = ClusterSimulator(
            scheduler, cluster=Cluster(8, 8), tracer=tracer
        )
        return Prepared(
            workload, trace.name, build_jobs(trace, seed=seed), simulator
        )
    if workload == "online-muri":
        # The service numbers submissions from the process-wide JobSpec
        # id counter, and its schedule depends on those ids, so every
        # repetition restarts the counter to reproduce the same result.
        repro.jobs.job._job_counter = itertools.count()
        trace = generate_trace("1", num_jobs=num_jobs, seed=seed)
        specs = build_jobs(trace, seed=seed)
        scheduler = MuriScheduler(event_regroup=True).configure(tracer=tracer)
        simulator = ClusterSimulator(
            scheduler,
            cluster=Cluster(8, 8),
            reschedule_on_arrival=True,
            arrival_reason="arrival",
            backfill_on_completion=True,
            tracer=tracer,
        )
        service = SchedulerService(
            simulator, max_pending=len(specs), trace_name=trace.name
        )
        # The server is never served on a socket: the benchmark hands
        # it request lines directly, so the path is never created.
        server = ServiceServer(service, path="unused.sock")
        return Prepared(
            workload, trace.name, specs, simulator, service, server
        )
    raise KeyError(f"unknown workload {workload!r}")


def instrument(prepared: Prepared, recorder: Recorder) -> None:
    """Wrap every layer boundary the workload crosses in spans."""
    sim = prepared.simulator
    counts = recorder.counts

    def wrap_engine(events) -> None:
        recorder.wrap_attr(events, "push", "sim.engine")
        recorder.wrap_attr(events, "pop_until", "sim.engine")

    def on_begin(args, kwargs, state) -> None:
        wrap_engine(state.events)

    def on_place(args, kwargs, plan) -> None:
        counts["cluster.placement.unplaced"] += plan is None

    def on_decide(args, kwargs, plan) -> None:
        reason = args[4] if len(args) > 4 else kwargs.get("reason", "tick")
        counts[f"schedulers.decide.calls_{reason}"] += 1

    def on_group(args, kwargs, grouping) -> None:
        jobs = args[0] if args else kwargs["jobs"]
        counts["core.grouping.jobs_in"] += len(jobs)
        counts["core.grouping.jobs_interleaved"] += sum(
            len(group.jobs) for group in grouping.groups if len(group.jobs) > 1
        )

    def on_dispatch(args, kwargs, response) -> None:
        counts["service.dispatch.rejects"] += not response.get("ok", False)

    recorder.wrap_attr(sim, "begin", "sim.begin", on_begin)
    recorder.wrap_attr(sim, "step", "sim.step")
    recorder.wrap_attr(sim, "next_event_time", "sim.next_event_time")
    recorder.wrap_attr(sim, "inject", "sim.inject")
    recorder.wrap_attr(sim, "finalize", "sim.finalize")
    recorder.wrap_attr(
        sim.placer, "plan_for_model", "cluster.placement", on_place
    )
    recorder.wrap_attr(sim.scheduler, "decide", "schedulers.decide", on_decide)
    grouper = getattr(sim.scheduler, "grouper", None)
    if grouper is not None:
        recorder.wrap_attr(grouper, "group", "core.grouping", on_group)
    recorder.wrap_attr(prepared, "replay", "replay.harness")
    recorder.wrap_attr(prepared, "encode", "service.protocol")
    recorder.wrap_attr(prepared, "decode", "service.protocol")
    if prepared.service is not None:
        # The service called begin() while it was constructed.
        wrap_engine(prepared.service.state.events)
        recorder.wrap_attr(
            prepared.server, "dispatch", "service.dispatch", on_dispatch
        )


def drive(
    prepared: Prepared,
    recorder: Optional[Recorder] = None,
    meter: Optional[Speedometer] = None,
) -> Outcome:
    """Run the prepared workload to completion and time it.

    The ``meter`` takes calibration samples between simulator steps;
    their time is left out of every measured interval.
    """
    runners = {
        "replay-fifo": _drive_replay,
        "burst-muri": _drive_burst,
        "online-muri": _drive_online,
    }
    meter = meter if meter is not None else Speedometer()
    if recorder is None:
        return runners[prepared.workload](prepared, meter)
    with recorder.patch_global(repro.core.grouping, "matching_pairs", "matching"):
        return runners[prepared.workload](prepared, meter)


def _timed_steps(
    sim: ClusterSimulator, samples: List[float], meter: Speedometer
) -> None:
    """Record the host duration of every ``sim.step`` call."""
    inner = sim.step

    def step(state) -> None:
        meter.tick()
        started = time.perf_counter()
        inner(state)
        samples.append(time.perf_counter() - started)

    sim.step = step


def _drive_replay(prepared: Prepared, meter: Speedometer) -> Outcome:
    samples: List[float] = []
    _timed_steps(prepared.simulator, samples, meter)
    started = time.perf_counter()
    result, _ = prepared.replay(
        prepared.simulator,
        prepared.specs,
        prepared.trace_name,
        batch_step_seconds=300.0,
    )
    host_s = time.perf_counter() - started - meter.spent_s
    return Outcome(host_s, samples, result, len(prepared.specs))


def _drive_burst(prepared: Prepared, meter: Speedometer) -> Outcome:
    sim = prepared.simulator
    samples: List[float] = []
    _timed_steps(sim, samples, meter)
    started = time.perf_counter()
    state = sim.begin(prepared.specs, prepared.trace_name)
    while state.unfinished:
        sim.step(state)
    result = sim.finalize(state)
    host_s = time.perf_counter() - started - meter.spent_s
    return Outcome(host_s, samples, result, len(prepared.specs))


def _drive_online(prepared: Prepared, meter: Speedometer) -> Outcome:
    """One client submitting trace arrivals in simulated time.

    Before each submission the service is stepped up to (not past) the
    job's submit time; the submit line then goes through the server,
    and the service steps until the step that fires the arrival (and,
    with ``reschedule_on_arrival``, reschedules) has returned.
    """
    service, server, sim = prepared.service, prepared.server, prepared.simulator
    encode, decode = prepared.encode, prepared.decode
    state = service.state
    _timed_steps(sim, [], meter)
    latencies: List[float] = []
    rejected = 0
    started = time.perf_counter()
    for spec in prepared.specs:
        while True:
            horizon = sim.next_event_time(state)
            if horizon is None or horizon >= spec.submit_time:
                break
            service.step()
        line = encode(SubmitRequest(spec=spec))
        spent = meter.spent_s
        submitted = time.perf_counter()
        response = decode(encode(server.dispatch(decode(line))))
        if not response.get("ok", False):
            rejected += 1
            continue
        arrival = max(state.now, spec.submit_time)
        while True:
            firing = state.now >= arrival - _EPS
            service.step()
            if firing:
                break
        latencies.append(time.perf_counter() - submitted - (meter.spent_s - spent))
    service.drain()
    while not service.is_done:
        service.step()
    result = service.finish()
    host_s = time.perf_counter() - started - meter.spent_s
    return Outcome(host_s, latencies, result, len(prepared.specs), rejected)
