"""Firmament-style batch event-driven trace replay.

Large-trace comparisons are only fair when every scheduler arm sees
*identical event semantics* — the Firmament replay harness
(``run_with_events.py``) establishes the shape: arrivals drain from a
time-ordered queue into the simulator in batch rounds of
``batch_step_seconds``, with a safety valve on the round count.
:func:`replay_trace` wraps the PR-5 ``begin``/``inject``/``step``/
``finalize`` simulator lifecycle the same way, so Muri, elastic-Muri,
and every baseline replay a 100k+-job multi-day trace through one
uniform event loop.

Semantics:

* ``batch_step_seconds == 0`` — continuous admission: each arrival is
  injected before the simulator clock reaches its submit time, firing
  exactly then.  This path is **bit-identical** to the batch
  ``ClusterSimulator.run()`` over the same specs (the replay
  differential test pins it).
* ``batch_step_seconds > 0`` — batch admission: an arrival is
  withheld until the simulator clock crosses the first multiple of
  ``batch_step_seconds`` at or after its submit time, so submissions
  inside one round become visible together.  An *idle* simulator
  fast-forwards instead of spinning: the next round is released
  immediately and admission resumes at true submit times.

Progress is observable through ``replay.*`` tracer events
(``replay.start``, ``replay.round``, ``replay.end``) on the
simulator's tracer, and fault storms ride on the simulator's own
:class:`~repro.sim.faults.FaultInjector` — the harness adds no
separate failure model.
"""

from __future__ import annotations

import heapq
import math
import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.jobs.job import JobSpec
from repro.observe.events import EventCategory
from repro.sim.metrics import SimulationResult, percentile
from repro.sim.simulator import ClusterSimulator, SimulationError

__all__ = ["ReplayStats", "replay_trace"]

#: Same tolerance the simulator uses for event-time comparisons.
_EPS = 1e-9


@dataclass
class ReplayStats:
    """Observability summary of one :func:`replay_trace` run.

    Attributes:
        rounds: Harness loop iterations executed.
        injected_jobs: Specs admitted into the simulator.
        finished_jobs: Jobs that completed by finalization.
        sim_steps: Simulator steps driven.
        wall_clock: Harness wall-clock seconds, admission included.
        step_seconds_p50: Median wall-clock latency of one simulator
            step.
        step_seconds_p99: 99th-percentile step latency.
    """

    rounds: int = 0
    injected_jobs: int = 0
    finished_jobs: int = 0
    sim_steps: int = 0
    wall_clock: float = 0.0
    step_seconds_p50: float = 0.0
    step_seconds_p99: float = 0.0
    _step_samples: List[float] = field(default_factory=list, repr=False)

    def finalize_step_stats(self) -> None:
        """Fold the collected step samples into the p50/p99 fields.

        Degenerate sample sets never raise: a replay whose rounds all
        fast-forwarded (pure admission, no simulator step) has no
        samples and keeps the 0.0 defaults, and a single sample is
        both its own median and its own tail.
        """
        if not self._step_samples:
            self.step_seconds_p50 = 0.0
            self.step_seconds_p99 = 0.0
            return
        if len(self._step_samples) == 1:
            only = self._step_samples[0]
            self.step_seconds_p50 = only
            self.step_seconds_p99 = only
            return
        samples = sorted(self._step_samples)
        self.step_seconds_p50 = percentile(samples, 50, presorted=True)
        self.step_seconds_p99 = percentile(samples, 99, presorted=True)

    def to_dict(self) -> Dict[str, float]:
        """JSON-friendly summary (CLI and bench suite)."""
        return {
            "rounds": self.rounds,
            "injected_jobs": self.injected_jobs,
            "finished_jobs": self.finished_jobs,
            "sim_steps": self.sim_steps,
            "wall_clock": self.wall_clock,
            "step_seconds_p50": self.step_seconds_p50,
            "step_seconds_p99": self.step_seconds_p99,
        }


def _round_boundary(submit_time: float, batch_step_seconds: float) -> float:
    """First batch-round boundary at or after one submit time."""
    return math.ceil(submit_time / batch_step_seconds) * batch_step_seconds


def replay_trace(
    simulator: ClusterSimulator,
    specs: Sequence[JobSpec],
    trace_name: str = "replay",
    batch_step_seconds: float = 300.0,
    max_rounds: Optional[int] = None,
) -> Tuple[SimulationResult, ReplayStats]:
    """Replay a workload through the batch event-driven harness.

    Args:
        simulator: A fresh :class:`ClusterSimulator`; its scheduler,
            cluster, tracer, and fault injector all apply unchanged.
        specs: The workload; admission order is
            ``(submit_time, input index)``, matching the batch path.
        trace_name: Label for the :class:`SimulationResult`.
        batch_step_seconds: Admission round length; 0 for continuous
            (bit-identical to ``run()``) admission.
        max_rounds: Firmament-style safety valve on harness loop
            iterations; None derives ``500 * len(specs) + 100_000``
            (the simulator's own step-budget formula).

    Returns:
        ``(result, stats)``.

    Raises:
        ValueError: On negative ``batch_step_seconds`` or empty specs.
        SimulationError: When the round valve or the simulator's step
            budget trips.
    """
    if batch_step_seconds < 0:
        raise ValueError("batch_step_seconds must be >= 0")
    if not specs:
        raise ValueError("cannot replay an empty workload")
    if max_rounds is None:
        max_rounds = 500 * len(specs) + 100_000

    started = _time.monotonic()
    arrivals: List[Tuple[float, int, JobSpec]] = [
        (spec.submit_time, index, spec) for index, spec in enumerate(specs)
    ]
    heapq.heapify(arrivals)

    stats = ReplayStats()
    state = simulator.begin([], trace_name, allow_empty=True)
    tracer = simulator.tracer
    tracing = tracer is not None and tracer.enabled
    if tracing:
        tracer.emit(
            EventCategory.SIM,
            "replay.start",
            state.now,
            trace=trace_name,
            jobs=len(specs),
            batch_step_seconds=batch_step_seconds,
        )

    while arrivals or state.unfinished:
        if stats.rounds >= max_rounds:
            raise SimulationError(
                f"replay round valve tripped after {stats.rounds} rounds "
                f"with {state.unfinished} jobs unfinished"
            )
        stats.rounds += 1
        injected = 0
        if batch_step_seconds == 0:
            # Continuous admission: the event queue must always hold
            # the next arrival before a step, because a step advances
            # to whatever horizon its own reschedule produces — which
            # can overshoot an arrival that is not queued yet.  The
            # arrival still fires exactly at its submit time (the
            # clock has not reached it), so this is bit-identical to
            # seeding every arrival up front as ``run()`` does.
            if arrivals:
                first_submit = arrivals[0][0]
                while arrivals and arrivals[0][0] <= first_submit + _EPS:
                    _, _, spec = heapq.heappop(arrivals)
                    simulator.inject(state, spec)
                    injected += 1
        else:
            # Batch admission: release arrivals whose round boundary
            # the clock has crossed; an idle simulator (no queued
            # event, nothing running: exactly when its next event time
            # is None) fast-forwards by releasing the next round
            # immediately.
            while arrivals and (
                _round_boundary(arrivals[0][0], batch_step_seconds)
                <= state.now + _EPS
            ):
                _, _, spec = heapq.heappop(arrivals)
                simulator.inject(state, spec)
                injected += 1
            if (
                arrivals
                and injected == 0
                and not state.events
                and not state.running
            ):
                release_until = _round_boundary(
                    arrivals[0][0], batch_step_seconds
                )
                while arrivals and arrivals[0][0] <= release_until + _EPS:
                    _, _, spec = heapq.heappop(arrivals)
                    simulator.inject(state, spec)
                    injected += 1
        stats.injected_jobs += injected
        if tracing and injected:
            tracer.emit(
                EventCategory.SIM,
                "replay.round",
                state.now,
                round=stats.rounds,
                injected=injected,
                remaining=len(arrivals),
                unfinished=state.unfinished,
            )

        if state.unfinished or state.events or state.running:
            step_started = _time.monotonic()
            simulator.step(state)
            stats._step_samples.append(_time.monotonic() - step_started)
            stats.sim_steps += 1

    result = simulator.finalize(state)
    stats.finished_jobs = len(result.jcts)
    stats.wall_clock = _time.monotonic() - started
    stats.finalize_step_stats()
    if tracing:
        tracer.emit(
            EventCategory.SIM,
            "replay.end",
            state.now,
            rounds=stats.rounds,
            injected=stats.injected_jobs,
            finished=stats.finished_jobs,
            steps=stats.sim_steps,
            wall_clock=stats.wall_clock,
        )
    return result, stats
