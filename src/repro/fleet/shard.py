"""Scheduler shards: one independent daemon per virtual cluster.

A :class:`SchedulerShard` bundles a VC with its own
:class:`~repro.service.daemon.SchedulerService` — its own simulator,
scheduler (with its own grouping cache), and virtual clock.  Shards
never share state, which is what makes the fleet's per-shard results
bit-identical to running each VC serially (the
:func:`repro.verify.compare_fleet_serial` oracle).

:func:`make_shard` is the factory; it shares
:func:`~repro.schedulers.make_scheduler`'s keyword signature
(``tracer``, ``event_regroup``) so a shard is constructed
exactly like a standalone scheduler — there is no post-construction
special-casing left.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.fleet.topology import VirtualCluster
from repro.observe.tracer import Tracer
from repro.profiler.profiler import ResourceProfiler
from repro.schedulers.registry import make_scheduler
from repro.service.daemon import SchedulerService
from repro.sim.simulator import ClusterSimulator

__all__ = ["SchedulerShard", "make_shard"]


class SchedulerShard:
    """One virtual cluster's scheduling daemon.

    Args:
        vc: The virtual cluster this shard schedules.
        service: The daemon core (owns the simulator and clock).
    """

    def __init__(self, vc: VirtualCluster, service: SchedulerService) -> None:
        self.vc = vc
        self.service = service

    @property
    def name(self) -> str:
        """The VC name (doubles as the shard id)."""
        return self.vc.name

    @property
    def pending_count(self) -> int:
        """Jobs occupying the shard's pending-queue slots (O(groups))."""
        return self.service.pending_count

    @property
    def now(self) -> float:
        """The shard's current virtual time."""
        return self.service.state.now

    def fits(self, num_gpus: int) -> bool:
        """True when a job of ``num_gpus`` can ever run on this VC."""
        return num_gpus <= self.vc.total_gpus

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SchedulerShard {self.name} ({self.vc.total_gpus} GPUs)>"


def make_shard(
    vc: VirtualCluster,
    scheduler: str = "fifo",
    profiler: Optional[ResourceProfiler] = None,
    tracer: Optional[Tracer] = None,
    event_regroup: Optional[bool] = None,
    max_pending: int = 1024,
    clock: Optional[object] = None,
    simulator_options: Optional[Dict[str, Any]] = None,
    **scheduler_options: Any,
) -> SchedulerShard:
    """Build one shard: VC cluster + scheduler + simulator + daemon.

    The scheduler keywords are :func:`make_scheduler`'s, verbatim —
    one factory signature for standalone and sharded construction.
    The simulator runs the service's event-driven configuration
    (reschedule on arrival, backfill on completion), like
    ``repro serve``.

    Args:
        vc: The virtual cluster to schedule.
        scheduler: Registry name for :func:`make_scheduler`.
        profiler: Optional profiler (Muri variants).
        tracer: Optional tracer, threaded through scheduler,
            simulator, and daemon.
        event_regroup: Full decision pass on arrival/completion
            events (Muri); ignored by policies without one.
        max_pending: The shard daemon's admission bound.
        clock: Pacing clock for the daemon loop; defaults to a
            deterministic :class:`~repro.service.clock.VirtualClock`.
        simulator_options: Extra :class:`ClusterSimulator` keyword
            overrides (e.g. ``restart_penalty`` in tests).
        **scheduler_options: Extra constructor arguments for the
            scheduler factory (``max_group_size``, ``matcher``...).
    """
    sched = make_scheduler(
        scheduler,
        profiler=profiler,
        tracer=tracer,
        event_regroup=event_regroup,
        **scheduler_options,
    )
    sim_kwargs: Dict[str, Any] = dict(
        cluster=vc.build_cluster(),
        reschedule_on_arrival=True,
        arrival_reason="arrival",
        backfill_on_completion=True,
        tracer=tracer,
    )
    sim_kwargs.update(simulator_options or {})
    simulator = ClusterSimulator(sched, **sim_kwargs)
    service = SchedulerService(
        simulator,
        max_pending=max_pending,
        clock=clock,
        trace_name=vc.name,
        tracer=tracer,
    )
    return SchedulerShard(vc, service)
