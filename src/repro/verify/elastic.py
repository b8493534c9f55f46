"""Differential oracles for the elastic scheduling arm.

Two guarantees back ``repro.elastic`` (see ``docs/elastic.md``):

* **Degeneracy** — :func:`compare_flat_identity`: on a workload with
  no usable scalability curve (every job rigid or flat-profiled),
  :class:`~repro.elastic.ElasticMuriScheduler` must reproduce
  :class:`~repro.core.muri.MuriScheduler` *bit-identically* on every
  field of :data:`~repro.verify.differential.SCHEDULE_FIELDS` — JCTs,
  finish and submit times, preemption counts, restart time, and the
  cluster time series.  Renegotiation returns early without touching any
  scheduler state, so the inherited ``decide`` is provably the same
  code on the same inputs; this oracle certifies it end to end.
* **Cache soundness under resizes** — :func:`run_elastic_oracle`:
  a warm elastic scheduler (plan memo, overflow reservoir, per-bucket
  decision caches) wrapped in
  :class:`~repro.verify.differential.IncrementalOracle`, so every
  decision on an actively-resizing stream is compared against a cold
  full re-solve.  Any stale demand-keyed cache entry surviving a
  ``notify_resize`` diverges here.

Mismatches raise :class:`~repro.verify.invariants.InvariantViolation`
with a ``differential.elastic*`` invariant name, matching the other
differential oracles.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.jobs.job import JobSpec
from repro.sim.metrics import SimulationResult
from repro.verify.differential import (
    IncrementalOracle,
    require_identical,
    simulate,
)

__all__ = ["compare_flat_identity", "run_elastic_oracle"]


def compare_flat_identity(
    specs: Sequence[JobSpec],
    policy: str = "srsf",
    cluster_shape: Tuple[int, int] = (8, 8),
    scheduler_kwargs: Optional[Dict] = None,
    sim_kwargs: Optional[Dict] = None,
    trace_name: str = "flat-identity",
) -> Tuple[SimulationResult, SimulationResult]:
    """Elastic vs plain Muri on a flat workload; must be bit-identical.

    Args:
        specs: The workload.  Every spec must be rigid (no scalability
            profile) or carry a flat one — the precondition of the
            degeneracy guarantee.
        policy: Muri priority policy for both sides.
        cluster_shape: ``(machines, gpus_per_machine)`` for both sides.
        scheduler_kwargs: Extra constructor arguments applied to both
            schedulers.
        sim_kwargs: Extra :class:`~repro.sim.ClusterSimulator`
            arguments applied to both simulators.
        trace_name: Workload label stamped on both results.

    Returns:
        ``(muri_result, elastic_result)`` once identity holds.

    Raises:
        ValueError: When a spec carries a non-flat scalability profile
            (the degeneracy precondition does not apply).
        InvariantViolation: With invariant
            ``differential.elastic_flat`` on any divergence.
    """
    from repro.core.muri import MuriScheduler
    from repro.elastic.scheduler import ElasticMuriScheduler

    for spec in specs:
        if spec.scalability is not None and not spec.scalability.is_flat:
            raise ValueError(
                f"job {spec.job_id} has a non-flat scalability profile; "
                "compare_flat_identity only applies to flat workloads"
            )
    scheduler_kwargs = dict(scheduler_kwargs or {})
    sim_kwargs = dict(sim_kwargs or {})

    machines, gpus = cluster_shape
    baseline = simulate(
        MuriScheduler(policy=policy, **scheduler_kwargs),
        specs, Cluster(machines, gpus), trace_name, **sim_kwargs,
    )
    elastic = simulate(
        ElasticMuriScheduler(policy=policy, **scheduler_kwargs),
        specs, Cluster(machines, gpus), trace_name, **sim_kwargs,
    )
    require_identical(
        "differential.elastic_flat",
        "ElasticMuriScheduler diverged from MuriScheduler on a "
        "flat workload (degeneracy guarantee broken)",
        baseline,
        elastic,
    )
    return baseline, elastic


def run_elastic_oracle(
    specs: Sequence[JobSpec],
    policy: str = "srsf",
    cluster_shape: Tuple[int, int] = (8, 8),
    renegotiation_interval: int = 1,
    event_regroup: bool = True,
    scheduler_kwargs: Optional[Dict] = None,
    sim_kwargs: Optional[Dict] = None,
    trace_name: str = "elastic-oracle",
) -> Tuple[SimulationResult, int]:
    """Run an elastic workload with every decision cold-checked.

    The warm :class:`~repro.elastic.ElasticMuriScheduler` drives the
    simulation — renegotiating, resizing, and serving warm caches —
    while :class:`~repro.verify.differential.IncrementalOracle`
    replays every ``decide`` through a cold, identically configured
    scheduler.  Resizes mutate the shared :class:`~repro.jobs.Job`
    objects, so both sides see the same post-resize demands; only the
    warm side's caches can diverge, which is exactly the surface a
    missed invalidation would corrupt.

    Args:
        specs: The (typically elastic) workload.
        policy: Muri priority policy.
        cluster_shape: ``(machines, gpus_per_machine)``.
        renegotiation_interval: Renegotiate every k-th tick.
        event_regroup: Full regroup on events (exercises the decision
            cache on every completion, the harshest setting).
        scheduler_kwargs: Extra constructor arguments applied to both
            the warm scheduler and the cold factory.
        sim_kwargs: Extra :class:`~repro.sim.ClusterSimulator`
            arguments.
        trace_name: Workload label stamped on the result.

    Returns:
        ``(result, checks)`` — the simulation result and how many
        decisions the oracle verified.

    Raises:
        InvariantViolation: With invariant ``differential.incremental``
            when a warm decision diverges from its cold re-solve.
    """
    from repro.elastic.scheduler import ElasticMuriScheduler

    scheduler_kwargs = dict(scheduler_kwargs or {})
    sim_kwargs = dict(sim_kwargs or {})

    def build() -> ElasticMuriScheduler:
        return ElasticMuriScheduler(
            policy=policy,
            renegotiation_interval=renegotiation_interval,
            event_regroup=event_regroup,
            **scheduler_kwargs,
        )

    machines, gpus = cluster_shape
    oracle = IncrementalOracle(build(), build)
    result = simulate(
        oracle, specs, Cluster(machines, gpus), trace_name, **sim_kwargs
    )
    return result, oracle.checks
