"""Differential oracle for the sharded fleet: shards vs serial VC runs.

The fleet front-end's claim (see :mod:`repro.fleet`) is that sharding
is pure plumbing: because shards share nothing, the jobs the front-end
routed to a virtual cluster must finish with *bit-identical* results
to submitting that exact stream to a standalone daemon built the same
way.  :func:`compare_fleet_serial` enforces the claim, in the same
style as :func:`repro.verify.compare_cold_cached`: any divergence
raises :class:`~repro.verify.invariants.InvariantViolation` with
invariant ``differential.fleet``.

The oracle targets the deterministic harness — a drained fleet whose
submissions all landed before the shards ran (virtual clocks, as in
``FleetFrontEnd.run_sync`` and the CI stream).  Under a wall clock,
submissions interleave with shard steps and no serial replay can
reproduce the timing.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.fleet.frontend import FleetFrontEnd
from repro.fleet.shard import SchedulerShard
from repro.fleet.topology import VirtualCluster
from repro.sim.metrics import SimulationResult
from repro.verify.differential import require_identical

__all__ = ["compare_fleet_serial"]


def compare_fleet_serial(
    frontend: FleetFrontEnd,
    shard_factory: Callable[[VirtualCluster], SchedulerShard],
) -> Dict[str, SimulationResult]:
    """Replay each VC's routed stream serially; demand bit-identity.

    For every virtual cluster, the specs the (drained) fleet routed
    there are re-submitted in admission order to a fresh standalone
    shard, which then drains on its own.  Specs are immutable and job
    ids fleet-unique, so the serial run reproduces the exact stream —
    and every field of :data:`~repro.verify.differential.SCHEDULE_FIELDS`
    (JCTs, finish and submit times, preemptions, restart time, the
    cluster time series; hence also the makespan) must match with
    ``==``, no tolerance.  A divergence means fleet routing or shard
    isolation leaked state into scheduling decisions.

    Args:
        frontend: A fleet that has fully drained (``run_sync``/``run``
            completed).
        shard_factory: Builds a fresh shard for a VC *exactly* as the
            fleet's shards were built (same scheduler, options, and
            simulator configuration) — e.g.
            ``lambda vc: make_shard(vc, scheduler="muri-s")``.

    Returns:
        The serial per-VC results, keyed by VC name (for reporting).

    Raises:
        InvariantViolation: With invariant ``differential.fleet`` on
            the first diverging shard; ``details`` names its ``vc`` and
            first differing ``field``.
        ValueError: When the fleet has not drained yet.
    """
    if frontend.result is None:
        raise ValueError(
            "compare_fleet_serial needs a drained fleet; "
            "call run_sync()/run() first"
        )
    serial_results: Dict[str, SimulationResult] = {}
    routed_by_vc: Dict[str, List] = {name: [] for name in frontend.topology.names}
    for routed in frontend.routed:
        routed_by_vc[routed.vc].append(routed)

    for vc in frontend.topology.vcs:
        shard = shard_factory(vc)
        for routed in routed_by_vc[vc.name]:
            shard.service.submit(routed.spec)
        serial = shard.service.run_sync()
        serial_results[vc.name] = serial

        sharded = frontend.shards[vc.name].service.result
        if sharded is None:
            raise ValueError(f"fleet shard {vc.name!r} never drained")
        require_identical(
            "differential.fleet",
            f"shard {vc.name!r} diverged from its serial replay",
            sharded,
            serial,
            vc=vc.name,
        )
    return serial_results
