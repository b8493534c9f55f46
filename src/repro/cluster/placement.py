"""GPU placement policies.

The paper (section 5) places jobs "in a descending order based on the
number of GPUs a job needs, which avoids fragmentation and minimizes
the number of nodes used by a job".  :class:`DescendingPlacer`
implements exactly that:

* candidate groups are sorted by GPU demand, largest first;
* each group prefers the single machine whose free capacity fits it
  most tightly (best fit);
* groups larger than a machine span the fewest machines possible,
  taking the emptiest machines first.

Two alternative policies exist for the placement ablation:
:class:`SpreadPlacer` (worst fit: always the emptiest machine, the
load-balancing strategy some clusters use) and :class:`RandomPlacer`
(a seeded random feasible machine).  Both consolidate less, so
multi-GPU jobs fragment and span machines more often.

On heterogeneous clusters every policy accepts a *type affinity*
(``gpu_type`` plus ``prefer``): a pinned demand only considers
machines of that GPU generation, a preferred demand tries them first
and falls back to the whole cluster.  With no affinity — and on any
single-generation cluster — the machine pool is every machine, so
plans are bit-identical to the homogeneous code path
(`repro.verify.compare_homogeneous_identity` pins this).

Policies plan against the cluster's free-slot index
(:meth:`Cluster.free_pool`), which buckets each pool's machine ids by
free count, so a plan never scans every machine.

:class:`ThroughputAwarePlacer` goes further (Gavel, arXiv 2008.12260):
instead of treating a soft preference as a feasibility fallback, it
scores every generation pool by the group's effective speed factor
there and places on the fastest pool that can host the demand.  The
realized landing speed is modelled by the simulator's
``landing_speed_scaling`` option, which scales a baseline-profile
group's period by its landing generation's factor.  With uniform
speed factors the placer degenerates bit-identically to
:class:`DescendingPlacer`
(`repro.verify.compare_uniform_scaling_identity` pins this).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Allocation, Cluster, FreePool

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hetero.types import TypeScaling

__all__ = [
    "DescendingPlacer",
    "SpreadPlacer",
    "RandomPlacer",
    "ThroughputAwarePlacer",
    "PlacementPlan",
]


@dataclass(frozen=True)
class PlacementPlan:
    """Outcome of one placement attempt.

    Attributes:
        placed: ``(owner, allocation)`` pairs in placement order.
        unplaced: Owners that did not fit, in input order.
    """

    placed: Tuple[Tuple[int, Allocation], ...]
    unplaced: Tuple[int, ...]


class DescendingPlacer:
    """Places groups on GPUs, largest demand first."""

    def place(
        self,
        cluster: Cluster,
        demands: Sequence[Tuple[int, int]],
    ) -> PlacementPlan:
        """Allocate GPUs for a batch of groups.

        Args:
            cluster: The cluster to allocate from (mutated).
            demands: ``(owner, num_gpus)`` pairs.  Input order is the
                priority order used to break demand ties.

        Returns:
            The resulting :class:`PlacementPlan`.  Owners that do not
            fit are skipped — later, smaller groups may still fit
            (backfilling), matching the paper's prototype behaviour of
            filling the cluster from the dequeued batch.
        """
        indexed = list(enumerate(demands))
        indexed.sort(key=lambda item: (-item[1][1], item[0]))

        placed: List[Tuple[int, Allocation]] = []
        unplaced: List[Tuple[int, int]] = []
        for original_index, (owner, num_gpus) in indexed:
            plan = self.plan_for(cluster, num_gpus)
            if plan is None:
                unplaced.append((original_index, owner))
                continue
            placed.append((owner, cluster.allocate(owner, plan)))
        # Placement walks demands largest-first, but rejected owners are
        # requeued by the caller, so report them in input (priority)
        # order as the PlacementPlan contract promises.
        unplaced.sort()
        return PlacementPlan(
            tuple(placed), tuple(owner for _, owner in unplaced)
        )

    def plan_for(
        self,
        cluster: Cluster,
        num_gpus: int,
        gpu_type: Optional[str] = None,
        prefer: bool = False,
    ) -> Optional[Dict[int, int]]:
        """Compute a per-machine slot plan for one demand.

        Args:
            cluster: The cluster to plan against (not mutated).
            num_gpus: GPU slots required.
            gpu_type: Optional GPU-generation affinity: only machines
                of this type are considered.
            prefer: When True the affinity is soft — if no plan fits
                on the preferred generation the whole cluster is
                retried; when False (a pin) infeasibility is final.

        Returns:
            ``{machine_id: count}`` or None when the demand cannot be
            satisfied.
        """
        if num_gpus < 1:
            raise ValueError("num_gpus must be >= 1")
        if gpu_type is not None:
            plan = self._plan_on(cluster.free_pool(gpu_type), num_gpus)
            if plan is not None or not prefer:
                return plan
        return self._plan_on(cluster.free_pool(None), num_gpus)

    def plan_for_model(
        self,
        cluster: Cluster,
        num_gpus: int,
        gpu_type: Optional[str] = None,
        prefer: bool = False,
        model: Optional[str] = None,
    ) -> Optional[Dict[int, int]]:
        """Plan one demand, optionally informed by the lead model.

        The base policies are throughput-blind and ignore ``model``,
        delegating to :meth:`plan_for` with the historical call shapes
        (no-affinity demands take the exact pre-hetero two-argument
        form so custom placers keep working).
        :class:`ThroughputAwarePlacer` overrides this to score
        generation pools by the model's speed factors.

        Args:
            cluster: The cluster to plan against (not mutated).
            num_gpus: GPU slots required.
            gpu_type: Optional generation affinity (see
                :meth:`plan_for`).
            prefer: Soft-affinity flag (see :meth:`plan_for`).
            model: Model-zoo name of the group's lead job, used by
                throughput-aware policies to look up speed factors.

        Returns:
            ``{machine_id: count}`` or None when the demand cannot be
            satisfied.
        """
        if gpu_type is None:
            return self.plan_for(cluster, num_gpus)
        return self.plan_for(cluster, num_gpus, gpu_type, prefer)

    def _plan_on(
        self, pool: FreePool, num_gpus: int
    ) -> Optional[Dict[int, int]]:
        """Best-fit-then-span plan over one machine pool."""
        if num_gpus > pool.free:
            return None
        buckets = pool.buckets

        # Best fit on one machine: tightest sufficient free capacity,
        # lowest id among equals.
        for free in range(num_gpus, len(buckets)):
            if buckets[free]:
                return {buckets[free][0]: num_gpus}

        # Span machines: emptiest first (lowest id among equals)
        # minimizes machine count.
        plan: Dict[int, int] = {}
        remaining = num_gpus
        for free in range(len(buckets) - 1, 0, -1):
            for machine_id in buckets[free]:
                take = min(free, remaining)
                plan[machine_id] = take
                remaining -= take
                if remaining == 0:
                    return plan
        return None


class SpreadPlacer(DescendingPlacer):
    """Worst-fit placement: prefer the emptiest machine.

    Spreads load evenly — gentler thermal/network hotspots — at the
    cost of fragmentation: large jobs find no whole machine free and
    must span, paying the cross-machine synchronization penalty.
    """

    def _plan_on(
        self, pool: FreePool, num_gpus: int
    ) -> Optional[Dict[int, int]]:
        if num_gpus > pool.free:
            return None
        buckets = pool.buckets
        # Emptiest machine, lowest id among equals.
        for free in range(len(buckets) - 1, num_gpus - 1, -1):
            if buckets[free]:
                return {buckets[free][0]: num_gpus}
        # Fall back to the consolidating span plan.
        return super()._plan_on(pool, num_gpus)


class RandomPlacer(DescendingPlacer):
    """Seeded random placement among feasible machines.

    The no-policy control arm of the placement ablation.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def _plan_on(
        self, pool: FreePool, num_gpus: int
    ) -> Optional[Dict[int, int]]:
        if num_gpus > pool.free:
            return None
        # Feasible machines in id order, so a seed draws the same
        # machine as a scan of the pool would.
        candidates = sorted(chain.from_iterable(pool.buckets[num_gpus:]))
        if candidates:
            return {self._rng.choice(candidates): num_gpus}
        return super()._plan_on(pool, num_gpus)


class ThroughputAwarePlacer(DescendingPlacer):
    """Gavel-style throughput-aware placement across GPU generations.

    For demands whose landing generation is a *choice* — soft
    preferences and unaffine groups on a typed cluster — generation
    pools are scored by the lead model's speed factor and tried
    fastest-first, so a group lands where it runs fastest rather than
    merely where its preference points.  Hard pins stay pure
    feasibility constraints (their profiles were pre-scaled for the
    pinned generation by ``pin_jobs``), and each pool is planned with
    the parent's best-fit-then-span policy, so consolidation behaviour
    inside a pool is unchanged.  The realized landing speed is
    modelled by the simulator's ``landing_speed_scaling`` option, not
    by the placer.

    Degenerate cases fall back to :class:`DescendingPlacer` exactly —
    untyped or single-generation clusters, demands with no model, and
    *uniform* speed factors (equal factors carry no throughput signal;
    ``repro.verify.compare_uniform_scaling_identity`` pins the
    bit-identity).

    Args:
        scaling: Per-model × per-generation speed factors; defaults to
            ``repro.hetero.DEFAULT_TYPE_SCALING``.
    """

    def __init__(self, scaling: Optional["TypeScaling"] = None) -> None:
        if scaling is None:
            from repro.hetero.types import DEFAULT_TYPE_SCALING

            scaling = DEFAULT_TYPE_SCALING
        self.scaling = scaling

    def plan_for_model(
        self,
        cluster: Cluster,
        num_gpus: int,
        gpu_type: Optional[str] = None,
        prefer: bool = False,
        model: Optional[str] = None,
    ) -> Optional[Dict[int, int]]:
        if gpu_type is not None and not prefer:
            # A pin's pool is not a choice: pure feasibility.
            return self.plan_for(cluster, num_gpus, gpu_type, prefer)
        factors = self._pool_factors(cluster, model)
        if factors is None:
            return super().plan_for_model(
                cluster, num_gpus, gpu_type, prefer, model
            )
        # Fastest pool first; the preferred generation breaks factor
        # ties, then the name keeps the order deterministic.
        order = sorted(
            factors,
            key=lambda name: (
                -factors[name], 0 if name == gpu_type else 1, name
            ),
        )
        for name in order:
            plan = self._plan_on(cluster.free_pool(name), num_gpus)
            if plan is not None:
                return plan
        # No single generation pool can host the demand: span the
        # whole cluster.
        return self._plan_on(cluster.free_pool(None), num_gpus)

    def _pool_factors(
        self, cluster: Cluster, model: Optional[str]
    ) -> Optional[Dict[str, float]]:
        """Per-generation speed factors, or None when throughput
        carries no placement signal and the parent path applies."""
        generations = cluster.gpu_type_names()
        if model is None or len(generations) < 2:
            return None
        factors: Dict[str, float] = {}
        for name in generations:
            try:
                factors[name] = self.scaling.factor(model, name)
            except KeyError:
                return None
        if max(factors.values()) == min(factors.values()):
            return None
        return factors
