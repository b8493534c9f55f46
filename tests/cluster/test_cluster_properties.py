"""Property-based tests for cluster allocation."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.cluster.placement import (
    DescendingPlacer,
    RandomPlacer,
    SpreadPlacer,
    ThroughputAwarePlacer,
)
from repro.hetero.types import get_gpu_type
from repro.models.zoo import DEFAULT_MODELS
from repro.verify import InvariantChecker


@st.composite
def demand_sequences(draw):
    machines = draw(st.integers(min_value=1, max_value=6))
    gpus = draw(st.integers(min_value=1, max_value=8))
    demands = draw(
        st.lists(
            st.integers(min_value=1, max_value=machines * gpus),
            min_size=0,
            max_size=12,
        )
    )
    return machines, gpus, demands


@settings(max_examples=120, deadline=None)
@given(demand_sequences())
def test_placement_never_overallocates(params):
    machines, gpus, demands = params
    cluster = Cluster(machines, gpus)
    plan = DescendingPlacer().place(
        cluster, [(i, d) for i, d in enumerate(demands)]
    )
    # Capacity conserved.
    assert cluster.allocated_gpus + cluster.free_gpus == cluster.total_gpus
    assert cluster.allocated_gpus == sum(
        allocation.num_gpus for _o, allocation in plan.placed
    )
    # Every placed allocation got exactly what it asked for.
    asked = dict(enumerate(demands))
    for owner, allocation in plan.placed:
        assert allocation.num_gpus == asked[owner]
    # Placed + unplaced covers every demand exactly once.
    owners = [o for o, _a in plan.placed] + list(plan.unplaced)
    assert sorted(owners) == sorted(asked)


@settings(max_examples=120, deadline=None)
@given(demand_sequences())
def test_release_restores_capacity(params):
    machines, gpus, demands = params
    cluster = Cluster(machines, gpus)
    plan = DescendingPlacer().place(
        cluster, [(i, d) for i, d in enumerate(demands)]
    )
    for owner, _allocation in plan.placed:
        cluster.release(owner)
    assert cluster.free_gpus == cluster.total_gpus
    assert list(cluster.allocations()) == []


@settings(max_examples=100, deadline=None)
@given(demand_sequences())
def test_unplaced_only_when_genuinely_unfit(params):
    """A demand is skipped only if, at its placement turn, the free
    capacity could not hold it."""
    machines, gpus, demands = params
    cluster = Cluster(machines, gpus)
    plan = DescendingPlacer().place(
        cluster, [(i, d) for i, d in enumerate(demands)]
    )
    for owner in plan.unplaced:
        # After all placements, the leftover is smaller than the demand
        # (descending order guarantees it was also true at its turn).
        assert demands[owner] > cluster.free_gpus or (
            demands[owner] > max(
                (m.free_gpu_count for m in cluster.machines), default=0
            )
        )


# -- free-slot index vs a per-machine scan ----------------------------------
#
# The reference plans scan every machine of the pool, as placement did
# before the cluster kept a free-slot index.  The placers must produce
# exactly these plans from the index.


def _scan_descending(machines, num_gpus):
    if num_gpus > sum(m.free_gpu_count for m in machines):
        return None
    single_candidates = [m for m in machines if m.free_gpu_count >= num_gpus]
    if single_candidates:
        best = min(
            single_candidates, key=lambda m: (m.free_gpu_count, m.machine_id)
        )
        return {best.machine_id: num_gpus}
    plan = {}
    remaining = num_gpus
    for machine in sorted(
        machines, key=lambda m: (-m.free_gpu_count, m.machine_id)
    ):
        if remaining == 0:
            break
        take = min(machine.free_gpu_count, remaining)
        if take > 0:
            plan[machine.machine_id] = take
            remaining -= take
    if remaining > 0:
        return None
    return plan


def _scan_spread(machines, num_gpus):
    if num_gpus > sum(m.free_gpu_count for m in machines):
        return None
    candidates = [m for m in machines if m.free_gpu_count >= num_gpus]
    if candidates:
        best = max(candidates, key=lambda m: (m.free_gpu_count, -m.machine_id))
        return {best.machine_id: num_gpus}
    return _scan_descending(machines, num_gpus)


def _scan_random(rng):
    def plan_on(machines, num_gpus):
        if num_gpus > sum(m.free_gpu_count for m in machines):
            return None
        candidates = [m for m in machines if m.free_gpu_count >= num_gpus]
        if candidates:
            return {rng.choice(candidates).machine_id: num_gpus}
        return _scan_descending(machines, num_gpus)

    return plan_on


def _scan_plan_for(plan_on, cluster, num_gpus, gpu_type, prefer):
    if gpu_type is not None:
        plan = plan_on(cluster.machines_of_type(gpu_type), num_gpus)
        if plan is not None or not prefer:
            return plan
    return plan_on(cluster.machines, num_gpus)


def _scan_aware(placer, cluster, num_gpus, gpu_type, prefer, model):
    if gpu_type is not None and not prefer:
        return _scan_plan_for(_scan_descending, cluster, num_gpus, gpu_type, False)
    factors = placer._pool_factors(cluster, model)
    if factors is None:
        return _scan_plan_for(
            _scan_descending, cluster, num_gpus, gpu_type, prefer
        )
    order = sorted(
        factors,
        key=lambda name: (-factors[name], 0 if name == gpu_type else 1, name),
    )
    for name in order:
        plan = _scan_descending(cluster.machines_of_type(name), num_gpus)
        if plan is not None:
            return plan
    return _scan_descending(cluster.machines, num_gpus)


GENERATIONS = ("k80", "a100", "v100")


@st.composite
def allocation_sequences(draw):
    machines = draw(st.integers(min_value=1, max_value=10))
    gpus = draw(st.integers(min_value=1, max_value=8))
    typed = draw(st.booleans())
    types = None
    if typed:
        # Untyped machines may sit beside typed ones; "v100" is never
        # installed, so a demand for it selects an empty pool.
        types = draw(st.lists(
            st.sampled_from(("k80", "a100", None)),
            min_size=machines, max_size=machines,
        ))
    ops = draw(st.lists(
        st.tuples(
            st.sampled_from(("allocate", "allocate", "release")),
            # Mostly single-machine demands, so free counts spread
            # over many buckets; some span machines.
            st.one_of(
                st.integers(min_value=1, max_value=gpus),
                st.integers(min_value=1, max_value=machines * gpus),
            ),
            st.sampled_from((None, None) + GENERATIONS),
            st.booleans(),
            st.sampled_from((None, *DEFAULT_MODELS)),
            st.integers(min_value=0, max_value=3),
        ),
        max_size=60,
    ))
    return machines, gpus, types, ops, draw(st.integers(0, 2**16))


@settings(max_examples=200, deadline=None)
@given(allocation_sequences())
def test_indexed_plans_match_machine_scan(params):
    machines, gpus, types, ops, seed = params
    cluster = Cluster(machines, gpus, machine_types=types and [
        None if name is None else get_gpu_type(name) for name in types
    ])
    descending, spread = DescendingPlacer(), SpreadPlacer()
    random_placer, scan_rng = RandomPlacer(seed), random.Random(seed)
    aware = ThroughputAwarePlacer()
    checker = InvariantChecker(invariants=["gpu_capacity"])
    owners = []
    for step, (op, num_gpus, gpu_type, prefer, model, pick) in enumerate(ops):
        if op == "release":
            if owners:
                cluster.release(owners.pop(pick % len(owners)))
            checker.inspect("sim.cluster", 0.0, cluster=cluster)
            continue
        plans = [
            (descending.plan_for(cluster, num_gpus, gpu_type, prefer),
             _scan_plan_for(_scan_descending, cluster, num_gpus, gpu_type, prefer)),
            (spread.plan_for(cluster, num_gpus, gpu_type, prefer),
             _scan_plan_for(_scan_spread, cluster, num_gpus, gpu_type, prefer)),
            (random_placer.plan_for(cluster, num_gpus, gpu_type, prefer),
             _scan_plan_for(
                 _scan_random(scan_rng), cluster, num_gpus, gpu_type, prefer
             )),
            (aware.plan_for_model(
                cluster, num_gpus, gpu_type, prefer, model
            ), _scan_aware(aware, cluster, num_gpus, gpu_type, prefer, model)),
        ]
        for indexed, scanned in plans:
            # Same machines, same counts, same order: allocation order
            # decides which slots a group gets.
            assert indexed == scanned
            assert indexed is None or list(indexed.items()) == list(scanned.items())
        plan = plans[pick][0]
        if plan is not None:
            cluster.allocate(step, plan)
            owners.append(step)
        checker.inspect("sim.cluster", 0.0, cluster=cluster)
