"""Differential oracles: the optimized hot paths vs their slow twins.

PR 1 layered caches and sparse candidate graphs under Algorithm 1 to
hit the paper's "1,000 jobs in a few seconds" decision latency.  The
oracles here replay the *same* job set through the slow, obviously
correct implementations and compare:

* :func:`compare_dense_sparse` — the bounded-degree sparse build vs
  the dense O(n^2) edge build.  Feasibility (which jobs group, every
  group well-formed) must be identical in character, and the sparse
  path's total efficiency may regress only by a bounded fraction.
* :func:`compare_cold_cached` — a cold grouper vs one whose weight /
  ordering / decision caches are warm from an identical previous call.
  The group sets must be *identical*: caching must never change a
  decision.
* :func:`compare_pairs_exact` — blossom matching vs
  :func:`~repro.matching.exact.brute_force_matching` on the bucket's
  own edge weights.  Blossom is an exact algorithm, so the matched
  weights must agree to float tolerance.
* :func:`compare_groups_exact` — the multi-round heuristic vs
  :func:`~repro.matching.exact.exact_hypergraph_matching`.  The exact
  matcher optimizes over disjoint groups of exactly ``k`` jobs, so its
  total bounds the heuristic's full-size groups from above; the
  heuristic must reach a configurable fraction of it.

The end-to-end identity oracles (:mod:`repro.verify.hetero`,
:mod:`repro.verify.elastic`, :mod:`repro.verify.fleet`) share the
schedule diff defined here: :func:`simulate` runs one configuration,
and :func:`require_identical` demands that two results agree on every
field of :data:`SCHEDULE_FIELDS`.

All mismatches raise :class:`~repro.verify.invariants.InvariantViolation`
with a ``differential.*`` invariant name, so fuzzing and tests handle
spec violations and optimization bugs uniformly.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.cluster.cluster import Cluster
from repro.core.group import JobGroup
from repro.core.grouping import GroupingResult, MultiRoundGrouper
from repro.jobs.job import Job, JobSpec
from repro.jobs.resources import NUM_RESOURCES
from repro.jobs.stage import StageProfile
from repro.matching.blossom import matching_pairs
from repro.matching.exact import brute_force_matching, exact_hypergraph_matching
from repro.core.efficiency import efficiency_for_period
from repro.core.ordering import best_ordering
from repro.schedulers.base import Scheduler
from repro.sim.metrics import SimulationResult
from repro.sim.simulator import ClusterSimulator
from repro.verify.invariants import InvariantViolation, check_group_wellformed

__all__ = [
    "SCHEDULE_FIELDS",
    "diff_results",
    "require_identical",
    "simulate",
    "jobs_from_rows",
    "group_sets",
    "plan_signature",
    "compare_dense_sparse",
    "compare_cold_cached",
    "compare_pairs_exact",
    "compare_groups_exact",
    "IncrementalOracle",
]


#: The schedule two runs of one workload must share to count as
#: identical.  Labels (``scheduler_name``, ``trace_name``) and
#: ``wall_clock`` differ by design; per-generation occupancy
#: (``gpu_seconds_by_type``, ``gpus_by_type``) exists only on typed
#: clusters, so a homogeneous run and its single-type twin differ there
#: and nowhere else.  ``makespan`` is ``max(finish_times)``.
SCHEDULE_FIELDS = (
    "jcts",
    "finish_times",
    "submit_times",
    "total_preemptions",
    "total_restart_time",
    "timeseries",
)


def simulate(
    scheduler: Scheduler,
    specs: Sequence[JobSpec],
    cluster: Cluster,
    trace_name: str,
    **sim_kwargs,
) -> SimulationResult:
    """Run ``specs`` through a fresh simulator.

    Args:
        scheduler: The scheduler under test.
        specs: The workload.
        cluster: The cluster to run on.
        trace_name: Workload label stamped on the result.
        **sim_kwargs: Extra :class:`~repro.sim.ClusterSimulator`
            arguments.
    """
    simulator = ClusterSimulator(scheduler, cluster=cluster, **sim_kwargs)
    return simulator.run(specs, trace_name=trace_name)


def diff_results(a: SimulationResult, b: SimulationResult) -> List[str]:
    """The :data:`SCHEDULE_FIELDS` on which ``a`` and ``b`` differ, in order."""
    return [
        name for name in SCHEDULE_FIELDS
        if getattr(a, name) != getattr(b, name)
    ]


def _mismatch(left: Any, right: Any) -> Dict[str, Any]:
    """A compact report of how one field differs between two results."""
    if isinstance(left, dict):
        return {"diverging": sorted(
            key for key in left.keys() | right.keys()
            if left.get(key) != right.get(key)
        )[:16]}
    if isinstance(left, list):
        return {"lengths": [len(left), len(right)], "first": next(
            (i for i, (x, y) in enumerate(zip(left, right)) if x != y),
            min(len(left), len(right)),
        )}
    return {"values": [left, right]}


def require_identical(
    invariant: str,
    message: str,
    a: SimulationResult,
    b: SimulationResult,
    **details: Any,
) -> None:
    """Raise unless ``a`` and ``b`` agree on every schedule field.

    Raises:
        InvariantViolation: With ``invariant``; ``details`` carries the
            caller's context plus ``field`` (the first differing
            field) and ``mismatches`` (a short report per differing
            field).
    """
    differing = diff_results(a, b)
    if differing:
        raise InvariantViolation(
            invariant,
            f"{message} on {', '.join(differing)}",
            details={
                **details,
                "field": differing[0],
                "mismatches": {
                    name: _mismatch(getattr(a, name), getattr(b, name))
                    for name in differing
                },
            },
        )


def jobs_from_rows(
    rows: Sequence[Sequence[float]],
    num_gpus: int = 1,
    num_iterations: int = 100,
) -> List[Job]:
    """Fresh single-bucket jobs from raw duration rows (test harness)."""
    return [
        Job(JobSpec(
            profile=StageProfile(tuple(row)),
            num_gpus=num_gpus,
            num_iterations=num_iterations,
        ))
        for row in rows
    ]


def group_sets(result: GroupingResult) -> Set[FrozenSet[int]]:
    """The membership structure of a grouping, offsets ignored."""
    return {
        frozenset(job.job_id for job in group.jobs)
        for group in result.groups
    }


def _check_result(result: GroupingResult, label: str) -> None:
    """Every produced group must satisfy the structural invariants."""
    seen: Set[int] = set()
    for group in result.groups:
        check_group_wellformed(group)
        for job in group.jobs:
            if job.job_id in seen:
                raise InvariantViolation(
                    "differential.feasibility",
                    f"{label} grouping placed job {job.job_id} in two "
                    f"groups",
                    details={"path": label, "job": job.job_id},
                )
            seen.add(job.job_id)


def plan_signature(
    plan: Sequence[JobGroup],
) -> Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...]:
    """Order-sensitive identity of a scheduling plan.

    Per proposed group, in plan order: the member job ids (in group
    order) and the chosen stage offsets.  Two plans with equal
    signatures start the same jobs together with the same interleaving
    phases, in the same priority order.
    """
    return tuple(
        (
            tuple(job.job_id for job in group.jobs),
            tuple(group.offsets),
        )
        for group in plan
    )


class IncrementalOracle(Scheduler):
    """Differentially checks a warm scheduler against cold re-solves.

    Wraps an (incrementally cached) scheduler; every :meth:`decide`
    call is replayed through a freshly built scheduler from
    ``factory`` — whose caches are necessarily cold — on the *same*
    inputs, and the two plans must agree exactly.  This is the service
    loop's guarantee that incremental regrouping (the per-bucket
    decision cache plus ``event_regroup``) never changes a decision,
    extended from single grouper calls
    (:func:`compare_cold_cached`) to a whole event stream.

    Args:
        inner: The scheduler under test; its decisions are the ones
            actually returned.
        factory: Builds an identically configured scheduler.  Called
            once per decision; the instance is used for one cold solve
            and discarded.

    Attributes:
        checks: Number of decisions verified so far.
    """

    def __init__(
        self,
        inner: Scheduler,
        factory: Callable[[], Scheduler],
    ) -> None:
        self.inner = inner
        self.factory = factory
        self.checks = 0
        self.name = inner.name
        self.duration_aware = inner.duration_aware
        self.preemptive = inner.preemptive

    def decide(
        self,
        now: float,
        jobs: Sequence[Job],
        running: Dict[FrozenSet[int], JobGroup],
        total_gpus: int,
        reason: str = "tick",
    ) -> List[JobGroup]:
        """Decide via the warm scheduler, then verify against a cold one.

        Raises:
            InvariantViolation: With invariant
                ``differential.incremental`` when the warm plan
                diverges from the cold re-solve.
        """
        cold = self.factory()
        cold_plan = cold.decide(now, jobs, running, total_gpus, reason)
        plan = self.inner.decide(now, jobs, running, total_gpus, reason)
        warm_sig = plan_signature(plan)
        cold_sig = plan_signature(cold_plan)
        if warm_sig != cold_sig:
            raise InvariantViolation(
                "differential.incremental",
                f"incremental decision at t={now:.0f}s ({reason}) "
                f"diverged from a cold full re-solve",
                details={
                    "now": now,
                    "reason": reason,
                    "warm": [list(members) for members, _ in warm_sig],
                    "cold": [list(members) for members, _ in cold_sig],
                },
            )
        self.checks += 1
        return plan

    def renegotiate(
        self,
        now: float,
        jobs: Sequence[Job],
        total_gpus: int,
    ) -> Dict[int, int]:
        """Forward elastic renegotiation to the wrapped scheduler.

        Renegotiation itself is not differentially checked — it is
        deterministic in its inputs and cache-free — but the resizes it
        triggers exercise every demand-keyed cache, which the next
        :meth:`decide` then verifies against a cold re-solve.
        """
        inner_renegotiate = getattr(self.inner, "renegotiate", None)
        if inner_renegotiate is None:
            return {}
        return inner_renegotiate(now, jobs, total_gpus)

    def notify_resize(self, job_id: int, old_gpus: int, new_gpus: int) -> None:
        """Forward resize invalidation to the wrapped scheduler."""
        self.inner.notify_resize(job_id, old_gpus, new_gpus)

    def reset_caches(self) -> None:
        """Forward cache resets to the wrapped scheduler."""
        reset = getattr(self.inner, "reset_caches", None)
        if reset is not None:
            reset()


def compare_dense_sparse(
    jobs: Sequence[Job],
    capacity: Optional[int] = None,
    sparsify_threshold: int = 128,
    max_degree: int = 8,
    max_regression: float = 0.15,
    **grouper_kwargs,
) -> Tuple[GroupingResult, GroupingResult]:
    """Dense vs sparse grouping of one job set; raise on divergence.

    Below the threshold the two paths must be *bit-identical* (the
    sparse configuration simply never triggers); at or above it the
    sparse path must cover the same jobs with well-formed groups and
    lose at most ``max_regression`` of the dense total efficiency.

    Args:
        jobs: The job set (priority order).
        capacity: Cluster GPU capacity handed to both groupers.
        sparsify_threshold: Threshold for the sparse grouper.
        max_degree: Degree bound for the sparse candidate graph.
        max_regression: Allowed relative efficiency loss of the sparse
            path on supra-threshold inputs.
        **grouper_kwargs: Extra :class:`MultiRoundGrouper` settings
            applied to both sides.

    Returns:
        ``(dense_result, sparse_result)`` once all assertions hold.

    Raises:
        InvariantViolation: With invariant ``differential.feasibility``
            or ``differential.efficiency``.
    """
    dense = MultiRoundGrouper(
        sparsify_threshold=None, **grouper_kwargs
    ).group(jobs, capacity=capacity)
    sparse = MultiRoundGrouper(
        sparsify_threshold=sparsify_threshold,
        max_degree=max_degree,
        **grouper_kwargs,
    ).group(jobs, capacity=capacity)

    _check_result(dense, "dense")
    _check_result(sparse, "sparse")

    dense_jobs = {j for members in group_sets(dense) for j in members}
    sparse_jobs = {j for members in group_sets(sparse) for j in members}
    if dense_jobs != sparse_jobs:
        raise InvariantViolation(
            "differential.feasibility",
            "dense and sparse grouping covered different job sets",
            details={
                "dense_only": sorted(dense_jobs - sparse_jobs),
                "sparse_only": sorted(sparse_jobs - dense_jobs),
            },
        )

    below_threshold = len(jobs) < sparsify_threshold
    if below_threshold:
        if group_sets(dense) != group_sets(sparse):
            raise InvariantViolation(
                "differential.feasibility",
                f"below the sparsify threshold ({len(jobs)} jobs < "
                f"{sparsify_threshold}) the sparse path must match the "
                f"dense path exactly",
                details={
                    "dense": sorted(map(sorted, group_sets(dense))),
                    "sparse": sorted(map(sorted, group_sets(sparse))),
                },
            )
    floor = dense.total_efficiency * (1.0 - max_regression) - 1e-9
    if sparse.total_efficiency < floor:
        raise InvariantViolation(
            "differential.efficiency",
            f"sparse grouping efficiency {sparse.total_efficiency:.4f} "
            f"regressed more than {max_regression:.0%} below the dense "
            f"value {dense.total_efficiency:.4f}",
            details={
                "dense": dense.total_efficiency,
                "sparse": sparse.total_efficiency,
                "max_regression": max_regression,
            },
        )
    return dense, sparse


def compare_cold_cached(
    jobs: Sequence[Job],
    capacity: Optional[int] = None,
    **grouper_kwargs,
) -> Tuple[GroupingResult, GroupingResult]:
    """A cold grouper vs a cache-warm one; decisions must be identical.

    The warm side runs the same input twice through one grouper, so the
    second call is served from the weight / ordering / incremental
    decision caches.  Any difference between the cold result and the
    cache-served result means a cache key is too coarse or a cache is
    leaking stale decisions.

    Returns:
        ``(cold_result, cached_result)`` once equality holds.

    Raises:
        InvariantViolation: With invariant ``differential.cache``.
    """
    cold = MultiRoundGrouper(**grouper_kwargs).group(jobs, capacity=capacity)

    warm_grouper = MultiRoundGrouper(**grouper_kwargs)
    warm_grouper.group(jobs, capacity=capacity)
    cached = warm_grouper.group(jobs, capacity=capacity)

    if group_sets(cold) != group_sets(cached):
        raise InvariantViolation(
            "differential.cache",
            "cache-served grouping disagrees with the cold path",
            details={
                "cold": sorted(map(sorted, group_sets(cold))),
                "cached": sorted(map(sorted, group_sets(cached))),
            },
        )
    offsets_of = lambda result: {
        frozenset(job.job_id for job in group.jobs): tuple(group.offsets)
        for group in result.groups
    }
    if offsets_of(cold) != offsets_of(cached):
        raise InvariantViolation(
            "differential.cache",
            "cache-served grouping changed a group's stage ordering",
            details={},
        )
    return cold, cached


def compare_pairs_exact(
    edges: Sequence[Tuple[int, int, float]],
    tolerance: float = 1e-9,
) -> float:
    """Blossom vs brute force on one edge list; weights must agree.

    Returns:
        The agreed maximum matching weight.

    Raises:
        InvariantViolation: With invariant ``differential.matching``.
    """
    weight_of = {}
    for u, v, w in edges:
        key = (min(u, v), max(u, v))
        if key not in weight_of or w > weight_of[key]:
            weight_of[key] = w
    blossom_weight = sum(
        weight_of[(min(u, v), max(u, v))] for u, v in matching_pairs(edges)
    )
    _pairs, exact_weight = brute_force_matching(edges)
    if abs(blossom_weight - exact_weight) > tolerance:
        raise InvariantViolation(
            "differential.matching",
            f"blossom matched weight {blossom_weight:.9f} differs from "
            f"the brute-force optimum {exact_weight:.9f}",
            details={"blossom": blossom_weight, "exact": exact_weight},
        )
    return exact_weight


def compare_groups_exact(
    jobs: Sequence[Job],
    group_size: int = NUM_RESOURCES,
    num_resources: int = NUM_RESOURCES,
    min_fraction: float = 0.8,
    **grouper_kwargs,
) -> Tuple[float, float]:
    """Multi-round heuristic vs exact hypergraph matching (small n).

    The exact matcher selects disjoint groups of exactly ``group_size``
    jobs maximizing total gamma — the NP-hard objective the heuristic
    approximates.  Two assertions:

    * soundness: the heuristic's full-size groups cannot beat the
      optimum;
    * quality: they reach at least ``min_fraction`` of it whenever the
      optimum is positive (the paper reports the heuristic within ~4%
      of optimal, Fig. 13; the default bound is deliberately loose).

    Returns:
        ``(heuristic_total, exact_total)`` over full-size groups.

    Raises:
        InvariantViolation: With invariant ``differential.optimality``.
        ValueError: When ``jobs`` is too large for the exact matcher.
    """
    heuristic = MultiRoundGrouper(
        max_group_size=group_size,
        num_resources=num_resources,
        **grouper_kwargs,
    ).group(jobs)
    heuristic_total = sum(
        group.believed_efficiency
        for group in heuristic.groups
        if group.size == group_size
    )

    profiles = [job.profile for job in jobs]

    def weight(indices: Tuple[int, ...]) -> float:
        rows = tuple(profiles[i] for i in indices)
        _offsets, period = best_ordering(rows, num_resources)
        return efficiency_for_period(rows, period, num_resources)

    _groups, exact_total = exact_hypergraph_matching(
        len(jobs), group_size, weight
    )

    if heuristic_total > exact_total + 1e-6:
        raise InvariantViolation(
            "differential.optimality",
            f"heuristic full-size group efficiency {heuristic_total:.4f} "
            f"exceeds the exact optimum {exact_total:.4f} — the exact "
            f"oracle or the believed efficiencies are wrong",
            details={"heuristic": heuristic_total, "exact": exact_total},
        )
    if exact_total > 0 and heuristic_total < min_fraction * exact_total - 1e-9:
        raise InvariantViolation(
            "differential.optimality",
            f"heuristic reached only {heuristic_total:.4f} of the exact "
            f"optimum {exact_total:.4f} "
            f"(< {min_fraction:.0%})",
            details={
                "heuristic": heuristic_total,
                "exact": exact_total,
                "min_fraction": min_fraction,
            },
        )
    return heuristic_total, exact_total
