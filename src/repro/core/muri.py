"""The Muri scheduler: multi-resource interleaving for DL training.

Muri (section 4.2, "Optimizing for average JCT"):

1. sort the queue by priority — SRSF when durations are known
   (Muri-S), 2D-LAS when unknown (Muri-L);
2. dequeue enough jobs from the head that, grouped ``k``-fold, they can
   fully utilize the cluster (Algorithm 1's first ``n`` jobs);
3. run the Blossom-based multi-round grouping algorithm on measured
   profiles to form interleaving groups within GPU-count buckets;
4. run the groups, highest priority first, until capacity is filled.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.core.group import JobGroup
from repro.core.grouping import MultiRoundGrouper
from repro.core.priorities import PriorityPolicy, get_policy
from repro.jobs.job import Job
from repro.jobs.resources import NUM_RESOURCES
from repro.observe.events import EventCategory
from repro.observe.provenance import GroupingRecord
from repro.observe.tracer import Tracer, maybe_span
from repro.profiler.profiler import ResourceProfiler
from repro.schedulers.base import Scheduler

__all__ = ["MuriScheduler"]


class MuriScheduler(Scheduler):
    """Muri-S / Muri-L scheduler.

    Args:
        policy: Queue priority — "srsf" gives Muri-S (durations known),
            "las2d" gives Muri-L (durations unknown).  Any policy from
            ``repro.core.priorities`` is accepted.
        profiler: Source of measured stage profiles.  None means
            perfect knowledge (profiles read straight from specs).
        max_group_size: Jobs per interleaving group (Fig. 12 sweeps
            2-4; the paper's default is k = 4 resource types).
        matcher: "blossom" (default), "greedy" ("w/o Blossom"
            ablation), or "exact".
        ordering: Stage ordering executed — "best" (default) or
            "worst" (Fig. 11 ablation).
        min_efficiency: Matching edges below this efficiency are not
            created, leaving badly paired jobs solo.
        gpu_memory_gb: Optional per-GPU memory capacity for the
            grouper's feasibility check (section 2.2).
        gpu_memory_by_type: Optional ``generation name -> memory_gb``
            per-type capacities for the grouper: affine groups are
            checked against their landing generation's capacity
            instead of the flat cap (see
            :class:`~repro.core.grouping.MultiRoundGrouper`).
        sparsify_threshold: Bucket size at which the grouper switches
            to a bounded-degree candidate graph ("Decision latency and
            scaling" in docs/simulation_model.md); None disables it.
        max_degree: Candidate edges kept per node when sparsifying.
        event_regroup: When True, completion events re-run the full
            grouping pass instead of serving the stale overflow cache
            from the last tick.  The full pass stays cheap because the
            grouper's per-bucket decision cache only re-matches the
            GPU-count buckets the event actually changed, so every
            decision is identical to a cold re-solve — the online
            service's incremental mode (verified by
            :class:`repro.verify.IncrementalOracle`).  Consecutive
            events that do not change the dequeued batch, priorities,
            running groups or capacity additionally hit a whole-plan
            memo and skip the grouping pass outright (the batched
            warm-regroup path).
        tracer: Optional :class:`~repro.observe.Tracer`.  When enabled,
            decide() calls are timed, group formations are emitted as
            events, and every grouping decision is filed per member job
            in the tracer's :class:`~repro.observe.ProvenanceStore`
            (the data behind ``repro explain``).
    """

    def __init__(
        self,
        policy: str = "srsf",
        profiler: Optional[ResourceProfiler] = None,
        max_group_size: int = NUM_RESOURCES,
        matcher: str = "blossom",
        ordering: str = "best",
        min_efficiency: float = 0.0,
        gpu_memory_gb: Optional[float] = None,
        gpu_memory_by_type: Optional[Dict[str, float]] = None,
        sparsify_threshold: Optional[int] = 128,
        max_degree: int = 8,
        event_regroup: bool = False,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.policy: PriorityPolicy = (
            get_policy(policy) if isinstance(policy, str) else policy
        )
        self.policy_name = policy if isinstance(policy, str) else "custom"
        self.profiler = profiler
        self.max_group_size = max_group_size
        self.event_regroup = event_regroup
        self.tracer = tracer
        self._plan_memo: Optional[tuple] = None
        self.grouper = MultiRoundGrouper(
            max_group_size=max_group_size,
            matcher=matcher,
            ordering=ordering,
            min_efficiency=min_efficiency,
            gpu_memory_gb=gpu_memory_gb,
            gpu_memory_by_type=gpu_memory_by_type,
            sparsify_threshold=sparsify_threshold,
            max_degree=max_degree,
            tracer=tracer,
        )
        self.duration_aware = self.policy_name in ("srsf", "srtf", "sjf")
        suffix = "S" if self.duration_aware else "L"
        self.name = f"Muri-{suffix}"
        if matcher != "blossom":
            self.name += f" ({matcher})"
        if ordering != "best":
            self.name += f" ({ordering} ordering)"
        if max_group_size != NUM_RESOURCES:
            self.name += f" [{max_group_size}-job]"

    def configure(
        self,
        tracer: Optional[Tracer] = None,
        event_regroup: Optional[bool] = None,
    ) -> "MuriScheduler":
        """Apply the uniform options, threading them into the grouper.

        Args:
            tracer: Tracer for decide() spans, group events, and
                per-job provenance; also attached to the grouper.
            event_regroup: Toggle the full-pass-on-event mode.

        Returns:
            ``self``.
        """
        if tracer is not None:
            self.tracer = tracer
            self.grouper.tracer = tracer
        if event_regroup is not None:
            self.event_regroup = event_regroup
        return self

    # -- scheduling -----------------------------------------------------------

    def decide(
        self,
        now: float,
        jobs: Sequence[Job],
        running: Dict[FrozenSet[int], JobGroup],
        total_gpus: int,
        reason: str = "tick",
    ) -> List[JobGroup]:
        with maybe_span(
            self.tracer, "sched.decide", now,
            scheduler=self.name, jobs=len(jobs), reason=reason,
        ):
            plan = self._decide_inner(now, jobs, running, total_gpus, reason)
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.inspect(
                "sched.order",
                now,
                plan=plan,
                running=list(running),
                policy=self.policy,
            )
        return plan

    def _decide_inner(
        self,
        now: float,
        jobs: Sequence[Job],
        running: Dict[FrozenSet[int], JobGroup],
        total_gpus: int,
        reason: str,
    ) -> List[JobGroup]:
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        if reason == "completion" and not self.event_regroup:
            plan = self._backfill_from_cache(jobs, running, total_gpus)
            if plan is not None:
                if tracing:
                    tracer.emit(
                        EventCategory.SCHED,
                        "sched.backfill",
                        now,
                        groups=len(plan),
                        cached_left=len(self._cached_overflow),
                    )
                return plan

        if tracing and reason != "tick":
            # Event-driven full regroup (arrival/completion): cheap
            # because unchanged GPU-count buckets hit the grouper's
            # decision cache.
            tracer.count(f"sched.regroup.{reason}")

        priority = {
            job.job_id: (self.policy(job, now), job.spec.submit_time, job.job_id)
            for job in jobs
        }
        ordered = sorted(jobs, key=lambda job: priority[job.job_id])

        batch = self._dequeue_batch(ordered, total_gpus)
        believed = [self._believed_profile(job) for job in batch]

        # Batched warm-regroup: under event_regroup, consecutive events
        # frequently leave the dequeued batch, priorities, running
        # groups and capacity untouched (e.g. a completion past the
        # batch budget).  The whole plan is then a pure function of
        # inputs already in hand, so serve the memoized plan and skip
        # the grouping pass outright.
        memo_key = None
        if self.event_regroup:
            memo_key = self._plan_signature(
                batch, believed, priority, running, total_gpus
            )
            memo = self._plan_memo
            if memo is not None and memo[0] == memo_key:
                if tracing:
                    tracer.count("sched.plan_memo.hit")
                    # Same decisions as the memoized solve; re-file them
                    # so per-event provenance stays complete.
                    self._record_provenance(now, reason)
                self._cached_overflow = list(memo[2])
                return list(memo[1])
            if tracing:
                tracer.count("sched.plan_memo.miss")

        result = self.grouper.group(
            batch,
            believed,
            capacity=total_gpus,
            preformed=[tuple(key) for key in running],
            now=now,
        )
        if tracing:
            self._record_provenance(now, reason)

        # Highest-priority member first; fill the cluster, backfilling
        # smaller groups past ones that do not fit.
        groups = sorted(
            result.groups,
            key=lambda group: min(priority[j.job_id] for j in group.jobs),
        )
        plan = []
        free = total_gpus
        overflow: List[JobGroup] = []
        for group in groups:
            if group.num_gpus <= free:
                plan.append(group)
                free -= group.num_gpus
            else:
                overflow.append(group)
        # Groups that did not fit become the between-tick backfill
        # reservoir: the prototype recomputes grouping only every
        # scheduling interval, so completions are served from this plan.
        self._cached_overflow = overflow
        if memo_key is not None:
            self._plan_memo = (memo_key, list(plan), list(overflow))
        return plan

    def _plan_signature(
        self,
        batch: Sequence[Job],
        believed: Sequence,
        priority: Dict[str, tuple],
        running: Dict[FrozenSet[int], JobGroup],
        total_gpus: int,
    ) -> tuple:
        """Hashable fingerprint of everything the plan depends on.

        The plan is a deterministic function of the dequeued batch (ids,
        believed profiles, GPU demands), the priority tuples that order
        it, the running groups seeding the grouper, and the capacity.
        Two calls with equal signatures therefore produce identical
        plans, which is what lets the memo skip the grouping pass.
        """
        return (
            total_gpus,
            tuple(tuple(sorted(key)) for key in running),
            tuple(
                (
                    job.job_id,
                    priority[job.job_id],
                    profile.durations,
                    job.num_gpus,
                )
                for job, profile in zip(batch, believed)
            ),
        )

    def _backfill_from_cache(
        self,
        jobs: Sequence[Job],
        running: Dict[FrozenSet[int], JobGroup],
        total_gpus: int,
    ) -> Optional[List[JobGroup]]:
        """Serve a completion event from the last tick's leftover groups.

        Keeps every running group in place and appends cached groups
        whose members are all still pending.  Returns None when there
        is no cache, forcing a full regroup.
        """
        cached = getattr(self, "_cached_overflow", None)
        if cached is None:
            return None
        alive = {job.job_id for job in jobs}
        running_ids = {
            job_id for key in running for job_id in key
        }
        plan = list(running.values())
        free = total_gpus - sum(group.num_gpus for group in plan)
        started = 0
        remaining_cache: List[JobGroup] = []
        for group in cached:
            members = [job.job_id for job in group.jobs]
            startable = all(
                job_id in alive and job_id not in running_ids
                for job_id in members
            )
            if not startable:
                continue
            if group.num_gpus <= free:
                plan.append(group)
                free -= group.num_gpus
                started += 1
            else:
                remaining_cache.append(group)
        self._cached_overflow = remaining_cache
        pending_exists = len(alive) > len(running_ids)
        if started == 0 and free > 0 and pending_exists:
            # The cache is dry but capacity and pending jobs remain:
            # fall through to a full regroup rather than idling until
            # the next tick.
            return None
        return plan

    def _record_provenance(self, now: float, reason: str) -> None:
        """File the grouper's last decisions in the tracer (tracing only).

        One :class:`GroupingRecord` per member job, plus a
        ``group.formed`` event for every multi-job group.
        """
        tracer = self.tracer
        decisions = self.grouper.last_decisions
        if tracer is None or decisions is None:
            return
        provenance = tracer.provenance
        for decision in decisions:
            if len(decision.members) > 1:
                tracer.emit(
                    EventCategory.GROUP,
                    "group.formed",
                    now,
                    members=list(decision.members),
                    efficiency=decision.efficiency,
                    round=decision.round_formed,
                    seeded=decision.seeded,
                )
            # Records are immutable: without per-job candidates every
            # member files the same one.
            candidates = decision.candidates
            record = None
            for job_id in decision.members:
                if record is None or candidates:
                    record = GroupingRecord(
                        sim_time=now,
                        reason=reason,
                        members=decision.members,
                        efficiency=decision.efficiency,
                        round_formed=decision.round_formed,
                        seeded=decision.seeded,
                        candidates=candidates.get(job_id, ()),
                    )
                provenance.record_grouping(job_id, record)

    def notify_resize(self, job_id: int, old_gpus: int, new_gpus: int) -> None:
        """Invalidate every cache a resized job could have poisoned.

        A resize changes a job's GPU bucket *and* its believed profile,
        so three caches go stale at once:

        * the whole-plan memo — its signature embeds the old size;
        * the overflow backfill reservoir — a cached group holding the
          job carries pre-resize believed profiles and offsets while
          its live ``num_gpus`` already reads the new size;
        * the grouper's per-bucket decision cache — both the old and
          the new GPU-count buckets changed membership.

        The per-bucket cache keys would miss naturally (they embed the
        node durations), but dropping the affected buckets explicitly
        keeps the invalidation independent of what the keys embed and
        is what the cold-vs-warm resize oracle in
        :mod:`repro.verify.elastic` certifies.
        """
        self._plan_memo = None
        cached = getattr(self, "_cached_overflow", None)
        if cached:
            self._cached_overflow = [
                group for group in cached
                if all(job.job_id != job_id for job in group.jobs)
            ]
        self.grouper.invalidate_gpu_buckets((old_gpus, new_gpus))

    def reset_caches(self) -> None:
        """Drop every decision-affecting cache (overflow reservoir and
        the grouper's weight/ordering/decision caches).

        Differential oracles call this to turn a warm scheduler into a
        cold one without rebuilding it.
        """
        self._cached_overflow: List[JobGroup] = []
        self._plan_memo = None
        self.grouper.reset_caches()

    # -- internals ---------------------------------------------------------------

    def _dequeue_batch(self, ordered: Sequence[Job], total_gpus: int) -> List[Job]:
        """Take the first n jobs that can fully group and fill the cluster.

        With ``k``-way interleaving, the cluster can host up to
        ``k * total_gpus`` GPU-demand worth of jobs, so the batch stops
        once cumulative demand reaches that budget (Algorithm 1,
        lines 3-5).
        """
        budget = self.max_group_size * total_gpus
        batch: List[Job] = []
        demand = 0
        for job in ordered:
            if demand + job.num_gpus > budget:
                break
            batch.append(job)
            demand += job.num_gpus
        return batch

    def _believed_profile(self, job: Job):
        if self.profiler is None:
            return job.profile
        return self.profiler.profile(job.spec)
