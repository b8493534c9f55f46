"""The invariant checker: catalog, predicates, and tracer plumbing."""

import pytest

from repro.cluster.cluster import Cluster
from repro.core.group import JobGroup
from repro.core.ordering import best_ordering
from repro.core.priorities import fifo_priority
from repro.hetero.types import get_gpu_type
from repro.jobs.job import Job, JobSpec
from repro.jobs.stage import StageProfile
from repro.observe.events import EventCategory
from repro.observe.tracer import NULL_SPAN
from repro.schedulers.registry import make_scheduler
from repro.sim.simulator import ClusterSimulator
from repro.verify import (
    INVARIANT_CATALOG,
    InvariantChecker,
    InvariantViolation,
    check_group_wellformed,
)


def make_job(durations=(1.0, 2.0, 1.0, 0.5), num_gpus=1, submit=0.0,
             job_id=None, iterations=10):
    return Job(JobSpec(
        profile=StageProfile(tuple(durations)),
        num_gpus=num_gpus,
        submit_time=submit,
        num_iterations=iterations,
        job_id=job_id,
    ))


def make_pair_group(num_gpus=1):
    jobs = (make_job(num_gpus=num_gpus), make_job((0.5, 1.0, 2.0, 1.0),
                                                  num_gpus=num_gpus))
    profiles = tuple(job.profile for job in jobs)
    offsets, _period = best_ordering(profiles, 4)
    return JobGroup(jobs, profiles, offsets)


class _StubGroup:
    """A group-shaped object that bypasses JobGroup's own validation."""

    def __init__(self, jobs, offsets, believed_efficiency=None,
                 num_resources=4):
        self.jobs = tuple(jobs)
        self.believed_profiles = tuple(job.profile for job in jobs)
        self.offsets = tuple(offsets)
        self.num_resources = num_resources
        self._gamma = believed_efficiency

    @property
    def believed_efficiency(self):
        if self._gamma is not None:
            return self._gamma
        return JobGroup(
            self.jobs, self.believed_profiles, self.offsets
        ).believed_efficiency


class TestCatalog:
    def test_every_invariant_documented(self):
        for name, blurb in INVARIANT_CATALOG.items():
            assert isinstance(name, str) and name
            assert isinstance(blurb, str) and len(blurb) > 20

    def test_unknown_invariant_rejected(self):
        with pytest.raises(ValueError, match="unknown invariants"):
            InvariantChecker(invariants=["gpu_capacity", "nope"])

    def test_subset_arms_only_named_checks(self):
        checker = InvariantChecker(invariants=["clock_monotone"])
        assert checker.invariants == {"clock_monotone"}


class TestCheckGroupWellformed:
    def test_solo_group_passes(self):
        check_group_wellformed(JobGroup.solo(make_job()))

    def test_pair_group_passes(self):
        check_group_wellformed(make_pair_group())

    def test_mixed_gpu_counts_fail(self):
        group = _StubGroup(
            (make_job(num_gpus=1, job_id=0), make_job(num_gpus=2, job_id=1)),
            offsets=(0, 1),
            believed_efficiency=0.5,
        )
        with pytest.raises(InvariantViolation) as exc:
            check_group_wellformed(group)
        assert exc.value.invariant == "bucket_homogeneous"

    def test_colliding_offsets_fail(self):
        group = _StubGroup(
            (make_job(job_id=0), make_job(job_id=1)),
            offsets=(0, 4),  # 4 % 4 == 0: same phase
            believed_efficiency=0.5,
        )
        with pytest.raises(InvariantViolation) as exc:
            check_group_wellformed(group)
        assert exc.value.invariant == "offsets_distinct"

    def test_wrong_believed_gamma_fails(self):
        good = make_pair_group()
        lying = _StubGroup(good.jobs, good.offsets, believed_efficiency=0.123)
        with pytest.raises(InvariantViolation) as exc:
            check_group_wellformed(lying)
        assert exc.value.invariant == "gamma_bounds"
        assert exc.value.details["believed"] == pytest.approx(0.123)

    def test_malformed_offsets_reported_as_gamma_failure(self):
        # With offsets_distinct un-armed, the Eq. 3 reference rejects
        # the offsets; that must surface as a violation, not a crash.
        group = _StubGroup(
            (make_job(job_id=0), make_job(job_id=1)),
            offsets=(0, 0),
            believed_efficiency=0.5,
        )
        with pytest.raises(InvariantViolation) as exc:
            check_group_wellformed(group, invariants={"gamma_bounds"})
        assert exc.value.invariant == "gamma_bounds"

    def test_unarmed_invariants_are_skipped(self):
        group = _StubGroup(
            (make_job(num_gpus=1, job_id=0), make_job(num_gpus=2, job_id=1)),
            offsets=(0, 1),
            believed_efficiency=0.5,
        )
        check_group_wellformed(group, invariants={"clock_monotone"})


class TestEventDrivenChecks:
    def emit(self, checker, name, t, **args):
        checker.emit(EventCategory.JOB, name, t, **args)

    def test_clock_monotone_violation(self):
        checker = InvariantChecker(invariants=["clock_monotone"])
        self.emit(checker, "job.arrive", 10.0, job=1)
        with pytest.raises(InvariantViolation) as exc:
            self.emit(checker, "job.arrive", 5.0, job=2)
        assert exc.value.invariant == "clock_monotone"
        assert exc.value.details["previous"] == 10.0

    def test_run_start_resets_clock(self):
        checker = InvariantChecker(invariants=["clock_monotone"])
        self.emit(checker, "job.arrive", 100.0, job=1)
        self.emit(checker, "sim.run.start", 0.0, gpus=8)
        self.emit(checker, "job.arrive", 1.0, job=2)

    def test_exclusive_membership_violation(self):
        checker = InvariantChecker(invariants=["exclusive_membership"])
        self.emit(checker, "group.start", 0.0, members=[1, 2], gpus=1)
        with pytest.raises(InvariantViolation) as exc:
            self.emit(checker, "group.start", 0.0, members=[2, 3], gpus=1)
        assert exc.value.invariant == "exclusive_membership"
        assert exc.value.details["job"] == 2

    def test_preempt_releases_membership(self):
        checker = InvariantChecker(invariants=["exclusive_membership"])
        self.emit(checker, "group.start", 0.0, members=[1, 2], gpus=1)
        self.emit(checker, "group.preempt", 5.0, members=[1, 2])
        self.emit(checker, "group.start", 5.0, members=[2, 3], gpus=1)

    def test_gpu_capacity_violation(self):
        checker = InvariantChecker(invariants=["gpu_capacity"])
        self.emit(checker, "sim.run.start", 0.0, gpus=8)
        self.emit(checker, "group.start", 0.0, members=[1], gpus=6)
        with pytest.raises(InvariantViolation) as exc:
            self.emit(checker, "group.start", 0.0, members=[2], gpus=4)
        assert exc.value.invariant == "gpu_capacity"
        assert exc.value.details["allocated"] == 10

    def test_finish_frees_capacity(self):
        checker = InvariantChecker(invariants=["gpu_capacity"])
        self.emit(checker, "sim.run.start", 0.0, gpus=8)
        self.emit(checker, "group.start", 0.0, members=[1], gpus=6)
        self.emit(checker, "job.finish", 4.0, job=1)
        self.emit(checker, "group.start", 4.0, members=[2], gpus=8)

    def test_progress_conserved_accepts_legit_fault(self):
        checker = InvariantChecker(invariants=["progress_conserved"])
        # 40 of 100 iterations executed, half lost: 60 -> 80 remaining.
        self.emit(
            checker, "job.fault", 10.0, job=1,
            remaining_before=60.0, remaining_after=80.0,
            total_iterations=100, progress_loss=0.5,
        )

    def test_progress_conserved_rejects_minted_progress(self):
        checker = InvariantChecker(invariants=["progress_conserved"])
        with pytest.raises(InvariantViolation) as exc:
            self.emit(
                checker, "job.fault", 10.0, job=1,
                remaining_before=60.0, remaining_after=40.0,
                total_iterations=100, progress_loss=0.5,
            )
        assert exc.value.invariant == "progress_conserved"

    def test_progress_conserved_rejects_overshoot(self):
        checker = InvariantChecker(invariants=["progress_conserved"])
        with pytest.raises(InvariantViolation):
            self.emit(
                checker, "job.fault", 10.0, job=1,
                remaining_before=60.0, remaining_after=95.0,
                total_iterations=100, progress_loss=0.5,
            )

    def test_non_strict_mode_accumulates(self):
        checker = InvariantChecker(
            invariants=["clock_monotone"], strict=False
        )
        self.emit(checker, "a", 10.0)
        self.emit(checker, "b", 5.0)
        self.emit(checker, "c", 2.0)
        assert len(checker.violations) == 2
        assert all(
            v.invariant == "clock_monotone" for v in checker.violations
        )


class TestAffinityChecks:
    """``sched.hetero.place`` → ``placement_respects_affinity``."""

    def emit(self, checker, t=0.0, **args):
        checker.emit(EventCategory.SCHED, "sched.hetero.place", t, **args)

    def checker(self):
        return InvariantChecker(invariants=["placement_respects_affinity"])

    def test_mixed_pins_violation(self):
        checker = self.checker()
        with pytest.raises(InvariantViolation) as exc:
            self.emit(
                checker, members=[1, 2],
                affinities=[("v100", "pin"), ("a100", "pin")],
                machine_types=["v100"],
            )
        assert exc.value.invariant == "placement_respects_affinity"
        assert "mixes pinned GPU generations" in exc.value.message

    def test_pinned_group_on_wrong_machines(self):
        checker = self.checker()
        with pytest.raises(InvariantViolation) as exc:
            self.emit(
                checker, members=[3],
                affinities=[("a100", "pin")],
                machine_types=["v100", "a100"],
            )
        assert exc.value.details["pinned"] == "a100"

    def test_pinned_group_on_matching_machines_passes(self):
        checker = self.checker()
        self.emit(
            checker, members=[1, 2],
            affinities=[("a100", "pin"), (None, "pin")],
            machine_types=["a100", "a100"],
        )
        assert not checker.violations

    def test_prefer_only_groups_may_mix(self):
        # Soft preferences are hints, not promises: a prefer-only
        # group may land anywhere and may mix generations freely.
        checker = self.checker()
        self.emit(
            checker, members=[1, 2],
            affinities=[("v100", "prefer"), ("a100", "prefer")],
            machine_types=["k80", "a100"],
        )
        assert not checker.violations

    def test_pin_with_prefer_companions_checks_only_the_pin(self):
        checker = self.checker()
        self.emit(
            checker, members=[1, 2],
            affinities=[("v100", "pin"), ("a100", "prefer")],
            machine_types=["v100"],
        )
        assert not checker.violations

    def test_unarmed_check_skipped(self):
        checker = InvariantChecker(invariants=["clock_monotone"])
        self.emit(
            checker, members=[1, 2],
            affinities=[("v100", "pin"), ("a100", "pin")],
            machine_types=["k80"],
        )
        assert not checker.violations


class TestInspectChecks:
    def test_plan_capacity_violation(self):
        checker = InvariantChecker(invariants=["plan_capacity"])
        plan = [
            JobGroup.solo(make_job(num_gpus=4, job_id=0)),
            JobGroup.solo(make_job(num_gpus=4, job_id=1)),
        ]
        with pytest.raises(InvariantViolation) as exc:
            checker.inspect("sim.plan", 0.0, groups=plan, total_gpus=4)
        assert exc.value.invariant == "plan_capacity"
        assert exc.value.details["demand"] == 8

    def test_plan_reproposing_the_same_objects_skips_the_recheck(
        self, monkeypatch
    ):
        import repro.verify.invariants as invariants_module

        calls = []
        original = invariants_module.check_group_wellformed

        def counting(group, **kwargs):
            calls.append(group)
            return original(group, **kwargs)

        monkeypatch.setattr(
            invariants_module, "check_group_wellformed", counting
        )
        checker = InvariantChecker(invariants=["offsets_distinct"])
        jobs = (make_job(job_id=0), make_job(job_id=1))
        profiles = tuple(job.profile for job in jobs)
        good = JobGroup(jobs, profiles, (0, 1))
        checker.inspect("sim.plan", 0.0, groups=[good], total_gpus=4)
        checker.inspect("sim.plan", 1.0, groups=[good], total_gpus=4)
        assert calls == [good]
        # A new object with the same members is checked on its content.
        bad = JobGroup(jobs, profiles, (0, 0))
        with pytest.raises(InvariantViolation) as exc:
            checker.inspect("sim.plan", 2.0, groups=[good, bad], total_gpus=4)
        assert exc.value.invariant == "offsets_distinct"
        assert calls == [good, bad]

    def test_plan_membership_violation(self):
        checker = InvariantChecker(invariants=["exclusive_membership"])
        job = make_job(job_id=7)
        plan = [JobGroup.solo(job), JobGroup.solo(job)]
        with pytest.raises(InvariantViolation) as exc:
            checker.inspect("sched.order", 0.0, plan=plan, running=[],
                            policy=None)
        assert exc.value.invariant == "exclusive_membership"

    def test_queue_order_violation(self):
        checker = InvariantChecker(invariants=["queue_order"])
        late = make_job(submit=100.0, job_id=0)
        early = make_job(submit=0.0, job_id=1)
        plan = [JobGroup.solo(late), JobGroup.solo(early)]
        with pytest.raises(InvariantViolation) as exc:
            checker.inspect("sched.order", 0.0, plan=plan, running=[],
                            policy=fifo_priority)
        assert exc.value.invariant == "queue_order"

    def test_queue_order_skips_kept_groups(self):
        checker = InvariantChecker(invariants=["queue_order"])
        late = make_job(submit=100.0, job_id=0)
        early = make_job(submit=0.0, job_id=1)
        plan = [JobGroup.solo(late), JobGroup.solo(early)]
        # The late group is already running (kept), so it may sit first.
        checker.inspect("sched.order", 0.0, plan=plan,
                        running=[frozenset({0})], policy=fifo_priority)

    def test_cluster_accounting_check(self):
        checker = InvariantChecker(invariants=["gpu_capacity"])
        cluster = Cluster(2, 4)
        checker.inspect("sim.cluster", 0.0, cluster=cluster)
        # Allocating behind the cluster's back leaves its free-slot
        # index stale.
        cluster.machines[0].allocate(2, owner=0)
        with pytest.raises(InvariantViolation) as exc:
            checker.inspect("sim.cluster", 0.0, cluster=cluster)
        assert exc.value.invariant == "gpu_capacity"
        assert exc.value.details["pool"] is None
        assert exc.value.details["indexed_free"] == 8
        assert exc.value.details["scanned_free"] == 6

    @pytest.mark.parametrize("machine_types", [None, ["k80", "a100", "k80"]])
    def test_cluster_accounting_through_allocate(self, machine_types):
        types = machine_types and [get_gpu_type(name) for name in machine_types]
        checker = InvariantChecker(invariants=["gpu_capacity"])
        cluster = Cluster(3, 4, machine_types=types)
        checker.inspect("sim.cluster", 0.0, cluster=cluster)
        cluster.allocate(0, {0: 2, 2: 4})
        checker.inspect("sim.cluster", 0.0, cluster=cluster)
        cluster.release(0)
        checker.inspect("sim.cluster", 0.0, cluster=cluster)

    def test_unknown_inspect_point_ignored(self):
        InvariantChecker().inspect("sim.someday", 1.0, whatever=object())


class TestTracerSurface:
    def test_events_dropped_by_default(self):
        checker = InvariantChecker()
        checker.emit(EventCategory.JOB, "job.arrive", 1.0, job=1)
        checker.count("edges", 5)
        assert len(checker) == 0
        assert checker.counters == {}
        assert checker.span("x", 1.0) is NULL_SPAN
        assert checker.candidate_provenance is False

    def test_store_events_keeps_full_log(self):
        checker = InvariantChecker(store_events=True)
        checker.emit(EventCategory.JOB, "job.arrive", 1.0, job=1)
        checker.count("edges", 5)
        with checker.span("x", 1.0):
            pass
        assert len(checker) == 2
        assert checker.counters == {"edges": 5}
        assert checker.candidate_provenance is True

    def test_violation_serializes(self):
        violation = InvariantViolation(
            "gpu_capacity", "too many", 3.0, {"allocated": 9},
            provenance={1: [{"kind": "outcome", "outcome": "started"}]},
        )
        data = violation.to_dict()
        assert data["invariant"] == "gpu_capacity"
        assert data["details"] == {"allocated": 9}
        assert data["provenance"]["1"][0]["outcome"] == "started"
        assert "gpu_capacity" in str(violation)


class TestEndToEnd:
    def build_specs(self, n=30):
        from repro.trace.philly import generate_trace
        from repro.trace.workload import build_jobs

        trace = generate_trace("1", num_jobs=n, seed=7, at_time_zero=True)
        return [s for s in build_jobs(trace, seed=7) if s.num_gpus <= 8]

    def test_clean_run_has_no_violations(self):
        checker = InvariantChecker()
        simulator = ClusterSimulator(
            make_scheduler("muri-s", tracer=checker),
            cluster=Cluster(2, 4),
            tracer=checker,
        )
        result = simulator.run(self.build_specs(), "verify-clean")
        assert result.num_jobs > 0
        assert checker.violations == []

    def test_checking_is_off_by_default(self):
        # No tracer anywhere: the stack must neither build a checker
        # nor pay for one.
        simulator = ClusterSimulator(
            make_scheduler("muri-s"), cluster=Cluster(2, 4)
        )
        assert simulator.tracer is None
        assert simulator.scheduler.tracer is None
        result = simulator.run(self.build_specs(), "verify-off")
        assert result.num_jobs > 0
