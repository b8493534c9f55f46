"""Mutation smoke tests: deliberately broken components must be caught.

The point of the harness is that an optimization bug in a hot path
cannot slip through silently.  These tests *inject* such bugs — a
grouper that proposes one job in two groups of the same plan (the
exact double-booking the Fig. 7 analysis forbids), and a placer that
drops GPU-generation affinity on the floor — and demand that (a) an
armed episode catches each with a structured violation, (b) the
violation serializes to a repro file, and (c) the repro file replays
to the same violation.
"""

import pytest

from repro.cluster.placement import DescendingPlacer
from repro.core.group import JobGroup
from repro.core.grouping import GroupingResult, MultiRoundGrouper
from repro.core.muri import MuriScheduler
from repro.schedulers.registry import SCHEDULERS, register_scheduler
from repro.verify import (
    EpisodeSpec,
    load_repro,
    run_episode,
    save_repro,
)
from repro.verify.repro_file import JobSpecData

BROKEN_NAME = "broken-muri"


class DoubleBookingGrouper(MultiRoundGrouper):
    """Proposes the first member of a multi-job group a second time."""

    def group(self, jobs, *args, **kwargs):
        result = super().group(jobs, *args, **kwargs)
        for formed in result.groups:
            if formed.size > 1:
                extra = JobGroup.solo(formed.jobs[0])
                return GroupingResult(
                    groups=result.groups + (extra,),
                    rounds=result.rounds,
                    total_gpu_demand=result.total_gpu_demand + extra.num_gpus,
                )
        return result


def broken_factory():
    scheduler = MuriScheduler(policy="srsf")
    scheduler.grouper = DoubleBookingGrouper()
    return scheduler


@pytest.fixture()
def broken_scheduler():
    existing = SCHEDULERS.get(BROKEN_NAME)
    register_scheduler(BROKEN_NAME, broken_factory, replace=True)
    yield BROKEN_NAME
    if existing is None:
        dict.__delitem__(SCHEDULERS, BROKEN_NAME)
    else:
        register_scheduler(BROKEN_NAME, existing, replace=True)


def broken_episode():
    return EpisodeSpec(
        scheduler=BROKEN_NAME,
        num_machines=1,
        gpus_per_machine=2,
        jobs=[
            JobSpecData(durations=(1.0, 2.0, 1.0, 0.5))
            for _ in range(6)
        ],
    )


class TestMutationIsCaught:
    def test_double_booking_caught_with_provenance(self, broken_scheduler):
        outcome = run_episode(broken_episode())
        assert not outcome.ok
        violation = outcome.violation
        assert violation.invariant == "exclusive_membership"
        # The violation explains itself: which job, which two groups,
        # and the grouping provenance collected before the failure.
        assert "two groups" in violation.message
        assert violation.details["job"] == violation.details["second_group"][0]
        assert violation.provenance

    def test_repro_file_roundtrip_reproduces(self, broken_scheduler, tmp_path):
        outcome = run_episode(broken_episode())
        path = tmp_path / "double-booking.json"
        save_repro(path, broken_episode(), outcome.violation)

        episode, recorded = load_repro(path)
        assert recorded["invariant"] == "exclusive_membership"
        replay = run_episode(episode)
        assert not replay.ok
        assert replay.violation.invariant == "exclusive_membership"

    def test_healthy_scheduler_passes_same_episode(self):
        episode = broken_episode()
        episode.scheduler = "muri-s"
        outcome = run_episode(episode)
        assert outcome.ok
        assert outcome.result is not None


@pytest.fixture()
def affinity_blind_placer(monkeypatch):
    """Mutate placement to ignore GPU-generation affinity entirely."""
    original = DescendingPlacer.plan_for

    def blind(self, cluster, num_gpus, gpu_type=None, prefer=False):
        return original(self, cluster, num_gpus)

    monkeypatch.setattr(DescendingPlacer, "plan_for", blind)


def hetero_episode():
    """Two pinned 4-GPU jobs on a [v100, a100] cluster.

    Each machine hosts exactly one job, so an affinity-blind placer
    necessarily strands at least one pin on the wrong generation —
    the violation fires regardless of placement tie-breaking.
    """
    return EpisodeSpec(
        scheduler="fifo",
        num_machines=2,
        gpus_per_machine=4,
        gpu_types=["v100", "a100"],
        jobs=[
            JobSpecData(
                durations=(1.0, 2.0, 1.0, 0.5), num_gpus=4,
                gpu_affinity="a100", affinity_mode="pin",
            ),
            JobSpecData(
                durations=(0.5, 1.0, 2.0, 1.0), num_gpus=4,
                gpu_affinity="v100", affinity_mode="pin",
            ),
        ],
    )


class TestAffinityMutationIsCaught:
    def test_blind_placer_trips_the_invariant(self, affinity_blind_placer):
        outcome = run_episode(hetero_episode())
        assert not outcome.ok
        violation = outcome.violation
        assert violation.invariant == "placement_respects_affinity"
        assert "pinned to" in violation.message
        assert violation.details["pinned"] in ("v100", "a100")

    def test_repro_file_roundtrip_reproduces(
        self, affinity_blind_placer, tmp_path
    ):
        outcome = run_episode(hetero_episode())
        path = tmp_path / "affinity-blind.json"
        save_repro(path, hetero_episode(), outcome.violation)

        episode, recorded = load_repro(path)
        assert recorded["invariant"] == "placement_respects_affinity"
        replay = run_episode(episode)
        assert not replay.ok
        assert replay.violation.invariant == "placement_respects_affinity"

    def test_healthy_placer_passes_same_episode(self):
        outcome = run_episode(hetero_episode())
        assert outcome.ok
        assert outcome.result is not None
