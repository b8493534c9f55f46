"""Decision provenance: why each job was grouped the way it was.

The grouping pipeline produces a :class:`GroupDecision` per final group
when tracing is on — the members, the believed efficiency, the
Algorithm 1 round that formed the group, and the candidate merges that
were evaluated along the way.  The scheduler stamps those with the
simulation time and files one :class:`GroupingRecord` per member job in
the :class:`ProvenanceStore`; the simulator adds placement outcomes
(started, preempted, unplaced) and lifecycle outcomes (finished,
faulted).  ``repro explain <job-id>`` renders the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "CandidateConsidered",
    "GroupDecision",
    "GroupingRecord",
    "OutcomeRecord",
    "JobProvenance",
    "ProvenanceStore",
]


@dataclass(frozen=True)
class CandidateConsidered:
    """One merge candidate evaluated for a job during matching.

    Attributes:
        partners: Job ids of the other node in the candidate merge.
        efficiency: Believed interleaving efficiency of the merge.
        matched: True when the matching selected this candidate.
    """

    partners: Tuple[int, ...]
    efficiency: float
    matched: bool = False


@dataclass(frozen=True)
class GroupDecision:
    """One final group as the grouper decided it (no time stamp yet).

    Attributes:
        members: Job ids of the group, priority order.
        efficiency: Believed interleaving efficiency of the group
            (1.0 for solo groups).
        round_formed: Matching round (1-based) whose merge completed
            the group; 0 for groups that never merged (solo or seeded).
        seeded: True when the group entered the graph pre-merged
            because it was already running.
        candidates: Candidate merges evaluated per member job id.
    """

    members: Tuple[int, ...]
    efficiency: float
    round_formed: int
    seeded: bool
    candidates: Dict[int, Tuple[CandidateConsidered, ...]] = field(
        default_factory=dict
    )


@dataclass(frozen=True)
class GroupingRecord:
    """One grouping decision as it affected one job.

    Attributes:
        sim_time: Simulation time of the scheduler invocation.
        reason: Why the scheduler ran ("tick" or "completion").
        members: Job ids of the group this job landed in.
        efficiency: Believed interleaving efficiency of that group.
        round_formed: Algorithm 1 round that produced the group
            (0 = never merged: solo or carried over as a seed).
        seeded: True when the group was carried over from the previous
            interval rather than re-formed.
        candidates: Candidate merges evaluated for this job, best
            first (capped; may be empty for solo/seeded groups).
    """

    sim_time: float
    reason: str
    members: Tuple[int, ...]
    efficiency: float
    round_formed: int
    seeded: bool
    candidates: Tuple[CandidateConsidered, ...] = ()

    def partners_of(self, job_id: int) -> Tuple[int, ...]:
        """Group members other than ``job_id``."""
        return tuple(m for m in self.members if m != job_id)


@dataclass(frozen=True)
class OutcomeRecord:
    """What actually happened to a job at a point in simulated time.

    Attributes:
        sim_time: When it happened.
        outcome: One of "started", "preempted", "unplaced",
            "finished", "faulted".
        detail: Optional free-form context (e.g. the group members).
    """

    sim_time: float
    outcome: str
    detail: str = ""


@dataclass
class JobProvenance:
    """Everything recorded about one job.

    Attributes:
        job_id: The job.
        groupings: Grouping decisions affecting the job, in time order
            (possibly capped: the first record is always kept, older
            middle records are dropped before newer ones).
        outcomes: Placement/lifecycle outcomes, in time order.
    """

    job_id: int
    groupings: List[GroupingRecord] = field(default_factory=list)
    outcomes: List[OutcomeRecord] = field(default_factory=list)

    def latest_grouping(self) -> Optional[GroupingRecord]:
        """The most recent grouping decision, or None."""
        return self.groupings[-1] if self.groupings else None

    def last_group_with_partners(self) -> Optional[GroupingRecord]:
        """The most recent decision that put the job in a shared group."""
        for record in reversed(self.groupings):
            if len(record.members) > 1:
                return record
        return None


class ProvenanceStore:
    """Per-job provenance records collected during a simulation.

    Args:
        max_groupings_per_job: Cap on stored grouping records per job.
            The first record is always kept; beyond the cap the oldest
            *middle* record is evicted, preserving both how the job
            entered the system and its most recent history.
    """

    def __init__(self, max_groupings_per_job: int = 32) -> None:
        if max_groupings_per_job < 2:
            raise ValueError("max_groupings_per_job must be >= 2")
        self.max_groupings_per_job = max_groupings_per_job
        self._jobs: Dict[int, JobProvenance] = {}

    # -- ingestion ---------------------------------------------------------

    def record_grouping(self, job_id: int, record: GroupingRecord) -> None:
        """File one grouping record under ``job_id`` (capped)."""
        groupings = self._job(job_id).groupings
        groupings.append(record)
        if len(groupings) > self.max_groupings_per_job:
            del groupings[1]

    def record_outcome(self, job_id: int, record: OutcomeRecord) -> None:
        """File one outcome record under ``job_id``."""
        self._job(job_id).outcomes.append(record)

    def _job(self, job_id: int) -> JobProvenance:
        """The job's record, created on first use (``setdefault`` would
        build a throwaway ``JobProvenance`` on every call)."""
        provenance = self._jobs.get(job_id)
        if provenance is None:
            provenance = self._jobs[job_id] = JobProvenance(job_id)
        return provenance

    # -- queries ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._jobs)

    def __contains__(self, job_id: int) -> bool:
        return job_id in self._jobs

    def job_ids(self) -> List[int]:
        """Every job id with at least one record, sorted."""
        return sorted(self._jobs)

    def explain(self, job_id: int) -> JobProvenance:
        """The full provenance of one job.

        Raises:
            KeyError: When nothing was recorded for ``job_id``.
        """
        if job_id not in self._jobs:
            raise KeyError(
                f"no provenance recorded for job {job_id}; known jobs: "
                f"{self.job_ids()[:10]}"
            )
        return self._jobs[job_id]

    def get(self, job_id: int) -> Optional[JobProvenance]:
        """Like :meth:`explain` but returns None when unknown."""
        return self._jobs.get(job_id)
