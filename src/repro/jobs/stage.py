"""Per-iteration stage profiles.

A :class:`StageProfile` records how long one training iteration of a
job spends on each resource type.  It is the unit of information that
flows from the profiler into the interleaving-efficiency model
(Eq. 1-4 of the paper) and the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Mapping, Tuple

from repro.jobs.resources import NUM_RESOURCES, Resource

__all__ = ["Stage", "StageProfile"]


@dataclass(frozen=True)
class Stage:
    """One stage of a training iteration.

    Attributes:
        resource: The resource type this stage saturates.
        duration: Time in seconds the stage takes when running alone.
    """

    resource: Resource
    duration: float

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"stage duration must be >= 0, got {self.duration}")


@dataclass(frozen=True)
class StageProfile:
    """Durations of one iteration's stages, indexed by resource.

    The profile is stored densely: every resource has a duration,
    defaulting to zero for resources a job does not use.  Profiles are
    normally four entries long (the paper's storage/CPU/GPU/network),
    but any positive length is accepted so two-resource examples like
    the paper's Fig. 4 can be modelled directly.

    Attributes:
        durations: Seconds per resource, in resource-index order.
    """

    durations: Tuple[float, ...] = field(default=(0.0,) * NUM_RESOURCES)

    def __post_init__(self) -> None:
        if not self.durations:
            raise ValueError("a stage profile needs at least one resource")
        for d in self.durations:
            if d < 0:
                raise ValueError(f"stage durations must be >= 0, got {d}")
        if all(d == 0 for d in self.durations):
            raise ValueError("a stage profile must use at least one resource")
        # Profiles are immutable, so the totals the efficiency model
        # reads on every edge-weight evaluation are computed once here
        # instead of being re-summed per call.
        object.__setattr__(self, "_iteration_time", sum(self.durations))

    @property
    def num_resources(self) -> int:
        """Number of resource slots in this profile."""
        return len(self.durations)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_mapping(cls, durations: Mapping[Resource, float]) -> "StageProfile":
        """Build a profile from a sparse ``{resource: seconds}`` mapping."""
        dense = [0.0] * NUM_RESOURCES
        for resource, duration in durations.items():
            dense[Resource(resource)] = float(duration)
        return cls(tuple(dense))

    @classmethod
    def from_stages(cls, stages: Iterable[Stage]) -> "StageProfile":
        """Build a profile by summing stage durations per resource."""
        dense = [0.0] * NUM_RESOURCES
        for stage in stages:
            dense[stage.resource] += stage.duration
        return cls(tuple(dense))

    @classmethod
    def from_fractions(
        cls, iteration_time: float, fractions: Mapping[Resource, float]
    ) -> "StageProfile":
        """Build a profile from an iteration time and stage fractions.

        Fractions are normalized to sum to one before being applied, so
        profiles quoted like the paper's Table 1 (whose raw percentages
        may not sum to 100% because of intra-job overlap and idle gaps)
        become consistent sequential-stage durations.
        """
        if iteration_time <= 0:
            raise ValueError("iteration_time must be > 0")
        total = sum(fractions.values())
        if total <= 0:
            raise ValueError("fractions must have a positive sum")
        return cls.from_mapping(
            {
                resource: iteration_time * fraction / total
                for resource, fraction in fractions.items()
            }
        )

    # -- accessors ----------------------------------------------------------

    def duration(self, resource: Resource) -> float:
        """Seconds of one iteration spent on ``resource``."""
        return self.durations[resource]

    def __getitem__(self, resource: Resource) -> float:
        return self.durations[Resource(resource)]

    def __iter__(self) -> Iterator[Stage]:
        """Iterate non-empty stages in canonical data-path order."""
        for index, duration in enumerate(self.durations):
            if duration > 0:
                yield Stage(Resource(index), duration)

    @property
    def iteration_time(self) -> float:
        """Solo iteration time: the sum of all stage durations.

        Running alone, the stages of one iteration execute back to
        back, so the iteration period equals the stage sum (Eq. 3 of
        the paper with a single job).  Cached at construction.
        """
        return self._iteration_time  # type: ignore[attr-defined]

    @property
    def bottleneck(self) -> Resource:
        """The resource with the largest stage duration."""
        index = max(range(len(self.durations)), key=lambda i: self.durations[i])
        return Resource(index)

    def fraction(self, resource: Resource) -> float:
        """Fraction of the solo iteration time spent on ``resource``."""
        return self.durations[resource] / self.iteration_time

    def fractions(self) -> Dict[Resource, float]:
        """Per-resource fractions of solo iteration time."""
        return {
            Resource(i): self.fraction(Resource(i))
            for i in range(len(self.durations))
        }

    # -- transforms ----------------------------------------------------------

    def scaled(self, factor: float) -> "StageProfile":
        """Return a copy with all stage durations multiplied by ``factor``."""
        if factor <= 0:
            raise ValueError("scale factor must be > 0")
        return StageProfile(tuple(d * factor for d in self.durations))

    def with_duration(self, resource: Resource, duration: float) -> "StageProfile":
        """Return a copy with one stage duration replaced."""
        dense = list(self.durations)
        dense[Resource(resource)] = float(duration)
        return StageProfile(tuple(dense))

    def rounded(self, ndigits: int = 6) -> "StageProfile":
        """Return a copy with durations rounded (useful in reports)."""
        return StageProfile(tuple(round(d, ndigits) for d in self.durations))
