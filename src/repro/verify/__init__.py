"""Runtime verification: the paper's model as executable checks.

Three layers (see ``docs/verification.md``):

* :mod:`repro.verify.invariants` — an :class:`InvariantChecker` that
  attaches to the simulator/scheduler stack through the ordinary
  ``tracer=`` parameter and raises structured
  :class:`InvariantViolation` s (with decision provenance) the moment
  a run breaks the model;
* :mod:`repro.verify.reference` + :mod:`repro.verify.differential` —
  naive scalar re-implementations of Eq. 3/4 and exact matchers used
  as differential oracles against the optimized hot paths;
  :mod:`repro.verify.fleet` extends the pattern to the sharded fleet
  (:func:`compare_fleet_serial`: shard results vs serial VC replays);
* :mod:`repro.verify.fuzz` + :mod:`repro.verify.repro_file` — seeded
  episode fuzzing (``repro fuzz``) whose failures shrink into
  replayable JSON repro files.
"""

from repro.verify.differential import (
    IncrementalOracle,
    compare_cold_cached,
    compare_dense_sparse,
    compare_groups_exact,
    compare_pairs_exact,
    plan_signature,
)
from repro.verify.elastic import compare_flat_identity, run_elastic_oracle
from repro.verify.fleet import compare_fleet_serial
from repro.verify.hetero import (
    compare_homogeneous_identity,
    compare_uniform_scaling_identity,
)
from repro.verify.fuzz import (
    FuzzConfig,
    FuzzReport,
    random_episode,
    run_fuzz,
    shrink_episode,
)
from repro.verify.invariants import (
    INVARIANT_CATALOG,
    InvariantChecker,
    InvariantViolation,
    check_group_wellformed,
)
from repro.verify.reference import (
    reference_best_period,
    reference_efficiency,
    reference_period,
    reference_slot_durations,
)
from repro.verify.repro_file import (
    EpisodeOutcome,
    EpisodeSpec,
    JobSpecData,
    load_repro,
    run_episode,
    save_repro,
)

__all__ = [
    "INVARIANT_CATALOG",
    "InvariantChecker",
    "InvariantViolation",
    "check_group_wellformed",
    "reference_slot_durations",
    "reference_period",
    "reference_efficiency",
    "reference_best_period",
    "compare_dense_sparse",
    "compare_cold_cached",
    "compare_fleet_serial",
    "compare_pairs_exact",
    "compare_groups_exact",
    "compare_flat_identity",
    "compare_homogeneous_identity",
    "compare_uniform_scaling_identity",
    "run_elastic_oracle",
    "IncrementalOracle",
    "plan_signature",
    "EpisodeSpec",
    "EpisodeOutcome",
    "JobSpecData",
    "run_episode",
    "save_repro",
    "load_repro",
    "FuzzConfig",
    "FuzzReport",
    "random_episode",
    "shrink_episode",
    "run_fuzz",
]
