"""Differential oracles: optimized grouping/matching vs the slow twins."""

import random
from dataclasses import replace

import pytest

from repro.cluster.cluster import Cluster
from repro.jobs.job import JobSpec
from repro.jobs.stage import StageProfile
from repro.matching.exact import brute_force_matching
from repro.schedulers.registry import make_scheduler
from repro.verify.differential import (
    SCHEDULE_FIELDS,
    compare_cold_cached,
    compare_dense_sparse,
    compare_groups_exact,
    compare_pairs_exact,
    diff_results,
    group_sets,
    jobs_from_rows,
    require_identical,
    simulate,
)
from repro.verify.invariants import InvariantViolation


def random_rows(rng, n):
    rows = []
    for _ in range(n):
        row = [
            round(rng.uniform(0.1, 8.0), 3) if rng.random() > 0.2 else 0.0
            for _ in range(4)
        ]
        if not any(row):
            row[rng.randrange(4)] = 1.0
        rows.append(tuple(row))
    return rows


class TestPairsExact:
    def test_blossom_agrees_with_brute_force(self):
        rng = random.Random(1)
        for _ in range(20):
            n = rng.randint(2, 8)
            edges = [
                (u, v, round(rng.uniform(0.0, 1.0), 6))
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.7
            ]
            if not edges:
                continue
            weight = compare_pairs_exact(edges)
            assert weight == pytest.approx(brute_force_matching(edges)[1])

    def test_detects_a_bad_matcher(self, monkeypatch):
        # Force the "blossom" side to return an empty matching on a
        # graph whose optimum is positive: the oracle must object.
        import repro.verify.differential as differential

        monkeypatch.setattr(
            differential, "matching_pairs", lambda edges: []
        )
        with pytest.raises(InvariantViolation) as exc:
            compare_pairs_exact([(0, 1, 1.0)])
        assert exc.value.invariant == "differential.matching"


class TestDenseSparse:
    def test_small_inputs_identical(self):
        rng = random.Random(2)
        jobs = jobs_from_rows(random_rows(rng, 24))
        dense, sparse = compare_dense_sparse(jobs)
        assert group_sets(dense) == group_sets(sparse)

    @pytest.mark.parametrize("num_jobs", [127, 128, 129])
    def test_sparsify_threshold_boundary(self, num_jobs):
        # 127 stays on the dense path (must be bit-identical); 128 and
        # 129 cross onto the sparse candidate graph, where coverage
        # must match and efficiency may regress only boundedly.
        rng = random.Random(5)
        jobs = jobs_from_rows(random_rows(rng, num_jobs))
        dense, sparse = compare_dense_sparse(jobs, sparsify_threshold=128)
        if num_jobs < 128:
            assert group_sets(dense) == group_sets(sparse)

    def test_capacity_respected_on_both_sides(self):
        rng = random.Random(3)
        jobs = jobs_from_rows(random_rows(rng, 20))
        dense, sparse = compare_dense_sparse(jobs, capacity=8)
        assert dense.total_gpu_demand <= 8
        assert sparse.total_gpu_demand <= 8


class TestColdCached:
    def test_cache_never_changes_decisions(self):
        rng = random.Random(4)
        jobs = jobs_from_rows(random_rows(rng, 30))
        cold, cached = compare_cold_cached(jobs)
        assert group_sets(cold) == group_sets(cached)


class TestGroupsExact:
    def test_heuristic_within_bound_of_optimum(self):
        rng = random.Random(8)
        jobs = jobs_from_rows(random_rows(rng, 8))
        heuristic, exact = compare_groups_exact(jobs, min_fraction=0.5)
        assert heuristic <= exact + 1e-6

    def test_detects_an_unsound_heuristic(self, monkeypatch):
        # An "optimum" of zero with a positive heuristic total means
        # the oracle itself is broken; the soundness check must fire.
        import repro.verify.differential as differential

        monkeypatch.setattr(
            differential,
            "exact_hypergraph_matching",
            lambda n, size, weight: ((), 0.0),
        )
        rng = random.Random(9)
        jobs = jobs_from_rows(random_rows(rng, 8))
        with pytest.raises(InvariantViolation) as exc:
            compare_groups_exact(jobs)
        assert exc.value.invariant == "differential.optimality"


@pytest.fixture(scope="module")
def schedule():
    """A real Muri-S result with restarts, a queue, and a time series."""
    rng = random.Random(3)
    specs = [
        JobSpec(
            profile=StageProfile(tuple(
                round(rng.uniform(0.1, 2.0), 3) for _ in range(4)
            )),
            num_gpus=rng.choice((1, 2, 4)),
            num_iterations=rng.randint(20, 200),
            submit_time=float(10 * i),
        )
        for i in range(24)
    ]
    return simulate(make_scheduler("muri-s"), specs, Cluster(2, 4), "diff")


def perturb(value):
    """The same value with one element (or the scalar) changed."""
    if isinstance(value, dict):
        key = next(iter(value))
        return {**value, key: value[key] + 1}
    if isinstance(value, list):
        return value[:-1]
    return value + 1


class TestScheduleDiff:
    def test_a_copy_is_identical(self, schedule):
        twin = replace(schedule)
        assert diff_results(schedule, twin) == []
        require_identical("differential.test", "diverged", schedule, twin)

    @pytest.mark.parametrize("field", SCHEDULE_FIELDS)
    def test_names_exactly_the_perturbed_field(self, schedule, field):
        twin = replace(schedule, **{field: perturb(getattr(schedule, field))})
        assert diff_results(schedule, twin) == [field]
        with pytest.raises(InvariantViolation) as excinfo:
            require_identical(
                "differential.test", "diverged", schedule, twin, side="b"
            )
        violation = excinfo.value
        assert violation.invariant == "differential.test"
        assert violation.details["field"] == field
        assert list(violation.details["mismatches"]) == [field]
        assert violation.details["side"] == "b"

    def test_labels_and_occupancy_are_not_schedule(self, schedule):
        twin = replace(
            schedule,
            scheduler_name="other",
            trace_name="other",
            wall_clock=schedule.wall_clock + 1.0,
            gpu_seconds_by_type={"v100": 1.0},
            gpus_by_type={"v100": 8},
        )
        assert diff_results(schedule, twin) == []
