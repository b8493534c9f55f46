"""Sparse-matching behaviour of the grouper at queue scale.

Three contracts from "Decision latency and scaling"
(docs/simulation_model.md):

* below ``sparsify_threshold`` the sparse grouper is *bit-identical*
  to the dense algorithm (the dense fallback guarantee);
* at and above the threshold it stays within 2% of the dense
  grouping's total efficiency;
* the incremental decision cache and the weight cache only change
  latency, never feasibility invariants.
"""

import random

import pytest

from repro.core.grouping import MultiRoundGrouper
from repro.jobs.job import Job, JobSpec
from repro.jobs.stage import StageProfile
from repro.models.zoo import DEFAULT_MODELS, get_model

SEEDS = range(20)


def random_jobs(n, seed):
    rng = random.Random(seed)
    return [
        Job(JobSpec(
            profile=get_model(rng.choice(DEFAULT_MODELS)).stage_profile(1),
            num_iterations=rng.randint(100, 5000),
        ))
        for _ in range(n)
    ]


def grouping_plan(result):
    """Order-independent fingerprint: the partition into groups."""
    return sorted(
        tuple(sorted(job.job_id for job in group.jobs))
        for group in result.groups
    )


def run(jobs, capacity, threshold):
    grouper = MultiRoundGrouper(sparsify_threshold=threshold)
    return grouper.group(jobs, capacity=capacity)


class TestDenseFallbackIdentity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_below_threshold_identical(self, seed):
        # 127 single-GPU jobs form one 127-node bucket, below the
        # default threshold of 128: the dense path must run and the
        # result must be exactly the dense grouping.
        jobs = random_jobs(127, seed)
        sparse = run(jobs, capacity=32, threshold=128)
        dense = run(jobs, capacity=32, threshold=None)
        assert grouping_plan(sparse) == grouping_plan(dense)
        assert sparse.total_efficiency == dense.total_efficiency
        assert sparse.total_gpu_demand == dense.total_gpu_demand

    def test_tiny_queue_identical(self):
        jobs = random_jobs(16, 7)
        sparse = run(jobs, capacity=4, threshold=128)
        dense = run(jobs, capacity=4, threshold=None)
        assert grouping_plan(sparse) == grouping_plan(dense)


class TestSparseQuality:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_within_two_percent_of_dense_at_128(self, seed):
        jobs = random_jobs(128, seed)
        sparse = run(jobs, capacity=32, threshold=128)
        dense = run(jobs, capacity=32, threshold=None)
        assert dense.total_efficiency > 0
        gap = 1.0 - sparse.total_efficiency / dense.total_efficiency
        assert gap <= 0.02

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sparse_preserves_grouping_invariants(self, seed):
        jobs = random_jobs(128, seed)
        result = run(jobs, capacity=32, threshold=128)
        seen = [job.job_id for group in result.groups for job in group.jobs]
        assert sorted(seen) == sorted(job.job_id for job in jobs)
        assert all(group.size <= 4 for group in result.groups)
        assert result.total_gpu_demand == 32


class TestDecisionCache:
    def test_repeat_group_call_reuses_matchings(self):
        jobs = random_jobs(150, 3)
        grouper = MultiRoundGrouper(sparsify_threshold=128)
        first = grouper.group(jobs, capacity=40)
        # Matching again over the unchanged queue must hit the
        # decision cache (no new weight evaluations) and reproduce the
        # plan exactly.
        evaluations = len(grouper._weight_cache)
        second = grouper.group(jobs, capacity=40)
        assert grouping_plan(first) == grouping_plan(second)
        assert len(grouper._weight_cache) == evaluations

    def test_changed_queue_invalidates_cache(self):
        jobs = random_jobs(150, 3)
        grouper = MultiRoundGrouper(sparsify_threshold=128)
        first = grouper.group(jobs, capacity=40)
        shrunk = grouper.group(jobs[:100], capacity=40)
        seen = [j.job_id for group in shrunk.groups for j in group.jobs]
        assert sorted(seen) == sorted(j.job_id for j in jobs[:100])
        assert grouping_plan(shrunk) != grouping_plan(first)


class TestWeightCache:
    def test_nearby_profiles_keep_exact_keys(self):
        base = StageProfile((0.40, 0.20, 0.30, 0.10))
        noisy = StageProfile((0.401, 0.199, 0.300, 0.101))
        jobs = [
            Job(JobSpec(profile=p, num_iterations=50))
            for p in (base, noisy)
        ]
        grouper = MultiRoundGrouper()
        result = grouper.group(jobs)
        assert len(result.groups) == 1
        key = next(iter(grouper._weight_cache))
        assert base.durations in key and noisy.durations in key
