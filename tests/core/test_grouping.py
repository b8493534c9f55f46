"""Tests for the multi-round grouping algorithm (Algorithm 1)."""

import random

import pytest

from repro.core.group import JobGroup
from repro.core.grouping import MultiRoundGrouper
from repro.jobs.job import Job, JobSpec
from repro.jobs.stage import StageProfile

STORAGE = StageProfile((0.7, 0.1, 0.1, 0.1))
CPU = StageProfile((0.1, 0.7, 0.1, 0.1))
GPU = StageProfile((0.1, 0.1, 0.7, 0.1))
NETWORK = StageProfile((0.1, 0.1, 0.1, 0.7))


def make_job(profile, gpus=1):
    return Job(JobSpec(profile=profile, num_gpus=gpus, num_iterations=50))


class TestConstruction:
    def test_invalid_group_size(self):
        with pytest.raises(ValueError):
            MultiRoundGrouper(max_group_size=0)

    def test_group_size_beyond_resources(self):
        with pytest.raises(ValueError):
            MultiRoundGrouper(max_group_size=5)

    def test_unknown_matcher(self):
        with pytest.raises(ValueError):
            MultiRoundGrouper(matcher="magic")

    def test_unknown_ordering(self):
        with pytest.raises(ValueError):
            MultiRoundGrouper(ordering="random")


class TestBasicGrouping:
    def test_four_complementary_jobs_form_one_quad(self):
        jobs = [make_job(p) for p in (STORAGE, CPU, GPU, NETWORK)]
        result = MultiRoundGrouper().group(jobs)
        assert len(result.groups) == 1
        assert result.groups[0].size == 4
        assert result.rounds == 2
        assert result.total_gpu_demand == 1

    def test_fig4_matching_prefers_complementary_pairs(self):
        """Plan 1 of Fig. 4: (A, B) and (C, D), not (A, C) and (B, D)."""
        a, b = make_job(CPU), make_job(GPU)
        c, d = make_job(CPU), make_job(GPU)
        result = MultiRoundGrouper(max_group_size=2).group([a, c, b, d])
        assert len(result.groups) == 2
        for group in result.groups:
            bottlenecks = {job.profile.bottleneck for job in group.jobs}
            assert len(bottlenecks) == 2  # one CPU-heavy with one GPU-heavy

    def test_max_group_size_two(self):
        jobs = [make_job(p) for p in (STORAGE, CPU, GPU, NETWORK)]
        result = MultiRoundGrouper(max_group_size=2).group(jobs)
        assert all(group.size <= 2 for group in result.groups)
        assert len(result.groups) == 2

    def test_max_group_size_three(self):
        jobs = [make_job(p) for p in (STORAGE, CPU, GPU, NETWORK, STORAGE, CPU)]
        result = MultiRoundGrouper(max_group_size=3).group(jobs)
        assert all(group.size <= 3 for group in result.groups)

    def test_max_group_size_one_means_no_grouping(self):
        jobs = [make_job(p) for p in (STORAGE, CPU)]
        result = MultiRoundGrouper(max_group_size=1).group(jobs)
        assert all(group.size == 1 for group in result.groups)

    def test_single_job(self):
        result = MultiRoundGrouper().group([make_job(GPU)])
        assert len(result.groups) == 1
        assert result.groups[0].size == 1

    def test_every_job_appears_exactly_once(self):
        jobs = [make_job(p) for p in (STORAGE, CPU, GPU, NETWORK, STORAGE, GPU, CPU)]
        result = MultiRoundGrouper().group(jobs)
        ids = [job.job_id for group in result.groups for job in group.jobs]
        assert sorted(ids) == sorted(job.job_id for job in jobs)

    def test_profile_count_mismatch(self):
        with pytest.raises(ValueError):
            MultiRoundGrouper().group([make_job(GPU)], believed_profiles=[])


class TestBucketing:
    def test_only_same_gpu_jobs_grouped(self):
        jobs = [
            make_job(STORAGE, gpus=1),
            make_job(GPU, gpus=2),
            make_job(CPU, gpus=1),
            make_job(NETWORK, gpus=2),
        ]
        result = MultiRoundGrouper().group(jobs)
        for group in result.groups:
            assert len({job.num_gpus for job in group.jobs}) == 1

    def test_multi_gpu_jobs_can_group_together(self):
        jobs = [make_job(STORAGE, gpus=4), make_job(GPU, gpus=4)]
        result = MultiRoundGrouper().group(jobs)
        assert len(result.groups) == 1
        assert result.groups[0].num_gpus == 4


class TestCapacityAwareness:
    def test_no_grouping_when_everything_fits(self):
        jobs = [make_job(p) for p in (STORAGE, CPU, GPU, NETWORK)]
        result = MultiRoundGrouper().group(jobs, capacity=4)
        assert all(group.size == 1 for group in result.groups)
        assert result.total_gpu_demand == 4

    def test_groups_just_enough(self):
        jobs = [make_job(p) for p in (STORAGE, CPU, GPU, NETWORK)]
        result = MultiRoundGrouper().group(jobs, capacity=3)
        sizes = sorted(group.size for group in result.groups)
        assert sizes == [1, 1, 2]
        assert result.total_gpu_demand == 3

    def test_groups_everything_under_pressure(self):
        jobs = [make_job(p) for p in (STORAGE, CPU, GPU, NETWORK)]
        result = MultiRoundGrouper().group(jobs, capacity=1)
        assert len(result.groups) == 1
        assert result.groups[0].size == 4

    def test_split_dissolves_unneeded_groups(self):
        jobs = [make_job(p) for p in (STORAGE, CPU, GPU, NETWORK)]
        # Seed a pre-merged pair, but give plenty of capacity: the seed
        # should be dissolved back into singletons.
        preformed = [(jobs[0].job_id, jobs[1].job_id)]
        result = MultiRoundGrouper().group(jobs, capacity=10, preformed=preformed)
        assert all(group.size == 1 for group in result.groups)


class TestApplyMerges:
    """The tombstone-based merge application must reproduce the old
    list-surgery semantics: the merged node takes the left partner's
    position, the right partner disappears, everything else keeps its
    relative order."""

    @staticmethod
    def _reference_apply(buckets, candidates, demand, capacity):
        # Object-identity surgery, as the per-merge implementation did:
        # resolve indices against a snapshot, then index/replace/remove.
        snapshot = {gpus: list(nodes) for gpus, nodes in buckets.items()}
        for _weight, left, gpus, right in candidates:
            if capacity is not None and demand <= capacity:
                break
            left_node = snapshot[gpus][left]
            right_node = snapshot[gpus][right]
            nodes = buckets[gpus]
            nodes[nodes.index(left_node)] = left_node.merged_with(right_node)
            nodes.remove(right_node)
            demand -= gpus
        return demand

    def _bucket_fixture(self, capacity):
        jobs = [
            make_job(p)
            for p in (STORAGE, CPU, GPU, NETWORK, STORAGE, CPU, GPU, NETWORK)
        ]
        grouper = MultiRoundGrouper()
        buckets, order = grouper._build_nodes(jobs, [j.profile for j in jobs], None)
        candidates = grouper._candidate_merges(buckets, order)
        return grouper, buckets, candidates

    @staticmethod
    def _plan(buckets):
        return {
            gpus: [[job.job_id for job in node.jobs] for node in nodes]
            for gpus, nodes in buckets.items()
        }

    @pytest.mark.parametrize("capacity", [None, 6, 7])
    def test_matches_list_surgery_semantics(self, capacity):
        grouper, buckets, candidates = self._bucket_fixture(capacity)
        expected = {gpus: list(nodes) for gpus, nodes in buckets.items()}
        expected_demand = self._reference_apply(
            expected, candidates, demand=8, capacity=capacity
        )
        demand = grouper._apply_merges(buckets, candidates, 8, capacity)
        assert demand == expected_demand
        assert self._plan(buckets) == self._plan(expected)

    def test_merged_node_keeps_left_position(self):
        grouper, buckets, candidates = self._bucket_fixture(None)
        first_left = candidates[0][1]
        anchor = buckets[1][first_left].jobs[0].job_id
        grouper._apply_merges(buckets, candidates, 8, None)
        # The best merge's left partner still heads its merged node, at
        # a position no later than before.
        positions = [node.jobs[0].job_id for node in buckets[1]]
        assert anchor in positions
        assert positions.index(anchor) <= first_left

    def test_capacity_stops_merging_early(self):
        grouper, buckets, candidates = self._bucket_fixture(7)
        demand = grouper._apply_merges(buckets, candidates, 8, 7)
        assert demand == 7
        assert sum(len(nodes) for nodes in buckets.values()) == 7


class TestSeeds:
    def test_preformed_members_stay_together(self):
        jobs = [make_job(p) for p in (STORAGE, CPU, GPU, NETWORK)]
        preformed = [(jobs[0].job_id, jobs[2].job_id)]
        result = MultiRoundGrouper().group(jobs, capacity=2, preformed=preformed)
        # A seed is never torn apart under pressure (it may be merged
        # further): both members land in the same group.
        home = {
            job.job_id: index
            for index, group in enumerate(result.groups)
            for job in group.jobs
        }
        assert home[preformed[0][0]] == home[preformed[0][1]]

    def test_preformed_with_missing_member_ignored(self):
        jobs = [make_job(p) for p in (STORAGE, CPU)]
        preformed = [(jobs[0].job_id, 999_999)]
        result = MultiRoundGrouper().group(jobs, capacity=1, preformed=preformed)
        ids = sorted(j.job_id for g in result.groups for j in g.jobs)
        assert ids == sorted(j.job_id for j in jobs)

    def test_preformed_with_mixed_gpus_ignored(self):
        a, b = make_job(STORAGE, gpus=1), make_job(GPU, gpus=2)
        result = MultiRoundGrouper().group(
            [a, b], capacity=1, preformed=[(a.job_id, b.job_id)]
        )
        for group in result.groups:
            assert len({j.num_gpus for j in group.jobs}) == 1

    def test_preformed_too_large_ignored(self):
        jobs = [make_job(p) for p in (STORAGE, CPU, GPU)]
        result = MultiRoundGrouper(max_group_size=2).group(
            jobs, capacity=1, preformed=[tuple(j.job_id for j in jobs)]
        )
        assert all(group.size <= 2 for group in result.groups)


class TestMatchers:
    def test_blossom_beats_greedy_weight(self):
        # Construct a case where greedy (priority-order) pairing is
        # suboptimal: priority order pairs same-bottleneck jobs.
        jobs = [make_job(CPU), make_job(CPU), make_job(GPU), make_job(GPU)]
        blossom = MultiRoundGrouper(max_group_size=2, matcher="blossom").group(jobs)
        greedy = MultiRoundGrouper(max_group_size=2, matcher="greedy").group(jobs)
        assert blossom.total_efficiency >= greedy.total_efficiency

    def test_greedy_pairs_in_priority_order(self):
        jobs = [make_job(CPU), make_job(CPU), make_job(GPU), make_job(GPU)]
        result = MultiRoundGrouper(max_group_size=2, matcher="greedy").group(jobs)
        member_sets = [frozenset(j.job_id for j in g.jobs) for g in result.groups]
        assert frozenset((jobs[0].job_id, jobs[1].job_id)) in member_sets

    def test_exact_matches_blossom_for_pairs(self):
        jobs = [make_job(p) for p in (STORAGE, CPU, GPU, NETWORK)]
        exact = MultiRoundGrouper(max_group_size=2, matcher="exact").group(jobs)
        blossom = MultiRoundGrouper(max_group_size=2, matcher="blossom").group(jobs)
        assert exact.total_efficiency == pytest.approx(
            blossom.total_efficiency, rel=1e-6
        )

    def test_exact_refuses_large_inputs(self):
        jobs = [make_job(GPU) for _ in range(13)]
        with pytest.raises(ValueError):
            MultiRoundGrouper(matcher="exact").group(jobs)

    def test_exact_never_below_blossom(self):
        jobs = [
            make_job(p)
            for p in (STORAGE, STORAGE, CPU, GPU, NETWORK, GPU, CPU, NETWORK)
        ]
        exact = MultiRoundGrouper(matcher="exact").group(jobs)
        blossom = MultiRoundGrouper(matcher="blossom").group(jobs)
        assert exact.total_efficiency >= blossom.total_efficiency - 1e-9


class TestOrderingPolicy:
    def test_worst_ordering_groups_like_best(self):
        """Fig. 11's variant groups identically but executes the worst
        stage ordering, giving a longer believed period."""
        jobs = [make_job(p) for p in (STORAGE, CPU, GPU, NETWORK)]
        best = MultiRoundGrouper(ordering="best").group(jobs)
        worst = MultiRoundGrouper(ordering="worst").group(jobs)
        assert len(best.groups) == len(worst.groups) == 1
        assert worst.groups[0].believed_period >= best.groups[0].believed_period


class TestMinEfficiency:
    def test_threshold_blocks_bad_merges(self):
        # Two identical GPU-only jobs interleave at gamma = 0.25.
        jobs = [make_job(GPU), make_job(GPU)]
        result = MultiRoundGrouper(min_efficiency=0.5).group(jobs, capacity=1)
        assert all(group.size == 1 for group in result.groups)

    def test_threshold_allows_good_merges(self):
        jobs = [make_job(CPU), make_job(GPU)]
        result = MultiRoundGrouper(min_efficiency=0.3).group(jobs, capacity=1)
        assert len(result.groups) == 1
        assert result.groups[0].size == 2


def _eager_total_efficiency(groups):
    """The sum ``GroupingResult`` used to compute at construction."""
    return sum(group.believed_efficiency for group in groups if group.size > 1)


def _queue(seed, count, gpu_choices=(1,)):
    rng = random.Random(seed)
    return [
        Job(JobSpec(
            profile=StageProfile(
                tuple(round(rng.uniform(0.05, 5.0), 3) for _ in range(4))
            ),
            num_gpus=rng.choice(gpu_choices),
            num_iterations=rng.randint(1, 500),
        ))
        for _ in range(count)
    ]


class TestLazyTotalEfficiency:
    @pytest.mark.parametrize(
        "kwargs,count",
        [
            ({"sparsify_threshold": None}, 40),  # dense
            ({"sparsify_threshold": 16}, 40),  # sparse
        ],
        ids=["dense", "sparse"],
    )
    def test_equals_eager_sum_bit_for_bit(self, kwargs, count):
        jobs = _queue(seed=count, count=count, gpu_choices=(1, 2))
        grouper = MultiRoundGrouper(**kwargs)
        result = grouper.group(jobs, capacity=8)
        eager = _eager_total_efficiency(result.groups)
        assert any(group.size > 1 for group in result.groups)
        # Later calls reuse groups and refill every cache; the value
        # read afterwards must still be the eager one.
        grouper.group(list(reversed(jobs)), capacity=8)
        grouper.group(jobs[: count // 2], capacity=4)
        assert result.total_efficiency == eager
        assert result.total_efficiency == eager

    def test_grouping_pass_does_not_evaluate_efficiency(self, monkeypatch):
        calls = []
        original = JobGroup.believed_efficiency.fget

        def counting(group):
            calls.append(group)
            return original(group)

        monkeypatch.setattr(
            JobGroup, "believed_efficiency", property(counting)
        )
        result = MultiRoundGrouper().group(
            [make_job(p) for p in (STORAGE, CPU, GPU, NETWORK)], capacity=1
        )
        assert result.groups[0].size == 4
        assert calls == []
        assert result.total_efficiency > 0
        assert len(calls) == 1


class TestGroupReuse:
    def _keys(self, result):
        return {
            group.jobs[0].job_id if group.size == 1
            else tuple(job.job_id for job in group.jobs)
            for group in result.groups
        }

    def test_map_holds_only_the_last_calls_groups(self):
        jobs = _queue(seed=1, count=12)
        grouper = MultiRoundGrouper()
        first = grouper.group(jobs, capacity=8)
        assert any(group.size > 1 for group in first.groups)
        assert any(group.size == 1 for group in first.groups)
        assert set(grouper._formed_groups) == self._keys(first)
        second = grouper.group(jobs[6:], capacity=6)
        assert set(grouper._formed_groups) == self._keys(second)
        assert grouper._formed_groups_prev == {}
        grouper.reset_caches()
        assert grouper._formed_groups == {}

    def test_reuses_a_group_only_for_the_same_jobs_and_profiles(self):
        jobs = _queue(seed=2, count=12)
        profiles = [job.profile for job in jobs]
        grouper = MultiRoundGrouper()
        first = grouper.group(jobs, profiles, capacity=4)
        assert any(group.size > 1 for group in first.groups)
        # Same objects: every group comes back as the same object.
        again = grouper.group(jobs, profiles, capacity=4)
        assert all(a is b for a, b in zip(again.groups, first.groups))
        # An equal but distinct profile object misses the map for the
        # one group holding that job, which is rebuilt equal.
        fresh = StageProfile(tuple(profiles[0].durations))
        believed = [fresh] + profiles[1:]
        third = grouper.group(jobs, believed, capacity=4)
        for before, after in zip(again.groups, third.groups):
            if jobs[0] in before.jobs:
                assert after is not before
                assert after.believed_profiles[0] is fresh
            else:
                assert after is before
        # Every group equals a cold grouper's.
        cold = MultiRoundGrouper().group(jobs, believed, capacity=4)
        assert third.groups == cold.groups
