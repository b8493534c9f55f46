"""Tests for Stage and StageProfile."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jobs.resources import Resource
from repro.jobs.stage import Stage, StageProfile


class TestStage:
    def test_valid(self):
        stage = Stage(Resource.GPU, 0.5)
        assert stage.resource == Resource.GPU
        assert stage.duration == 0.5

    def test_negative_duration(self):
        with pytest.raises(ValueError):
            Stage(Resource.GPU, -0.1)

    def test_frozen(self):
        stage = Stage(Resource.CPU, 1.0)
        with pytest.raises(AttributeError):
            stage.duration = 2.0


class TestStageProfileConstruction:
    def test_from_mapping(self):
        profile = StageProfile.from_mapping({Resource.GPU: 0.5, Resource.CPU: 0.25})
        assert profile.duration(Resource.GPU) == 0.5
        assert profile.duration(Resource.CPU) == 0.25
        assert profile.duration(Resource.STORAGE) == 0.0

    def test_from_stages_sums_duplicates(self):
        profile = StageProfile.from_stages(
            [Stage(Resource.GPU, 0.2), Stage(Resource.GPU, 0.3)]
        )
        assert profile.duration(Resource.GPU) == pytest.approx(0.5)

    def test_from_fractions_normalizes(self):
        # Raw Table 1 percentages may not sum to 100.
        profile = StageProfile.from_fractions(
            2.0, {Resource.GPU: 85.0, Resource.NETWORK: 28.0}
        )
        assert profile.iteration_time == pytest.approx(2.0)
        assert profile.duration(Resource.GPU) == pytest.approx(2.0 * 85 / 113)

    def test_from_fractions_rejects_zero_total(self):
        with pytest.raises(ValueError):
            StageProfile.from_fractions(1.0, {Resource.GPU: 0.0})

    def test_from_fractions_rejects_bad_iteration_time(self):
        with pytest.raises(ValueError):
            StageProfile.from_fractions(0.0, {Resource.GPU: 1.0})

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            StageProfile((0.0, 0.0, 0.0, 0.0))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            StageProfile((1.0, -0.1, 0.0, 0.0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            StageProfile(())

    def test_short_profiles_allowed(self):
        # Two-resource examples (paper Fig. 4) are valid.
        profile = StageProfile((2.0, 1.0))
        assert profile.num_resources == 2
        assert profile.iteration_time == 3.0


class TestStageProfileAccessors:
    def setup_method(self):
        self.profile = StageProfile((0.6, 0.18, 0.06, 0.02))

    def test_iteration_time(self):
        assert self.profile.iteration_time == pytest.approx(0.86)

    def test_bottleneck(self):
        assert self.profile.bottleneck == Resource.STORAGE

    def test_fraction(self):
        assert self.profile.fraction(Resource.STORAGE) == pytest.approx(0.6 / 0.86)

    def test_fractions_sum_to_one(self):
        assert sum(self.profile.fractions().values()) == pytest.approx(1.0)

    def test_getitem(self):
        assert self.profile[Resource.CPU] == 0.18

    def test_iter_skips_empty_stages(self):
        profile = StageProfile((0.5, 0.0, 0.5, 0.0))
        stages = list(profile)
        assert [s.resource for s in stages] == [Resource.STORAGE, Resource.GPU]

    def test_iter_order_is_data_path(self):
        stages = list(self.profile)
        assert [s.resource for s in stages] == list(Resource)


class TestStageProfileTransforms:
    def test_scaled(self):
        profile = StageProfile((1.0, 2.0, 3.0, 4.0)).scaled(0.5)
        assert profile.durations == (0.5, 1.0, 1.5, 2.0)

    def test_scaled_invalid(self):
        with pytest.raises(ValueError):
            StageProfile((1.0, 0, 0, 0)).scaled(0.0)

    def test_with_duration(self):
        profile = StageProfile((1.0, 2.0, 3.0, 4.0)).with_duration(Resource.GPU, 9.0)
        assert profile.duration(Resource.GPU) == 9.0
        assert profile.duration(Resource.CPU) == 2.0

    def test_rounded(self):
        profile = StageProfile((1.23456789, 0, 0, 1)).rounded(2)
        assert profile.duration(Resource.STORAGE) == 1.23


class TestIterationTimeCaching:
    def test_cached_at_construction(self):
        profile = StageProfile((0.6, 0.18, 0.06, 0.02))
        assert profile._iteration_time == pytest.approx(0.86)
        assert profile.iteration_time == profile._iteration_time

    def test_transforms_recompute(self):
        profile = StageProfile((1.0, 2.0, 3.0, 4.0))
        assert profile.scaled(0.5).iteration_time == pytest.approx(5.0)
        assert profile.with_duration(
            Resource.GPU, 9.0
        ).iteration_time == pytest.approx(1.0 + 2.0 + 9.0 + 4.0)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=4,
        max_size=4,
    ).filter(lambda d: sum(d) > 0)
)
def test_profile_invariants(durations):
    profile = StageProfile(tuple(durations))
    assert profile.iteration_time == pytest.approx(sum(durations))
    assert profile.duration(profile.bottleneck) == max(durations)
    assert abs(sum(profile.fractions().values()) - 1.0) < 1e-9


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
        min_size=4,
        max_size=4,
    ),
    st.floats(min_value=0.1, max_value=10.0),
)
def test_scaling_preserves_fractions(durations, factor):
    profile = StageProfile(tuple(durations))
    scaled = profile.scaled(factor)
    for resource in Resource:
        assert scaled.fraction(resource) == pytest.approx(
            profile.fraction(resource), rel=1e-9
        )
