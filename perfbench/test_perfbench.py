"""Tests of the benchmark's own code: spans, percentiles, result checks."""

import copy

import pytest

import repro.core.grouping
import workloads
from checks import (
    MIN_TAIL_SAMPLES,
    TooFewSamples,
    fingerprint,
    result_differences,
    tail_percentile,
)
from repro.matching.blossom import matching_pairs
from spans import Recorder, Span, layer_stats


def span(span_id, parent, name, start, end):
    return Span(span_id, parent, name, start, end, "run")


class TestSelfTime:
    def test_nested_spans(self):
        spans = [
            span(2, 1, "leaf", 6.0, 7.0),
            span(1, 0, "mid", 5.0, 9.0),
            span(3, 0, "mid", 1.0, 3.0),
            span(0, -1, "root", 0.0, 10.0),
        ]
        stats = layer_stats(spans)
        assert stats["root"].calls == 1
        assert stats["root"].busy_s == pytest.approx(10.0)
        assert stats["root"].self_s == pytest.approx(4.0)
        assert stats["mid"].calls == 2
        assert stats["mid"].busy_s == pytest.approx(6.0)
        assert stats["mid"].self_s == pytest.approx(5.0)
        assert stats["leaf"].self_s == pytest.approx(1.0)

    def test_overlapping_children_count_once(self):
        spans = [
            span(1, 0, "a", 1.0, 5.0),
            span(2, 0, "b", 3.0, 6.0),
            span(0, -1, "root", 0.0, 10.0),
        ]
        assert layer_stats(spans)["root"].self_s == pytest.approx(5.0)

    def test_recorder_links_parents_and_self_times_sum_to_root(self):
        recorder = Recorder("test-run")
        leaf = recorder.wrap("leaf", lambda: sum(range(1000)))
        mid = recorder.wrap("mid", lambda: [leaf() for _ in range(3)])
        root = recorder.wrap("root", lambda: [mid() for _ in range(2)])
        root()
        by_name = {}
        for item in recorder.spans:
            by_name.setdefault(item.name, []).append(item)
        (root_span,) = by_name["root"]
        assert root_span.parent == -1
        assert {s.parent for s in by_name["mid"]} == {root_span.span_id}
        mid_ids = {s.span_id for s in by_name["mid"]}
        assert {s.parent for s in by_name["leaf"]} == mid_ids
        assert all(s.run_id == "test-run" for s in recorder.spans)
        stats = recorder.layers()
        assert stats["leaf"].calls == 6
        total_self = sum(layer.self_s for layer in stats.values())
        assert total_self == pytest.approx(stats["root"].busy_s)

    def test_observer_sees_result_and_exceptions_still_close_spans(self):
        recorder = Recorder("run")
        seen = []

        def boom():
            raise RuntimeError("boom")

        double = recorder.wrap("double", lambda x: 2 * x, lambda a, k, r: seen.append(r))
        assert double(4) == 8
        with pytest.raises(RuntimeError):
            recorder.wrap("boom", boom)()
        assert seen == [8]
        assert [s.name for s in recorder.spans] == ["double", "boom"]
        assert recorder.wrap("after", lambda: None)() is None
        assert recorder.spans[-1].parent == -1


class TestPercentiles:
    def test_p99_needs_ten_samples_beyond_it(self):
        samples = [float(i) for i in range(1, 1001)]
        p99 = tail_percentile(samples, 99)
        assert p99.value == 990.0
        assert p99.samples == 1000
        assert p99.beyond == MIN_TAIL_SAMPLES
        with pytest.raises(TooFewSamples):
            tail_percentile(samples[:-1], 99)

    def test_median_is_nearest_rank(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 5
        p50 = tail_percentile(samples, 50)
        assert p50.value == 3.0
        assert p50.beyond == 12

    def test_too_few_samples_for_a_median(self):
        with pytest.raises(TooFewSamples):
            tail_percentile([1.0] * 19, 50)


class TestResultEquality:
    @pytest.fixture
    def payload(self):
        prepared = workloads.setup("burst-muri", 3)
        prepared.specs = prepared.specs[:24]
        return workloads.drive(prepared).result.to_dict()

    def test_identical_results_pass(self, payload):
        other = copy.deepcopy(payload)
        other["wall_clock"] = payload["wall_clock"] + 1.0
        assert result_differences(payload, other) == []

    def test_perturbed_result_is_rejected(self, payload):
        other = copy.deepcopy(payload)
        job = next(iter(other["jcts"]))
        other["jcts"][job] += 1e-9
        assert result_differences(payload, other) == ["jcts"]

    def test_fingerprints_find_the_same_differences(self, payload):
        other = copy.deepcopy(payload)
        other["wall_clock"] += 1.0
        assert result_differences(fingerprint(payload), fingerprint(other)) == []
        other["timeseries"][-1]["queue_length"] += 1
        assert result_differences(fingerprint(payload), fingerprint(other)) == [
            "timeseries"
        ]

    def test_missing_key_is_rejected(self, payload):
        other = copy.deepcopy(payload)
        del other["timeseries"]
        assert result_differences(payload, other) == ["timeseries"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_reproduces_untraced_result(workload, monkeypatch):
    monkeypatch.setitem(workloads.JOBS, workload, 30)
    plain = workloads.drive(workloads.setup(workload, 5))
    prepared = workloads.setup(workload, 5)
    recorder = Recorder("traced")
    workloads.instrument(prepared, recorder)
    traced = workloads.drive(prepared, recorder)
    assert result_differences(plain.result.to_dict(), traced.result.to_dict()) == []
    assert len(plain.result.jcts) == plain.attempted == 30
    assert repro.core.grouping.matching_pairs is matching_pairs
    stats = recorder.layers()
    assert stats["sim.step"].calls >= len(traced.result.timeseries)
    assert stats["schedulers.decide"].calls > 0
    by_id = {item.span_id: item for item in recorder.spans}
    decide_parents = {
        by_id[item.parent].name for item in recorder.spans
        if item.name == "schedulers.decide"
    }
    assert decide_parents == {"sim.step"}
