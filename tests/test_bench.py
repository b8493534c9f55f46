"""Unit tests for the ``repro.bench`` suite plumbing.

The timing suites themselves run in CI's ``bench`` job; here we pin
the cheap, deterministic parts: workload seeding, percentile math,
document round-tripping, and exactly which metrics the regression
gate sees.
"""

from pathlib import Path

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    SUITES,
    calibrate,
    gated_metrics,
    load_bench,
    write_bench,
)
from repro.bench.suite import _make_jobs, _percentile

REPO_ROOT = Path(__file__).resolve().parent.parent


def committed(suite):
    """The committed baseline document of one suite."""
    return load_bench(REPO_ROOT / SUITES[suite][0])


class TestWorkloads:
    def test_make_jobs_is_seeded(self):
        first = _make_jobs(32, seed=5)
        second = _make_jobs(32, seed=5)
        assert [j.spec.profile.durations for j in first] == [
            j.spec.profile.durations for j in second
        ]
        assert [j.num_gpus for j in first] == [j.num_gpus for j in second]

    def test_make_jobs_respects_gpu_choices(self):
        jobs = _make_jobs(64, seed=0, gpu_choices=(2, 4))
        assert {j.num_gpus for j in jobs} <= {2, 4}

    def test_calibrate_is_positive(self):
        assert calibrate(repeats=1) > 0


class TestPercentile:
    def test_nearest_rank(self):
        samples = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert _percentile(samples, 0.0) == 1.0
        assert _percentile(samples, 0.5) == 3.0
        assert _percentile(samples, 0.99) == 5.0

    def test_single_sample(self):
        assert _percentile([7.0], 0.5) == 7.0


def _document():
    return {
        "schema": SCHEMA_VERSION,
        "suite": "grouping",
        "benchmarks": {
            "cold_group_64": {
                "jobs": 64,
                "seconds": 0.5,
                "normalized": 25.0,
                "calibration": 0.02,
            },
            "warm_regroup": {
                "p50_seconds": 0.001,
                "p50_normalized": 0.05,
                "p99_seconds": 0.008,
                "p99_normalized": 0.4,
            },
        },
    }


class TestGatedMetrics:
    def test_flattens_normalized_only(self):
        flat = gated_metrics(_document())
        assert flat == {
            "cold_group_64.normalized": 25.0,
            "warm_regroup.p99_normalized": 0.4,
        }

    def test_p50_is_never_gated(self):
        assert not any(
            ".p50" in name for name in gated_metrics(_document())
        )

    def test_raw_seconds_and_counts_are_not_gated(self):
        flat = gated_metrics(_document())
        assert "cold_group_64.seconds" not in flat
        assert "cold_group_64.jobs" not in flat
        assert "cold_group_64.calibration" not in flat

    def test_empty_document(self):
        assert gated_metrics({}) == {}


class TestRoundTrip:
    def test_write_then_load(self, tmp_path):
        path = tmp_path / SUITES["grouping"][0]
        write_bench(_document(), path)
        assert load_bench(path) == _document()

    def test_file_constants_are_distinct(self):
        filenames = [filename for filename, _body in SUITES.values()]
        assert len(set(filenames)) == len(SUITES) == 6


class TestCommittedBaselines:
    """The repo-root BENCH files must stay loadable and acceptable."""

    @pytest.mark.parametrize("suite", SUITES)
    def test_every_suite_has_a_gated_baseline(self, suite):
        doc = committed(suite)
        assert doc["schema"] == SCHEMA_VERSION
        assert doc["suite"] == suite
        assert gated_metrics(doc)

    def test_grouping_baseline(self):
        doc = committed("grouping")
        cold = doc["benchmarks"]["cold_group_1024"]
        # The PR acceptance bar: >= 3x faster than the ~2.5 s PR-1
        # baseline for a 1,024-job cold grouping.
        assert cold["seconds"] <= 0.83
        warm = doc["benchmarks"]["warm_regroup"]
        assert warm["p99_seconds"] < 0.010

    def test_service_baseline(self):
        doc = committed("service")
        assert gated_metrics(doc)

    def test_fleet_baseline(self):
        doc = committed("fleet")
        gated = gated_metrics(doc)
        assert "fleet_submit.p99_normalized" in gated
        assert "fleet_drain.job_normalized" in gated
        # Admission+routing is microseconds; a p99 over a millisecond
        # would mean the fleet layer grew a scan on the submit path.
        submit = doc["benchmarks"]["fleet_submit"]
        assert submit["p99_seconds"] < 0.001

    def test_elastic_baseline(self):
        doc = committed("elastic")
        gated = gated_metrics(doc)
        assert "cold_elastic_group.normalized" in gated
        assert "renegotiate_step.p99_normalized" in gated
        cold = doc["benchmarks"]["cold_elastic_group"]
        # The cold step must actually exercise the elastic path.
        assert cold["resizes"] > 0
        # Renegotiation is a per-tick cost: its tail must stay well
        # under the warm-regroup latency contract.
        step = doc["benchmarks"]["renegotiate_step"]
        assert step["p99_seconds"] < 0.010

    def test_replay_baseline(self):
        doc = committed("replay")
        gated = gated_metrics(doc)
        # FIFO and the paper's scheduler both replay the whole trace.
        for name in ("replay_run", "replay_run_muri"):
            assert f"{name}.job_normalized" in gated
            assert f"{name}.p99_step_normalized" in gated
            entry = doc["benchmarks"][name]
            assert entry["finished"] == entry["jobs"]

    def test_hetero_baseline(self):
        doc = committed("hetero")
        gated = gated_metrics(doc)
        # The placement claim is the gate: the ratio is simulated time
        # (aware / baseline), so it must sit strictly under 1.0.
        assert gated["hetero_placement.makespan_ratio_normalized"] < 1.0
        entry = doc["benchmarks"]["hetero_placement"]
        assert entry["improvement"] > 0.0
        assert set(entry["utilization_by_type"]) == {"baseline", "aware"}
