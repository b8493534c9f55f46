"""The shard-vs-serial differential oracle (bit-identity)."""

import random
from dataclasses import replace

import pytest

from repro.fleet import FleetFrontEnd, make_shard, partition_cluster
from repro.jobs.job import JobSpec
from repro.jobs.stage import StageProfile
from repro.verify import InvariantViolation, compare_fleet_serial


def make_stream(count, seed):
    """A seeded mixed-GPU multi-tenant submission stream."""
    rng = random.Random(seed)
    stream = []
    tenants = ("alice", "bob", "carol")
    for i in range(count):
        profile = StageProfile(tuple(
            round(rng.uniform(0.05, 2.0), 3) for _ in range(4)
        ))
        spec = JobSpec(
            profile=profile,
            num_gpus=rng.choice((1, 1, 2, 4)),
            num_iterations=rng.randint(5, 40),
            submit_time=round(i * rng.uniform(0.0, 3.0), 3),
        )
        stream.append((spec, tenants[i % len(tenants)]))
    return stream


def run_fleet(scheduler="muri-s", count=48, seed=7, **options):
    topology = partition_cluster(8, 4, 4)
    frontend = FleetFrontEnd.build(topology, scheduler=scheduler, **options)
    for spec, tenant in make_stream(count, seed):
        frontend.submit(spec, tenant=tenant)
    frontend.run_sync()
    return frontend


def factory(scheduler="muri-s", **options):
    return lambda vc: make_shard(vc, scheduler=scheduler, **options)


def test_muri_shards_match_serial_replays():
    frontend = run_fleet("muri-s", event_regroup=True)
    serial = compare_fleet_serial(
        frontend, factory("muri-s", event_regroup=True)
    )
    assert set(serial) == {"vc0", "vc1", "vc2", "vc3"}
    assert sum(len(r.jcts) for r in serial.values()) == 48


def test_fifo_shards_match_serial_replays():
    frontend = run_fleet("fifo")
    compare_fleet_serial(frontend, factory("fifo"))


def test_oracle_requires_a_drained_fleet():
    topology = partition_cluster(4, 4, 2)
    frontend = FleetFrontEnd.build(topology, scheduler="fifo")
    with pytest.raises(ValueError):
        compare_fleet_serial(frontend, factory("fifo"))


def test_oracle_detects_divergence():
    frontend = run_fleet("fifo", count=12)
    shard_result = frontend.shards["vc0"].service.result
    job_id = next(iter(shard_result.jcts))
    shard_result.jcts[job_id] += 1.0
    with pytest.raises(InvariantViolation) as excinfo:
        compare_fleet_serial(frontend, factory("fifo"))
    violation = excinfo.value
    assert violation.invariant == "differential.fleet"
    assert violation.details["vc"] == "vc0"
    assert violation.details["field"] == "jcts"


def test_oracle_detects_timeseries_divergence():
    frontend = run_fleet("fifo", count=12)
    timeseries = frontend.shards["vc0"].service.result.timeseries
    timeseries[-1] = replace(timeseries[-1], span=timeseries[-1].span + 1.0)
    with pytest.raises(InvariantViolation) as excinfo:
        compare_fleet_serial(frontend, factory("fifo"))
    violation = excinfo.value
    assert violation.invariant == "differential.fleet"
    assert violation.details["vc"] == "vc0"
    assert violation.details["field"] == "timeseries"


def test_oracle_detects_mismatched_factory():
    # A factory that builds shards differently from the fleet's own
    # (different scheduler) must not silently pass.
    frontend = run_fleet("fifo", count=24)
    with pytest.raises(InvariantViolation):
        compare_fleet_serial(frontend, factory("srsf"))
