"""The armed-checker overhead contract.

Invariant checking is opt-in, and arming every check must stay cheap
enough to leave on during development runs: the acceptance target is a
few percent on a 200-job simulation.  As in
``tests/observe/test_overhead.py``, wall-clock assertions are
noise-prone in CI, so the enforced bound is looser than the target and
each configuration takes the best of three runs, taken as alternating
unarmed/armed pairs.
"""

import time

from repro.cluster.cluster import Cluster
from repro.schedulers.registry import make_scheduler
from repro.sim.simulator import ClusterSimulator
from repro.trace.philly import generate_trace
from repro.trace.workload import build_jobs
from repro.verify import InvariantChecker


def build_specs(num_jobs=200):
    trace = generate_trace("1", num_jobs=num_jobs, seed=11, at_time_zero=True)
    return [s for s in build_jobs(trace, seed=11) if s.num_gpus <= 16]


def run_once(specs, tracer):
    simulator = ClusterSimulator(
        make_scheduler("muri-s", tracer=tracer),
        cluster=Cluster(2, 8),
        tracer=tracer,
    )
    return simulator.run(specs, "verify-overhead")


class TestArmedCheckerOverhead:
    def test_armed_checker_wall_time(self):
        specs = build_specs(200)

        def timed(tracer):
            start = time.perf_counter()
            run_once(specs, tracer)
            return time.perf_counter() - start

        # Alternating unarmed/armed pairs, so both sides sample the
        # same phases of a host whose speed drifts during the test.
        baseline = armed = float("inf")
        for _ in range(3):
            baseline = min(baseline, timed(None))
            armed = min(armed, timed(InvariantChecker()))
        assert armed <= baseline * 1.25 + 0.05, (
            f"armed invariant checker too slow: {armed:.3f}s vs "
            f"baseline {baseline:.3f}s"
        )

    def test_armed_run_is_clean_and_lean(self):
        specs = build_specs(60)
        checker = InvariantChecker()
        result = run_once(specs, checker)
        assert result.num_jobs > 0
        assert checker.violations == []
        # Default mode checks and drops: no stored events or counters.
        assert len(checker) == 0
        assert checker.counters == {}
        # Grouping/outcome provenance IS collected (violations need it).
        assert len(checker.provenance) > 0
