"""The pinned performance benchmark suite behind ``repro bench``.

Perf claims in this repo are not prose — they are committed numbers.
``repro bench`` runs a fixed suite (cold grouping at several queue
sizes, warm event-regroup latency percentiles, the service loop's
submit-to-decision latency, sweep throughput, the fleet front-end's
admission latency and drain throughput, the elastic arm's cold
renegotiate-and-group step and per-tick renegotiation latency, and
the production-scale trace-replay path: CSV ingestion plus the batch
event-driven harness, and the heterogeneous placement arm's
throughput-aware-vs-default makespan ratio) and writes one
``BENCH_<suite>.json`` per :data:`~repro.bench.suite.SUITES` row
(:func:`~repro.bench.suite.run_suite`) at the repo root.  Those files are committed; CI re-runs the quick suite and fails when a
gated metric regresses more than the tolerance
(``tools/diff_metrics.py --bench``).

Raw seconds are machine-speed dependent, so every benchmark also
reports a *normalized* value: its time divided by the time of a fixed
interpreter-bound calibration workload measured in the same process
(:func:`~repro.bench.suite.calibrate`).  Gating happens on the
normalized numbers, which transfer across machines to first order.
See ``docs/performance.md`` for the model and the re-baselining
procedure.
"""

from repro.bench.suite import (
    SCHEMA_VERSION,
    SUITES,
    calibrate,
    gated_metrics,
    load_bench,
    run_suite,
    write_bench,
)

__all__ = [
    "SCHEMA_VERSION",
    "SUITES",
    "calibrate",
    "gated_metrics",
    "load_bench",
    "run_suite",
    "write_bench",
]
