"""Property-based tests over whole simulations.

These drive randomized workloads through every scheduler and check the
invariants any correct cluster simulation must satisfy.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.core.ordering import group_iteration_time
from repro.elastic import attach_scalability
from repro.hetero.types import DEFAULT_TYPE_SCALING, get_gpu_type
from repro.jobs.job import JobSpec, JobStatus
from repro.jobs.resources import NUM_RESOURCES
from repro.models.zoo import DEFAULT_MODELS, get_model
from repro.observe.tracer import Tracer
from repro.schedulers.registry import SCHEDULERS, make_scheduler
from repro.sim.faults import FaultInjector
from repro.sim.simulator import ClusterSimulator

SCHEDULER_NAMES = sorted(SCHEDULERS)


@st.composite
def workloads(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    specs = []
    for index in range(n):
        model = get_model(draw(st.sampled_from(DEFAULT_MODELS)))
        gpus = draw(st.sampled_from([1, 1, 1, 2, 4]))
        iters = draw(st.integers(min_value=1, max_value=400))
        submit = draw(st.floats(min_value=0.0, max_value=2000.0))
        specs.append(
            JobSpec(
                profile=model.stage_profile(gpus),
                num_gpus=gpus,
                submit_time=submit,
                num_iterations=iters,
                model=model.name,
            )
        )
    return specs


@settings(max_examples=15, deadline=None)
@given(workloads(), st.sampled_from(SCHEDULER_NAMES))
def test_simulation_invariants(specs, scheduler_name):
    simulator = ClusterSimulator(
        make_scheduler(scheduler_name),
        cluster=Cluster(2, 4),
        scheduling_interval=120.0,
        restart_penalty=5.0,
    )
    result = simulator.run(specs, "prop")

    # Every job completes exactly once.
    assert set(result.jcts) == {spec.job_id for spec in specs}

    for spec in specs:
        jct = result.jcts[spec.job_id]
        finish = result.finish_times[spec.job_id]
        # JCT accounting is consistent.
        assert jct == pytest.approx(finish - spec.submit_time)
        # A job cannot beat its solo running time.
        assert jct >= spec.total_service_time * 0.999
        assert finish >= spec.submit_time

    # Makespan is the last completion.
    assert result.makespan == pytest.approx(max(result.finish_times.values()))

    # Utilization is a fraction.
    for point in result.timeseries:
        assert 0 <= point.queue_length <= len(specs)
        assert point.running_jobs >= 0
        for value in point.utilization:
            assert 0.0 <= value <= 1.0 + 1e-9


@settings(max_examples=10, deadline=None)
@given(workloads())
def test_simulation_deterministic(specs):
    def run():
        return ClusterSimulator(
            make_scheduler("muri-l"), cluster=Cluster(2, 4)
        ).run(specs_copy, "det")

    # Fresh Job state each run comes from fresh specs... specs are
    # immutable, so reusing them is safe; runtime Jobs are rebuilt.
    specs_copy = specs
    first = run()
    second = run()
    assert first.jcts == second.jcts
    assert first.makespan == second.makespan


@settings(max_examples=10, deadline=None)
@given(workloads())
def test_makespan_bounded_below_by_work(specs):
    """Makespan >= total GPU-work / capacity (no super-linear speedup
    beyond interleaving's resource bound is possible for one resource).
    """
    cluster = Cluster(2, 4)
    result = ClusterSimulator(
        make_scheduler("muri-s"), cluster=cluster
    ).run(specs, "bound")
    # Per-resource work bound: each resource can serve at most
    # total_gpus seconds of that resource's stage time per second.
    for resource in range(4):
        work = sum(
            spec.profile.durations[resource] * spec.num_iterations * spec.num_gpus
            for spec in specs
        )
        assert result.makespan >= work / cluster.total_gpus - 1e-6


def _fresh_period(simulator, rgroup):
    """A running group's period, computed from its current members."""
    profiles = tuple(job.profile for job in rgroup.active)
    offsets = tuple(rgroup.offsets[job.job_id] for job in rgroup.active)
    base = group_iteration_time(profiles, offsets, rgroup.group.num_resources)
    factor = simulator.contention.factor(
        len(rgroup.active), rgroup.allocation.spans_machines
    )
    if not rgroup.group.coordinated and len(rgroup.active) > 1:
        factor *= simulator.uncoordinated_penalty
    if rgroup.speedup != 1.0:
        factor /= rgroup.speedup
    return base * factor


def _assert_caches_fresh(simulator, state):
    total_gpus = simulator.cluster.total_gpus
    for rgroup in state.running.values():
        period = _fresh_period(simulator, rgroup)
        busy = tuple(
            sum(job.profile.durations[resource] for job in rgroup.active)
            for resource in range(NUM_RESOURCES)
        )
        weight = rgroup.group.num_gpus / total_gpus
        # Reading fills each cache, so a later membership change that
        # failed to invalidate it shows up as a stale value.
        assert rgroup.period(
            simulator.contention, simulator.uncoordinated_penalty
        ) == period
        assert rgroup.busy_times() == busy
        assert rgroup.steady_share(
            simulator.contention, simulator.uncoordinated_penalty, total_gpus
        ) == tuple(value / period * weight for value in busy)


@st.composite
def contended_workloads(draw):
    """Jobs arriving close together, so interleaved groups form and
    lose members while their partners keep running."""
    specs = []
    for _ in range(draw(st.integers(min_value=4, max_value=14))):
        model = get_model(draw(st.sampled_from(DEFAULT_MODELS)))
        gpus = draw(st.sampled_from([1, 1, 2, 4]))
        specs.append(
            JobSpec(
                profile=model.stage_profile(gpus),
                num_gpus=gpus,
                submit_time=draw(st.floats(min_value=0.0, max_value=300.0)),
                num_iterations=draw(st.integers(min_value=1, max_value=600)),
                model=model.name,
            )
        )
    return specs


@pytest.mark.parametrize("condition", ["faults", "typed", "resize"])
@pytest.mark.parametrize("scheduler_name", ["fifo", "muri-s", "antman"])
@settings(max_examples=12, deadline=None)
@given(
    specs=contended_workloads(),
    seed=st.integers(min_value=0, max_value=2**16),
    resize_step=st.integers(min_value=1, max_value=40),
)
def test_running_group_caches_match_fresh_computation(
    scheduler_name, condition, specs, seed, resize_step
):
    """After every step each running group's cached period, busy
    vector and steady utilization share equal (exactly) a computation
    from its current members, across faults with progress loss,
    landing-speed scaling on a typed cluster, and mid-run resizes."""
    kwargs = {}
    cluster = Cluster(2, 4)
    if condition == "faults":
        kwargs["fault_injector"] = FaultInjector(
            mean_time_between_faults=300.0, seed=seed, progress_loss=0.5
        )
    elif condition == "typed":
        cluster = Cluster(2, 4, machine_types=[
            get_gpu_type("k80"), get_gpu_type("a100")
        ])
        kwargs["landing_speed_scaling"] = DEFAULT_TYPE_SCALING
    else:
        specs = attach_scalability(specs, fraction=1.0, seed=seed, max_gpus=8)
    simulator = ClusterSimulator(
        make_scheduler(scheduler_name),
        cluster=cluster,
        scheduling_interval=120.0,
        restart_penalty=5.0,
        **kwargs,
    )
    state = simulator.begin(specs, "cache")
    resized = False
    while state.unfinished:
        simulator.step(state)
        _assert_caches_fresh(simulator, state)
        if condition == "resize" and not resized and state.steps >= resize_step:
            for rgroup in list(state.running.values()):
                job = rgroup.active[0]
                counts = [
                    count for count in job.spec.scalability.gpu_counts
                    if count != job.num_gpus
                ]
                if counts:
                    resized = simulator.resize(
                        state, job.job_id, counts[seed % len(counts)]
                    )
                    break
    result = simulator.finalize(state)
    assert set(result.jcts) == {spec.job_id for spec in specs}


def _time_to_next_event(simulator, rgroup):
    return rgroup.time_to_next_event(
        simulator.contention, simulator.uncoordinated_penalty
    )


def _assert_indexes_fresh(simulator, state):
    """``live`` lists the non-terminal jobs in ``jobs`` order, and a
    known ``group_horizon`` equals a fresh minimum over ``running``."""
    assert list(state.live) == [
        job_id
        for job_id, job in state.jobs.items()
        if job.status not in (JobStatus.FINISHED, JobStatus.FAILED)
    ]
    if not state.running:
        assert state.group_horizon is None
    elif state.group_horizon is not None:
        assert state.group_horizon == min(
            _time_to_next_event(simulator, rgroup)
            for rgroup in state.running.values()
        )


def _horizon_member(simulator, state):
    """A member of the running group whose next event is earliest, so
    stopping it changes the minimum a stale ``group_horizon`` holds."""
    rgroup = min(
        state.running.values(),
        key=lambda rgroup: _time_to_next_event(simulator, rgroup),
    )
    return rgroup.active[0]


@pytest.mark.parametrize("scheduler_name", ["fifo", "muri-s", "antman"])
@settings(max_examples=12, deadline=None)
@given(
    specs=contended_workloads(),
    late=contended_workloads(),
    seed=st.integers(min_value=0, max_value=2**16),
    actions=st.lists(
        st.sampled_from([None, None, "cancel", "resize", "inject"]),
        min_size=1,
        max_size=40,
    ),
)
def test_live_index_and_group_horizon_match_fresh_computation(
    scheduler_name, specs, late, seed, actions
):
    """After every step, inject, cancel and resize, ``state.live`` and
    ``state.group_horizon`` agree with a recomputation from ``jobs`` and
    ``running``, with faults (progress loss) on and elastic jobs."""
    specs = attach_scalability(specs, fraction=1.0, seed=seed, max_gpus=8)
    late = iter(attach_scalability(late, fraction=1.0, seed=seed, max_gpus=8))
    simulator = ClusterSimulator(
        make_scheduler(scheduler_name),
        cluster=Cluster(2, 4),
        scheduling_interval=120.0,
        restart_penalty=5.0,
        fault_injector=FaultInjector(
            mean_time_between_faults=300.0, seed=seed, progress_loss=0.5
        ),
    )
    state = simulator.begin(specs, "indexes")
    _assert_indexes_fresh(simulator, state)
    actions = iter(actions)
    while state.unfinished:
        simulator.step(state)
        _assert_indexes_fresh(simulator, state)
        action = next(actions, None)
        if action == "inject":
            spec = next(late, None)
            if spec is not None:
                simulator.inject(state, spec)
        elif action == "cancel" and state.running:
            simulator.cancel(state, _horizon_member(simulator, state).job_id)
        elif action == "cancel" and state.pending:
            simulator.cancel(state, next(iter(state.pending)))
        elif action == "resize" and state.running:
            job = _horizon_member(simulator, state)
            counts = [
                count for count in job.spec.scalability.gpu_counts
                if count != job.num_gpus
            ]
            if counts:
                simulator.resize(state, job.job_id, counts[seed % len(counts)])
        _assert_indexes_fresh(simulator, state)
        # Filling the horizon on demand must also give the fresh value.
        simulator.next_event_time(state)
        _assert_indexes_fresh(simulator, state)
    result = simulator.finalize(state)
    assert set(result.jcts) == {
        job_id
        for job_id, job in state.jobs.items()
        if job.status is JobStatus.FINISHED
    }


class _FaultAuditTracer(Tracer):
    """Records, for each ``job.fault`` event, the iterations the job
    holds at the moment the event is emitted."""

    def __init__(self):
        super().__init__()
        self.jobs = {}
        self.fault_holdings = []

    def emit(self, category, name, sim_time=0.0, **args):
        if name == "job.fault":
            self.fault_holdings.append(
                (args["remaining_after"],
                 self.jobs[args["job"]].remaining_iterations)
            )
        super().emit(category, name, sim_time, **args)


@pytest.mark.parametrize("scheduler_name", ["fifo", "muri-s", "antman"])
@settings(max_examples=10, deadline=None)
@given(specs=contended_workloads(), seed=st.integers(min_value=0, max_value=2**16))
def test_tracing_leaves_faulted_typed_runs_unchanged(scheduler_name, specs, seed):
    """On a typed cluster with landing-speed scaling, a restart penalty
    and faults with progress loss, an enabled tracer changes nothing
    in the result; every finished job has exactly one ``job.finish``
    event at its finish time, and every ``job.fault`` event reports the
    iterations the job really holds after the fault."""

    def run(tracer):
        simulator = ClusterSimulator(
            make_scheduler(scheduler_name, tracer=tracer),
            cluster=Cluster(2, 4, machine_types=[
                get_gpu_type("k80"), get_gpu_type("a100")
            ]),
            scheduling_interval=120.0,
            restart_penalty=5.0,
            fault_injector=FaultInjector(
                mean_time_between_faults=300.0, seed=seed, progress_loss=0.3
            ),
            landing_speed_scaling=DEFAULT_TYPE_SCALING,
            tracer=tracer,
        )
        state = simulator.begin(specs, "traced")
        if tracer is not None:
            tracer.jobs = state.jobs
        while state.unfinished:
            simulator.step(state)
        payload = simulator.finalize(state).to_dict()
        payload.pop("wall_clock")
        return payload

    tracer = _FaultAuditTracer()
    traced = run(tracer)
    assert traced == run(None)

    finishes = {}
    for event in tracer.events:
        if event.name == "job.finish":
            finishes.setdefault(event.args["job"], []).append(event.sim_time)
    assert finishes == {
        int(job_id): [finish_time]
        for job_id, finish_time in traced["finish_times"].items()
    }
    for reported, held in tracer.fault_holdings:
        assert reported == held
