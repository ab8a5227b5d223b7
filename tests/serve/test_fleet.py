"""Fleet dispatcher: routing policies, tenancy, and conservation.

The dispatcher routes on a projected ledger, so every test here can
interrogate :attr:`FleetDispatcher.routing_log` — the full audit trail
of candidates, backlogs, and choices — instead of reverse-engineering
decisions from shard outcomes.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import check_fleet
from repro.dvfs import PredictiveController
from repro.serve import (
    DEADLINE as POLICY_DEADLINE,
    ENERGY_AWARE,
    LEAST_LOADED,
    POLICIES,
    ROUND_ROBIN,
    FleetConfig,
    FleetDispatcher,
    FleetShed,
    RecordPredictor,
    ServeConfig,
    ShardSpec,
    TenantSpec,
    TokenBucket,
    mixed_stream_jobs,
    parse_tenants,
    poisson_arrivals,
    serve_fleet,
    virtual_outcomes,
)
from repro.units import DVFS_SWITCH_TIME
from tests.conftest import FlatEnergyModel

from .conftest import DEADLINE, stream_records


class PricierEnergyModel(FlatEnergyModel):
    """Same accelerator, ten times the joules — the energy-aware
    policy must avoid it.  Module-level so shard specs stay picklable.
    """

    def job_energy(self, activity, point, duration):
        return 10.0 * super().job_energy(activity, point, duration)


def make_spec(levels, name, benchmark, energy_model=None, **config):
    config.setdefault("deadline", DEADLINE)
    config.setdefault("queue_depth", 64)
    return ShardSpec(
        name=name, benchmark=benchmark,
        controller=PredictiveController(levels, DVFS_SWITCH_TIME),
        energy_model=energy_model or FlatEnergyModel(),
        slice_energy_model=FlatEnergyModel(),
        predictor=RecordPredictor(),
        config=ServeConfig(**config))


def make_pool(levels, benchmarks=("alpha", "beta"), per=2, **config):
    return [make_spec(levels, f"{bench}#{k}", bench, **config)
            for bench in benchmarks for k in range(per)]


def mixed_jobs(levels, benchmarks=("alpha", "beta"), rate=200.0,
               n_jobs=200, seed=3, tenants=("default",)):
    records = {b: stream_records(levels, n=20) for b in benchmarks}
    arrivals = poisson_arrivals(rate, n_jobs=n_jobs, seed=seed)
    return mixed_stream_jobs(records, arrivals, seed=seed,
                             tenants=tenants)


# -- specs, tenants, config ------------------------------------------


def test_tenant_spec_parses_cli_atoms():
    assert TenantSpec.parse("gold") == TenantSpec("gold")
    assert TenantSpec.parse("gold:rate=100:burst=8") == \
        TenantSpec("gold", rate=100.0, burst=8.0)
    assert TenantSpec.parse("a:burst=2") == TenantSpec("a", burst=2.0)
    with pytest.raises(ValueError, match="bad tenant spec"):
        TenantSpec.parse(":rate=1")
    with pytest.raises(ValueError, match="bad tenant spec field"):
        TenantSpec.parse("a:rate")
    with pytest.raises(ValueError, match="unknown tenant spec key"):
        TenantSpec.parse("a:speed=9")
    with pytest.raises(ValueError, match="burst"):
        TenantSpec("a", rate=5.0, burst=0.5)


def test_parse_tenants_rejects_empty_and_duplicates():
    specs = parse_tenants("gold:rate=10,free")
    assert [t.name for t in specs] == ["gold", "free"]
    assert specs[0].rate == 10.0
    with pytest.raises(ValueError, match="empty"):
        parse_tenants(" , ")
    with pytest.raises(ValueError, match="duplicate"):
        parse_tenants("a,b,a")


def test_token_bucket_enforces_rate_on_virtual_clock():
    bucket = TokenBucket(rate=2.0, burst=2.0)
    assert bucket.allow(0.0)
    assert bucket.allow(0.0)          # burst exhausted
    assert not bucket.allow(0.0)
    assert not bucket.allow(0.25)     # half a token refilled
    assert bucket.allow(0.75)         # 1.5 tokens by now
    unlimited = TokenBucket(rate=0.0, burst=1.0)
    assert all(unlimited.allow(0.0) for _ in range(100))


def test_fleet_config_validates():
    with pytest.raises(ValueError, match="unknown policy"):
        FleetConfig(policy="fastest")
    with pytest.raises(ValueError, match="global_depth"):
        FleetConfig(global_depth=0)
    with pytest.raises(ValueError, match="min_active"):
        FleetConfig(min_active=0)
    with pytest.raises(ValueError, match="scale_down_backlog"):
        FleetConfig(scale_up_backlog=2.0, scale_down_backlog=2.0)
    # ``engine`` selects nothing: three values pass, ``vector`` names
    # its removal, anything else is rejected.
    for engine in (None, "auto", "scalar"):
        assert FleetConfig(engine=engine).engine == engine
    with pytest.raises(ValueError, match="vectorized serving engine "
                                         "was removed"):
        FleetConfig(engine="vector")
    with pytest.raises(ValueError, match="engine must be"):
        FleetConfig(engine="fast")


def test_dispatcher_validates_stream(asic_levels):
    specs = make_pool(asic_levels, per=1)
    dispatcher = FleetDispatcher(specs)
    jobs = mixed_jobs(asic_levels, n_jobs=10)
    with pytest.raises(ValueError, match="sorted"):
        dispatcher.dispatch(list(reversed(jobs)))
    bad_tenant = dataclasses.replace(jobs[0], tenant="ghost")
    with pytest.raises(ValueError, match="unknown tenant"):
        FleetDispatcher(specs).route(bad_tenant)
    bad_bench = dataclasses.replace(jobs[0], benchmark="gamma")
    with pytest.raises(ValueError, match="no pool instance"):
        FleetDispatcher(specs).route(bad_bench)
    with pytest.raises(ValueError, match="at least one instance"):
        FleetDispatcher([])


# -- routing policies ------------------------------------------------


def test_round_robin_rotates_per_benchmark(asic_levels):
    specs = make_pool(asic_levels, per=3)
    dispatcher = FleetDispatcher(
        specs, FleetConfig(policy=ROUND_ROBIN))
    jobs = mixed_jobs(asic_levels, n_jobs=60)
    dispatcher.dispatch(jobs)
    assert not dispatcher.sheds
    # Each benchmark's jobs cycle its three instances in strict order.
    for bench in ("alpha", "beta"):
        pool = [i for i, s in enumerate(specs) if s.benchmark == bench]
        chosen = [dispatcher.assignments[j.index] for j in jobs
                  if j.benchmark == bench]
        expected = [pool[k % len(pool)] for k in range(len(chosen))]
        assert chosen == expected


def test_least_loaded_routes_to_min_backlog(asic_levels):
    dispatcher = FleetDispatcher(
        make_pool(asic_levels, per=4),
        FleetConfig(policy=LEAST_LOADED))
    dispatcher.dispatch(mixed_jobs(asic_levels, rate=2000.0,
                                   n_jobs=300))
    routed = [d for d in dispatcher.routing_log if d.chosen is not None]
    assert routed
    for decision in routed:
        chosen_backlog = decision.backlogs[
            decision.candidates.index(decision.chosen)]
        assert chosen_backlog == min(decision.backlogs)


@settings(max_examples=25, deadline=None)
@given(gaps=st.lists(st.floats(min_value=1e-5, max_value=0.02),
                     min_size=1, max_size=60),
       seed=st.integers(min_value=0, max_value=2**16))
def test_least_loaded_never_picks_a_busier_instance(
        asic_levels, gaps, seed):
    """Property: under least-loaded routing, no decision ever chooses
    an instance whose projected backlog strictly exceeds another
    candidate's."""
    records = {"alpha": stream_records(asic_levels, n=10)}
    arrivals, now = [], 0.0
    for gap in gaps:
        now += gap
        arrivals.append(now)
    jobs = mixed_stream_jobs(records, arrivals, seed=seed)
    dispatcher = FleetDispatcher(
        [make_spec(asic_levels, f"alpha#{k}", "alpha")
         for k in range(3)],
        FleetConfig(policy=LEAST_LOADED))
    dispatcher.dispatch(jobs)
    for decision in dispatcher.routing_log:
        if decision.chosen is None:
            continue
        chosen_backlog = decision.backlogs[
            decision.candidates.index(decision.chosen)]
        assert all(chosen_backlog <= b for b in decision.backlogs)


def test_energy_aware_avoids_the_pricey_instance(asic_levels):
    specs = [
        make_spec(asic_levels, "alpha#cheap", "alpha"),
        make_spec(asic_levels, "alpha#pricey", "alpha",
                  energy_model=PricierEnergyModel()),
    ]
    dispatcher = FleetDispatcher(
        specs, FleetConfig(policy=ENERGY_AWARE))
    jobs = mixed_jobs(asic_levels, benchmarks=("alpha",), n_jobs=40)
    dispatcher.dispatch(jobs)
    assert not dispatcher.sheds
    assert set(dispatcher.assignments.values()) == {0}


def test_deadline_policy_sheds_infeasible_jobs(asic_levels):
    # One slow instance, arrivals far faster than service: the ledger
    # saturates and late arrivals can no longer make their deadline,
    # so the dispatcher sheds them instead of burning the instance.
    dispatcher = FleetDispatcher(
        make_pool(asic_levels, benchmarks=("alpha",), per=1),
        FleetConfig(policy=POLICY_DEADLINE))
    jobs = mixed_jobs(asic_levels, benchmarks=("alpha",),
                      rate=5000.0, n_jobs=200)
    dispatcher.dispatch(jobs)
    assert dispatcher.sheds
    assert all(s.reason == "deadline" for s in dispatcher.sheds)
    assert (len(dispatcher.sheds)
            + sum(len(sub) for sub in dispatcher.routed)
            == dispatcher.n_offered == 200)


# -- admission: rate limits, global depth, elastic scaling -----------


def test_rate_limited_tenant_sheds_only_its_own_jobs(asic_levels):
    tenants = (TenantSpec("gold"),
               TenantSpec("free", rate=20.0, burst=1.0))
    dispatcher = FleetDispatcher(
        make_pool(asic_levels), FleetConfig(policy=LEAST_LOADED),
        tenants=tenants)
    jobs = mixed_jobs(asic_levels, rate=2000.0, n_jobs=300,
                      tenants=("gold", "free"))
    dispatcher.dispatch(jobs)
    assert dispatcher.sheds
    assert all(s.reason == "rate_limit" and s.tenant == "free"
               for s in dispatcher.sheds)


def test_global_depth_sheds_at_admission(asic_levels):
    dispatcher = FleetDispatcher(
        make_pool(asic_levels, per=1),
        FleetConfig(policy=LEAST_LOADED, global_depth=2))
    jobs = mixed_jobs(asic_levels, rate=5000.0, n_jobs=200)
    dispatcher.dispatch(jobs)
    reasons = {s.reason for s in dispatcher.sheds}
    assert reasons == {"admission"}
    assert len(dispatcher.sheds) > 0


def test_elastic_scaling_widens_and_narrows_the_pool(asic_levels):
    config = FleetConfig(policy=LEAST_LOADED, elastic=True,
                         scale_up_backlog=2.0,
                         scale_down_backlog=0.5, min_active=1)
    dispatcher = FleetDispatcher(
        make_pool(asic_levels, benchmarks=("alpha",), per=4), config)
    assert dispatcher.n_active() == 1
    burst = mixed_jobs(asic_levels, benchmarks=("alpha",),
                       rate=3000.0, n_jobs=120)
    dispatcher.dispatch(burst)
    assert dispatcher.n_active() > 1
    peak = dispatcher.n_active()
    # A long quiet tail lets the watermark retire idle instances.
    last = burst[-1].arrival
    trickle = mixed_stream_jobs(
        {"alpha": stream_records(asic_levels, n=10)},
        [last + 1.0 + i for i in range(8)], seed=9)
    for job in trickle:
        dispatcher.route(job)
    assert dispatcher.n_active() < peak
    assert dispatcher.n_active() >= config.min_active
    assert (len(dispatcher.sheds)
            + sum(len(sub) for sub in dispatcher.routed)
            == dispatcher.n_offered)


# -- end-to-end: serve_fleet, parallelism, conservation --------------


@pytest.mark.parametrize("policy", POLICIES)
def test_check_fleet_clean_for_every_policy(asic_levels, policy):
    specs = make_pool(asic_levels, queue_depth=8)
    jobs = mixed_jobs(asic_levels, rate=800.0, n_jobs=250,
                      tenants=("gold", "free"))
    tenants = (TenantSpec("gold"),
               TenantSpec("free", rate=200.0, burst=10.0))
    result = serve_fleet(specs, jobs,
                         FleetConfig(policy=policy, strict=False),
                         tenants=tenants, workers=1)
    assert result.n_offered == 250
    assert (result.n_completed + result.n_fallback + result.n_shed
            == result.n_offered)
    assert check_fleet(result) == []
    summary = result.tenant_summary()
    assert set(summary) <= {"gold", "free"}
    for row in summary.values():
        assert row["offered"] == (row["completed"] + row["fallback"]
                                  + row["shed"])
    assert f"fleet[{policy}]" in result.describe()


def test_parallel_run_is_bit_identical_to_serial(asic_levels):
    def run(workers):
        specs = make_pool(asic_levels, queue_depth=8)
        jobs = mixed_jobs(asic_levels, rate=600.0, n_jobs=200,
                          tenants=("gold", "free"))
        return serve_fleet(
            specs, jobs,
            FleetConfig(policy=ROUND_ROBIN, strict=False),
            tenants=(TenantSpec("gold"), TenantSpec("free")),
            workers=workers)

    serial = run(1)
    parallel = run(4)
    assert serial.assignments == parallel.assignments
    assert serial.sheds == parallel.sheds
    for a, b in zip(serial.shards, parallel.shards):
        assert virtual_outcomes(a) == virtual_outcomes(b)


def test_check_fleet_catches_tampering(asic_levels):
    specs = make_pool(asic_levels, queue_depth=8)
    jobs = mixed_jobs(asic_levels, rate=600.0, n_jobs=120)
    result = serve_fleet(specs, jobs, FleetConfig(strict=False),
                         workers=1)
    assert check_fleet(result) == []

    # A job the dispatcher never offered: indices no longer partition.
    lost = dataclasses.replace(result, n_offered=result.n_offered + 1)
    assert any(v.code == "fleet.conservation"
               for v in check_fleet(lost))

    # A shed with an unknown reason.
    bad_shed = dataclasses.replace(result, sheds=result.sheds + [
        FleetShed(index=result.n_offered, benchmark="alpha",
                  tenant="default", arrival=99.0, reason="gremlins")])
    assert any(v.code == "fleet.shed" for v in check_fleet(bad_shed))

    # A job tagged for one benchmark landing on another's instance.
    swapped = dataclasses.replace(
        result, benchmarks=dict(result.benchmarks))
    some_index = next(iter(result.assignments))
    swapped.benchmarks[some_index] = "gamma"
    assert any(v.code == "fleet.routing"
               for v in check_fleet(swapped))


def test_serve_fleet_strict_raises_on_violation(asic_levels,
                                                monkeypatch):
    from repro.check import InvariantError

    specs = make_pool(asic_levels, queue_depth=8)
    jobs = mixed_jobs(asic_levels, rate=400.0, n_jobs=60)
    # Clean run under strict: reaching the return *is* the assertion.
    result = serve_fleet(specs, jobs, FleetConfig(strict=True),
                         workers=1)
    assert result.n_offered == 60

    # Corrupt a shard post-hoc and replay the checker directly.
    broken = dataclasses.replace(result)
    broken.shards[0].outcomes.pop()
    violations = check_fleet(broken)
    assert violations
    with pytest.raises(InvariantError):
        raise InvariantError(violations)


# -- the engine knob, the scalar diagnostic and serial degrade --------


@pytest.mark.parametrize("policy", POLICIES)
def test_fleet_engines_bit_identical_for_every_policy(asic_levels,
                                                      policy):
    """Every accepted ``FleetConfig.engine`` value (None, ``auto``,
    ``scalar``) selects the same single engine: identical routing and
    identical shard outcomes in canonical form, for all policies."""
    jobs = mixed_jobs(asic_levels, rate=800.0, n_jobs=300)

    def run(engine):
        return serve_fleet(
            make_pool(asic_levels), jobs,
            config=FleetConfig(policy=policy, engine=engine,
                               strict=False),
            workers=1)

    reference = run(None)
    for engine in ("auto", "scalar"):
        other = run(engine)
        assert other.assignments == reference.assignments
        assert other.sheds == reference.sheds
        for a, b in zip(reference.shards, other.shards):
            assert virtual_outcomes(a) == virtual_outcomes(b)
    assert check_fleet(reference) == []


def test_dispatch_unknown_benchmark_raises_at_failing_job(asic_levels):
    """A mid-stream job naming an unserved benchmark raises the
    dispatcher's ValueError, with the offered count at the failing
    job."""
    jobs = mixed_jobs(asic_levels, rate=500.0, n_jobs=60)
    bad = dataclasses.replace(jobs[30], benchmark="gamma")
    jobs = jobs[:30] + [bad] + jobs[31:]
    dispatcher = FleetDispatcher(
        make_pool(asic_levels), config=FleetConfig(policy=ROUND_ROBIN))
    with pytest.raises(ValueError, match="gamma"):
        dispatcher.dispatch(jobs)
    assert dispatcher.n_offered == 31


def test_serial_degrade_on_low_core_hosts(asic_levels, monkeypatch):
    """Process fan-out auto-degrades to serial when the host cannot
    give each shard two cores — counted, and still bit-identical."""
    from repro.obs import session
    from repro.serve import fleet as fleet_mod

    jobs = mixed_jobs(asic_levels, rate=400.0, n_jobs=120)

    def run(workers, cores):
        monkeypatch.setattr(fleet_mod, "usable_cores", lambda: cores)
        with session(command="degrade") as obs:
            result = serve_fleet(
                make_pool(asic_levels), jobs,
                config=FleetConfig(policy=ROUND_ROBIN, strict=False),
                workers=workers)
            degraded = obs.metrics.counters.get(
                "serve.fleet.serial_degrade", 0.0)
        return result, degraded

    serial, degraded_serial = run(workers=1, cores=1)
    # workers=1 never degrades (nothing to degrade).
    assert degraded_serial == 0.0
    parallel, degraded_parallel = run(workers=4, cores=2)
    # 4 shards on 2 cores: degrade kicks in exactly once.
    assert degraded_parallel == 1.0
    for a, b in zip(serial.shards, parallel.shards):
        assert virtual_outcomes(a) == virtual_outcomes(b)
    # With ample cores the fan-out is left alone.
    _, degraded_wide = run(workers=4, cores=64)
    assert degraded_wide == 0.0
