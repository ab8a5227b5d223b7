"""One job-accounting kernel: episodes and streams charge jobs alike.

``run_episode`` and ``AcceleratorStream`` both charge every executed
job through :func:`repro.runtime.episode.charge_job`, so a periodic
stream is an episode to the last bit, and a stream's clock is the
clock its outcomes report.
"""

from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dvfs import HistoryController, PredictiveController
from repro.runtime import JobOutcome, run_episode
from repro.serve import (
    SHED,
    AcceleratorStream,
    RecordPredictor,
    ServeConfig,
    StreamJob,
    serve_stream,
)
from repro.units import DVFS_SWITCH_TIME
from tests.conftest import TASK, FlatEnergyModel, job

from .conftest import DEADLINE


def periodic_stream(controller, records, deadline, energy_model,
                    slice_energy_model, t_switch):
    """A stream that releases job *i* at ``i * deadline``, never sheds
    and runs one job per batch: an episode's schedule."""
    stream = AcceleratorStream(
        "periodic", controller, energy_model,
        slice_energy_model=slice_energy_model,
        predictor=RecordPredictor(),
        config=ServeConfig(deadline=deadline, t_switch=t_switch,
                           queue_depth=len(records) + 1, batch_max=1))
    jobs = [StreamJob(index=i, record=record, arrival=i * deadline)
            for i, record in enumerate(records)]
    return serve_stream(stream, jobs)


@pytest.mark.parametrize("tech", ["asic", "fpga"])
@pytest.mark.parametrize("name", ["cjpeg", "h264", "djpeg", "aes"])
def test_episode_equals_periodic_stream(shared_bundle, name, tech):
    from repro.experiments import (
        ALL_SCHEMES,
        make_controller,
        run_scheme,
        tech_context,
    )

    ctx = tech_context(shared_bundle(name, 0.05), tech)
    for scheme in ALL_SCHEMES:
        episode = run_scheme(ctx, scheme)
        served = periodic_stream(
            make_controller(ctx, scheme), ctx.bundle.test_records,
            ctx.config.deadline, ctx.energy_model,
            ctx.slice_energy_model, ctx.config.t_switch)
        assert len(served.outcomes) == len(episode.outcomes)
        for i, (ours, theirs) in enumerate(zip(episode.outcomes,
                                               served.outcomes)):
            for f in fields(JobOutcome):
                assert getattr(ours, f.name) == getattr(theirs, f.name), \
                    (scheme, i, f.name)


@pytest.mark.parametrize("controller_cls",
                         [PredictiveController, HistoryController])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_stream_clock_is_its_outcomes_clock(asic_levels, controller_cls,
                                            data):
    n = data.draw(st.integers(min_value=1, max_value=30), label="n")
    f0 = asic_levels.nominal.frequency
    records = []
    for i in range(n):
        cycles = data.draw(st.integers(min_value=1,
                                       max_value=int(f0 * DEADLINE)))
        slice_cycles = data.draw(st.integers(min_value=0,
                                             max_value=int(f0 * 1e-3)))
        records.append(replace(job(i, cycles),
                               predicted_cycles=float(cycles),
                               slice_cycles=slice_cycles))
    gaps = data.draw(st.lists(st.floats(min_value=0.0,
                                        max_value=2 * DEADLINE),
                              min_size=n, max_size=n), label="gaps")
    arrivals = []
    t = 0.0
    for gap in gaps:
        t += gap
        arrivals.append(t)
    stream = AcceleratorStream(
        "synthetic", controller_cls(asic_levels, DVFS_SWITCH_TIME),
        FlatEnergyModel(), slice_energy_model=FlatEnergyModel(),
        predictor=RecordPredictor(),
        config=ServeConfig(
            deadline=DEADLINE,
            queue_depth=data.draw(st.integers(1, 8), label="queue_depth"),
            batch_max=data.draw(st.integers(1, 4), label="batch_max")))
    result = serve_stream(stream, [
        StreamJob(index=i, record=record, arrival=arrival)
        for i, (record, arrival) in enumerate(zip(records, arrivals))])

    finish = 0.0
    for o in result.outcomes:
        if o.status == SHED:
            continue
        assert o.start == max(finish, o.release)
        finish = o.finish
    assert stream.now == result.makespan


@pytest.mark.parametrize("runner", ["episode", "stream"])
def test_missing_slice_energy_model_raises(asic_levels, runner):
    records = [replace(job(i, 100_000), predicted_cycles=100_000.0,
                       slice_cycles=100) for i in range(3)]
    controller = PredictiveController(asic_levels, DVFS_SWITCH_TIME)
    with pytest.raises(ValueError, match="slice energy model"):
        if runner == "episode":
            run_episode(controller, records, TASK, FlatEnergyModel(),
                        slice_energy_model=None)
        else:
            periodic_stream(controller, records, TASK.deadline,
                            FlatEnergyModel(), None, DVFS_SWITCH_TIME)
