"""Pass memos: the experiments share one workload generation, one PID
search per training series and one Fig 2 series, each bit-identical
to recomputing it, and ``clear_bundle_cache`` drops them all."""

import dataclasses

import pytest

from repro.dvfs import tune_pid
from repro.experiments import clear_bundle_cache, fig02_variation, runner
from repro.workloads import fig2_clips, generate_clip, workload_for

SCALE = 0.1


@pytest.fixture
def cold():
    clear_bundle_cache()
    yield
    clear_bundle_cache()


def test_fig2_record_reuse_matches_simulating_every_frame(cold):
    bundle = runner.bundle_for("h264", SCALE)
    n_frames = max(int(round(100 * SCALE)), 10)
    test_items = set(bundle.workload.test)
    reused = sum(frame in test_items for spec in fig2_clips(n_frames)
                 for frame in generate_clip(spec))
    assert 0 < reused < 3 * n_frames
    # No test records: every Fig 2 frame is simulated.
    every_frame = fig02_variation.clip_times(
        dataclasses.replace(bundle, test_records=[]), n_frames)
    assert fig02_variation.run(SCALE).series_ms == every_frame


def test_clear_bundle_cache_drops_every_pass_memo(cold):
    bundle = runner.bundle_for("h264", SCALE)
    workload = workload_for("h264", SCALE)
    fig2 = fig02_variation.run(SCALE)
    gains = tune_pid(bundle.train_cycles)
    # Within a pass every caller shares one object.
    assert bundle.workload is workload
    assert fig02_variation.run(SCALE) is fig2
    assert tune_pid(list(bundle.train_cycles)) is gains

    clear_bundle_cache()
    fresh = runner.bundle_for("h264", SCALE)
    assert fresh is not bundle
    assert fresh.workload is not workload
    assert fresh.workload == workload
    again = fig02_variation.run(SCALE)
    assert again is not fig2
    assert again == fig2
    retuned = tune_pid(fresh.train_cycles)
    assert retuned is not gains
    assert retuned == gains
