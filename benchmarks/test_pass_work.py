"""Pass-work gate: a ``repro report`` pass does each piece of work once.

At scale 0.05 this runs the experiments that share the pass memos —
``table3``, ``taxonomy``, ``fig2``, ``fig3`` and ``fig11`` — as one
pass, and counts three kinds of work:

* workload generations: one per design, although Table 3, the
  taxonomy and the bundle builds all ask for each workload;
* PID grid searches: one per distinct training series, although the
  taxonomy, ``fig3`` and ``fig11`` each tune a PID controller per
  design;
* Fig 2 frame simulations: only the frames that are not h264 test
  items (those take their cycles from the bundle's test records), and
  none for ``fig3``, which replays the Fig 2 series.

The pass runs twice with ``clear_bundle_cache()`` between and must
count the same both times: the memos are dropped, so every pass
starts cold.  All three counts are deterministic, so the gate holds
on any host.

Run it with ``PYTHONPATH=src python -m pytest benchmarks/test_pass_work.py``.
"""

from repro.dvfs import pid
from repro.experiments import (
    clear_bundle_cache,
    ext_taxonomy,
    fig02_variation,
    fig03_pid,
    fig11_schemes,
    runner,
    table3,
)
from repro.workloads import (
    ALL_BENCHMARKS,
    fig2_clips,
    generate_clip,
    registry,
)

SCALE = 0.05
PASS = (table3, ext_taxonomy, fig02_variation, fig03_pid, fig11_schemes)


class _CountingSimulation:
    # A simulation whose ``run`` calls are counted.
    def __init__(self, sim, work):
        self._sim = sim
        self._work = work

    def __getattr__(self, name):
        return getattr(self._sim, name)

    def run(self, *args, **kwargs):
        self._work["fig2_frames"] += 1
        return self._sim.run(*args, **kwargs)


def _pass_work(monkeypatch):
    # One pass of the experiments with every piece of work counted.
    work = {"generations": 0, "pid_searches": 0, "fig2_frames": 0}

    def counted(key, real):
        def wrapper(*args, **kwargs):
            work[key] += 1
            return real(*args, **kwargs)
        return wrapper

    make_simulation = fig02_variation.make_simulation
    with monkeypatch.context() as patch:
        patch.setattr(registry, "_generate",
                      counted("generations", registry._generate))
        patch.setattr(pid, "_grid_search",
                      counted("pid_searches", pid._grid_search))
        patch.setattr(fig02_variation, "make_simulation",
                      lambda *a, **k: _CountingSimulation(
                          make_simulation(*a, **k), work))
        for module in PASS:
            module.run(SCALE)
    return work


def _expected_work():
    # Read off the bundles the pass built.
    bundles = [runner.bundle_for(name, SCALE) for name in ALL_BENCHMARKS]
    h264 = bundles[ALL_BENCHMARKS.index("h264")]
    test_items = set(h264.workload.test)
    n_frames = max(int(round(100 * SCALE)), 10)
    return {
        "generations": len(ALL_BENCHMARKS),
        "pid_searches": len({tuple(b.train_cycles) for b in bundles}),
        "fig2_frames": sum(frame not in test_items
                           for spec in fig2_clips(n_frames)
                           for frame in generate_clip(spec)),
    }


def test_pass_does_each_piece_of_work_once(monkeypatch):
    clear_bundle_cache()
    first = _pass_work(monkeypatch)
    expected = _expected_work()
    clear_bundle_cache()
    second = _pass_work(monkeypatch)
    clear_bundle_cache()
    print(f"pass work at scale {SCALE}: {first}")
    assert first == expected
    assert second == first, "a pass after clear_bundle_cache() ran warm"
