"""Fig 2: per-frame execution time of the H.264 decoder for three
clips (coastguard, foreman, news) at one resolution.

The three clips open the h264 test set too, so their first frames are
already simulated in the bundle's test records; only the frames past
the test set's clip length are simulated here.  The series is computed
once per ``(scale, n_frames)`` and pass (Fig 3 replays it)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..rtl import make_simulation
from ..units import MS
from ..workloads.video import fig2_clips, generate_clip
from .runner import BenchmarkBundle, bundle_for, pass_memo
from .setup import default_config


@dataclass(frozen=True)
class Fig2Result:
    """Per-clip execution-time series in milliseconds."""

    series_ms: Dict[str, Tuple[float, ...]]

    @property
    def clips(self) -> List[str]:
        return list(self.series_ms)

    def spread(self, clip: str) -> float:
        """Max minus min execution time of a clip (ms)."""
        values = self.series_ms[clip]
        return max(values) - min(values)


#: Fig 2 results, keyed by ``(scale, n_frames)``.
_RESULTS: Dict[Tuple[float, int], Fig2Result] = pass_memo()


def run(scale: Optional[float] = None,
        n_frames: Optional[int] = None) -> Fig2Result:
    """The three Fig 2 clips' per-frame execution times."""
    if scale is None:
        scale = default_config().scale
    if n_frames is None:
        n_frames = max(int(round(100 * scale)), 10)
    result = _RESULTS.get((scale, n_frames))
    if result is None:
        result = _RESULTS[(scale, n_frames)] = Fig2Result(
            series_ms=clip_times(bundle_for("h264", scale), n_frames))
    return result


def clip_times(bundle: BenchmarkBundle,
               n_frames: int) -> Dict[str, Tuple[float, ...]]:
    """Per-frame times (ms) of the Fig 2 clips on the bundle's design.

    A frame equal to one of the bundle's test items takes that item's
    recorded cycle count instead of being simulated again: it is the
    same design run on the same job.
    """
    f0 = bundle.design.nominal_frequency
    recorded = {item: record.actual_cycles for item, record
                in zip(bundle.workload.test, bundle.test_records)}
    sim = make_simulation(bundle.package.module,
                          track_state_cycles=False)
    series: Dict[str, Tuple[float, ...]] = {}
    for spec in fig2_clips(n_frames):
        times = []
        for frame in generate_clip(spec):
            cycles = recorded.get(frame)
            if cycles is None:
                job = bundle.design.encode_job(frame)
                sim.reset()
                sim.load(*job.as_pair())
                cycles = sim.run().cycles
            times.append(cycles / f0 / MS)
        series[spec.name] = tuple(times)
    return series


def to_text(result: Fig2Result) -> str:
    """Render the result the way the paper's figure reads."""
    lines = ["Fig 2: h264 per-frame execution time (ms) at nominal V/f"]
    for clip, values in result.series_ms.items():
        lines.append(
            f"  {clip:12s} n={len(values):4d} "
            f"min {min(values):5.2f}  avg {sum(values)/len(values):5.2f}  "
            f"max {max(values):5.2f}"
        )
    return "\n".join(lines)
