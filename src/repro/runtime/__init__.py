"""Runtime: jobs, episodes, and result aggregation."""

from .episode import (
    EpisodeResult,
    charge_job,
    run_episode,
    strict_checks_enabled,
    switch_window_energy,
)
from .jobs import JobOutcome, JobRecord, Task
from .soc import AcceleratorStream, SocResult, run_soc
from .stats import SchemeSummary, average_summaries, format_table, summarize
from .trace import TracePoint, render_trace, sparkline, trace_episode

__all__ = [
    "AcceleratorStream", "EpisodeResult", "JobOutcome", "JobRecord",
    "SchemeSummary", "SocResult", "Task", "TracePoint",
    "average_summaries", "charge_job", "format_table", "render_trace",
    "run_episode", "run_soc", "sparkline", "strict_checks_enabled",
    "summarize", "switch_window_energy", "trace_episode",
]
