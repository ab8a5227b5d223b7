"""Per-benchmark train/test workloads (Table 3 of the paper).

``scale`` shrinks or grows job counts uniformly (1.0 reproduces the
structure of Table 3 at a laptop-friendly size: the paper's 600/1500
h264 frames become 200/300, everything else keeps its 100/200-job
shape).  Train and test sets always use disjoint random seeds.

Generation is seeded, so a workload is a pure function of
``(name, scale)``: :func:`workload_for` builds each one once per
process and hands every later caller the same immutable object, until
:func:`clear_workload_cache` drops them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from ..obs import span
from .datastream import generate_pieces
from .images import generate_images, generate_raw_images
from .particles import generate_trajectory
from .video import generate_clips, test_clips, train_clips

ALL_BENCHMARKS = ("h264", "cjpeg", "djpeg", "md", "stencil", "aes", "sha")


@dataclass(frozen=True)
class BenchmarkWorkload:
    """Train and test items for one benchmark (immutable: tuples of
    frozen items, shared by every caller of :func:`workload_for`)."""

    name: str
    train: Tuple[Any, ...]
    test: Tuple[Any, ...]
    train_description: str
    test_description: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "train", tuple(self.train))
        object.__setattr__(self, "test", tuple(self.test))


def _count(base: int, scale: float, floor: int = 8) -> int:
    return max(int(round(base * scale)), floor)


#: Generated workloads, keyed by ``(name, scale)``.
_WORKLOADS: Dict[Tuple[str, float], BenchmarkWorkload] = {}


def workload_for(name: str, scale: float = 1.0) -> BenchmarkWorkload:
    """The Table 3 workload for one benchmark, generated on first use."""
    workload = _WORKLOADS.get((name, scale))
    if workload is None:
        with span("workloads", benchmark=name, scale=scale):
            workload = _generate(name, scale)
        _WORKLOADS[(name, scale)] = workload
    return workload


def clear_workload_cache() -> None:
    """Drop every generated workload; the next call regenerates."""
    _WORKLOADS.clear()


def _generate(name: str, scale: float) -> BenchmarkWorkload:
    """Build the Table 3 workload for one benchmark."""
    if name == "h264":
        n_train = _count(100, scale)
        n_test = _count(60, scale)
        return BenchmarkWorkload(
            name=name,
            train=generate_clips(train_clips(n_train)),
            test=generate_clips(test_clips(n_test)),
            train_description=f"2 videos ({2 * n_train} frames, same size)",
            test_description=f"5 videos ({5 * n_test} frames, same size)",
        )
    if name == "cjpeg":
        n = _count(100, scale)
        return BenchmarkWorkload(
            name=name,
            train=generate_images(n, seed=311, min_dim_blocks=12,
                                  max_dim_blocks=48),
            test=generate_images(n, seed=312, min_dim_blocks=12,
                                 max_dim_blocks=48),
            train_description=f"{n} images (various sizes)",
            test_description=f"{n} images (various sizes)",
        )
    if name == "djpeg":
        n = _count(100, scale)
        return BenchmarkWorkload(
            name=name,
            train=generate_images(n, seed=321, min_dim_blocks=18,
                                  max_dim_blocks=45),
            test=generate_images(n, seed=322, min_dim_blocks=18,
                                 max_dim_blocks=45),
            train_description=f"{n} images (various sizes)",
            test_description=f"{n} images (various sizes)",
        )
    if name == "md":
        n = _count(200, scale)
        return BenchmarkWorkload(
            name=name,
            train=generate_trajectory(n, seed=331),
            test=generate_trajectory(n, seed=332),
            train_description=f"{n} steps (particle pos. changes)",
            test_description=f"{n} steps (particle pos. changes)",
        )
    if name == "stencil":
        n = _count(100, scale)
        return BenchmarkWorkload(
            name=name,
            train=generate_raw_images(n, seed=341),
            test=generate_raw_images(n, seed=342),
            train_description=f"{n} images (various sizes)",
            test_description=f"{n} images (various sizes)",
        )
    if name == "aes":
        n = _count(100, scale)
        mb = 1024 * 1024
        return BenchmarkWorkload(
            name=name,
            train=generate_pieces(n, seed=351, min_bytes=mb,
                                  max_bytes=int(6.35 * mb)),
            test=generate_pieces(n, seed=352, min_bytes=mb,
                                 max_bytes=int(6.35 * mb)),
            train_description=f"{n} pieces of data (various sizes)",
            test_description=f"{n} pieces of data (various sizes)",
        )
    if name == "sha":
        n = _count(100, scale)
        kb = 1024
        return BenchmarkWorkload(
            name=name,
            train=generate_pieces(n, seed=361, min_bytes=400 * kb,
                                  max_bytes=5000 * kb),
            test=generate_pieces(n, seed=362, min_bytes=400 * kb,
                                 max_bytes=5000 * kb),
            train_description=f"{n} pieces of data (various sizes)",
            test_description=f"{n} pieces of data (various sizes)",
        )
    raise KeyError(f"unknown benchmark {name!r}; "
                   f"choose from {ALL_BENCHMARKS}")
