"""Synthetic H.264 bitstream workload (Fig 2's three clips and the
five-clip test set).

Real H.264 job time varies because frame content drives per-macroblock
mode decisions (Sec. 2.3).  The generator reproduces that statistical
structure per clip:

* a frame-level complexity process — AR(1) with occasional scene cuts;
* scene-cut frames encode mostly intra macroblocks with heavy residue
  (the execution-time spikes PID controllers trip over, Fig 3);
* per-macroblock draws of coding mode (intra/inter/skip), transform
  coefficient count, motion-vector precision (full/half/quarter pel),
  and an entropy-coding irregularity term.

All frames of one resolution have the same macroblock count, matching
the paper's "same size" clips.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .rng import clip, clipped_normal, clipped_normal_int, stream

MB_TYPE_INTRA = 0
MB_TYPE_INTER = 1
MB_TYPE_SKIP = 2

MAX_COEFFS = 96
MAX_ENTROPY = 31


@dataclass(frozen=True)
class MacroblockDesc:
    """One macroblock's decode-relevant content descriptors."""

    mb_type: int
    n_coeffs: int     # transform coefficients to decode (residue cost)
    mv_frac: int      # 0 full-pel, 1 half-pel, 2 quarter-pel
    entropy: int      # serial entropy-decode irregularity (0..31)
    cabac: int = 0    # hidden arithmetic-coder state (0..15): drives a
                      # serial stall no counter captures (error source)


@dataclass(frozen=True)
class Frame:
    """One job: a frame's worth of macroblocks."""

    index: int
    clip: str
    is_scene_cut: bool
    mbs: Tuple[MacroblockDesc, ...]


@dataclass(frozen=True)
class ClipSpec:
    """Statistical parameters of one synthetic clip."""

    name: str
    n_frames: int
    seed: int
    mb_count: int = 54            # 9x6 macroblocks, one resolution
    coeff_mean: float = 40.0      # average coefficients per macroblock
    coeff_rho: float = 0.85       # AR(1) persistence of complexity
    coeff_sigma: float = 6.0      # innovation of the complexity process
    mb_coeff_sigma: float = 12.0  # within-frame macroblock spread
    inter_fraction: float = 0.7   # P(inter) on a normal frame
    skip_fraction: float = 0.12   # P(skip) on a normal frame
    qpel_fraction: float = 0.35   # P(quarter-pel | inter)
    scene_cut_prob: float = 0.03


def generate_clip(spec: ClipSpec) -> List[Frame]:
    """Generate all frames of a clip."""
    content = stream(spec.seed, f"video:{spec.name}:content")
    cuts = stream(spec.seed, f"video:{spec.name}:cuts")
    frames: List[Frame] = []
    complexity = spec.coeff_mean
    for index in range(spec.n_frames):
        is_cut = index == 0 or cuts.random() < spec.scene_cut_prob
        if is_cut:
            # An I-frame: complexity spikes, intra-only coding.
            complexity = clipped_normal(
                content, spec.coeff_mean * 1.5, spec.coeff_sigma * 2,
                5.0, MAX_COEFFS - 1)
        else:
            complexity = (
                spec.coeff_mean
                + spec.coeff_rho * (complexity - spec.coeff_mean)
                + content.normal(0.0, spec.coeff_sigma)
            )
            complexity = clip(complexity, 5.0, MAX_COEFFS - 1.0)
        cabac_stress = clipped_normal(content, 7.5, 3.5, 1.0, 14.0)
        mbs = tuple(
            _draw_macroblock(content, spec, complexity, is_cut,
                             cabac_stress)
            for _ in range(spec.mb_count)
        )
        frames.append(Frame(index=index, clip=spec.name,
                            is_scene_cut=is_cut, mbs=mbs))
    return frames


def _draw_macroblock(rng, spec: ClipSpec, complexity: float,
                     is_cut: bool, cabac_stress: float) -> MacroblockDesc:
    n_coeffs = clipped_normal_int(rng, complexity, spec.mb_coeff_sigma,
                                  0, MAX_COEFFS)
    if is_cut:
        mb_type = MB_TYPE_INTRA
        n_coeffs = min(int(n_coeffs * 1.3) + 8, MAX_COEFFS)
    else:
        roll = rng.random()
        if roll < spec.skip_fraction:
            mb_type = MB_TYPE_SKIP
            n_coeffs = 0
        elif roll < spec.skip_fraction + spec.inter_fraction:
            mb_type = MB_TYPE_INTER
        else:
            mb_type = MB_TYPE_INTRA
    if mb_type == MB_TYPE_INTER:
        roll = rng.random()
        if roll < spec.qpel_fraction:
            mv_frac = 2
        elif roll < spec.qpel_fraction + 0.35:
            mv_frac = 1
        else:
            mv_frac = 0
    else:
        mv_frac = 0
    entropy = int(rng.integers(0, MAX_ENTROPY + 1))
    cabac = clipped_normal_int(rng, cabac_stress, 3.0, 0, 15)
    return MacroblockDesc(mb_type=mb_type, n_coeffs=n_coeffs,
                          mv_frac=mv_frac, entropy=entropy, cabac=cabac)


# -- the paper's named clips (Fig 2) + train/test sets ----------------------

def fig2_clips(n_frames: int = 100) -> List[ClipSpec]:
    """coastguard / foreman / news with distinct content statistics."""
    return [
        ClipSpec("coastguard", n_frames, seed=101, coeff_mean=55.0,
                 coeff_rho=0.92, coeff_sigma=4.0, inter_fraction=0.78,
                 qpel_fraction=0.45, scene_cut_prob=0.0),
        ClipSpec("foreman", n_frames, seed=102, coeff_mean=42.0,
                 coeff_rho=0.85, coeff_sigma=7.0, inter_fraction=0.7,
                 qpel_fraction=0.35, scene_cut_prob=0.02),
        ClipSpec("news", n_frames, seed=103, coeff_mean=31.0,
                 coeff_rho=0.8, coeff_sigma=5.0, inter_fraction=0.62,
                 skip_fraction=0.3, qpel_fraction=0.2,
                 scene_cut_prob=0.04),
    ]


def train_clips(n_frames: int = 100) -> List[ClipSpec]:
    """Two training videos (Table 3)."""
    return [
        ClipSpec("train_a", n_frames, seed=201, coeff_mean=48.0,
                 coeff_rho=0.88, inter_fraction=0.72,
                 qpel_fraction=0.4, scene_cut_prob=0.02),
        ClipSpec("train_b", n_frames, seed=202, coeff_mean=30.0,
                 coeff_rho=0.82, coeff_sigma=8.0, inter_fraction=0.65,
                 skip_fraction=0.22, qpel_fraction=0.25,
                 scene_cut_prob=0.04),
    ]


def test_clips(n_frames: int = 60) -> List[ClipSpec]:
    """Five test videos (Table 3), same resolution as training."""
    return fig2_clips(n_frames) + [
        ClipSpec("mobile", n_frames, seed=104, coeff_mean=62.0,
                 coeff_rho=0.9, coeff_sigma=5.0, inter_fraction=0.75,
                 qpel_fraction=0.5, scene_cut_prob=0.01),
        ClipSpec("container", n_frames, seed=105, coeff_mean=30.0,
                 coeff_rho=0.75, coeff_sigma=4.0, inter_fraction=0.6,
                 skip_fraction=0.22, qpel_fraction=0.15,
                 scene_cut_prob=0.05),
    ]


def generate_clips(specs: Sequence[ClipSpec]) -> List[Frame]:
    """Concatenate the frames of several clips."""
    frames: List[Frame] = []
    for spec in specs:
        frames.extend(generate_clip(spec))
    return frames
