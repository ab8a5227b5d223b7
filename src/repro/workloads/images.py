"""Synthetic image workloads for cjpeg, djpeg and stencil.

"100 images (various sizes)" per Table 3: dimensions follow a
log-AR(1) process with regime jumps, so job times span more than an
order of magnitude.  Sizes within a burst correlate, but every regime
jump blindsides reactive controllers (Sec. 2.4: images arriving at the
JPEG accelerator carry no reliable correlation a history-based scheme
could bank on).

Images carry per-strip content: a strip is one 8-pixel-tall row of
8x8 blocks, the granularity the accelerators' control loops iterate
at.  ``detail`` controls how many non-zero transform coefficients each
block produces, i.e. entropy-coding effort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .rng import clip, clipped_normal_int, stream


@dataclass(frozen=True)
class Strip:
    """One block-row of an image."""

    n_blocks: int
    nnz_total: int   # non-zero coefficients across the strip
    noise: int       # serial-decode irregularity (0..15), per strip


@dataclass(frozen=True)
class Image:
    """One encode/decode/filter job."""

    index: int
    width_blocks: int
    height_blocks: int
    detail: float
    restart: bool             # djpeg: restart markers present
    kernel: int               # stencil: 0 box3, 1 gauss5, 2 sharpen
    strips: Tuple[Strip, ...]

    @property
    def n_blocks(self) -> int:
        return self.width_blocks * self.height_blocks

    @property
    def size_class(self) -> int:
        """Coarse size bucket (what a table-based controller keys on)."""
        return max(self.n_blocks.bit_length() - 1, 0)


def _correlated_dims(sizes, n: int, min_dim: int, max_dim: int,
                     rho: float = 0.78, jump_prob: float = 0.10):
    """Log-AR(1) dimension pairs: batches of similar-sized images with
    occasional regime switches (a new page, a new burst)."""
    import numpy as np

    lo, hi = np.log(min_dim), np.log(max_dim)
    mid = (lo + hi) / 2.0
    spread = (hi - lo) / 2.0
    state = [sizes.uniform(lo, hi), sizes.uniform(lo, hi)]
    for _ in range(n):
        if sizes.random() < jump_prob:
            state = [sizes.uniform(lo, hi), sizes.uniform(lo, hi)]
        else:
            state = [
                clip(mid + rho * (s - mid)
                     + sizes.normal(0.0, 0.22 * spread), lo, hi)
                for s in state
            ]
        yield (int(round(np.exp(state[0]))), int(round(np.exp(state[1]))))


def generate_images(n: int, seed: int,
                    min_dim_blocks: int = 14,
                    max_dim_blocks: int = 60,
                    restart_prob: float = 0.15) -> List[Image]:
    """Generate ``n`` images of various, mildly correlated sizes."""
    sizes = stream(seed, "images:sizes")
    content = stream(seed, "images:content")
    images: List[Image] = []
    dims = _correlated_dims(sizes, n, min_dim_blocks, max_dim_blocks)
    for index, (width, height) in enumerate(dims):
        detail = float(content.uniform(0.15, 0.9))
        restart = bool(content.random() < restart_prob)
        kernel = int(content.integers(0, 3))
        nnz_per_block = detail * 40.0
        strips = []
        for _ in range(height):
            nnz = clipped_normal_int(
                content, nnz_per_block * width,
                0.25 * nnz_per_block * width, 0, 63 * width)
            strips.append(Strip(
                n_blocks=width,
                nnz_total=nnz,
                noise=int(content.integers(0, 16)),
            ))
        images.append(Image(
            index=index, width_blocks=width, height_blocks=height,
            detail=detail, restart=restart, kernel=kernel,
            strips=tuple(strips),
        ))
    return images


@dataclass(frozen=True)
class RawImage:
    """A pixel-domain image for the stencil accelerator."""

    index: int
    rows: int
    cols: int
    kernel: int   # 0: 3x3 box, 1: 5x5 gaussian, 2: 3x3 sharpen

    @property
    def n_pixels(self) -> int:
        return self.rows * self.cols

    @property
    def size_class(self) -> int:
        return max(self.n_pixels.bit_length() - 1, 0)


def generate_raw_images(n: int, seed: int,
                        min_dim: int = 256,
                        max_dim: int = 784) -> List[RawImage]:
    """Pixel-domain images of various sizes for stencil filtering."""
    sizes = stream(seed, "raw_images:sizes")
    content = stream(seed, "raw_images:content")
    images: List[RawImage] = []
    dims = _correlated_dims(sizes, n, min_dim, max_dim)
    for index, (rows, cols) in enumerate(dims):
        images.append(RawImage(
            index=index, rows=rows, cols=cols,
            kernel=int(content.integers(0, 3)),
        ))
    return images
