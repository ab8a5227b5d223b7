"""Variable-size data pieces for the aes and sha accelerators.

"100 pieces of data (various sizes)" per Table 3.  Sizes are drawn
log-uniformly and consecutive pieces are independent — e.g. the
DRM-video and burst-camera scenarios of Sec. 4.2 where each frame's
payload differs.  AES pieces also pick a cipher mode (CBC or CTR),
which changes the per-block cycle count, and a key size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .rng import clip, stream

AES_BLOCK_BYTES = 16
SHA_CHUNK_BYTES = 64


@dataclass(frozen=True)
class DataPiece:
    """One encryption/hash job."""

    index: int
    n_bytes: int
    mode: int = 0      # aes: 0 = CBC, 1 = CTR
    key256: bool = False

    @property
    def aes_blocks(self) -> int:
        return (self.n_bytes + AES_BLOCK_BYTES - 1) // AES_BLOCK_BYTES

    @property
    def sha_chunks(self) -> int:
        # +9 bytes of mandatory padding/length, rounded up.
        return (self.n_bytes + 9 + SHA_CHUNK_BYTES - 1) // SHA_CHUNK_BYTES

    @property
    def size_class(self) -> int:
        return max(self.n_bytes.bit_length() - 1, 0)


def generate_pieces(n: int, seed: int,
                    min_bytes: int, max_bytes: int,
                    size_rho: float = 0.78,
                    session_switch_prob: float = 0.10) -> List[DataPiece]:
    """Pieces with mildly correlated sizes and session-sticky modes.

    Consecutive payloads in one stream (frames of one DRM video, shots
    of one camera burst) are similar in size; sessions switch
    occasionally, changing size regime, cipher mode and key length.
    """
    import itertools

    import numpy as np

    sizes = stream(seed, "data:sizes")
    modes = stream(seed, "data:modes")
    lo, hi = np.log(min_bytes), np.log(max_bytes)
    mid = (lo + hi) / 2.0
    spread = (hi - lo) / 2.0
    # Sessions draw (mode, key) from a shuffled cycle so even small
    # workloads cover every cipher configuration.
    combos = [(0, False), (0, True), (1, False), (1, True)]
    modes.shuffle(combos)
    combo_cycle = itertools.cycle(combos)
    forced_switch_every = max(n // 4, 1)

    log_size = sizes.uniform(lo, hi)
    mode, key256 = next(combo_cycle)
    pieces: List[DataPiece] = []
    for i in range(n):
        forced = i > 0 and i % forced_switch_every == 0
        if forced or modes.random() < session_switch_prob:
            log_size = sizes.uniform(lo, hi)
            mode, key256 = next(combo_cycle)
        else:
            log_size = (mid + size_rho * (log_size - mid)
                        + sizes.normal(0.0, 0.22 * spread))
            log_size = clip(log_size, lo, hi)
        pieces.append(DataPiece(
            index=i,
            n_bytes=int(round(np.exp(log_size))),
            mode=mode,
            key256=bool(key256),
        ))
    return pieces
