"""Molecular-dynamics workload: particle neighbour statistics.

The md accelerator's per-timestep cost is dominated by force
computation over neighbour pairs within the cutoff radius.  As
particles drift and cluster, neighbour counts change slowly between
consecutive timesteps ("particle pos. changes", Table 3) — so md is a
workload where reactive control is *not* hopeless, but spikes still
occur when clusters merge.

The generator models a global density factor following an AR(1)
process with occasional cluster-merge jumps, and per-particle
neighbour counts drawn around it with persistent per-particle offsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .rng import clip, stream

N_PARTICLES = 256
MAX_NEIGHBORS = 1023  # 10-bit field


@dataclass(frozen=True)
class Timestep:
    """One job: a simulation timestep over all particles."""

    index: int
    neighbor_counts: Tuple[int, ...]

    @property
    def total_pairs(self) -> int:
        return sum(self.neighbor_counts)


def generate_trajectory(n_steps: int, seed: int,
                        n_particles: int = N_PARTICLES,
                        density_mean: float = 0.95,
                        density_rho: float = 0.96,
                        density_sigma: float = 0.15,
                        merge_prob: float = 0.02) -> List[Timestep]:
    """Generate ``n_steps`` timesteps of neighbour-count data."""
    rng = stream(seed, "md:density")
    particle_rng = stream(seed, "md:particles")
    # Persistent per-particle offsets: particles deep in a cluster
    # always see more neighbours.
    offsets = particle_rng.normal(0.0, 0.25, size=n_particles)
    density = density_mean
    steps: List[Timestep] = []
    for index in range(n_steps):
        if rng.random() < merge_prob:
            density = min(density * rng.uniform(1.3, 1.8), 2.2)
        else:
            density = (density_mean
                       + density_rho * (density - density_mean)
                       + rng.normal(0.0, density_sigma))
            density = clip(density, 0.08, 2.2)
        base = 150.0 * density
        counts = np.clip(
            base * (1.0 + offsets)
            + particle_rng.normal(0.0, 12.0, size=n_particles),
            0, MAX_NEIGHBORS,
        ).astype(int)
        steps.append(Timestep(index=index,
                              neighbor_counts=tuple(int(c) for c in counts)))
    return steps
