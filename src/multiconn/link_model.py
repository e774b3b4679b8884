"""Links, topologies, average SNRs, and the seeded Rayleigh-fading sampler.

All internal SNR values are linear; dB appears only at CLI and file
boundaries. Sampling is chunked with a counter-based generator keyed by
(seed, chunk index), so the assembled sample block is independent of how
many workers produced the chunks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .exceptions import DomainError

#: Fixed sampling chunk size; part of the determinism contract.
CHUNK_SIZE = 1 << 16

_U64_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class Link:
    """One transmitter-receiver link.

    ``power_ratio`` is the linear transmit-power-to-noise ratio P_i/N_0,
    ``distance`` is in meters and ``path_loss_exponent`` is dimensionless.
    """

    power_ratio: float
    distance: float
    path_loss_exponent: float

    def __post_init__(self):
        for name in ("power_ratio", "distance", "path_loss_exponent"):
            if getattr(self, name) <= 0:
                raise DomainError(f"Link.{name} must be positive")

    @property
    def average_snr(self) -> float:
        """Average received SNR: power_ratio * distance^(-eta), linear."""
        return self.power_ratio * self.distance ** (-self.path_loss_exponent)


@dataclass(frozen=True)
class Topology:
    """An ordered set of parallel links plus the system bandwidth in Hz.

    Link order is stable; link 1 is the single-connectivity baseline.
    """

    links: tuple[Link, ...]
    bandwidth: float

    def __post_init__(self):
        object.__setattr__(self, "links", tuple(self.links))
        if len(self.links) < 1:
            raise DomainError("Topology needs at least one link")
        if self.bandwidth <= 0:
            raise DomainError("Topology.bandwidth must be positive")

    @property
    def n_links(self) -> int:
        return len(self.links)


def equal_power_topology(total_power_ratio: float,
                         distances: Sequence[float],
                         eta: float,
                         bandwidth: float) -> Topology:
    """Split a total P_T/N_0 equally over one link per distance entry."""
    if total_power_ratio <= 0:
        raise DomainError("total_power_ratio must be positive")
    if not distances:
        raise DomainError("at least one distance is required")
    n = len(distances)
    links = tuple(Link(total_power_ratio / n, d, eta) for d in distances)
    return Topology(links=links, bandwidth=bandwidth)


def average_snrs(topology: Topology) -> np.ndarray:
    """Per-link average SNRs, linear scale, in link order."""
    return np.array([link.average_snr for link in topology.links])


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def linear_to_db(x: float) -> float:
    if x <= 0:
        raise DomainError(f"linear_to_db requires a positive input, got {x}")
    return 10.0 * np.log10(x)


def _chunk_generator(seed: int, chunk_index: int) -> np.random.Generator:
    key = np.array([seed & _U64_MASK, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def iter_snr_chunks(topology: Topology, count: int,
                    seed: int) -> Iterator[np.ndarray]:
    """Yield sample chunks of at most CHUNK_SIZE rows each.

    Chunk ``i`` depends only on (seed, i), so chunks may be generated in any
    order or concurrently without changing the assembled block.
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    means = average_snrs(topology)
    produced = 0
    chunk_index = 0
    while produced < count:
        rows = min(CHUNK_SIZE, count - produced)
        rng = _chunk_generator(seed, chunk_index)
        # random() is uniform on [0, 1); 1-u lies in (0, 1] so the log stays
        # finite and samples stay nonnegative.
        u = rng.random((rows, len(means)))
        yield -means * np.log1p(-u)
        produced += rows
        chunk_index += 1
