"""Links, topologies, average SNRs, and the seeded Rayleigh-fading sampler.

All internal SNR values are linear; dB appears only at CLI and file
boundaries. Sampling is chunked with a counter-based generator keyed by
(seed, chunk index), so the assembled sample block is independent of how
many workers produced the chunks.
"""

from __future__ import annotations

import collections
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .exceptions import (DomainError, _require_count, _require_finite,
                         _require_positive)

#: Fixed sampling chunk size; part of the determinism contract.
CHUNK_SIZE = 1 << 16
# A chunk is drawn and reduced in row blocks of about this many bytes, so
# that each block is still in L2 cache when it is transformed and reduced.
_BLOCK_BYTES = 1 << 20

_U64_MASK = (1 << 64) - 1

# Threads that draw sampler chunks for iter_snr_chunks. The executor starts
# a thread only when a task finds none idle, so a call runs on at most
# min(CPUs, chunks) of them.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count()) or 1
_POOL: ThreadPoolExecutor


def _new_pool() -> None:
    global _POOL
    _POOL = ThreadPoolExecutor(max_workers=_WORKERS,
                               thread_name_prefix="multiconn-sampler")


_new_pool()
if hasattr(os, "register_at_fork"):
    # A forked child inherits the executor but none of its threads.
    os.register_at_fork(after_in_child=_new_pool)


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
        _require_positive("Link.power_ratio", self.power_ratio)
        _require_positive("Link.distance", self.distance)
        _require_positive("Link.path_loss_exponent", self.path_loss_exponent)

    @property
    def average_snr(self) -> float:
        """Average received SNR: power_ratio * distance^(-eta), linear;
        DomainError where it overflows or underflows to 0."""
        try:
            snr = self.power_ratio * self.distance ** -self.path_loss_exponent
        except OverflowError:
            raise DomainError(f"Link.average_snr overflows: {self}") from None
        return _require_positive("Link.average_snr", snr)


@dataclass(frozen=True)
class Topology:
    """An ordered set of parallel links plus the system bandwidth in Hz.

    Link order is stable; link 1 is the single-connectivity baseline.
    """

    links: tuple[Link, ...]
    bandwidth: float

    def __post_init__(self):
        object.__setattr__(self, "links", tuple(self.links))
        _require_count("number of links", len(self.links), 1)
        _require_positive("Topology.bandwidth", self.bandwidth)

    @property
    def n_links(self) -> int:
        return len(self.links)


def equal_power_topology(total_power_ratio: float,
                         distances: Sequence[float],
                         eta: float,
                         bandwidth: float) -> Topology:
    """Split a total P_T/N_0 equally over one link per distance entry."""
    n = len(distances)
    links = tuple(Link(total_power_ratio / n, d, eta) for d in distances)
    return Topology(links=links, bandwidth=bandwidth)


def average_snrs(topology: Topology) -> np.ndarray:
    """Per-link average SNRs, linear scale, in link order."""
    return np.array([link.average_snr for link in topology.links])


def db_to_linear(x_db: float) -> float:
    """10^(x_db/10); DomainError where it overflows or underflows to 0."""
    _require_finite("x_db", x_db)
    try:
        value = 10.0 ** (x_db / 10.0)
    except OverflowError:
        raise DomainError(f"{x_db} dB overflows the linear scale") from None
    if not value:
        raise DomainError(f"{x_db} dB underflows the linear scale to 0")
    return value


def linear_to_db(x: float) -> float:
    """10 log10(x) for finite x > 0."""
    _require_positive("x", x)
    return 10.0 * math.log10(x)


def _chunk_generator(seed: int, chunk_index: int) -> np.random.Generator:
    key = np.array([seed & _U64_MASK, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _to_snrs(block: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Turn the uniform draws u in ``block`` into the Rayleigh-fading SNRs
    -means * log1p(-u), in place, and return ``block``.

    random() is uniform on [0, 1), so 1-u lies in (0, 1], the log stays
    finite and samples stay nonnegative. A sample beyond the float range is
    +inf, silently: it is above every rate threshold, so it counts as no
    outage event, as its true value would.
    """
    np.negative(block, out=block)
    np.log1p(block, out=block)
    with np.errstate(over="ignore"):
        return np.multiply(block, -means, out=block)


def _snr_chunk(means: np.ndarray, seed: int, chunk_index: int,
               out: np.ndarray, reduce) -> np.ndarray:
    """Fill ``out`` with chunk ``chunk_index`` of the sample block, or with
    ``reduce`` of its uniform draws unless that is None, and return it.

    The draws u are Philox keyed by (seed, chunk_index) and the chunk is
    ``_to_snrs`` of them, bit for bit. They are drawn in blocks of about
    _BLOCK_BYTES, in ``out`` itself when ``out`` is a C-order (rows, N)
    float64 array, and transformed there. With ``reduce``, ``out`` is a
    (rows, 1) column and each block of u, drawn into a scratch array, is
    reduced while it is still in cache: ``reduce(block)`` gives one value
    per row, and the transform is left to it.
    """
    generator = _chunk_generator(seed, chunk_index)
    step = max(1, _BLOCK_BYTES // (8 * means.size))
    if reduce is not None:
        scratch = np.empty((min(step, len(out)), means.size))
    for start in range(0, len(out), step):
        block = out[start:start + step]
        if reduce is not None:
            block = scratch[:len(block)]
        # Successive calls continue the stream, so the blocks join into
        # the whole-chunk draw.
        generator.random(out=block)
        if reduce is None:
            _to_snrs(block, means)
        else:
            out[start:start + step, 0] = reduce(block)
    return out


def iter_snr_chunks(topology: Topology, count: int, seed: int,
                    reduce=None) -> Iterator[np.ndarray]:
    """Yield sample chunks of at most CHUNK_SIZE rows each, (rows, N).

    Chunk ``i``'s uniform draws depend only on (seed, i), so chunks may be
    generated in any order or concurrently without changing the assembled
    block. Its SNRs depend also on the CPU and numpy build: numpy's SIMD
    ``log1p`` can differ from ``math.log1p`` in the last bit. They are
    drawn on a thread pool, one chunk per worker ahead of the consumer, and
    yielded in order. With ``reduce``, a function that maps a (rows, N)
    block of the chunk's uniform draws u, which it may overwrite, to one
    value per row, the worker that draws a chunk reduces it instead of
    transforming it, block by block while each block is in cache, and the
    chunk is yielded as a (rows, 1) column of those values; the SNRs of a
    block are -means * log1p(-u).
    """
    _require_count("count", count, 1)
    means = average_snrs(topology)
    width = len(means) if reduce is None else 1
    ahead = collections.deque()
    for chunk_index, start in enumerate(range(0, count, CHUNK_SIZE)):
        # Allocated here and only filled on a worker, so the chunks live
        # in the caller's malloc arena rather than in one per worker.
        out = np.empty((min(CHUNK_SIZE, count - start), width))
        ahead.append(_POOL.submit(_snr_chunk, means, seed, chunk_index, out,
                                  reduce))
        if len(ahead) > _WORKERS:
            yield ahead.popleft().result()
    while ahead:
        yield ahead.popleft().result()
