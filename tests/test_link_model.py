import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from multiconn.exceptions import DomainError
from multiconn.link_model import (CHUNK_SIZE, Link, Topology, average_snrs,
                                  db_to_linear, equal_power_topology,
                                  iter_snr_chunks, linear_to_db)


def _sample(topology, count, seed):
    return np.vstack(list(iter_snr_chunks(topology, count, seed)))


def _topology(means, bandwidth=20e6):
    return Topology(links=tuple(Link(m, 1.0, 2.0) for m in means),
                    bandwidth=bandwidth)


class TestLinkAndTopology:
    def test_average_snr_includes_path_loss(self):
        link = Link(power_ratio=100.0, distance=2.0, path_loss_exponent=3.0)
        assert link.average_snr == pytest.approx(100.0 / 8.0)

    @pytest.mark.parametrize("power, distance", [
        (1.0, 1e-300),   # distance ** -eta overflows (OverflowError)
        (1e300, 1e-150),  # the product overflows to inf
        (1.0, 1e300),    # distance ** -eta underflows to 0
    ])
    def test_average_snr_outside_float_range(self, power, distance):
        with pytest.raises(DomainError, match="average_snr"):
            Link(power, distance, 2.0).average_snr

    def test_link_validation(self):
        for bad in (dict(power_ratio=0.0, distance=1.0, path_loss_exponent=2.0),
                    dict(power_ratio=1.0, distance=-1.0, path_loss_exponent=2.0),
                    dict(power_ratio=1.0, distance=1.0, path_loss_exponent=0.0)):
            with pytest.raises(DomainError):
                Link(**bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["power_ratio", "distance",
                                       "path_loss_exponent"])
    def test_link_rejects_non_finite(self, field, bad):
        values = dict(power_ratio=1.0, distance=1.0, path_loss_exponent=2.0)
        values[field] = bad
        with pytest.raises(DomainError):
            Link(**values)

    def test_topology_validation(self):
        with pytest.raises(DomainError):
            Topology(links=(), bandwidth=1e6)
        with pytest.raises(DomainError):
            _topology([1.0], bandwidth=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_topology_rejects_non_finite_bandwidth(self, bad):
        with pytest.raises(DomainError):
            _topology([1.0], bandwidth=bad)

    def test_equal_power_split(self):
        topo = equal_power_topology(90.0, [1.0, 2.0, 3.0], eta=2.0,
                                    bandwidth=1e6)
        assert topo.n_links == 3
        assert all(link.power_ratio == pytest.approx(30.0)
                   for link in topo.links)
        snrs = average_snrs(topo)
        assert snrs == pytest.approx([30.0, 30.0 / 4.0, 30.0 / 9.0])

    def test_equal_power_validation(self):
        with pytest.raises(DomainError):
            equal_power_topology(0.0, [1.0], 2.0, 1e6)
        with pytest.raises(DomainError):
            equal_power_topology(10.0, [], 2.0, 1e6)


class TestDbConversion:
    @given(st.floats(-100, 100))
    def test_round_trip(self, x_db):
        assert linear_to_db(db_to_linear(x_db)) == pytest.approx(x_db,
                                                                 abs=1e-9)

    def test_anchors(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(10.0) == pytest.approx(10.0)
        assert linear_to_db(100.0) == pytest.approx(20.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            linear_to_db(0.0)

    def test_overflow_is_domain_error(self):
        with pytest.raises(DomainError):
            db_to_linear(4000.0)


class TestSampler:
    def test_deterministic_for_fixed_seed(self):
        topo = _topology([4.0, 9.0])
        a = _sample(topo, 5000, seed=11)
        b = _sample(topo, 5000, seed=11)
        assert np.array_equal(a, b)
        c = _sample(topo, 5000, seed=12)
        assert not np.array_equal(a, c)

    def test_prefix_stability(self):
        # Chunk i depends only on (seed, i), so a longer run reproduces a
        # shorter one as its prefix.
        topo = _topology([4.0, 9.0])
        short = _sample(topo, CHUNK_SIZE, seed=3)
        long = _sample(topo, CHUNK_SIZE + 5000, seed=3)
        assert np.array_equal(long[:CHUNK_SIZE], short)

    def test_chunk_sizes(self):
        topo = _topology([1.0])
        chunks = list(iter_snr_chunks(topo, 2 * CHUNK_SIZE + 7, seed=0))
        assert [len(c) for c in chunks] == [CHUNK_SIZE, CHUNK_SIZE, 7]

    def test_samples_nonnegative_with_correct_means(self):
        topo = _topology([2.0, 16.0])
        block = _sample(topo, 1_000_000, seed=5)
        assert block.min() >= 0.0
        assert block[:, 0].mean() == pytest.approx(2.0, rel=0.01)
        assert block[:, 1].mean() == pytest.approx(16.0, rel=0.01)

    def test_marginal_is_exponential(self):
        topo = _topology([3.0])
        block = _sample(topo, 100_000, seed=9)[:, 0]
        _, p_value = stats.kstest(block, "expon", args=(0.0, 3.0))
        assert p_value > 0.01

    def test_links_uncorrelated(self):
        topo = _topology([5.0, 5.0])
        block = _sample(topo, 1_000_000, seed=17)
        corr = np.corrcoef(block[:, 0], block[:, 1])[0, 1]
        assert abs(corr) < 0.01

    def test_validation(self):
        topo = _topology([1.0])
        with pytest.raises(DomainError):
            list(iter_snr_chunks(topo, 0, seed=0))

    @pytest.mark.parametrize("bad", [5000.0, True])
    def test_count_must_be_an_integer(self, bad):
        with pytest.raises(DomainError):
            list(iter_snr_chunks(_topology([1.0]), bad, seed=0))

    # N = 130 draws in blocks of 1008 rows, which do not divide a chunk.
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 130])
    @pytest.mark.parametrize("count", [1000, CHUNK_SIZE, 3 * CHUNK_SIZE + 17])
    def test_reduce_equals_reducing_the_plain_chunks(self, n, count):
        # reduce is handed each block of uniform draws u, whose plain chunk
        # is -means * log1p(-u).
        def row_sums(block):
            return np.log1p(block).sum(axis=1)

        topo = _topology([0.5 + k for k in range(n)])
        means = average_snrs(topo)
        plain = iter_snr_chunks(topo, count, seed=9)
        reduced = iter_snr_chunks(
            topo, count, seed=9,
            reduce=lambda u: row_sums(-means * np.log1p(-u)))
        rows = 0
        for chunk, column in itertools.zip_longest(plain, reduced):
            assert column.shape == (len(chunk), 1)
            assert np.array_equal(column[:, 0].view(np.int64),
                                  row_sums(chunk).view(np.int64))
            rows += len(chunk)
        assert rows == count

    def test_chunks_are_the_transform_of_raw_philox_draws(self):
        # The determinism contract: chunk i is -means * log1p(-u) on the
        # uniform draws of Philox keyed by (seed, i).
        topo = _topology([0.5, 4.0, 30.0])
        means = average_snrs(topo)
        seed = 2**64 + 77  # keyed modulo 2**64
        chunks = list(iter_snr_chunks(topo, 2 * CHUNK_SIZE + 9, seed=seed))
        for i, chunk in enumerate(chunks):
            key = np.array([seed % 2**64, i], dtype=np.uint64)
            u = np.random.Generator(np.random.Philox(key=key)).random(
                (len(chunk), 3))
            expected = -means * np.log1p(-u)
            assert np.array_equal(chunk.view(np.int64),
                                  expected.view(np.int64))
