"""Tests for the chunked all-reduce algorithms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hivemind.allreduce import (
    Transcript,
    butterfly_all_reduce,
    hierarchical_all_reduce,
)


def random_vectors(n, size, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=size) for __ in range(n)]


class TestButterfly:
    def test_all_peers_get_the_exact_sum(self):
        vectors = random_vectors(4, 64)
        results, __ = butterfly_all_reduce(vectors)
        expected = np.sum(vectors, axis=0)
        for result in results:
            np.testing.assert_allclose(result, expected, rtol=1e-12)

    def test_single_peer_is_identity(self):
        vectors = random_vectors(1, 10)
        results, transcript = butterfly_all_reduce(vectors)
        np.testing.assert_array_equal(results[0], vectors[0])
        assert transcript.total_bytes == 0

    def test_bytes_match_cost_model_factor(self):
        """Each peer ships 2 (n-1)/n of its vector — the factor used by
        the averager's byte accounting."""
        n, size = 8, 1000
        vectors = random_vectors(n, size)
        __, transcript = butterfly_all_reduce(vectors, bytes_per_value=2.0)
        for peer in range(n):
            expected = 2.0 * size * 2.0 * (n - 1) / n
            egress = sum(nbytes for src, __, nbytes in transcript.transfers
                         if src == peer)
            assert egress == pytest.approx(expected, rel=0.02)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            butterfly_all_reduce([np.zeros(3), np.zeros(4)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            butterfly_all_reduce([])

    def test_uneven_chunking_still_exact(self):
        # size not divisible by n exercises the chunk boundaries.
        vectors = random_vectors(3, 10)
        results, __ = butterfly_all_reduce(vectors)
        np.testing.assert_allclose(results[1], np.sum(vectors, axis=0))


class TestHierarchical:
    def test_matches_flat_sum(self):
        vectors = random_vectors(6, 40)
        groups = [[0, 1], [2, 3], [4, 5]]
        results, __ = hierarchical_all_reduce(vectors, groups, hub_index=0)
        expected = np.sum(vectors, axis=0)
        for result in results:
            np.testing.assert_allclose(result, expected, rtol=1e-12)

    def test_groups_must_partition(self):
        vectors = random_vectors(4, 8)
        with pytest.raises(ValueError):
            hierarchical_all_reduce(vectors, [[0, 1], [1, 2, 3]])
        with pytest.raises(ValueError):
            hierarchical_all_reduce(vectors, [[0, 1]])

    def test_leader_exchange_counts(self):
        vectors = random_vectors(8, 100)
        groups = [[0, 1], [2, 3], [4, 5], [6, 7]]
        __, transcript = hierarchical_all_reduce(vectors, groups,
                                                 hub_index=0)
        nbytes = 100 * 2.0
        # 3 non-hub leaders send up, hub sends back to 3: 6 full-vector
        # cross-group transfers (the C-8 call-count structure).
        cross = [t for t in transcript.transfers if t[2] == nbytes
                 and (t[0] in (0, 2, 4, 6) and t[1] in (0, 2, 4, 6))]
        assert len(cross) == 6

    def test_single_group_equals_butterfly(self):
        vectors = random_vectors(4, 20)
        hier, __ = hierarchical_all_reduce(vectors, [[0, 1, 2, 3]])
        flat, __ = butterfly_all_reduce(vectors)
        for a, b in zip(hier, flat):
            np.testing.assert_allclose(a, b, rtol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    size=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=50),
)
def test_property_butterfly_exactness(n, size, seed):
    vectors = random_vectors(n, size, seed=seed)
    results, transcript = butterfly_all_reduce(vectors)
    expected = np.sum(vectors, axis=0)
    for result in results:
        np.testing.assert_allclose(result, expected, rtol=1e-9, atol=1e-9)
    # Total bytes: 2 * size * (n-1) values in each of two phases... the
    # whole exchange moves 2*(n-1)*size values across the wire.
    assert transcript.total_bytes == pytest.approx(
        2.0 * 2.0 * (n - 1) * size, rel=0.05 if n > 1 else 1
    ) or n == 1


def test_transcript_helpers():
    transcript = Transcript()
    transcript.send(0, 1, 100.0)
    transcript.send(1, 0, 50.0)
    assert transcript.total_bytes == 150.0
