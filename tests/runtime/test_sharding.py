"""Shard index arithmetic: the exact pair unrank and pair-range chunking."""

import numpy as np
import pytest

from repro.runtime.sharding import (
    default_shard_count,
    pair_count,
    pair_index_to_ij,
    pair_shards,
)


def _reference_pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


class TestPairUnrank:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 17, 100, 733])
    def test_matches_nested_loop_order(self, n):
        total = pair_count(n)
        assert total == n * (n - 1) // 2
        if total == 0:
            return
        i, j = pair_index_to_ij(np.arange(total, dtype=np.int64), n)
        assert list(zip(i.tolist(), j.tolist())) == _reference_pairs(n)

    def test_single_pair(self):
        i, j = pair_index_to_ij(np.array([0], dtype=np.int64), 2)
        assert (int(i[0]), int(j[0])) == (0, 1)


class TestPairShards:
    @pytest.mark.parametrize("n,n_shards", [(2, 1), (3, 2), (3, 5), (10, 4), (50, 7)])
    def test_shards_partition_the_pair_space(self, n, n_shards):
        shards = pair_shards(n, n_shards)
        assert len(shards) == n_shards
        covered = []
        for lo, hi in shards:
            assert 0 <= lo <= hi <= pair_count(n)
            covered.extend(range(lo, hi))
        assert covered == list(range(pair_count(n)))

    def test_prime_pair_count_uneven_split(self):
        # n=3 gives 3 pairs (prime): two shards must split 2/1 (or 1/2)
        # and still cover everything exactly once.
        shards = pair_shards(3, 2)
        sizes = [hi - lo for lo, hi in shards]
        assert sum(sizes) == 3
        assert all(size >= 0 for size in sizes)

    def test_more_shards_than_pairs_yields_empty_shards(self):
        shards = pair_shards(2, 4)  # 1 pair, 4 shards
        sizes = [hi - lo for lo, hi in shards]
        assert sum(sizes) == 1
        assert 0 in sizes  # at least one legal empty shard


class TestDefaultShardCount:
    def test_serial_is_one_shard(self):
        assert default_shard_count(1000, 1) == 1

    def test_parallel_respects_min_per_shard(self):
        assert default_shard_count(10, 4, min_per_shard=10) == 1

    def test_parallel_scales_with_workers(self):
        assert default_shard_count(10_000, 4) > 1
