"""OpenMP static-scheduling tests."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.runtime.openmp import chunk_of, interleaved_chunks, static_chunks


class TestStaticChunks:
    def test_partition_exact(self):
        chunks = static_chunks(100, 7)
        covered = []
        for lo, hi in chunks:
            covered.extend(range(lo, hi))
        assert covered == list(range(100))

    def test_balanced_within_one(self):
        sizes = [hi - lo for lo, hi in static_chunks(100, 7)]
        assert max(sizes) - min(sizes) <= 1

    def test_earlier_threads_get_remainder(self):
        sizes = [hi - lo for lo, hi in static_chunks(10, 3)]
        assert sizes == [4, 3, 3]

    def test_more_threads_than_iters(self):
        chunks = static_chunks(2, 5)
        sizes = [hi - lo for lo, hi in chunks]
        assert sum(sizes) == 2
        assert sizes.count(0) == 3

    def test_zero_iters(self):
        assert all(lo == hi for lo, hi in static_chunks(0, 4))

    def test_validation(self):
        with pytest.raises(WorkloadError):
            static_chunks(-1, 2)
        with pytest.raises(WorkloadError):
            static_chunks(10, 0)


class TestChunkOf:
    @pytest.mark.parametrize("n,t", [(100, 7), (13, 4), (5, 5), (1000, 32)])
    def test_matches_static_chunks(self, n, t):
        full = static_chunks(n, t)
        for i in range(t):
            assert chunk_of(n, t, i) == full[i]
        ids = np.arange(t).repeat(2)
        start, stop = chunk_of(n, t, ids)
        assert list(zip(start.tolist(), stop.tolist())) == [
            full[i] for i in ids
        ]

    def test_out_of_team(self):
        with pytest.raises(WorkloadError):
            chunk_of(10, 2, 5)
        with pytest.raises(WorkloadError, match="thread -1 outside"):
            chunk_of(10, 2, np.array([0, -1, 1]))


class TestInterleaved:
    def test_round_robin_partition(self):
        parts = interleaved_chunks(12, 3, chunk=2)
        assert parts[0].tolist() == [0, 1, 6, 7]
        assert parts[1].tolist() == [2, 3, 8, 9]

    def test_covers_everything(self):
        parts = interleaved_chunks(100, 7, chunk=3)
        allidx = np.sort(np.concatenate(parts))
        assert allidx.tolist() == list(range(100))

    def test_bad_chunk(self):
        with pytest.raises(WorkloadError):
            interleaved_chunks(10, 2, chunk=0)
