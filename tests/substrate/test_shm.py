"""Shared-memory result transport: marshal/unmarshal, fallbacks, leaks."""

import os

import numpy as np
import pytest

from repro.errors import SubstrateError
from repro.substrate import (
    SHM_MIN_BYTES,
    ShmResult,
    discard,
    marshal,
    unmarshal,
)


def big_value(n=100_000):
    return {"data": np.arange(n, dtype=np.uint64), "label": "trial"}


def shm_segments():
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
    except FileNotFoundError:  # non-Linux fallback: skip leak accounting
        return set()


class TestMarshal:
    def test_round_trip(self):
        before = shm_segments()
        handle = marshal(big_value())
        assert isinstance(handle, ShmResult)
        assert handle.size >= SHM_MIN_BYTES
        got = unmarshal(handle)
        assert got["label"] == "trial"
        assert np.array_equal(got["data"], big_value()["data"])
        assert shm_segments() == before  # unmarshal unlinked the segment

    def test_small_value_takes_the_pipe(self):
        value = {"n": 1}
        assert marshal(value) is value

    def test_unencodable_takes_the_pipe(self):
        value = object()
        assert marshal(value) is value

    def test_non_handle_passes_through_unmarshal(self):
        value = {"n": 1}
        assert unmarshal(value) is value

    def test_min_bytes_override(self):
        handle = marshal({"x": np.arange(64, dtype=np.uint64)}, min_bytes=1)
        assert isinstance(handle, ShmResult)
        got = unmarshal(handle)
        assert np.array_equal(got["x"], np.arange(64, dtype=np.uint64))


class TestFailure:
    def test_vanished_segment_raises(self):
        handle = marshal(big_value())
        discard(handle)  # simulate the segment dying before redemption
        with pytest.raises(SubstrateError, match="vanished"):
            unmarshal(handle)

    def test_discard_is_idempotent_and_typed(self):
        discard({"not": "a handle"})  # no-op
        handle = marshal(big_value())
        discard(handle)
        discard(handle)  # second discard of a gone segment: no raise
