"""Unit tests for the unified RetryPolicy.

The policy is the one object that decides how every client-side
network op times out, backs off, and gives up — these tests pin its
arithmetic (exponential bounds, cap, full jitter) and its retry
runner's attempt budget, all with injected rngs/sleeps so nothing
here waits on real time.
"""

import random

import pytest

from repro.errors import ServeError
from repro.serve import DEFAULT_POLICY, RetryPolicy


class TestBackoff:
    def test_bound_is_exponential_from_base(self):
        policy = RetryPolicy(base_backoff_s=0.1, backoff_cap_s=100.0)
        assert [policy.backoff_bound(k) for k in range(4)] == pytest.approx(
            [0.1, 0.2, 0.4, 0.8]
        )

    def test_bound_is_capped(self):
        policy = RetryPolicy(base_backoff_s=0.5, backoff_cap_s=1.0)
        assert policy.backoff_bound(0) == 0.5
        assert policy.backoff_bound(1) == 1.0
        assert policy.backoff_bound(10) == 1.0

    def test_no_jitter_sleeps_the_bound_exactly(self):
        policy = RetryPolicy(jitter=False, base_backoff_s=0.1)
        assert policy.backoff_s(2) == pytest.approx(0.4)

    def test_full_jitter_draws_uniform_below_the_bound(self):
        policy = RetryPolicy(base_backoff_s=0.1, backoff_cap_s=2.0)
        rng = random.Random(7)
        draws = [policy.backoff_s(3, rng) for _ in range(200)]
        bound = policy.backoff_bound(3)
        assert all(0.0 <= d <= bound for d in draws)
        # genuinely jittered, not a constant
        assert len({round(d, 6) for d in draws}) > 100

    def test_replace_derives_a_variant(self):
        probe = DEFAULT_POLICY.replace(max_attempts=1)
        assert probe.max_attempts == 1
        assert probe.base_backoff_s == DEFAULT_POLICY.base_backoff_s
        assert DEFAULT_POLICY.max_attempts == 3  # original untouched

    def test_validation_rejects_nonsense(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff_s=-1)
        with pytest.raises(ValueError):
            RetryPolicy(connect_timeout_s=0)


class TestCallRunner:
    def test_returns_first_success_without_sleeping(self):
        sleeps = []
        result = RetryPolicy().call(lambda: 42, sleep=sleeps.append)
        assert result == 42
        assert sleeps == []

    def test_retries_transient_failures_then_succeeds(self):
        sleeps = []
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise ConnectionRefusedError("down")
            return "up"

        policy = RetryPolicy(max_attempts=3, jitter=False, base_backoff_s=0.1)
        assert policy.call(flaky, sleep=sleeps.append) == "up"
        assert sleeps == pytest.approx([0.1, 0.2])

    def test_attempts_exhausted_reraises_the_last_error(self):
        policy = RetryPolicy(max_attempts=2, jitter=False, base_backoff_s=0.0)
        with pytest.raises(ConnectionRefusedError):
            policy.call(
                self._always_refuse, sleep=lambda _d: None
            )

    @staticmethod
    def _always_refuse():
        raise ConnectionRefusedError("down")

    def test_non_transient_errors_propagate_immediately(self):
        calls = {"n": 0}

        def bad_request():
            calls["n"] += 1
            raise ServeError("nope")

        with pytest.raises(ServeError):
            RetryPolicy(max_attempts=5).call(
                bad_request, sleep=lambda _d: None
            )
        assert calls["n"] == 1


class TestProtocolIntegration:
    def test_cluster_reexport_is_the_same_object(self):
        from repro.cluster import RetryPolicy as ClusterRetryPolicy

        assert ClusterRetryPolicy is RetryPolicy
