"""Dynamic cluster membership: agent states, probing, and epochs.

PR 9's coordinator had a static agent list: ``register`` could add an
agent, dispatch failure could mark one dead, and that was the whole
lifecycle.  This module makes membership a first-class registry:

* Every agent is an :class:`AgentHandle` in one of :data:`AGENT_STATES`
  — ``alive`` (schedulable), ``suspect`` (missed probes, not yet
  written off), ``dead`` (unreachable or failed a dispatch), ``left``
  (explicitly deregistered; never revived by the prober).
* A background **health prober** pings every non-``left`` agent each
  ``probe_interval_s``: a miss increments the handle's counter
  (``suspect`` after :attr:`Membership.suspect_after`, ``dead`` after
  :attr:`Membership.dead_after`); one successful re-probe revives the
  agent to ``alive`` from either degraded state.  This is what lets a
  killed-and-restarted agent receive work again *without* a
  coordinator restart.
* Every state change bumps a monotonic **epoch** counter.  The
  coordinator snapshots the epoch when it plans a sharding round and
  re-plans the pending indices when the epoch moved mid-round — so a
  join adds capacity to a running job and a leave/death re-routes its
  share *before* a dispatch failure would have noticed.

Probes are single-attempt (``policy.replace(max_attempts=1)``): the
probe cadence is itself the retry loop, and a multi-attempt probe
would just blur the miss counters the thresholds are defined over.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.errors import ClusterError, ServeError
from repro.serve.client import ServerClient
from repro.serve.policy import DEFAULT_POLICY, RetryPolicy

__all__ = ["AGENT_STATES", "AgentHandle", "Membership"]

#: the agent lifecycle states, in rough health order
AGENT_STATES = ("alive", "suspect", "dead", "left")


class AgentHandle:
    """One member agent: address, lifecycle state, and client factory."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = int(port)
        #: one of :data:`AGENT_STATES`
        self.state = "alive"
        #: consecutive failed probes since the last success
        self.misses = 0
        #: times the prober revived this agent from suspect/dead
        self.revivals = 0
        #: why the agent left the ``alive`` state (for operators)
        self.reason: str | None = None

    @property
    def key(self) -> tuple[str, int]:
        return (self.host, self.port)

    @property
    def alive(self) -> bool:
        """Schedulable right now (state ``alive``)."""
        return self.state == "alive"

    def client(self, policy: RetryPolicy | None = None) -> ServerClient:
        """A fresh connection (streams and control ops never share one)."""
        return ServerClient(self.host, self.port, policy=policy)

    def describe(self) -> dict[str, Any]:
        return {
            "host": self.host,
            "port": self.port,
            "state": self.state,
            "alive": self.alive,
            "misses": self.misses,
            "revivals": self.revivals,
            "reason": self.reason,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AgentHandle({self.host}:{self.port} {self.state})"


class Membership:
    """The coordinator's agent registry with failure detection.

    ``agents`` seeds the registry with ``(host, port)`` addresses (not
    handshaked until :meth:`handshake_all`).  ``probe_interval_s=None``
    disables the background prober (probing can still be driven
    manually via :meth:`probe_once`, which is what the unit tests do).
    """

    def __init__(
        self,
        agents: list[tuple[str, int]] | None = None,
        policy: RetryPolicy | None = None,
        probe_interval_s: float | None = None,
        suspect_after: int = 1,
        dead_after: int = 3,
    ) -> None:
        if suspect_after < 1 or dead_after < suspect_after:
            raise ValueError(
                "need 1 <= suspect_after <= dead_after, got "
                f"{suspect_after}/{dead_after}"
            )
        self.policy = policy or DEFAULT_POLICY
        #: single-attempt variant used for probes and handshakes
        self.probe_policy = self.policy.replace(max_attempts=1)
        self.probe_interval_s = probe_interval_s
        self.suspect_after = suspect_after
        self.dead_after = dead_after
        #: monotonic counter bumped on every membership change; the
        #: coordinator re-plans a sharding round when it moves
        self.epoch = 0
        self.probes = 0  # completed probe rounds (for ping/ops)
        self._lock = threading.Lock()
        self._handles: list[AgentHandle] = [
            AgentHandle(h, p) for h, p in (agents or [])
        ]
        self._prober: threading.Thread | None = None
        self._stop = threading.Event()

    # -- views -------------------------------------------------------------

    def handles(self) -> list[AgentHandle]:
        """Every known agent (all states), registration order."""
        with self._lock:
            return list(self._handles)

    def live(self) -> list[AgentHandle]:
        """Agents currently schedulable (state ``alive``)."""
        with self._lock:
            return [h for h in self._handles if h.alive]

    def get(self, host: str, port: int) -> AgentHandle | None:
        key = (host, int(port))
        with self._lock:
            for h in self._handles:
                if h.key == key:
                    return h
        return None

    def snapshot(self) -> list[dict[str, Any]]:
        with self._lock:
            return [h.describe() for h in self._handles]

    # -- changes -----------------------------------------------------------

    def _bump(self) -> None:
        """Record a membership change (caller holds no invariants)."""
        with self._lock:
            self.epoch += 1

    def add(self, host: str, port: int) -> AgentHandle:
        """Join (or re-join) an agent; handshakes it first.

        Re-adding a known address revives the existing handle in place
        — a ``left`` or ``dead`` agent that comes back through
        ``agents_join`` is immediately schedulable again.
        """
        existing = self.get(host, port)
        handle = existing or AgentHandle(host, port)
        self.handshake(handle)
        if existing is None:
            with self._lock:
                self._handles.append(handle)
        changed = not handle.alive or existing is None
        handle.state = "alive"
        handle.misses = 0
        handle.reason = None
        if changed:
            self._bump()
        return handle

    def leave(self, host: str, port: int) -> AgentHandle:
        """Explicit deregistration: state ``left``, never auto-revived."""
        handle = self.get(host, port)
        if handle is None:
            raise ServeError(
                f"unknown agent {host}:{port}",
                code="bad_request",
                host=host,
                port=port,
            )
        if handle.state != "left":
            handle.state = "left"
            handle.reason = "deregistered"
            self._bump()
        return handle

    def mark_dead(self, handle: AgentHandle, reason: str) -> None:
        """Declare an agent dead (dispatch failure path)."""
        if handle.state not in ("dead", "left"):
            handle.state = "dead"
            handle.reason = reason
            self._bump()

    def handshake(self, handle: AgentHandle) -> None:
        """Version-check one agent; a skewed or dead peer never joins."""
        try:
            with handle.client(self.probe_policy) as client:
                client.handshake()
        except ServeError as e:
            raise ClusterError(
                f"agent {handle.host}:{handle.port} cannot join: {e}",
                code=e.code,
                host=handle.host,
                port=handle.port,
            ) from e

    def handshake_all(self) -> None:
        for handle in self.handles():
            if handle.state != "left":
                self.handshake(handle)

    # -- probing -----------------------------------------------------------

    def probe_once(self) -> int:
        """One probe round over every non-``left`` agent.

        Returns the number of state transitions it caused.  A
        successful ping zeroes the miss counter and revives
        ``suspect``/``dead`` agents; a failed one advances the counter
        through the suspect/dead thresholds.
        """
        changes = 0
        for handle in self.handles():
            if handle.state == "left":
                continue
            try:
                with handle.client(self.probe_policy) as client:
                    client.ping()
            except (ServeError, OSError, ConnectionError):
                handle.misses += 1
                if handle.misses >= self.dead_after:
                    if handle.state != "dead":
                        handle.state = "dead"
                        handle.reason = f"{handle.misses} missed probes"
                        self._bump()
                        changes += 1
                elif handle.misses >= self.suspect_after:
                    if handle.state == "alive":
                        handle.state = "suspect"
                        handle.reason = f"{handle.misses} missed probe(s)"
                        self._bump()
                        changes += 1
            else:
                handle.misses = 0
                if handle.state != "alive":
                    handle.state = "alive"
                    handle.reason = None
                    handle.revivals += 1
                    self._bump()
                    changes += 1
        with self._lock:
            self.probes += 1
        return changes

    def start(self) -> None:
        """Start the background prober (no-op without an interval)."""
        if self.probe_interval_s is None or self._prober is not None:
            return
        self._stop.clear()
        self._prober = threading.Thread(
            target=self._probe_loop, name="membership-prober", daemon=True
        )
        self._prober.start()

    def stop(self) -> None:
        """Stop the prober and join it; idempotent."""
        self._stop.set()
        if self._prober is not None:
            self._prober.join(timeout=5.0)
            self._prober = None

    def _probe_loop(self) -> None:
        assert self.probe_interval_s is not None
        while not self._stop.wait(self.probe_interval_s):
            self.probe_once()
