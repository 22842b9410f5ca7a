"""Exception hierarchy for the repro package.

Every error raised by the simulated kernel / SPE / NMO stack derives from
:class:`ReproError` so callers can catch substrate failures without
swallowing programming errors.  Errors that mirror a POSIX failure mode of
the real interfaces (``perf_event_open``, ``mmap``) carry an ``errno``-like
:attr:`code` so tests can assert on the specific failure.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro stack."""


class MachineError(ReproError):
    """Invalid machine configuration or impossible hardware request."""


class AddressSpaceError(ReproError):
    """Virtual-memory operation failed (overlap, unmapped access, ...)."""


class SegmentationFault(AddressSpaceError):
    """Access to an address with no backing mapping."""

    def __init__(self, addr: int, message: str | None = None) -> None:
        self.addr = addr
        super().__init__(message or f"segmentation fault at 0x{addr:x}")


class OutOfMemoryError(AddressSpaceError):
    """Allocation exceeded the process memory cap (cgroup-style limit)."""


class PerfError(ReproError):
    """Failure in the simulated perf_event subsystem."""

    def __init__(self, message: str, code: str = "EINVAL") -> None:
        self.code = code
        super().__init__(f"[{code}] {message}")


class BufferError_(PerfError):
    """Ring/aux buffer misuse (bad size, double mmap, read past head)."""

    def __init__(self, message: str, code: str = "EINVAL") -> None:
        super().__init__(message, code)


class SpeError(ReproError):
    """ARM SPE driver/configuration failure."""


class PacketDecodeError(SpeError):
    """A sample packet failed structural validation.

    NMO's decode loop *skips* such packets (per the paper, Section IV-A);
    this exception is raised only by the strict decoding entry points used
    in tests.
    """


class WorkloadError(ReproError):
    """Workload construction or parameterisation error."""


class NmoError(ReproError):
    """NMO profiler misuse (bad env configuration, stop without start...)."""


class ColocationError(ReproError):
    """Invalid co-location request (no runners, core oversubscription...)."""


class ScenarioError(ReproError):
    """Invalid declarative scenario (unknown kind, bad axis, bad JSON...)."""


class AnalysisError(ReproError):
    """Post-processing request the profile data cannot answer."""


class ServeError(ReproError):
    """Profiling-service failure (bad request, unknown job, refused op).

    Carries the structured ``code``/``details`` the wire protocol
    reports, so callers can branch on *why* without parsing prose.
    """

    def __init__(
        self, message: str, code: str = "bad_request", **details
    ) -> None:
        self.code = code
        self.details = dict(details)
        super().__init__(message)


class QueueFullError(ServeError):
    """Admission control rejected a job: the queue is at capacity."""

    def __init__(self, message: str, **details) -> None:
        super().__init__(message, code="queue_full", **details)


class QuotaExceededError(ServeError):
    """Admission control rejected a job: the tenant's quota is spent.

    Carries ``tenant``, ``requested``, ``available`` and (when the
    request could ever succeed) ``retry_after_s`` in :attr:`details`.
    """

    def __init__(self, message: str, **details) -> None:
        super().__init__(message, code="quota_exceeded", **details)


class ClusterError(ServeError):
    """Multi-host profiling-cluster failure (no live agents, a shard
    that cannot be reached, replication of a missing cache entry)."""


class DeadlineExceededError(ServeError):
    """An operation's overall wall-clock budget ran out.

    Raised by :class:`~repro.serve.RetryPolicy`-governed operations
    when the ``deadline_s`` budget is spent before the op succeeds —
    distinct from attempts-exhausted failures, whose own error (e.g.
    ``connect_failed``) propagates instead.  Carries ``budget_s`` and
    ``elapsed_s`` in :attr:`details`.
    """

    def __init__(self, message: str, **details) -> None:
        super().__init__(message, code="deadline_exceeded", **details)


class AnnotationError(NmoError):
    """Misnested or unknown profiling annotations."""


class SubstrateError(ReproError):
    """Columnar result-substrate failure (corrupt payload, unknown
    format version, unencodable object).

    The worker transport treats this as "payload is not columnar" and
    falls back to pickle rather than failing the trial.
    """
