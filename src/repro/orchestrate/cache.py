"""Content-addressed on-disk result cache for experiment trials.

The paper's evaluation is a grid of independent trials; re-running
``python -m repro fig8`` recomputes every one of them from scratch.
:class:`ResultCache` turns repeated runs into disk reads: each trial
result is stored under a key derived from *what was computed* —

* the experiment name,
* the trial configuration (a dataclass or plain dict of primitives),
* the trial seed,
* the ``repro`` package version.

A version bump invalidates every entry at once; source edits *without*
a bump are invisible to the key, so run ``python -m repro cache clear``
after changing simulator code.

Keys are SHA-256 digests of a canonical JSON rendering of those four
components, so any config-field change produces a different key and the
stale entry is simply never read again.  Values are stored with
:mod:`pickle` and written atomically (temp file + ``os.replace``) so a
killed run never leaves a torn entry; a torn or corrupt entry left by
an older crash is deleted and counted as a miss rather than failing the
sweep.

Every trial recipe returns a row of a few summary numbers (a few
hundred bytes of pickle), so a warm hit is one small file read plus
``pickle.loads``.  Cache directories written by older versions also
hold ``<key>.cols`` columnar sidecars next to each ``.pkl``:
:meth:`ResultCache.get` ignores them and :meth:`ResultCache.clear`
removes them.

Hit/miss/store counters, with cumulative deserialization time, are
kept per session and folded into a persistent ``stats.json`` in the
cache directory by :meth:`flush_stats`, which is what
``python -m repro cache stats`` reports.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import numbers
import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import Any

import numpy as np

#: default on-disk location when $REPRO_CACHE_DIR is unset
DEFAULT_CACHE_DIR = Path.home() / ".cache" / "repro"


def default_cache_dir() -> Path:
    """Resolve the cache directory, honouring $REPRO_CACHE_DIR at call
    time (not at import, so tests and late ``os.environ`` edits work)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    return Path(env) if env else DEFAULT_CACHE_DIR

_STATS_FILE = "stats.json"
_OBJECTS_DIR = "objects"


def canonical_config(obj: Any) -> Any:
    """Reduce a trial configuration to JSON-stable primitives.

    Dataclasses flatten to their field dict, enums to ``[type, value]``,
    numpy scalars to Python numbers, arrays to (shape, dtype, content
    digest); anything else falls back to ``repr`` so exotic values
    still key deterministically within one version.
    """
    if isinstance(obj, np.ndarray):
        # never repr: numpy truncates large arrays with "...", so two
        # different arrays could collide on one key.  Object arrays
        # have no stable byte view; canonicalise their elements.
        if obj.dtype == object:
            return ["ndarray", list(obj.shape), "object",
                    canonical_config(obj.tolist())]
        digest = hashlib.sha256(
            np.ascontiguousarray(obj).tobytes()
        ).hexdigest()
        return ["ndarray", list(obj.shape), str(obj.dtype), digest]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        # forward-compatible keying: a dataclass may declare
        # ``__cache_optional__`` (a set of field names) whose fields are
        # omitted from the key while at their ``None`` default, so adding
        # such a field never invalidates previously cached entries
        # (e.g. ``MachineSpec.tiers``)
        optional = getattr(type(obj), "__cache_optional__", frozenset())
        return {
            f.name: canonical_config(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if not (f.name in optional and getattr(obj, f.name) is None)
        }
    if isinstance(obj, enum.Enum):
        return [type(obj).__name__, canonical_config(obj.value)]
    if isinstance(obj, dict):
        return {
            str(k): canonical_config(v)
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(obj, (list, tuple)):
        return [canonical_config(v) for v in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, numbers.Integral):
        return int(obj)
    if isinstance(obj, numbers.Real):
        return float(obj)
    if isinstance(obj, type):
        return f"{obj.__module__}.{obj.__qualname__}"
    return repr(obj)


def cache_key(
    experiment: str, config: Any, seed: int, version: str | None = None
) -> str:
    """SHA-256 key over (experiment, canonical config, seed, version)."""
    if version is None:
        import repro

        version = repro.__version__
    payload = json.dumps(
        {
            "experiment": experiment,
            "config": canonical_config(config),
            "seed": int(seed),
            "version": version,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclasses.dataclass
class CacheStats:
    """Per-session lookup counters (folded into stats.json on flush)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    deser_ns: int = 0  #: time spent reading and unpickling hits

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)


#: every counter key persisted in stats.json
_STAT_KEYS = tuple(CacheStats().as_dict())


def _write_atomic(path: Path, blob: bytes) -> None:
    """Publish ``blob`` at ``path`` via a sibling temp file + ``os.replace``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


class ResultCache:
    """Content-addressed pickle store under one cache directory.

    The cache is read and written only from the orchestrating parent
    process (workers never touch it), so no cross-process locking is
    needed; entry writes are still atomic so concurrent *invocations*
    sharing a directory stay consistent.
    """

    def __init__(self, cache_dir: str | Path | None = None) -> None:
        self.dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self.stats = CacheStats()

    # -- keying ------------------------------------------------------------

    def key(self, experiment: str, config: Any, seed: int) -> str:
        return cache_key(experiment, config, seed)

    # -- storage -----------------------------------------------------------

    def _objects(self) -> Path:
        return self.dir / _OBJECTS_DIR

    def _path(self, key: str) -> Path:
        return self._objects() / key[:2] / f"{key}.pkl"

    def contains(self, key: str) -> bool:
        return self._path(key).is_file()

    def get(self, key: str, default: Any = None) -> Any:
        """Load an entry, counting a hit or a miss.

        A corrupt or truncated entry (torn by an old crash, or pickled
        by an incompatible interpreter) is deleted and counted as a
        miss, so the trial recomputes.
        """
        path = self._path(key)
        t0 = time.perf_counter_ns()
        try:
            value = pickle.loads(path.read_bytes())
        except FileNotFoundError:
            self.stats.misses += 1
            return default
        except Exception:
            path.unlink(missing_ok=True)
            self.stats.misses += 1
            return default
        self.stats.deser_ns += time.perf_counter_ns() - t0
        self.stats.hits += 1
        return value

    def put(self, key: str, value: Any) -> None:
        _write_atomic(
            self._path(key),
            pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL),
        )
        self.stats.stores += 1

    # -- replication (byte-exact entry transfer) ---------------------------

    def export_entry(self, key: str) -> bytes:
        """The raw ``.pkl`` bytes of one entry.

        The replication primitive: a cluster peer that
        :meth:`import_entry`'s these bytes holds a byte-identical copy
        of the entry, so cache keys and parity gates behave exactly as
        if the peer had computed the trial itself.  Raises ``KeyError``
        for unknown keys (callers decide whether a missing entry is an
        error or a skip).
        """
        try:
            return self._path(key).read_bytes()
        except FileNotFoundError:
            raise KeyError(key) from None

    def import_entry(self, key: str, pkl: bytes) -> None:
        """Store raw entry bytes exported from a peer, atomically.

        Written like :meth:`put`, so a torn import never leaves a
        corrupt entry.  Counts as a store.
        """
        _write_atomic(self._path(key), pkl)
        self.stats.stores += 1

    # -- statistics --------------------------------------------------------

    def _stats_path(self) -> Path:
        return self.dir / _STATS_FILE

    def persistent_stats(self) -> dict[str, int]:
        """Counters from stats.json (keys a file lacks read as 0; keys
        this version no longer counts are dropped)."""
        try:
            raw = json.loads(self._stats_path().read_text())
            return {k: int(raw.get(k, 0)) for k in _STAT_KEYS}
        except (OSError, ValueError):
            return {k: 0 for k in _STAT_KEYS}

    def flush_stats(self) -> dict[str, int]:
        """Fold session counters into stats.json; returns the new totals."""
        session = self.stats.as_dict()
        if not any(session.values()):
            return self.persistent_stats()
        totals = self.persistent_stats()
        for k, v in session.items():
            totals[k] += v
        _write_atomic(self._stats_path(), json.dumps(totals).encode())
        self.stats = CacheStats()
        return totals

    # -- maintenance -------------------------------------------------------

    def entries(self) -> list[Path]:
        return sorted(self._objects().glob("*/*.pkl"))

    def size_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.entries())

    def clear(self) -> int:
        """Delete every entry (and the stats file); returns entries removed.

        Also removes the ``.cols`` sidecars older versions wrote.
        """
        entries = self.entries()
        for p in [*entries, *self._objects().glob("*/*.cols")]:
            p.unlink(missing_ok=True)
        for sub in sorted(self._objects().glob("*"), reverse=True):
            if sub.is_dir():
                try:
                    sub.rmdir()
                except OSError:
                    pass
        self._stats_path().unlink(missing_ok=True)
        self.stats = CacheStats()
        return len(entries)

    def describe(self) -> str:
        """Human-readable stats block (the ``cache stats`` output).

        Every line keeps the ``key: value`` shape CI's smoke job parses.
        ``deserialize`` answers "what does a warm hit cost": cumulative
        time spent reading and unpickling cache files.
        """
        totals = self.persistent_stats()
        for k, v in self.stats.as_dict().items():
            totals[k] += v
        lines = [
            f"cache directory: {self.dir}",
            f"entries: {len(self.entries())}",
            f"size: {self.size_bytes() / 1024:.1f} KiB",
            f"hits: {totals['hits']}",
            f"deserialize: {totals['deser_ns'] / 1e6:.3f} ms",
            f"misses: {totals['misses']}",
            f"stores: {totals['stores']}",
        ]
        return "\n".join(lines)


def make_cache(
    enabled: bool | None, cache_dir: str | Path | None = None
) -> ResultCache | None:
    """CLI/bench helper resolving the three-state ``--cache`` opt-in.

    ``enabled`` is ``True`` (``--cache``), ``False`` (an explicit
    ``--no-cache``, which always wins), or ``None`` (flag unset).  When
    unset, passing a ``cache_dir`` implies caching — asking *where* to
    cache is asking *to* cache.
    """
    if enabled is False:
        return None
    if enabled is None and cache_dir is None:
        return None
    return ResultCache(cache_dir)
