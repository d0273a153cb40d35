"""A content-addressed on-disk result cache for experiment sessions.

Entries are keyed by a SHA-256 digest of everything the result depends
on -- for an ABR session that is the video (chunk sizes, ladder,
duration), the trace samples, the policy identity *and* weights, the QoE
weights, the ``chunk_indexed`` flag and a code-schema version -- so a hit
is only possible when the replay would be bitwise-identical.  Renaming a
trace or re-running the same frozen policy therefore hits; retraining a
policy, editing a trace or bumping :data:`SCHEMA_VERSION` misses.

Robustness properties:

- **Atomic writes**: entries are written to a temp file in the cache
  directory and ``os.replace``d into place, so readers never observe a
  half-written entry (including under concurrent writers).
- **Corruption tolerance**: any unreadable, truncated or mismatched entry
  is treated as a miss (and deleted best-effort), never an error.
- **Counters**: hits, misses, stores, evictions and read errors are
  tracked per instance and rendered by :meth:`ResultCache.summary` so
  experiment scripts can report what was recomputed vs. served.

The default cache location is taken from ``$REPRO_CACHE_DIR``; with the
variable unset, :meth:`ResultCache.resolve` returns ``None`` and callers
run uncached (the historical behaviour).
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import struct
import tempfile
from collections import deque
from hashlib import sha256
from pathlib import Path
from typing import Any, Callable

import numpy as np

__all__ = ["CACHE_DIR_ENV", "SCHEMA_VERSION", "ResultCache", "fingerprint", "make_key"]

#: Environment variable naming the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Bumped whenever simulator/session semantics change, invalidating every
#: previously stored entry at once.
SCHEMA_VERSION = "3"


# ---------------------------------------------------------------------------
# Canonical fingerprinting.
# ---------------------------------------------------------------------------


def _feed(h, obj: Any, seen: set[int]) -> None:
    """Feed a canonical byte encoding of ``obj`` into hash ``h``.

    Objects hash by class identity plus *public* attribute state (private
    state like MPC's prediction-error window or a layer's stashed
    activations must not affect the key), with two exceptions:
    ``np.random.Generator`` attributes are always included -- a policy's
    exploration stream is part of its identity -- and a
    ``__cache_state__()`` method overrides
    the default entirely (e.g. :class:`~repro.nn.network.MLP` exposes its
    weights, :class:`~repro.traces.trace.Trace` drops its display name).
    """
    if obj is None:
        h.update(b"\x00N")
    elif isinstance(obj, bool):
        h.update(b"\x00B1" if obj else b"\x00B0")
    elif isinstance(obj, int):
        h.update(b"\x00I" + str(obj).encode())
    elif isinstance(obj, float):
        h.update(b"\x00F" + struct.pack("<d", obj))
    elif isinstance(obj, str):
        h.update(b"\x00S" + obj.encode())
    elif isinstance(obj, bytes):
        h.update(b"\x00Y" + obj)
    elif isinstance(obj, np.generic):
        h.update(b"\x00G" + obj.dtype.str.encode() + obj.tobytes())
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        h.update(b"\x00A" + arr.dtype.str.encode() + str(arr.shape).encode())
        h.update(arr.tobytes())
    elif isinstance(obj, (list, tuple, deque)):
        h.update(b"\x00L" + str(len(obj)).encode())
        for item in obj:
            _feed(h, item, seen)
    elif isinstance(obj, (set, frozenset)):
        h.update(b"\x00E" + str(len(obj)).encode())
        for item in sorted(obj, key=repr):
            _feed(h, item, seen)
    elif isinstance(obj, dict):
        h.update(b"\x00D" + str(len(obj)).encode())
        for key, value in sorted(obj.items(), key=lambda kv: repr(kv[0])):
            _feed(h, key, seen)
            _feed(h, value, seen)
    elif isinstance(obj, np.random.Generator):
        h.update(b"\x00R")
        _feed(h, obj.bit_generator.state, seen)
    elif isinstance(obj, type):
        h.update(b"\x00T" + f"{obj.__module__}.{obj.__qualname__}".encode())
    elif callable(obj) and hasattr(obj, "__qualname__"):
        h.update(b"\x00C" + f"{obj.__module__}.{obj.__qualname__}".encode())
    else:
        if id(obj) in seen:  # self-referential structure: mark and stop
            h.update(b"\x00*")
            return
        seen.add(id(obj))
        cls = type(obj)
        h.update(b"\x00O" + f"{cls.__module__}.{cls.__qualname__}".encode())
        custom = getattr(obj, "__cache_state__", None)
        if custom is not None:
            _feed(h, custom(), seen)
        else:
            state = _attr_state(obj)
            if state is None:
                raise TypeError(
                    f"cannot fingerprint {cls.__module__}.{cls.__qualname__}: "
                    "no __dict__/__slots__; give it a __cache_state__()"
                )
            _feed(h, state, seen)
        seen.discard(id(obj))


def _attr_state(obj: Any) -> dict[str, Any] | None:
    attrs: dict[str, Any] = {}
    found = False
    if hasattr(obj, "__dict__"):
        attrs.update(vars(obj))
        found = True
    for slot_cls in type(obj).__mro__:
        for name in getattr(slot_cls, "__slots__", ()):
            if hasattr(obj, name):
                attrs.setdefault(name, getattr(obj, name))
                found = True
    if not found and dataclasses.is_dataclass(obj):
        attrs = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        found = True
    if not found:
        return None
    return {
        name: value
        for name, value in attrs.items()
        if not name.startswith("_") or isinstance(value, np.random.Generator)
    }


def fingerprint(*parts: Any) -> str:
    """Hex SHA-256 of a canonical encoding of ``parts``."""
    h = sha256()
    for part in parts:
        _feed(h, part, set())
    return h.hexdigest()


def make_key(namespace: str, *parts: Any) -> str:
    """A cache key: digest of (schema version, namespace, content parts)."""
    return fingerprint(SCHEMA_VERSION, namespace, list(parts))


# ---------------------------------------------------------------------------
# The on-disk store.
# ---------------------------------------------------------------------------

_MISS = object()


class ResultCache:
    """Content-addressed pickle store with hit/miss/eviction accounting.

    Parameters
    ----------
    root:
        Cache directory (created on demand; entries are sharded into
        256 two-hex-digit subdirectories).
    max_entries:
        Optional size bound; when a store pushes the entry count past it,
        the oldest entries (by mtime) are evicted and counted.
    """

    def __init__(self, root: str | Path, max_entries: int | None = None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        if max_entries is not None and max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.errors = 0
        self._n_entries = sum(1 for _ in self._entry_paths())

    # -- construction ------------------------------------------------------

    @classmethod
    def from_env(cls) -> "ResultCache | None":
        """The ``$REPRO_CACHE_DIR`` cache, or ``None`` when unset."""
        root = os.environ.get(CACHE_DIR_ENV)
        return cls(root) if root else None

    @classmethod
    def resolve(cls, cache: "ResultCache | str | Path | bool | None") -> "ResultCache | None":
        """Normalize a cache spec: instance, path, ``None`` (env), ``False`` (off)."""
        if cache is False:
            return None
        if cache is None:
            return cls.from_env()
        if isinstance(cache, ResultCache):
            return cache
        return cls(cache)

    # -- storage -----------------------------------------------------------

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def _entry_paths(self):
        for shard in self.root.iterdir() if self.root.exists() else ():
            if shard.is_dir():
                yield from shard.glob("*.pkl")

    def _recount(self) -> int:
        """Re-derive the entry count from disk.

        The maintained counter only sees *this* instance's stores; it
        drifts whenever corrupt entries are dropped or another process
        shares the directory.  Anywhere the count feeds a decision (the
        ``max_entries`` bound) or has just been invalidated (a dropped
        entry), the ground truth is the directory listing.
        """
        self._n_entries = sum(1 for _ in self._entry_paths())
        return self._n_entries

    def lookup(self, key: str) -> tuple[bool, Any]:
        """Return ``(hit, value)``; corrupt or foreign entries are misses."""
        path = self._path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            self.misses += 1
            return False, None
        try:
            record = pickle.loads(blob)
            if record["schema"] != SCHEMA_VERSION or record["key"] != key:
                raise ValueError("stale or mismatched cache record")
            value = record["value"]
        except Exception:
            # A bad entry is a miss, never a crash; drop it so it cannot
            # keep costing a failed parse on every lookup.
            self.errors += 1
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            # The maintained count just lost an entry it may never have
            # seen stored (e.g. written by another process); recount
            # from disk rather than guess.
            self._recount()
            return False, None
        self.hits += 1
        return True, value

    def get(self, key: str, default: Any = None) -> Any:
        hit, value = self.lookup(key)
        return value if hit else default

    def put(self, key: str, value: Any) -> None:
        """Atomically store ``value`` under ``key`` (last writer wins)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {"schema": SCHEMA_VERSION, "key": key, "value": value}
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(record, fh, protocol=pickle.HIGHEST_PROTOCOL)
            existed = path.exists()
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stores += 1
        if not existed:
            self._n_entries += 1
        if self.max_entries is not None:
            self._evict_to_bound()

    def _evict_to_bound(self) -> None:
        """Evict oldest entries (by mtime) until the bound holds.

        Works from the directory listing, not the maintained counter, so
        the bound is enforced correctly even when other writers share
        the cache directory or corrupt-entry drops skewed the count.
        """
        entries = sorted(self._entry_paths(), key=lambda p: p.stat().st_mtime)
        self._n_entries = len(entries)
        assert self.max_entries is not None
        excess = max(self._n_entries - self.max_entries, 0)
        for path in entries[:excess]:
            try:
                path.unlink()
                self.evictions += 1
                self._n_entries = max(self._n_entries - 1, 0)
            except OSError:
                pass

    def get_or_compute(self, key: str, compute: Callable[[], Any]) -> Any:
        hit, value = self.lookup(key)
        if hit:
            return value
        value = compute()
        self.put(key, value)
        return value

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in list(self._entry_paths()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        self._n_entries = 0
        return removed

    def __len__(self) -> int:
        return self._n_entries

    # -- telemetry ---------------------------------------------------------

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "errors": self.errors,
            "entries": self._n_entries,
        }

    def record_metrics(self, recorder, prefix: str = "cache/") -> None:
        """Publish the counters as metrics on a ``MetricsRecorder``.

        The observability path for what :meth:`summary` prints: one
        sample per counter (hits, misses, stores, evictions, errors,
        entries) plus the hit rate, under ``<prefix>`` names.
        """
        for name, value in self.stats().items():
            recorder.record(prefix + name, value)
        recorder.record(prefix + "hit_rate", self.hit_rate())

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def summary(self) -> str:
        """One line for post-run reporting: served vs recomputed."""
        return (
            f"cache {self.root}: {self.hits} hits, {self.misses} misses "
            f"({self.hit_rate():.0%} served), {self.stores} stores, "
            f"{self.evictions} evictions, {self.errors} bad entries"
        )
