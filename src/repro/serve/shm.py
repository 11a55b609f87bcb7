"""Zero-copy shared caches for the pre-forked worker pool.

A pooled ``repro-serve`` used to pay its warm-up once *per worker*:
every worker compiled posted traces into its own
:class:`~repro.sim.compile.CompiledTrace` LRU and filled its own
in-memory result cache, so an N-worker pool did N compiles of the same
trace and answered the same repeated query N times before all workers
ran warm.  This module moves the hot tier of both stores into a
``multiprocessing.shared_memory`` segment that every worker maps:

- the **supervisor** creates the segment (and its fork-inherited lock)
  *before* forking, so the initial workers — and every respawn, which
  also forks from the supervisor — inherit an already-attached mapping.
  Workers never open the segment by name; a worker that dies, even by
  ``SIGKILL``, cannot leak or unlink it.  The supervisor unlinks the
  segment after :meth:`~repro.serve.pool.WorkerPool.supervise` returns.
- each **worker** publishes what it computes (a pickled
  :class:`CompiledTrace`, a pickled result dict) into the segment and
  probes it before computing: a trace text posted to any worker is
  parsed and compiled once per *pool*, and a result computed by any
  worker answers the same query from every worker.

Layout of a :class:`SharedBlobStore` segment::

    [ header: 8 x int64                                       ]
    [ index:  slots x (32-byte sha256 key, state, off, len)   ]
    [ slab:   append-only pickled blobs                       ]

The index is open-addressed (linear probing on the key digest); the
slab is append-only and entries are immutable once published, so
readers copy blob bytes *outside* the lock.  Publication is two-phase —
reserve the slot and slab range under the lock (state ``WRITING``),
copy the bytes with the lock released, then flip the state to ``READY``
— so a torn write is never observable: readers treat ``WRITING``
entries as misses.  A writer killed mid-copy leaves a permanently
``WRITING`` entry; the pool degrades to per-worker computation for that
one key, never to corruption.

The lock is a plain fork-inherited ``multiprocessing.Lock`` acquired
with a timeout: if a lock holder is killed at exactly the wrong moment,
surviving workers count a ``lock_timeout`` and fall back to local
computation instead of deadlocking.

Counters (``hits``/``misses``/``puts``/``put_rejects``/
``lock_timeouts``/``attaches``) are mirrored into the process metrics
registry under ``serve.shm.<tag>.*``; the pool's state-file merge makes
them pool-wide in ``GET /metrics``, and ``GET /healthz`` reports each
store's :meth:`~SharedBlobStore.stats` under a ``shared`` block.

Single-worker serving (``--workers 1``) creates no segment and uses no store.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import pickle
import struct
from typing import Any

from repro.obs.log import get_logger
from repro.obs.metrics import get_registry

_log = get_logger("serve.shm")

#: Default shared-segment budget for a pool (``--shared-mem-bytes``).
DEFAULT_SHM_BYTES = 32 * 1024 * 1024

#: ``"REPROSHM"`` as a little-endian int64 — first header slot.
_MAGIC = int.from_bytes(b"REPROSHM", "little")

#: Bumped whenever the header/index layout changes.
_LAYOUT_VERSION = 1

# Header: 8 little-endian int64 slots.
_H_MAGIC = 0
_H_VERSION = 1
_H_SLOTS = 2
_H_DATA_OFF = 3
_H_DATA_CAP = 4
_H_DATA_USED = 5
_H_ENTRIES = 6
_H_ATTACHES = 7
_HEADER_BYTES = 8 * 8

# Index entry: 32-byte sha256 digest + 3 little-endian int64 fields.
_ENTRY_FMT = "<32sqqq"
_ENTRY_BYTES = struct.calcsize(_ENTRY_FMT)

# Entry states.  EMPTY -> WRITING (slot + slab range reserved) ->
# READY (blob bytes fully copied; entry is immutable from here on).
_EMPTY = 0
_WRITING = 1
_READY = 2

#: How long an operation waits for the segment lock before degrading to
#: a local miss/no-op.  Generous: the lock only ever guards a few
#: hundred bytes of header/index bookkeeping, never a blob copy.
_LOCK_TIMEOUT_S = 5.0

#: Linear-probe bound.  A key lives within this many slots of its home
#: slot or not at all — which keeps every index operation O(1) under
#: the cross-process lock even when the table saturates (an unbounded
#: probe would scan the whole index per miss on a full table, turning
#: a busy pool's cache writes into a convoy on the shared lock).
_MAX_PROBE = 64


class SharedBlobStore:
    """A fixed-size, append-only blob map in shared memory.

    Keys are arbitrary strings (hashed to sha256 digests in the index);
    values are opaque byte blobs.  Entries are immutable once published
    and never evicted — when the slab or index fills, :meth:`put`
    rejects (counted in ``put_rejects``) and callers keep their local
    copy, so a full store degrades throughput, not correctness.

    Create with :meth:`create` in the pool supervisor before forking;
    workers use the fork-inherited instance directly and call
    :meth:`mark_attached` once at startup.  The creator calls
    :meth:`destroy` when the pool drains.

    Args:
        shm: the already-created ``SharedMemory`` segment.
        lock: the fork-inherited segment lock.
        tag: short name for logs, ``/healthz``, and the
            ``serve.shm.<tag>.*`` registry counters.
        lock_timeout_s: lock acquisition bound before degrading.
    """

    def __init__(
        self,
        shm: Any,
        lock: Any,
        tag: str,
        lock_timeout_s: float = _LOCK_TIMEOUT_S,
    ) -> None:
        self._shm = shm
        self._buf = shm.buf
        self._lock = lock
        self.tag = tag
        self.lock_timeout_s = lock_timeout_s
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.put_rejects = 0
        self.lock_timeouts = 0
        self.attached = False

    # -- construction --------------------------------------------------

    @classmethod
    def create(
        cls,
        size_bytes: int,
        slots: int,
        tag: str,
        lock_timeout_s: float = _LOCK_TIMEOUT_S,
    ) -> "SharedBlobStore":
        """Allocate and initialize a fresh segment (supervisor side)."""
        from multiprocessing import shared_memory

        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        data_off = _HEADER_BYTES + slots * _ENTRY_BYTES
        if size_bytes <= data_off:
            raise ValueError(
                f"size_bytes={size_bytes} leaves no slab after the "
                f"{data_off}-byte header+index ({slots} slots)"
            )
        shm = shared_memory.SharedMemory(create=True, size=size_bytes)
        # SharedMemory zero-fills on create; only the header needs values.
        header = struct.pack(
            "<8q",
            _MAGIC,
            _LAYOUT_VERSION,
            slots,
            data_off,
            size_bytes - data_off,
            0,  # data used
            0,  # entries
            0,  # attaches
        )
        shm.buf[:_HEADER_BYTES] = header
        store = cls(shm, multiprocessing.Lock(), tag, lock_timeout_s)
        _log.info(
            "shared %s store created: %s (%d bytes, %d index slots)",
            tag,
            shm.name,
            size_bytes,
            slots,
        )
        return store

    @property
    def name(self) -> str:
        """The OS-level segment name (``/dev/shm/<name>`` on Linux)."""
        return self._shm.name

    # -- header accessors (call with the lock held) --------------------

    def _h_get(self, slot: int) -> int:
        return struct.unpack_from("<q", self._buf, slot * 8)[0]

    def _h_set(self, slot: int, value: int) -> None:
        struct.pack_into("<q", self._buf, slot * 8, value)

    def _entry_offset(self, index: int) -> int:
        return _HEADER_BYTES + index * _ENTRY_BYTES

    def _read_entry(self, index: int) -> tuple[bytes, int, int, int]:
        return struct.unpack_from(_ENTRY_FMT, self._buf, self._entry_offset(index))

    def _write_entry(
        self, index: int, digest: bytes, state: int, off: int, length: int
    ) -> None:
        struct.pack_into(
            _ENTRY_FMT, self._buf, self._entry_offset(index), digest, state, off, length
        )

    def _acquire(self) -> bool:
        if self._lock.acquire(timeout=self.lock_timeout_s):
            return True
        self.lock_timeouts += 1
        self._counter("lock_timeouts").inc()
        _log.warning(
            "shared %s store lock timed out after %.1fs; degrading to local",
            self.tag,
            self.lock_timeout_s,
        )
        return False

    def _counter(self, name: str) -> Any:
        # Resolved per call: pooled workers reset the registry after fork,
        # so a counter object captured at create time would go stale.
        return get_registry().counter(f"serve.shm.{self.tag}.{name}")

    @staticmethod
    def _digest(key: str) -> bytes:
        return hashlib.sha256(key.encode("utf-8")).digest()

    # -- operations ----------------------------------------------------

    def mark_attached(self) -> None:
        """Record this process's attachment (worker startup, post-fork)."""
        if self.attached:
            return
        self.attached = True
        self._counter("attaches").inc()
        if self._acquire():
            try:
                self._h_set(_H_ATTACHES, self._h_get(_H_ATTACHES) + 1)
            finally:
                self._lock.release()

    def get(self, key: str) -> bytes | None:
        """The published blob for ``key``, or ``None``.

        The index probe runs under the lock; the blob copy does not
        (``READY`` entries are immutable, the slab is append-only).
        """
        digest = self._digest(key)
        slots = self._h_get(_H_SLOTS)
        start = int.from_bytes(digest[:8], "little") % slots
        found: tuple[int, int] | None = None
        if not self._acquire():
            self.misses += 1
            self._counter("misses").inc()
            return None
        try:
            for probe in range(min(slots, _MAX_PROBE)):
                entry_key, state, off, length = self._read_entry(
                    (start + probe) % slots
                )
                if state == _EMPTY:
                    break
                if entry_key == digest:
                    if state == _READY:
                        found = (off, length)
                    break
        finally:
            self._lock.release()
        if found is None:
            self.misses += 1
            self._counter("misses").inc()
            return None
        off, length = found
        blob = bytes(self._buf[off : off + length])
        self.hits += 1
        self._counter("hits").inc()
        return blob

    def put(self, key: str, blob: bytes) -> bool:
        """Publish ``blob`` under ``key``; ``False`` = not stored.

        Not-stored covers: the key already present (another worker won
        the race — equivalent content, nothing to do), the slab or index
        full, or a lock timeout.  All are safe to ignore: the caller
        keeps its locally computed value.
        """
        digest = self._digest(key)
        length = len(blob)
        slots = self._h_get(_H_SLOTS)
        start = int.from_bytes(digest[:8], "little") % slots
        if length > self._h_get(_H_DATA_CAP) - self._h_get(_H_DATA_USED):
            # Lock-free early out: the slab can only grow, so a blob
            # that does not fit now never will.
            self.put_rejects += 1
            self._counter("put_rejects").inc()
            return False
        if not self._acquire():
            return False
        claimed: tuple[int, int] | None = None
        try:
            target = -1
            for probe in range(min(slots, _MAX_PROBE)):
                index = (start + probe) % slots
                entry_key, state, _off, _length = self._read_entry(index)
                if state == _EMPTY:
                    target = index
                    break
                if entry_key == digest:
                    return False  # already published (or being published)
            if target < 0:
                self.put_rejects += 1
                self._counter("put_rejects").inc()
                return False  # probe window full
            data_off = self._h_get(_H_DATA_OFF)
            used = self._h_get(_H_DATA_USED)
            if used + length > self._h_get(_H_DATA_CAP):
                self.put_rejects += 1
                self._counter("put_rejects").inc()
                return False  # slab full
            off = data_off + used
            self._write_entry(target, digest, _WRITING, off, length)
            self._h_set(_H_DATA_USED, used + length)
            self._h_set(_H_ENTRIES, self._h_get(_H_ENTRIES) + 1)
            claimed = (target, off)
        finally:
            self._lock.release()
        target, off = claimed
        self._buf[off : off + length] = blob
        if not self._acquire():
            return False  # entry stays WRITING: a permanent, harmless miss
        try:
            self._write_entry(target, digest, _READY, off, length)
        finally:
            self._lock.release()
        self.puts += 1
        self._counter("puts").inc()
        return True

    def stats(self) -> dict[str, Any]:
        """JSON-safe snapshot: segment occupancy plus local counters.

        Occupancy (``entries``/``data_used``/``attaches_total``) is read
        from the shared header, so every worker reports the same
        pool-wide values; the access counters are this process's own
        (the pool merge in ``/metrics`` sums them across workers).
        """
        return {
            "name": self._shm.name,
            "tag": self.tag,
            "slots": self._h_get(_H_SLOTS),
            "entries": self._h_get(_H_ENTRIES),
            "data_used": self._h_get(_H_DATA_USED),
            "data_cap": self._h_get(_H_DATA_CAP),
            "attaches_total": self._h_get(_H_ATTACHES),
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "put_rejects": self.put_rejects,
            "lock_timeouts": self.lock_timeouts,
        }

    # -- lifecycle -----------------------------------------------------

    def destroy(self) -> None:
        """Unmap and unlink the segment (creator side, after the drain)."""
        name = self._shm.name
        try:
            self._buf = None
            self._shm.close()
            self._shm.unlink()
        except (FileNotFoundError, OSError) as exc:  # pragma: no cover
            _log.warning("shared %s store unlink (%s) failed: %s", self.tag, name, exc)
            return
        _log.info("shared %s store unlinked: %s", self.tag, name)


def pickle_blob(value: Any) -> bytes:
    """Serialize a value for publication (highest pickle protocol)."""
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def unpickle_blob(blob: bytes) -> Any:
    """Deserialize a published blob."""
    return pickle.loads(blob)


class PoolSharedState:
    """The pool's shared segments: compiled traces plus hot results.

    One instance per pool, created by the supervisor before the first
    fork (:meth:`create`) and destroyed after the drain.  Workers call
    :meth:`attach_worker` once at startup — a bookkeeping step only,
    the mapping itself rides across ``fork``.

    Attributes:
        traces: :class:`SharedBlobStore` of pickled
            :class:`~repro.sim.compile.CompiledTrace` objects, keyed by
            the sha256 of the posted trace text (consulted by
            ``ServeApp._compiled_trace`` before it parses).
        results: :class:`SharedBlobStore` of pickled result dicts, the
            cross-worker hot tier of
            :class:`~repro.serve.cache.EvaluationCache`.
    """

    #: Fraction of the budget given to the compiled-trace store (traces
    #: are few but large; results are many but small).
    _TRACE_FRACTION = 0.25

    #: Index sizing: traces rotate over a handful of workloads; results
    #: scale with distinct queries (bounded so the index stays a small
    #: fraction of the budget).
    _TRACE_SLOTS = 512
    _MIN_RESULT_SLOTS = 1024
    _MAX_RESULT_SLOTS = 65536

    def __init__(self, traces: SharedBlobStore, results: SharedBlobStore) -> None:
        self.traces = traces
        self.results = results

    @classmethod
    def create(cls, total_bytes: int = DEFAULT_SHM_BYTES) -> "PoolSharedState":
        """Allocate both stores out of a ``total_bytes`` budget."""
        min_bytes = 4 * (
            _HEADER_BYTES + cls._TRACE_SLOTS * _ENTRY_BYTES
        )
        if total_bytes < min_bytes:
            raise ValueError(
                f"--shared-mem-bytes {total_bytes} is below the "
                f"{min_bytes}-byte minimum for the segment headers"
            )
        trace_bytes = int(total_bytes * cls._TRACE_FRACTION)
        result_bytes = total_bytes - trace_bytes
        result_slots = max(
            cls._MIN_RESULT_SLOTS,
            min(cls._MAX_RESULT_SLOTS, result_bytes // 4096),
        )
        traces = SharedBlobStore.create(trace_bytes, cls._TRACE_SLOTS, "traces")
        try:
            results = SharedBlobStore.create(result_bytes, result_slots, "results")
        except BaseException:
            traces.destroy()
            raise
        return cls(traces, results)

    def attach_worker(self) -> None:
        """Record this worker's attachment to both stores (post-fork)."""
        self.traces.mark_attached()
        self.results.mark_attached()

    def stats(self) -> dict[str, Any]:
        """The ``shared`` block for ``/healthz``."""
        return {"traces": self.traces.stats(), "results": self.results.stats()}

    def destroy(self) -> None:
        """Unlink both segments (supervisor side, after the drain)."""
        self.traces.destroy()
        self.results.destroy()
