"""Pluggable byte-storage backends for the versioned store.

The paper's prototype (Section II) is a single-node, local-disk system;
everything above this module — chunk placement, delta encoding,
compression, the metadata catalog — is byte-oriented and does not care
*where* the bytes live.  :class:`StorageBackend` is that seam: a small
keyed byte-container contract (write / append / read / read_many /
delete) that lets new substrates (memory, sharded stores, eventually
object storage) drop in without touching encoding semantics.

Four implementations ship today:

* :class:`LocalFileBackend` — the paper's local filesystem, one object
  per file under a root directory; ``durable=True`` (registry name
  ``"durable"``) enables **durability barriers**: :meth:`~StorageBackend.sync`
  fsyncs the named objects, and the write pipeline raises that barrier
  between placement and the catalog transaction — the transactional
  write path's durability leg, group-committed like a database log
  rather than one fsync per write;
* :class:`InMemoryBackend` — a zero-I/O dict-of-buffers backend for
  tests, benchmarks, and all-in-memory cluster simulation;
* :class:`StripedBackend` — spreads objects over N child backends by a
  deterministic hash of the object path, so independent chunk chains
  land on independent substrates and parallel readers do not contend
  on one device;
* :class:`ObjectStoreBackend` — S3 semantics emulated over a local
  object map (no network dependency): objects are immutable blobs,
  ``write`` is a whole-object PUT, ``append`` stages a part of a
  multipart upload that :meth:`~StorageBackend.sync` finalizes into a
  new committed object, and reads are **ranged GETs** coalesced under
  a configurable request-size floor.  The backend advertises
  ``high_latency = True`` so the chunk store batches requests harder
  (per-request cost dominates on an object store, not bytes moved);
* :class:`FaultInjectingBackend` — a transparent wrapper (spec
  ``faulty:<seed>[:<inner>]``) that follows a **deterministic seeded
  schedule** of injected failures: the Nth write raises before any
  byte lands, the Nth append tears (a prefix lands, then the error),
  the Nth durability barrier errors out, and :meth:`mark_dead` turns
  the node into a black hole where every operation raises.  Seed 0 is
  the fault-free mode, which must be indistinguishable from the inner
  backend — the wrapper itself sits in the conformance grid.  This is
  the chaos suite's product-code half: failure scenarios replay
  exactly from a seed instead of depending on timing or monkeypatches.

``read_many`` is the performance-critical batched read: a co-located
delta chain lives at many ``(offset, length)`` spans of *one* object,
and the batched read resolves the whole chain with a single open + seek
pass instead of one ``open()`` per payload.  ``max_workers`` adds a
parallel fan-out path — spans are sharded across a thread pool, each
worker serving its shard from its own handle — for deep chains on
substrates that profit from request concurrency.

Paths are backend-relative strings with ``/`` separators (the same
strings the metadata catalog records in chunk locations), so a store
written by one backend can be described identically by another.
"""

from __future__ import annotations

import os
import random
import shutil
import threading
import zlib
from abc import ABC, abstractmethod
from bisect import bisect_right
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.core.errors import StorageError
from repro.storage.iostats import IOStats

#: Names accepted by :func:`resolve_backend` (and the CLI / bench axis).
#: ``striped:<n>[:<child>]``, ``object[:durable]``, and
#: ``faulty:<seed>[:<inner>]`` specs are also accepted — see
#: :func:`parse_striped_spec` / :func:`parse_object_spec` /
#: :func:`parse_faulty_spec`; :func:`ensure_backend_spec` validates any
#: of them without side effects.
BACKEND_NAMES = ("local", "memory", "durable", "object")

#: A backend spec: a registry name, a ready instance, or a factory
#: called with the store root (so multi-node deployments can build one
#: backend per node).
BackendSpec = "str | StorageBackend | Callable[[Path], StorageBackend] | None"


class StorageBackend(ABC):
    """Abstract keyed byte container beneath the chunk store.

    Implementations must satisfy the shared conformance suite
    (``tests/storage/test_backends.py``): reads of missing objects or
    short spans raise :class:`~repro.core.errors.StorageError`, ``write``
    replaces an object wholesale, ``append`` returns the offset at which
    the payload landed, and ``delete`` removes an object or a whole
    prefix subtree.
    """

    #: Human-readable registry name.
    name: str = "abstract"
    #: True when the backend holds no durable state (nothing on disk).
    ephemeral: bool = False
    #: The backend's latency profile: True when per-request cost
    #: dominates per-byte cost (object stores), so callers should
    #: batch harder — coalesce spans into fewer, larger requests and
    #: fan independent requests concurrently — rather than minimize
    #: bytes moved.  Local and in-memory substrates leave this False.
    high_latency: bool = False
    #: True when the backend's observable behaviour depends on the
    #: *order* its write-side operations arrive in, so callers must not
    #: issue writes to distinct objects concurrently.  All production
    #: backends leave this False — within one version every chunk
    #: targets a distinct object, so the commit stage may fan
    #: placements freely.  The fault-injecting wrapper sets it: its
    #: seeded schedule counts operations, and a concurrent fan would
    #: make which placement draws fault #N racy instead of replayable.
    serial_writes: bool = False

    def bind_stats(self, stats: "IOStats") -> None:
        """Attach an :class:`IOStats` sink for backend-level counters.

        The chunk store binds its own stats instance at construction so
        request-level accounting (ranged GETs, over-fetched bytes) lands
        in the same report as the chunk-level I/O.  The default is a
        no-op — only backends with request-level behaviour worth
        counting (the object store) record anything; composites forward
        the sink to their children.
        """

    @abstractmethod
    def write(self, path: str, payload: bytes) -> None:
        """Create or replace the object at ``path`` with ``payload``."""

    @abstractmethod
    def append(self, path: str, payload: bytes) -> int:
        """Append to the object at ``path``; returns the write offset."""

    @abstractmethod
    def read(self, path: str, offset: int, length: int) -> bytes:
        """Read exactly ``length`` bytes at ``offset`` of ``path``."""

    @abstractmethod
    def read_many(self, path: str,
                  spans: Sequence[tuple[int, int]], *,
                  max_workers: int = 0) -> list[bytes]:
        """Read several ``(offset, length)`` spans of one object.

        The whole batch is served from a single open of ``path`` — this
        is what turns a co-located delta chain into one open + seek
        pass.  ``max_workers`` > 1 shards the spans across a thread
        pool (each worker serves its shard from its own handle); the
        serial and parallel paths return identical payloads, in span
        order.
        """

    def sync(self, paths: Sequence[str], *, max_workers: int = 0) -> None:
        """Durability barrier: block until the listed objects survive a
        crash.

        The default is a no-op — the paper's prototype semantics, where
        the page cache owns write-back.  Backends opened in durable
        mode (``LocalFileBackend(durable=True)``) honor the barrier by
        fsyncing every listed object; ``max_workers`` > 1 fans the
        fsyncs across the shared I/O pool, letting the filesystem
        journal batch the commits instead of paying one full flush per
        object.  On the object store the barrier is a **finalize
        barrier**: every listed object's pending multipart upload is
        completed, so the staged parts become committed object bytes.
        The write pipeline calls this once per version, after
        placement and before the catalog transaction, so a catalog row
        can never name bytes the kernel still held in memory (or an
        upload nobody completed).
        """

    @abstractmethod
    def delete(self, prefix: str) -> None:
        """Remove the object at ``prefix`` or every object under it.

        The contract (conformance-tested across every backend,
        striped children included):

        * ``prefix`` naming an **object** removes exactly that object;
        * ``prefix`` naming a **subtree** removes every object whose
          path starts with ``prefix + "/"`` — prefixes match only at
          ``/`` component boundaries, so ``delete("A/ch")`` never
          touches ``A/chunks/...``;
        * deleting a missing prefix is a silent no-op (idempotent);
        * on composites the prefix may cover objects on every child,
          so the delete fans to all of them;
        * on the object store, pending multipart uploads under the
          prefix are aborted as well — a deleted object can never be
          resurrected by a later finalize.
        """

    @abstractmethod
    def total_bytes(self, prefix: str = "") -> int:
        """Stored bytes under ``prefix`` (the whole backend when '')."""

    def close(self) -> None:
        """Release auxiliary resources (idempotent).

        Shuts down the lazily-created span-read and sync executors; a
        later parallel read or durability barrier simply recreates
        them, so a backend instance stays usable after close.  The
        pools are detached under the guard but drained outside it, so
        closing one backend never stalls other backends' I/O on the
        shared creation lock.
        """
        with _span_pool_guard:
            pools = [getattr(self, "_span_executor", None),
                     getattr(self, "_sync_executor", None)]
            self._span_executor = None
            self._sync_executor = None
        for pool in pools:
            if pool is not None:
                pool.shutdown(wait=True)


_span_pool_guard = threading.Lock()

#: Durability-barrier fan depth.  An fsync wait is I/O, not CPU: the
#: filesystem journal group-commits concurrent flushes, and batching
#: saturates around this queue depth on commodity disks — so the
#: barrier fans to this fixed width (bounded by the object count)
#: whenever concurrency is enabled, independent of the CPU-oriented
#: ``workers`` degree.
SYNC_FAN = 8


def _sync_pool(backend: "StorageBackend") -> ThreadPoolExecutor:
    """One lazily-created durability-barrier executor per backend.

    Separate from the span-read pool so the barrier's I/O depth is
    never silently capped by whatever size the read path happened to
    create its pool with."""
    with _span_pool_guard:
        pool = getattr(backend, "_sync_executor", None)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=SYNC_FAN,
                thread_name_prefix=f"repro-{backend.name}-sync")
            backend._sync_executor = pool
        return pool


def _span_pool(backend: "StorageBackend",
               max_workers: int) -> ThreadPoolExecutor:
    """One lazily-created span-read executor per backend instance.

    Reused across every ``read_many`` call (a fresh pool per read would
    put thread spawn/join on the hot chain-read path).  Sized at first
    use; later calls asking for more workers still run correctly, just
    at the original concurrency.  :meth:`StorageBackend.close` (called
    from the manager's close) shuts the pool down.
    """
    with _span_pool_guard:
        pool = getattr(backend, "_span_executor", None)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=max_workers,
                thread_name_prefix=f"repro-{backend.name}-span")
            backend._span_executor = pool
        return pool


def _fan_out_spans(backend: "StorageBackend",
                   spans: Sequence[tuple[int, int]], max_workers: int,
                   read_shard) -> list[bytes]:
    """Shard ``spans`` into contiguous blocks read concurrently.

    ``read_shard`` maps one block of spans to its payloads; blocks are
    reassembled in span order, so the result is indistinguishable from
    a serial pass.
    """
    shards = min(max_workers, len(spans))
    step = -(-len(spans) // shards)  # ceil division
    blocks = [spans[i:i + step] for i in range(0, len(spans), step)]
    pool = _span_pool(backend, max_workers)
    return [payload
            for block in pool.map(read_shard, blocks)
            for payload in block]


class LocalFileBackend(StorageBackend):
    """Local-filesystem backend: one object per file under ``root``.

    ``durable=True`` arms the :meth:`sync` durability barrier: writes
    and appends stay buffered (the kernel's write-back proceeds in the
    background while later chunks are still being encoded), and the
    barrier fsyncs the touched objects in one group — so the write
    pipeline leaves payload bytes crash-safe *before* the catalog
    transaction that names them commits, at a per-version rather than
    per-chunk flush cost.  The fsync waits release the GIL and can be
    fanned across the shared I/O pool (``max_workers``), which lets
    the filesystem journal batch the commits.
    """

    name = "local"

    def __init__(self, root: str | Path, durable: bool = False):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.durable = durable
        if durable:
            self.name = "durable"
        # Files created since the last barrier: their directory entries
        # need an fsync too, but only once — appends to existing files
        # never do (the entry is already durable).
        self._fresh_files: set[Path] = set()
        self._fresh_lock = threading.Lock()

    def _resolve(self, path: str) -> Path:
        return self.root / path

    def _note_fresh(self, target: Path) -> None:
        if self.durable and not target.exists():
            with self._fresh_lock:
                self._fresh_files.add(target)

    def write(self, path: str, payload: bytes) -> None:
        target = self._resolve(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        self._note_fresh(target)
        with open(target, "wb") as handle:
            handle.write(payload)

    def append(self, path: str, payload: bytes) -> int:
        target = self._resolve(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        self._note_fresh(target)
        with open(target, "ab") as handle:
            offset = handle.tell()
            handle.write(payload)
        return offset

    def sync(self, paths: Sequence[str], *, max_workers: int = 0) -> None:
        if not self.durable or not paths:
            return
        distinct = list(dict.fromkeys(paths))

        def fsync_at(target: "Path") -> None:
            fd = os.open(target, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)

        def fsync_one(path: str) -> None:
            fsync_at(self._resolve(path))

        if max_workers > 1 and len(distinct) > 1:
            # One task per object at the barrier's own I/O depth: the
            # journal group-commits whatever flushes are in flight, so
            # depth — not CPU parallelism — sets the batching factor.
            pool = _sync_pool(self)
            list(pool.map(fsync_one, distinct))
        else:
            for path in distinct:
                fsync_one(path)
        # A freshly created file is only crash-safe once its directory
        # entry is too: fsync each distinct parent directory up to the
        # backend root, or the barrier could survive the data but lose
        # the name.  Appends to files whose entries an earlier barrier
        # already flushed skip this — only fresh files pay it.
        with self._fresh_lock:
            fresh = [target for path in distinct
                     if (target := self._resolve(path))
                     in self._fresh_files]
            self._fresh_files.difference_update(fresh)
        directories: list[Path] = []
        seen: set[Path] = set()
        for target in fresh:
            parent = target.parent
            while parent not in seen and \
                    parent.is_relative_to(self.root):
                seen.add(parent)
                directories.append(parent)
                parent = parent.parent
        for directory in directories:
            fsync_at(directory)

    def read(self, path: str, offset: int, length: int) -> bytes:
        return self.read_many(path, [(offset, length)])[0]

    def read_many(self, path: str,
                  spans: Sequence[tuple[int, int]], *,
                  max_workers: int = 0) -> list[bytes]:
        target = self._resolve(path)
        if max_workers > 1 and len(spans) > 1:
            return _fan_out_spans(
                self, list(spans), max_workers,
                lambda shard: self._read_spans(target, shard))
        return self._read_spans(target, spans)

    def _read_spans(self, target: Path,
                    spans: Sequence[tuple[int, int]]) -> list[bytes]:
        try:
            with open(target, "rb") as handle:
                payloads = []
                for offset, length in spans:
                    handle.seek(offset)
                    payload = handle.read(length)
                    if len(payload) != length:
                        raise StorageError(
                            f"chunk file {target} truncated: wanted "
                            f"{length} bytes at {offset}, got "
                            f"{len(payload)}")
                    payloads.append(payload)
        except FileNotFoundError as exc:
            raise StorageError(f"missing chunk file {target}") from exc
        return payloads

    def delete(self, prefix: str) -> None:
        target = self._resolve(prefix)
        if target.is_dir():
            shutil.rmtree(target)
        elif target.exists():
            target.unlink()

    def total_bytes(self, prefix: str = "") -> int:
        base = self._resolve(prefix) if prefix else self.root
        if not base.exists():
            return 0
        if base.is_file():
            return base.stat().st_size
        return sum(f.stat().st_size for f in base.rglob("*") if f.is_file())


class _MemoryObject:
    """One in-memory object: a consolidated head plus appended tail
    segments, merged lazily on first read.

    Appending straight onto one growing ``bytearray`` realloc-copies
    the whole object every few appends once it reaches co-located
    version-chain size (measured ~115us per 168 KB append at 6 MB —
    pure copy churn that lands inside the write pipeline's timed
    path), so appends just collect segments and reads pay one join.
    The lock makes concurrent consolidation safe: parallel chunk
    reconstructions may read one object from several threads.
    """

    __slots__ = ("_head", "_tail", "_length", "_lock")

    def __init__(self, payload: bytes = b""):
        self._head = bytearray(payload)
        self._tail: list[bytes] = []
        self._length = len(payload)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return self._length

    def append(self, payload: bytes) -> int:
        with self._lock:
            offset = self._length
            self._tail.append(bytes(payload))
            self._length += len(payload)
        return offset

    def consolidated(self) -> bytearray:
        """The whole object as one buffer (joins any pending tail)."""
        with self._lock:
            if self._tail:
                self._head += b"".join(self._tail)
                self._tail.clear()
            return self._head


class InMemoryBackend(StorageBackend):
    """Dict-of-buffers backend: zero disk I/O, per-instance state.

    Used by tests, benchmark baselines ("how fast without the disk?"),
    and cluster simulation, where every node gets its own instance.
    """

    name = "memory"
    ephemeral = True

    def __init__(self):
        self._objects: dict[str, _MemoryObject] = {}

    def write(self, path: str, payload: bytes) -> None:
        self._objects[path] = _MemoryObject(payload)

    def append(self, path: str, payload: bytes) -> int:
        obj = self._objects.setdefault(path, _MemoryObject())
        return obj.append(payload)

    def read(self, path: str, offset: int, length: int) -> bytes:
        return self.read_many(path, [(offset, length)])[0]

    def read_many(self, path: str,
                  spans: Sequence[tuple[int, int]], *,
                  max_workers: int = 0) -> list[bytes]:
        obj = self._objects.get(path)
        if obj is None:
            raise StorageError(f"missing chunk file {path}")
        buffer = obj.consolidated()
        if max_workers > 1 and len(spans) > 1:
            return _fan_out_spans(
                self, list(spans), max_workers,
                lambda shard: self._read_spans(path, buffer, shard))
        return self._read_spans(path, buffer, spans)

    def _read_spans(self, path: str, buffer: bytearray,
                    spans: Sequence[tuple[int, int]]) -> list[bytes]:
        payloads = []
        for offset, length in spans:
            payload = bytes(buffer[offset:offset + length])
            if len(payload) != length:
                raise StorageError(
                    f"chunk file {path} truncated: wanted {length} "
                    f"bytes at {offset}, got {len(payload)}")
            payloads.append(payload)
        return payloads

    def delete(self, prefix: str) -> None:
        prefix = prefix.rstrip("/")
        subtree = prefix + "/"
        stale = [key for key in self._objects
                 if key == prefix or key.startswith(subtree)]
        for key in stale:
            del self._objects[key]

    def total_bytes(self, prefix: str = "") -> int:
        if not prefix:
            return sum(len(obj) for obj in self._objects.values())
        subtree = prefix.rstrip("/") + "/"
        return sum(len(obj) for key, obj in self._objects.items()
                   if key == prefix or key.startswith(subtree))


class StripedBackend(StorageBackend):
    """Spread objects over N child backends by hashing the object path.

    One array's chunk objects scatter across the children (CRC-32 of
    the path, stable across processes), so independent chains live on
    independent substrates and a parallel decode fans its reads over
    all stripes.  A co-located chain is one object and therefore never
    splits across stripes — the batched chain read keeps its single
    open + seek pass on whichever child owns the object.

    ``delete`` and ``total_bytes`` take *prefixes* that may cover
    objects on every stripe, so they fan to all children.
    """

    name = "striped"

    def __init__(self, children: Sequence[StorageBackend]):
        children = list(children)
        if not children:
            raise StorageError("a striped backend needs at least one child")
        self.children = children
        self.ephemeral = all(child.ephemeral for child in children)
        # One high-latency stripe makes the composite request-cost
        # dominated: the routing hash cannot steer hot objects away
        # from the slow child, so callers must batch as if every
        # request could land there.
        self.high_latency = any(child.high_latency for child in children)
        # One order-sensitive stripe serializes the composite's write
        # path: the routing hash decides which child sees a write, so
        # any concurrent fan could reorder that child's operations.
        self.serial_writes = any(child.serial_writes for child in children)

    def bind_stats(self, stats: "IOStats") -> None:
        for child in self.children:
            child.bind_stats(stats)

    def child_for(self, path: str) -> StorageBackend:
        """The stripe owning ``path`` (deterministic across processes)."""
        digest = zlib.crc32(path.encode("utf-8"))
        return self.children[digest % len(self.children)]

    def write(self, path: str, payload: bytes) -> None:
        self.child_for(path).write(path, payload)

    def append(self, path: str, payload: bytes) -> int:
        return self.child_for(path).append(path, payload)

    def read(self, path: str, offset: int, length: int) -> bytes:
        return self.child_for(path).read(path, offset, length)

    def read_many(self, path: str,
                  spans: Sequence[tuple[int, int]], *,
                  max_workers: int = 0) -> list[bytes]:
        return self.child_for(path).read_many(path, spans,
                                              max_workers=max_workers)

    def sync(self, paths: Sequence[str], *, max_workers: int = 0) -> None:
        by_child: dict[int, tuple[StorageBackend, list[str]]] = {}
        for path in paths:
            child = self.child_for(path)
            by_child.setdefault(id(child), (child, []))[1].append(path)
        groups = list(by_child.values())

        def sync_child(group: tuple[StorageBackend, list[str]]) -> None:
            child, child_paths = group
            child.sync(child_paths, max_workers=max_workers)

        if max_workers > 1 and len(groups) > 1:
            # The stripes are independent substrates: their group
            # commits overlap, so the barrier costs the slowest child,
            # not the sum of all of them.
            pool = _sync_pool(self)
            list(pool.map(sync_child, groups))
        else:
            for group in groups:
                sync_child(group)

    def delete(self, prefix: str) -> None:
        for child in self.children:
            child.delete(prefix)

    def total_bytes(self, prefix: str = "") -> int:
        return sum(child.total_bytes(prefix) for child in self.children)

    def close(self) -> None:
        for child in self.children:
            child.close()
        super().close()


#: Default request-size floor for the object store's ranged GETs.  An
#: object-store request costs a fixed round trip regardless of size, so
#: a GET shorter than this floor is extended (clamped to the object's
#: end) and near-by spans are coalesced into one request; the bytes
#: fetched beyond what was asked for are counted in
#: ``IOStats.bytes_over_fetched``.
OBJECT_REQUEST_FLOOR = 64 * 1024


class ObjectStoreBackend(StorageBackend):
    """S3-semantics backend emulated over a local object map.

    The emulation keeps the contract of a real object store without any
    network dependency — committed objects live as immutable blobs in a
    local map (one file per object under ``root``, so a store written
    here has the same on-disk layout as :class:`LocalFileBackend`),
    and the three S3-shaped behaviours the storage stack must survive
    are faithful:

    * **Immutable objects, multipart append.**  ``write`` is a
      whole-object PUT (committed immediately).  An object store has no
      append, so ``append`` *stages a part* of a multipart upload and
      returns the offset the part will occupy; :meth:`sync` is the
      finalize barrier that completes the upload, composing the
      committed object and the staged parts into a new committed
      object.  The write pipeline raises that barrier once per version
      — between placement and the catalog transaction — so a catalog
      row never names bytes still sitting in an incomplete upload.
      :meth:`close` *aborts* pending uploads instead (the S3
      abort-multipart analogue): an upload nobody finalized never
      becomes object bytes.
    * **Ranged GETs.**  ``read``/``read_many`` address committed bytes
      through ``(offset, length)`` range requests.  Spans are sorted,
      each GET is extended to at least ``request_floor`` bytes (clamped
      at the object's end), and overlapping or floor-adjacent spans
      coalesce into one request — per-request cost dominates, so the
      batched read trades bytes for round trips.  Every request is
      counted in ``IOStats.ranged_gets`` and every byte fetched beyond
      the requested spans in ``IOStats.bytes_over_fetched`` (via
      :meth:`bind_stats`).
    * **Read-your-writes.**  A GET only addresses committed bytes; a
      read that needs bytes still staged in a pending upload first
      completes that upload.  Reads entirely inside the committed
      region never finalize, so readers of committed versions proceed
      while a writer is still staging the next version's parts.

    ``durable=True`` (spec ``"object:durable"``) additionally fsyncs
    committed objects at the barrier, stacking the local durability leg
    on top of the finalize — useful when the "object store" is a local
    directory standing in for a remote one.
    """

    name = "object"
    high_latency = True

    def __init__(self, root: str | Path, durable: bool = False,
                 request_floor: int = OBJECT_REQUEST_FLOOR):
        if request_floor < 0:
            raise StorageError(
                f"object store request floor must be >= 0, got "
                f"{request_floor}")
        self.durable = durable
        self.request_floor = request_floor
        self.stats: IOStats | None = None
        # The committed object map: one immutable blob per path.  A
        # local file backend already speaks exactly that layout (and
        # owns the durable-mode fsync machinery), so the emulation
        # composes one rather than reimplementing it.
        self._committed = LocalFileBackend(root, durable=durable)
        self.root = self._committed.root
        # path -> staged parts of that object's pending multipart
        # upload, in arrival order.  Guarded by one lock: the write
        # pipeline stages serially, but reads may finalize and the
        # barrier drains, possibly from other threads.
        self._staged: dict[str, list[bytes]] = {}
        self._stage_lock = threading.Lock()

    def bind_stats(self, stats: "IOStats") -> None:
        self.stats = stats

    # -- introspection -------------------------------------------------
    def pending_parts(self, path: str | None = None) -> int:
        """Staged (not yet finalized) parts for ``path``, or in total.

        The finalize-barrier tests observe this: parts accumulate
        between placements and must drop to zero at the barrier.
        """
        with self._stage_lock:
            if path is not None:
                return len(self._staged.get(path, ()))
            return sum(len(parts) for parts in self._staged.values())

    # -- helpers -------------------------------------------------------
    def _committed_size(self, path: str) -> int:
        target = self._committed._resolve(path)
        try:
            return target.stat().st_size
        except FileNotFoundError:
            return -1  # no committed object (≠ empty object)

    def _finalize_locked(self, path: str) -> None:
        """Complete ``path``'s pending upload (caller holds the lock)."""
        parts = self._staged.pop(path, None)
        if parts:
            self._committed.append(path, b"".join(parts))

    def _matches(self, key: str, prefix: str) -> bool:
        prefix = prefix.rstrip("/")
        return key == prefix or key.startswith(prefix + "/")

    # -- writes --------------------------------------------------------
    def write(self, path: str, payload: bytes) -> None:
        with self._stage_lock:
            # A wholesale PUT supersedes any pending upload of the
            # same object.
            self._staged.pop(path, None)
            self._committed.write(path, payload)

    def append(self, path: str, payload: bytes) -> int:
        with self._stage_lock:
            parts = self._staged.setdefault(path, [])
            offset = max(self._committed_size(path), 0) + \
                sum(len(part) for part in parts)
            parts.append(bytes(payload))
        return offset

    def sync(self, paths: Sequence[str], *, max_workers: int = 0) -> None:
        distinct = list(dict.fromkeys(paths))
        # The emulated finalize is a memory-compose + local append, so
        # it runs serially under the staging lock (offset accounting
        # must never race a concurrent append); a remote backend would
        # fan its complete-multipart round trips at ``max_workers``
        # here instead.
        with self._stage_lock:
            for path in distinct:
                self._finalize_locked(path)
        # Durable mode stacks the local fsync barrier on top of the
        # finalize (fanned at ``max_workers``); otherwise the
        # committed map's sync is a no-op.
        self._committed.sync(distinct, max_workers=max_workers)

    # -- reads ---------------------------------------------------------
    def read(self, path: str, offset: int, length: int) -> bytes:
        return self.read_many(path, [(offset, length)])[0]

    def read_many(self, path: str,
                  spans: Sequence[tuple[int, int]], *,
                  max_workers: int = 0) -> list[bytes]:
        spans = list(spans)
        if not spans:
            return []
        need = max(offset + length for offset, length in spans)
        with self._stage_lock:
            size = self._committed_size(path)
            if need > max(size, 0) and path in self._staged:
                # Read-your-writes: the request reaches into a pending
                # upload, so complete it first — a GET only addresses
                # committed objects.
                self._finalize_locked(path)
                size = self._committed_size(path)
        if size < 0:
            raise StorageError(f"missing chunk file {self.root / path}")
        for offset, length in spans:
            if offset + length > size:
                raise StorageError(
                    f"chunk file {self.root / path} truncated: wanted "
                    f"{length} bytes at {offset}, got "
                    f"{max(0, size - offset)}")
        gets = self._plan_gets(spans, size)
        payloads = self._committed.read_many(path, gets,
                                             max_workers=max_workers)
        buffers = {start: payload
                   for (start, _), payload in zip(gets, payloads)}
        starts = [start for start, _ in gets]
        results = []
        for offset, length in spans:
            # The GET covering this span is the last one starting at or
            # before it (GETs are disjoint and cover every span).
            index = bisect_right(starts, offset) - 1
            start = starts[index]
            results.append(buffers[start][offset - start:
                                          offset - start + length])
        if self.stats is not None:
            fetched = sum(length for _, length in gets)
            wanted = _union_bytes(spans)
            self.stats.add(ranged_gets=len(gets),
                           bytes_over_fetched=fetched - wanted)
        return results

    def _plan_gets(self, spans: Sequence[tuple[int, int]],
                   size: int) -> list[tuple[int, int]]:
        """Coalesce requested spans into ranged-GET requests.

        Each GET runs from its first span's offset to at least
        ``request_floor`` bytes further (clamped at the object's end),
        and a span starting inside that reach merges into the GET
        rather than opening a new request — so near-by chain payloads
        cost one round trip, and no request is ever shorter than the
        floor unless the object itself is.
        """
        gets: list[list[int]] = []  # [start, furthest requested byte]
        for offset, length in sorted(set(spans)):
            if gets:
                start, data_end = gets[-1]
                reach = max(data_end, start + self.request_floor)
                if offset <= reach:
                    gets[-1][1] = max(data_end, offset + length)
                    continue
            gets.append([offset, offset + length])
        return [(start, min(max(data_end, start + self.request_floor),
                            size) - start)
                for start, data_end in gets]

    # -- maintenance ---------------------------------------------------
    def delete(self, prefix: str) -> None:
        with self._stage_lock:
            stale = [key for key in self._staged
                     if self._matches(key, prefix)]
            for key in stale:
                del self._staged[key]
            self._committed.delete(prefix)

    def total_bytes(self, prefix: str = "") -> int:
        # A read-only probe: pending parts are *counted* (they are
        # bytes the caller handed the store, exactly as a local
        # backend's buffered append counts), never finalized — an
        # observation must not commit somebody else's in-flight
        # upload.
        with self._stage_lock:
            staged = sum(
                len(part)
                for key, parts in self._staged.items()
                if not prefix or self._matches(key, prefix)
                for part in parts)
            return self._committed.total_bytes(prefix) + staged

    def close(self) -> None:
        with self._stage_lock:
            # Abort, not finalize: parts nobody synced belong to
            # versions that never committed (the catalog transaction
            # follows the barrier), so persisting them would only
            # manufacture debris for the next repack.
            self._staged.clear()
        self._committed.close()
        super().close()


#: Operation kinds the seeded fault schedule can target.  Reads are
#: deliberately absent: a failed read is what replica *failover*
#: recovers from, and the chaos suite injects those by marking whole
#: nodes dead rather than by schedule — a scheduled read fault on an
#: unreplicated store could never be survived, so it would only ever
#: test the error message.
FAULT_KINDS = ("write", "append", "sync")

#: How far into an instance's life the seeded schedule reaches: fault
#: indices are drawn from ``1..FAULT_HORIZON``.  A finite horizon is
#: what makes chaos workloads terminate — a retried operation
#: eventually runs out of scheduled failures — while staying long
#: enough that faults land mid-version, mid-compensation, and
#: mid-repack across the sweep of seeds.
FAULT_HORIZON = 24


def seeded_fault_schedule(seed: int) -> dict[str, frozenset[int]]:
    """The deterministic fault schedule implied by ``seed``.

    Seed 0 is the fault-free mode (an empty schedule for every kind);
    any other seed derives, per operation kind, a small set of 1-based
    operation indices that will fail.  The derivation uses its own
    :class:`random.Random` instance, so the schedule depends only on
    the seed — never on interleaving, global RNG state, or how many
    backends a test built first.
    """
    if seed < 0:
        raise StorageError(
            f"fault-injection seed must be >= 0, got {seed}")
    if seed == 0:
        return {kind: frozenset() for kind in FAULT_KINDS}
    rng = random.Random(seed)
    return {kind: frozenset(rng.sample(range(1, FAULT_HORIZON + 1),
                                       rng.randint(1, 3)))
            for kind in FAULT_KINDS}


class FaultInjectingBackend(StorageBackend):
    """Deterministic fault injection over any inner backend.

    The wrapper forwards every operation to ``inner`` and keeps a
    per-kind operation counter; when a counter hits an index in the
    seeded schedule the operation fails *the way that kind of fault
    fails in the field*:

    * **write** — raises before a single byte reaches the inner
      backend (the object never changes);
    * **append** — *tears*: a deterministic prefix of the payload
      lands, then the error propagates (the debris stays, exactly like
      a crashed process mid-append; the catalog-after-placement
      transaction is what must make it unobservable);
    * **sync** — raises before the inner barrier runs, so nothing the
      barrier would have made durable (or finalized) gets either;
    * **dead node** — :meth:`mark_dead` makes *every* subsequent
      operation raise until :meth:`revive`, which is how the chaos
      suite and the failover bench take a node offline.

    Injected faults are recorded in ``injected`` (``(kind, index)``
    pairs, in firing order) and counted in ``faults_injected`` so the
    chaos suite can do exact accounting.  With ``seed=0`` the schedule
    is empty and the wrapper must be indistinguishable from ``inner``
    — the conformance grid runs that mode to prove the wrapper itself
    honors the full backend contract.

    The counters are lock-protected (parallel encode fan-outs hammer
    one instance from many threads), and the fault decision depends
    only on ``(seed, kind, index)`` — never on thread interleaving —
    so a schedule replays identically across runs and workers degrees
    for any serial-per-backend write path.
    """

    name = "faulty"
    #: The seeded schedule assigns faults to operation *indices*, so
    #: which placement draws fault #N must not depend on a concurrent
    #: fan's thread interleaving — the commit stage keeps this
    #: backend's write path serial.
    serial_writes = True

    def __init__(self, inner: StorageBackend, seed: int = 0,
                 schedule: "dict[str, frozenset[int]] | None" = None):
        self.inner = inner
        self.seed = seed
        self.ephemeral = inner.ephemeral
        self.high_latency = inner.high_latency
        raw = seeded_fault_schedule(seed) if schedule is None else schedule
        unknown = set(raw) - set(FAULT_KINDS)
        if unknown:
            raise StorageError(
                f"fault schedule names unknown operation kinds "
                f"{sorted(unknown)}; expected a subset of {FAULT_KINDS}")
        self.schedule = {kind: frozenset(raw.get(kind, ()))
                         for kind in FAULT_KINDS}
        self.faults_injected = 0
        self.injected: list[tuple[str, int]] = []
        self._op_counts = dict.fromkeys(FAULT_KINDS, 0)
        self._fault_lock = threading.Lock()
        self._dead = False

    # -- fault controls ------------------------------------------------
    @property
    def dead(self) -> bool:
        return self._dead

    def mark_dead(self) -> None:
        """Take the node offline: every operation raises until
        :meth:`revive`."""
        self._dead = True

    def revive(self) -> None:
        self._dead = False

    def _check_alive(self) -> None:
        if self._dead:
            raise StorageError(
                f"injected fault: node is dead ({self.inner.name} "
                "backend unreachable)")

    def _tick(self, kind: str) -> int | None:
        """Count one operation of ``kind``; return its index when the
        schedule says this one fails, else None."""
        self._check_alive()
        with self._fault_lock:
            self._op_counts[kind] += 1
            index = self._op_counts[kind]
            if index in self.schedule[kind]:
                self.faults_injected += 1
                self.injected.append((kind, index))
                return index
        return None

    # -- forwarding with injection ---------------------------------------
    def bind_stats(self, stats: "IOStats") -> None:
        self.inner.bind_stats(stats)

    def write(self, path: str, payload: bytes) -> None:
        index = self._tick("write")
        if index is not None:
            raise StorageError(
                f"injected fault: write #{index} of {path} failed "
                "before any byte landed")
        self.inner.write(path, payload)

    def append(self, path: str, payload: bytes) -> int:
        index = self._tick("append")
        if index is not None:
            # Torn append: a deterministic prefix lands, then the
            # error.  The tear point depends only on (seed, index, the
            # payload length), so a schedule replays byte-identically.
            torn = 0
            if payload:
                torn = random.Random(
                    f"{self.seed}:torn:{index}").randrange(len(payload))
            if torn:
                self.inner.append(path, payload[:torn])
            raise StorageError(
                f"injected fault: append #{index} of {path} torn after "
                f"{torn}/{len(payload)} bytes")
        return self.inner.append(path, payload)

    def sync(self, paths: Sequence[str], *, max_workers: int = 0) -> None:
        index = self._tick("sync")
        if index is not None:
            raise StorageError(
                f"injected fault: sync #{index} failed before the "
                "barrier was raised")
        self.inner.sync(paths, max_workers=max_workers)

    def read(self, path: str, offset: int, length: int) -> bytes:
        self._check_alive()
        return self.inner.read(path, offset, length)

    def read_many(self, path: str,
                  spans: Sequence[tuple[int, int]], *,
                  max_workers: int = 0) -> list[bytes]:
        self._check_alive()
        return self.inner.read_many(path, spans, max_workers=max_workers)

    def delete(self, prefix: str) -> None:
        self._check_alive()
        self.inner.delete(prefix)

    def total_bytes(self, prefix: str = "") -> int:
        self._check_alive()
        return self.inner.total_bytes(prefix)

    def close(self) -> None:
        # Cleanup must work even on a "dead" node — the process is
        # shutting the handle down, not talking to the substrate.
        self.inner.close()
        super().close()

    def __getattr__(self, name: str):
        # Transparent introspection (e.g. the object store's
        # ``pending_parts``) so a wrapped backend stays observable in
        # tests.  Private attributes stay local: the executor slots of
        # StorageBackend.close must never resolve to the inner's.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.inner, name)


def _union_bytes(spans: Sequence[tuple[int, int]]) -> int:
    """Bytes covered by at least one ``(offset, length)`` span."""
    total = 0
    covered_to = 0
    for offset, length in sorted(spans):
        end = offset + length
        if end > covered_to:
            total += end - max(offset, covered_to)
            covered_to = end
    return total


def parse_striped_spec(spec: str) -> tuple[int, str]:
    """Validate a ``striped:<n>[:<child>]`` spec string.

    Returns ``(stripes, child_name)``; raises :class:`StorageError` on
    malformed specs so callers can validate configuration before any
    side effect (the CLI's validate-before-side-effects rule).
    """
    parts = spec.split(":")
    if parts[0] != "striped" or len(parts) not in (2, 3):
        raise StorageError(
            f"malformed striped backend spec {spec!r}; expected"
            " 'striped:<n>' or 'striped:<n>:<child>'")
    try:
        stripes = int(parts[1])
    except ValueError:
        raise StorageError(
            f"striped backend spec {spec!r} needs an integer stripe"
            " count") from None
    if stripes < 1:
        raise StorageError(
            f"striped backend spec {spec!r} needs at least one stripe")
    child = parts[2] if len(parts) == 3 else "local"
    if child not in BACKEND_NAMES:
        raise StorageError(
            f"striped backend spec {spec!r} names unknown child backend"
            f" {child!r}; expected one of {BACKEND_NAMES}")
    return stripes, child


def parse_object_spec(spec: str) -> bool:
    """Validate an ``object[:durable]`` spec string.

    Returns the durable flag; raises :class:`StorageError` on malformed
    specs so callers can validate configuration before any side effect
    (the same validate-before-side-effects rule as
    :func:`parse_striped_spec`).
    """
    parts = spec.split(":")
    if parts[0] != "object" or len(parts) > 2:
        raise StorageError(
            f"malformed object backend spec {spec!r}; expected"
            " 'object' or 'object:durable'")
    if len(parts) == 1:
        return False
    if parts[1] != "durable":
        raise StorageError(
            f"object backend spec {spec!r} names unknown mode"
            f" {parts[1]!r}; the only mode is 'durable'")
    return True


def parse_faulty_spec(spec: str) -> tuple[int, str]:
    """Validate a ``faulty:<seed>[:<inner>]`` spec string.

    Returns ``(seed, inner_name)``; raises :class:`StorageError` on
    malformed specs so callers can validate configuration before any
    side effect (the same validate-before-side-effects rule as the
    other spec parsers).  Seed 0 is the fault-free conformance mode.
    """
    parts = spec.split(":")
    if parts[0] != "faulty" or len(parts) not in (2, 3):
        raise StorageError(
            f"malformed faulty backend spec {spec!r}; expected"
            " 'faulty:<seed>' or 'faulty:<seed>:<inner>'")
    try:
        seed = int(parts[1])
    except ValueError:
        raise StorageError(
            f"faulty backend spec {spec!r} needs an integer seed") \
            from None
    if seed < 0:
        raise StorageError(
            f"faulty backend spec {spec!r} needs a seed >= 0")
    inner = parts[2] if len(parts) == 3 else "local"
    if inner not in BACKEND_NAMES:
        raise StorageError(
            f"faulty backend spec {spec!r} names unknown inner backend"
            f" {inner!r}; expected one of {BACKEND_NAMES}")
    return seed, inner


def ensure_backend_spec(spec: str) -> str:
    """Validate a string backend spec without building anything.

    Accepts the :data:`BACKEND_NAMES` registry names plus the
    ``striped:<n>[:<child>]``, ``object[:durable]``, and
    ``faulty:<seed>[:<inner>]`` spec forms — exactly what
    :func:`resolve_backend` accepts as strings.  The CLI and the
    test-suite's ``REPRO_BACKEND`` handling both validate through
    here, so a bad flag or a misconfigured CI matrix cell fails loudly
    before any directory or catalog is created.
    """
    if spec in BACKEND_NAMES:
        return spec
    if spec.startswith("striped"):
        parse_striped_spec(spec)
        return spec
    if spec.startswith("object"):
        parse_object_spec(spec)
        return spec
    if spec.startswith("faulty"):
        parse_faulty_spec(spec)
        return spec
    raise StorageError(
        f"unknown storage backend {spec!r}; expected one of "
        f"{BACKEND_NAMES}, 'object[:durable]',"
        " 'striped:<n>[:<child>]', or 'faulty:<seed>[:<inner>]'")


def default_backend_spec() -> str:
    """The spec used when a caller passes ``backend=None``.

    Defers to the ``REPRO_BACKEND`` environment variable — the CI
    matrix runs the whole storage/query/cluster subset over the object
    path this way, mirroring how ``REPRO_WORKERS`` forces the
    parallelism degree — and falls back to the paper's local files.
    Malformed values are rejected loudly: an env cell silently falling
    back to local files would make the object-backend matrix row test
    nothing.
    """
    raw = os.environ.get("REPRO_BACKEND")
    if raw is None or raw == "":
        return "local"
    try:
        return ensure_backend_spec(raw)
    except StorageError as exc:
        raise StorageError(f"REPRO_BACKEND: {exc}") from None


def resolve_backend(spec, root: str | Path) -> StorageBackend:
    """Turn a backend spec into a concrete backend instance.

    ``spec`` may be None (default: the ``REPRO_BACKEND`` environment
    variable, else local files under ``root``), one of
    :data:`BACKEND_NAMES`, an ``object[:durable]`` spec (the S3-style
    emulation rooted at ``root``), a ``striped:<n>[:<child>]`` spec (N
    stripes under ``root/stripe<i>``, or N in-memory stripes), a
    ``faulty:<seed>[:<inner>]`` spec (deterministic fault injection
    over an inner backend rooted at ``root``), a ready
    :class:`StorageBackend`, or a factory callable invoked with
    ``root`` — the factory form is what lets a cluster coordinator
    construct one independent backend per node.
    """
    if spec is None:
        spec = default_backend_spec()
    if spec == "local":
        return LocalFileBackend(root)
    if spec == "durable":
        return LocalFileBackend(root, durable=True)
    if spec == "memory":
        return InMemoryBackend()
    if isinstance(spec, str) and spec.startswith("object"):
        return ObjectStoreBackend(root, durable=parse_object_spec(spec))
    if isinstance(spec, str) and spec.startswith("faulty"):
        seed, inner = parse_faulty_spec(spec)
        return FaultInjectingBackend(resolve_backend(inner, root),
                                     seed=seed)
    if isinstance(spec, str) and spec.startswith("striped"):
        stripes, child = parse_striped_spec(spec)
        if child == "memory":
            return StripedBackend([InMemoryBackend()
                                   for _ in range(stripes)])
        if child == "object":
            return StripedBackend(
                [ObjectStoreBackend(Path(root) / f"stripe{i}")
                 for i in range(stripes)])
        return StripedBackend(
            [LocalFileBackend(Path(root) / f"stripe{i}",
                              durable=child == "durable")
             for i in range(stripes)])
    if isinstance(spec, StorageBackend):
        return spec
    if callable(spec):
        backend = spec(Path(root))
        if not isinstance(backend, StorageBackend):
            raise StorageError(
                f"backend factory {spec!r} returned {type(backend).__name__},"
                " not a StorageBackend")
        return backend
    raise StorageError(
        f"unknown storage backend {spec!r}; expected one of "
        f"{BACKEND_NAMES}, 'object[:durable]', 'striped:<n>[:<child>]',"
        " 'faulty:<seed>[:<inner>]', a StorageBackend, or a factory"
        " callable")
