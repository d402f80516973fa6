"""Explicit encode/decode pipelines between the manager and the store.

Figure 1 draws the insert and select paths as staged flows; the seed
implementation fused both into ``VersionedStorageManager``.  This module
makes the stages first-class:

* :class:`EncodePipeline` — the insert path, staged as **plan**
  (enumerate one encode task per (attribute, chunk) with its target and
  base slices), **encode** (delta-encode against the policy-selected
  base and compress, fanned across a shared thread pool when
  ``workers`` > 1), and **commit** (place every payload in the chunk
  store in deterministic task order, raise the backend's durability
  barrier, then record all encoding decisions in the Version Metadata
  in one transaction);
* :class:`DecodePipeline` — the select path: **locate** the chunk's
  delta chain in the metadata, **read** the chain (batched, one backend
  open per distinct object), **decompress** the materialized root,
  **delta-decode** forward along the chain, and **assemble** result
  arrays;
* :class:`ChunkCache` — one bytes-bounded LRU of decoded chunks shared
  by both pipelines (writes invalidate, reads populate), replacing the
  seed's ad-hoc per-manager LRU.  The paper's cost model "ignores
  caching effects ... since they are often negligible in our context for
  very large arrays", so the cache is off unless given a budget.

The pipelines own *how* versions are encoded and decoded;
``VersionedStorageManager`` shrinks to orchestration — catalog
bookkeeping, version lineage, and layout re-organization.

Two invariants both pipelines are built around:

* **Byte identity across acceleration.**  Every fast path — the fused
  chain decode, the O(nnz) scatter composition, the delta-of-delta
  re-base (:meth:`DecodePipeline.chain_state` feeding
  ``write_version(rebase_states=...)``), and the compiled kernels in
  :mod:`repro.core.native` — must produce exactly the bytes of the
  plain numpy, level-by-level path.  Store fingerprints may never
  depend on ``REPRO_NATIVE``, worker count, whether a chain decoded
  fused or stepwise, or which base-resolution path an insert happened
  to take.
* **Graceful fallback.**  Each fast path gates itself on dtype,
  layout, codec composability, and configuration (e.g. re-base is
  skipped whenever the chunk cache is enabled, because reconstructing
  the parent is what populates the cache) and returns ``None``/raises
  nothing when it does not apply; the caller falls back to the slower
  exact path silently.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.compression.registry import get_codec
from repro.core import numeric
from repro.core.array import ArrayData
from repro.core.errors import NoOverwriteError, StorageError
from repro.delta.auto import (
    EncodingDecision,
    RebaseState,
    default_delta_candidates,
    plan_encoding,
)
from repro.delta.registry import get_delta_codec
from repro.storage.chunking import ChunkGrid, ChunkRef
from repro.storage.chunkstore import ChunkStore
from repro.storage.iostats import IOStats
from repro.storage.metadata import (
    ArrayRecord,
    ChunkRecord,
    MetadataCatalog,
    VersionRecord,
)

#: Insert-time delta policies.
POLICY_AUTO = "auto"          # try the candidate codecs, keep the smallest
POLICY_CHAIN = "chain"        # delta against the parent (fallback: smaller)
POLICY_MATERIALIZE = "materialize"  # never delta on insert
_POLICIES = (POLICY_AUTO, POLICY_CHAIN, POLICY_MATERIALIZE)


def ensure_policy(delta_policy: str) -> str:
    """Validate an insert-time delta policy name (returns it unchanged).

    Callers that create durable state (directories, catalog files)
    should validate up front so a bad configuration fails before any
    side effect.
    """
    if delta_policy not in _POLICIES:
        raise StorageError(
            f"unknown delta policy {delta_policy!r}; "
            f"expected one of {_POLICIES}")
    return delta_policy


def resolve_workers(workers: int | None) -> int:
    """Resolve a ``workers`` knob to a concrete parallelism degree.

    ``None`` defers to the ``REPRO_WORKERS`` environment variable (the
    CI matrix runs the suite under several degrees this way); 0 and 1
    both mean the serial path.  Malformed or negative values are
    rejected loudly — a misconfigured environment silently falling
    back to serial would make a parallel CI cell test nothing — and,
    like :func:`ensure_policy`, callers validate before creating
    durable state.
    """
    if workers is None:
        raw = os.environ.get("REPRO_WORKERS", "0")
        try:
            workers = int(raw)
        except ValueError:
            raise StorageError(
                f"REPRO_WORKERS must be an integer, got {raw!r}"
            ) from None
    if workers < 0:
        raise StorageError(f"workers must be >= 0, got {workers}")
    return workers


class ChunkCache:
    """Bytes-bounded LRU of decoded chunks, keyed by
    ``(array_id, version, attribute, chunk_name)``.

    ``max_entries`` and ``max_bytes`` are independent budgets; zero
    disables the bound, and both zero disables the cache entirely
    (:attr:`enabled`).  Hits and misses are mirrored into the attached
    :class:`IOStats` so cache effectiveness appears next to the I/O it
    avoided.

    Every operation holds an internal lock: the decode pipeline's
    parallel per-chunk fan-out shares one cache across threads, and the
    byte accounting and hit/miss counters must stay exact under
    concurrency.  A single entry larger than ``max_bytes`` is never
    admitted (admitting it would evict the entire cache, itself
    included); rejections are counted and reported by :meth:`info`.
    """

    def __init__(self, max_entries: int = 0, max_bytes: int = 0,
                 stats: IOStats | None = None):
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.stats = stats
        self._entries: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.oversized = 0

    @property
    def enabled(self) -> bool:
        return self.max_entries > 0 or self.max_bytes > 0

    def get(self, key: tuple) -> np.ndarray | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
        if self.stats is not None:
            if entry is None:
                self.stats.add(cache_misses=1)
            else:
                self.stats.add(cache_hits=1)
        return entry

    def peek(self, key: tuple) -> np.ndarray | None:
        """Speculative probe (the chain walk's per-level lookup).

        A hit counts — it terminated a walk and saved real I/O — but a
        miss is not recorded: probing ancestors is not a logical chunk
        request, and counting it would inflate the miss rate by chain
        depth on every cold read.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            self.hits += 1
        if self.stats is not None:
            self.stats.add(cache_hits=1)
        return entry

    def put(self, key: tuple, data: np.ndarray) -> None:
        with self._lock:
            stale = self._entries.pop(key, None)
            if stale is not None:
                self._bytes -= stale.nbytes
            if 0 < self.max_bytes < data.nbytes:
                # Admission control: an oversized entry would evict
                # everything else and then itself.  Keep it out.
                self.oversized += 1
                return
            self._entries[key] = data
            self._bytes += data.nbytes
            while self._entries and self._over_budget():
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes

    def _over_budget(self) -> bool:
        return (0 < self.max_entries < len(self._entries)) or \
            (0 < self.max_bytes < self._bytes)

    def invalidate_array(self, array_id: int) -> None:
        """Drop cached chunks of one array after any re-encoding."""
        with self._lock:
            stale = [key for key in self._entries if key[0] == array_id]
            for key in stale:
                self._bytes -= self._entries.pop(key).nbytes

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def info(self) -> dict:
        """Budgets, occupancy, hit/miss, and admission counters."""
        with self._lock:
            return {
                "capacity": self.max_entries,
                "max_bytes": self.max_bytes,
                "entries": len(self._entries),
                "bytes": self._bytes,
                "hits": self.hits,
                "misses": self.misses,
                "oversized": self.oversized,
            }


class _PooledStage:
    """Shared executor machinery for the encode and decode pipelines.

    Each pipeline owns one lazily-created thread pool, sized at first
    parallel call; a later call asking for more workers than the pool
    holds still runs correctly, just with the original concurrency.
    ``workers`` is the stage's default degree; per-call overrides
    resolve through :meth:`_effective_workers` (None = the default).
    """

    _pool_prefix = "repro-stage"

    def _init_pool(self, workers: int) -> None:
        self.workers = workers
        self._executor: ThreadPoolExecutor | None = None
        self._executor_lock = threading.Lock()

    def close(self) -> None:
        """Shut down the shared executor (idempotent)."""
        with self._executor_lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None

    def _pool(self, workers: int) -> ThreadPoolExecutor:
        with self._executor_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=max(workers, self.workers),
                    thread_name_prefix=self._pool_prefix)
            return self._executor

    def _effective_workers(self, workers: int | None) -> int:
        return self.workers if workers is None else workers


@dataclass(frozen=True)
class EncodeTask:
    """One (attribute, chunk) unit of the encode stage's fan-out.

    Tasks are deliberately light — just coordinates.  The target and
    base slices are materialized *inside* the encode stage (the input
    canvases are shared read-only, which is thread-safe for numpy
    views), so the copies in flight stay bounded by the dispatch
    window rather than the whole version, and the serial path holds
    one chunk's copies at a time exactly as the seed loop did.
    """

    attribute: str
    chunk: ChunkRef


class EncodePipeline(_PooledStage):
    """The insert path: plan → encode → commit (Figure 1, left).

    Chunk encoding (delta against the base slice, then compress) is
    CPU-bound and independent per chunk, so the encode stage fans tasks
    across a shared thread-pool executor when ``workers`` > 1 — the
    write-side mirror of :class:`DecodePipeline`'s per-chunk fan-out.
    The commit stage fans too: within a version every chunk targets a
    distinct object, so placements run concurrently on the store's
    placement executor (unless the backend demands serial writes),
    while catalog rows are still gathered in task order — co-located
    append offsets, every stored byte, and every catalog row are
    identical for any worker count.
    """

    _pool_prefix = "repro-encode"

    def __init__(self, catalog: MetadataCatalog, store: ChunkStore, *,
                 delta_policy: str = POLICY_CHAIN,
                 delta_codec: str = "hybrid",
                 cache: ChunkCache | None = None,
                 workers: int = 0):
        ensure_policy(delta_policy)
        self.catalog = catalog
        self.store = store
        self.delta_policy = delta_policy
        self.delta_codec_name = delta_codec
        self.cache = cache if cache is not None else ChunkCache()
        self._init_pool(workers)

    @property
    def wants_base(self) -> bool:
        """Whether the policy ever deltas (the base version is worth
        reconstructing before encoding)."""
        return self.delta_policy != POLICY_MATERIALIZE

    @property
    def delta_candidates(self) -> tuple | None:
        """The delta codecs an insert picks from: the configured codec
        under the chain policy, else None (the default set)."""
        if self.delta_policy == POLICY_CHAIN:
            return (get_delta_codec(self.delta_codec_name),)
        return None

    @property
    def can_rebase(self) -> bool:
        """Whether inserts may delta against chain state instead of a
        reconstructed base canvas (delta-of-delta re-base).

        Requires candidates that size and encode purely from the shared
        plan (``plan_sufficient``), since a rebased plan carries no base
        canvas.  The stored bytes are byte-identical either way; only
        the parent reconstruction disappears.
        """
        if not self.wants_base:
            return False
        return all(codec.plan_sufficient for codec in
                   self.delta_candidates or default_delta_candidates())

    # ------------------------------------------------------------------
    # Stage 1: plan
    # ------------------------------------------------------------------
    def plan_version(self, record: ArrayRecord,
                     grid: ChunkGrid) -> list[EncodeTask]:
        """Enumerate one encode task per (attribute, chunk).

        Task order is the canonical commit order: attributes in schema
        order, chunks in grid order — the same order the serial loop
        always wrote, so refactoring to stages changed no stored byte.
        """
        return [EncodeTask(attribute=attr.name, chunk=chunk)
                for attr in record.schema.attributes
                for chunk in grid.chunks()]

    # ------------------------------------------------------------------
    # Stage 2: encode
    # ------------------------------------------------------------------
    def encode_chunk(self, target: np.ndarray, base: np.ndarray | None,
                     compressor, *,
                     rebase: RebaseState | None = None
                     ) -> EncodingDecision:
        """Pick and produce one chunk's representation.

        The decision comes from the single-pass
        :func:`~repro.delta.auto.plan_encoding` — one delta, one code
        array, one set of width statistics, one encode — and the
        representations it sized but never produced are recorded in
        the store's counters.  The test suite holds it to the winner
        and payload bytes of an exhaustive two-pass oracle that encodes
        every candidate.

        ``rebase`` supplies the base as chain state instead of a canvas
        (delta-of-delta re-base); callers are gated on
        :attr:`can_rebase`.
        """
        if not self.wants_base:
            base = rebase = None
        planned = plan_encoding(target, base, compressor=compressor,
                                candidates=self.delta_candidates,
                                rebase=rebase)
        self.store.stats.add(encode_plans=1,
                             codec_encodes_avoided=planned.encodes_avoided,
                             planner_bytes_saved=planned.bytes_saved)
        return planned.decision

    def _encode_task(self, task: EncodeTask, data: ArrayData,
                     base_data: ArrayData | None,
                     rebase_states: dict | None,
                     compressor) -> EncodingDecision:
        target = np.ascontiguousarray(
            data.attribute(task.attribute)[task.chunk.slices()])
        base = None
        rebase = None
        if rebase_states is not None:
            rebase = rebase_states[(task.attribute, task.chunk.name)]
        elif base_data is not None:
            base = np.ascontiguousarray(
                base_data.attribute(task.attribute)[task.chunk.slices()])
        decision = self.encode_chunk(target, base, compressor,
                                     rebase=rebase)
        self.store.stats.add(encode_tasks=1)
        return decision

    def _encode_tasks(self, tasks: list[EncodeTask], data: ArrayData,
                      base_data: ArrayData | None,
                      rebase_states: dict | None, compressor,
                      workers: int):
        """Yield each task's :class:`EncodingDecision` in task order.

        The parallel path groups tasks into contiguous blocks (a few
        per worker, so fine-grained grids do not pay one dispatch per
        tiny chunk) and keeps a sliding window of ``workers + 1``
        blocks in flight on the shared executor, yielding results in
        submission order — the commit stage downstream consumes
        decisions exactly as the serial loop produced them, placement
        of early chunks overlaps the encoding of later ones, and the
        encoded-payload memory in flight stays bounded by the window
        rather than the whole version.
        """
        if workers > 1 and len(tasks) > 1:
            pool = self._pool(workers)
            step = -(-len(tasks) // (workers * 4))  # ceil division

            def encode_block(block: list[EncodeTask]):
                return [self._encode_task(task, data, base_data,
                                          rebase_states, compressor)
                        for task in block]

            pending = (tasks[i:i + step]
                       for i in range(0, len(tasks), step))
            window: deque = deque(
                pool.submit(encode_block, block)
                for block in itertools.islice(pending, workers + 1))
            while window:
                future = window.popleft()
                for block in itertools.islice(pending, 1):
                    window.append(pool.submit(encode_block, block))
                yield from future.result()
        else:
            for task in tasks:
                yield self._encode_task(task, data, base_data,
                                        rebase_states, compressor)

    # ------------------------------------------------------------------
    # Stage 3: commit
    # ------------------------------------------------------------------
    def _place_tasks(self, record: ArrayRecord, version: int,
                     tasks: list[EncodeTask], data: ArrayData,
                     base_data: ArrayData | None,
                     rebase_states: dict | None,
                     base_version: int | None, compressor,
                     degree: int):
        """Encode and place every task, yielding :class:`ChunkRecord`
        rows in task order.

        Within one version every chunk targets a distinct object, so
        placements are order-free and — when ``degree`` > 1 and the
        backend does not demand serial writes — fan across the store's
        placement executor while later chunks are still encoding.  A
        bounded FIFO window keeps the encoded payloads in flight
        proportional to the degree, results are gathered in submission
        order, and the caller drains the generator before the
        durability barrier — so catalog rows, co-located append
        offsets, and every stored byte are identical to the serial
        loop's.  The only ordering the fan gives up is *between*
        distinct objects, which nothing observes; per-object order is
        preserved because one version writes each object exactly once
        and versions are committed one at a time.
        """
        decisions = zip(tasks, self._encode_tasks(tasks, data, base_data,
                                                  rebase_states,
                                                  compressor, degree))

        def chunk_record(task: EncodeTask, decision: EncodingDecision,
                         location) -> ChunkRecord:
            return ChunkRecord(
                array_id=record.array_id,
                version=version,
                attribute=task.attribute,
                chunk_name=task.chunk.name,
                delta_codec=decision.delta_codec,
                base_version=base_version if decision.is_delta
                else None,
                compressor=record.compressor,
                location=location,
            )

        if degree > 1 and len(tasks) > 1 and \
                self.store.concurrent_placement_ok:
            pool = self.store.placement_pool(degree)
            window: deque = deque()
            for task, decision in decisions:
                while len(window) >= degree * 2:
                    task_done, decision_done, future = window.popleft()
                    yield chunk_record(task_done, decision_done,
                                       future.result())
                self.store.stats.add(concurrent_placements=1)
                window.append((task, decision, pool.submit(
                    self.store.write_chunk, record.name, version,
                    task.attribute, task.chunk.name, decision.parts)))
            while window:
                task_done, decision_done, future = window.popleft()
                yield chunk_record(task_done, decision_done,
                                   future.result())
        else:
            for task, decision in decisions:
                location = self.store.write_chunk(
                    record.name, version, task.attribute,
                    task.chunk.name, decision.parts)
                yield chunk_record(task, decision, location)

    def write_version(self, record: ArrayRecord, grid: ChunkGrid,
                      version: int, data: ArrayData, *,
                      base_data: ArrayData | None,
                      base_version: int | None,
                      rebase_states: dict | None = None,
                      replace: bool = False,
                      workers: int | None = None,
                      version_row: VersionRecord | None = None,
                      merge_parents: list[tuple[str, int]] | None = None
                      ) -> None:
        """Encode and persist every chunk of one version.

        ``workers`` overrides the pipeline's configured encode
        parallelism for this call; the stored bytes are identical either
        way.  ``rebase_states`` — a ``(attribute, chunk_name)`` →
        :class:`~repro.delta.auto.RebaseState` mapping — supplies the
        base version as per-chunk chain state instead of ``base_data``
        (delta-of-delta re-base; gated on :attr:`can_rebase`); the
        stored bytes are byte-identical to encoding against the
        reconstructed canvas.  The version's catalog rows — and, when ``version_row`` is
        given, the version row itself — are committed in **one**
        transaction (:meth:`MetadataCatalog.put_chunks`) after every
        payload is placed, so a mid-encode or mid-write failure leaves
        zero chunk rows and no version row in the catalog — never a
        partially-described version, and never a version a reader can
        name but not read.  (Orphaned payload bytes in co-located
        objects are reclaimed by the next repack.)  The chunk cache is
        invalidated only *after* the catalog commit succeeds: a version
        whose encode fails must not cold-start a perfectly good cache.
        """
        # Validate before any side effect: a rejected overwrite must
        # not invalidate a perfectly good cache.
        if not replace:
            existing = self.catalog.chunks_for_version(record.array_id,
                                                       version)
            if existing:
                raise NoOverwriteError(
                    f"version {version} of {record.name!r} already exists")
        compressor = get_codec(record.compressor)
        degree = self._effective_workers(workers)
        tasks = self.plan_version(record, grid)
        records = list(self._place_tasks(record, version, tasks, data,
                                         base_data, rebase_states,
                                         base_version,
                                         compressor, degree))
        # Durability barrier, then the transaction: the catalog must
        # never name bytes that would not survive a crash.  On the
        # object backend the same call is the finalize barrier that
        # completes every multipart upload this version staged (the
        # store raises the fan to the barrier's I/O depth when
        # per-request cost dominates).
        self.store.sync_chunks([chunk.location for chunk in records],
                               max_workers=degree)
        self.catalog.put_chunks(records, version=version_row,
                                merge_parents=merge_parents)
        if self.cache.enabled:
            self.cache.invalidate_array(record.array_id)


class DecodePipeline(_PooledStage):
    """The select path: locate → read chain → decompress → delta-decode
    → assemble (Figure 1, right; Figure 2's read pattern).

    Per-chunk reconstruction is independent (each chunk walks its own
    delta chain with its own scope), so :meth:`read_version` and
    :meth:`read_region` fan chunks across a shared thread-pool executor
    when ``workers`` > 1.  Assembly stays deterministic: every chunk
    writes a disjoint region of the output canvas, so the result is
    byte-identical to the serial pass regardless of completion order.

    ``prefetch`` is the chain-aware cache policy: the first miss on a
    chunk decodes its whole delta chain anyway, so every intermediate
    version resolved along the walk is admitted to the cache in the
    same pass (deepest first, requested version most-recently-used)
    instead of re-walking the chain once per version later.

    The chain reads inherit the backend's latency profile through the
    chunk store: on a high-latency (object-store) backend each chain's
    spans coalesce into few ranged GETs and multi-object reads fan
    their per-object requests concurrently, so a cold chain walk costs
    round trips per *object*, not per payload — which is exactly what
    makes the prefetch's decode-whole-chain-once policy pay for itself
    there.

    Delta chains decode fused: both delta modes compose associatively
    (ARITHMETIC by wrapping int64 summation, XOR by xor), so a chain of
    k composable deltas folds into one accumulator — sparse/hybrid
    levels at O(nnz) by scatter — and is applied to the materialized
    root in a *single* pass instead of k full-array applies.  The
    stepwise path remains and is selected whenever intermediates must
    be admitted to the cache (chain-aware prefetch on) or any level's
    codec is non-composable (``bsdiff``, ``mpeg_like`` transform the
    base rather than difference against it).  Either path reads the
    same payloads and produces the same bytes; only wall-clock and
    allocations differ.  :attr:`fuse_chains` is not a setting: tests
    and the scan bench switch it off in process to get the stepwise
    oracle for every chain.
    """

    _pool_prefix = "repro-decode"

    def __init__(self, catalog: MetadataCatalog, store: ChunkStore, *,
                 cache: ChunkCache | None = None,
                 workers: int = 0,
                 prefetch: bool = True):
        self.catalog = catalog
        self.store = store
        self.cache = cache if cache is not None else ChunkCache()
        self.prefetch = prefetch
        self.fuse_chains = True
        self._init_pool(workers)

    def reconstruct(self, record: ArrayRecord, version: int,
                    attribute: str, chunk: ChunkRef,
                    scope: dict[int, np.ndarray] | None = None
                    ) -> np.ndarray:
        """Unwind the delta chain of one chunk (Figure 2's read pattern).

        ``scope`` maps already-resolved versions of this chunk to their
        contents; chains stop as soon as they reach a resolved version,
        so multi-version queries share the work of common prefixes.  The
        whole chain is read in one batched pass — for co-located
        placement that is a single backend open regardless of depth.
        """
        if scope is None:
            scope = {}
        key = (record.array_id, version, attribute, chunk.name)
        if self.cache.enabled:
            cached = self.cache.get(key)
            if cached is not None:
                scope[version] = cached
                return cached

        # Stage 1: locate — walk the chain in the metadata.  With
        # prefetch on, the cache is probed at every level, not just the
        # requested version: a chain prefetched by an earlier read
        # terminates the walk at the deepest cached version, so only
        # the suffix is read.  (Without prefetch, intermediates are
        # never admitted, so mid-walk probes would only inflate the
        # miss counters.)
        chain: list[ChunkRecord] = []
        cursor: int | None = version
        seen: set[int] = set()
        while cursor is not None and cursor not in scope:
            if cursor in seen:
                raise StorageError(
                    f"delta cycle detected for {record.name!r} "
                    f"chunk {chunk.name} at version {cursor}")
            seen.add(cursor)
            if self.cache.enabled and self.prefetch and \
                    cursor != version:
                cached = self.cache.peek(
                    (record.array_id, cursor, attribute, chunk.name))
                if cached is not None:
                    scope[cursor] = cached
                    break
            chunk_record = self.catalog.get_chunk(
                record.array_id, cursor, attribute, chunk.name)
            chain.append(chunk_record)
            cursor = chunk_record.base_version

        # Stage 2: read — the whole chain, one open per distinct object.
        payloads = self.store.read_chunks(
            [chunk_record.location for chunk_record in chain])

        # Stage 3: decompress the materialized root (or start from the
        # already-resolved version the chain stopped at).  A fused
        # read only ever *reads* the root (the apply writes into the
        # accumulator), so with the cache off the decompress may hand
        # back a zero-copy read-only view of the payload bytes; every
        # other consumer gets the owning copy it always got.
        resolved: list[int] = []
        if cursor is not None:
            data = scope[cursor]
        else:
            root = chain.pop()
            codec = get_codec(root.compressor)
            if self._fusible(chain) and not self.cache.enabled:
                data = codec.decode_view(payloads.pop())
            else:
                data = codec.decode(payloads.pop())
            scope[root.version] = data
            resolved.append(root.version)

        # Stage 4: delta-decode — fused when the whole chain composes
        # (one accumulator, one apply), stepwise otherwise.  With
        # prefetch off, the stepwise path admits only the requested
        # version too, so the fused path changes no cache behavior.
        if self._fusible(chain):
            data = self._fused_apply(chain, payloads, data)
            scope[version] = data
        else:
            for chunk_record, payload in zip(reversed(chain),
                                             reversed(payloads)):
                codec = get_delta_codec(chunk_record.delta_codec)
                data = codec.decode_forward(payload, data)
                scope[chunk_record.version] = data
                resolved.append(chunk_record.version)

        if self.cache.enabled:
            if self.prefetch:
                # Chain-aware prefetch: the whole chain was decoded in
                # this one pass — admit every intermediate version now
                # (deepest first) instead of re-walking the chain when
                # it is queried later.
                for intermediate in resolved:
                    if intermediate != version:
                        self.cache.put(
                            (record.array_id, intermediate, attribute,
                             chunk.name), scope[intermediate])
            self.cache.put(key, data)
        return data

    def _fusible(self, chain: list[ChunkRecord]) -> bool:
        """Whether a located delta chain takes the fused path.

        Depth-1 chains are already a single apply.  With the cache on
        *and* chain-aware prefetch, the stepwise path is required:
        prefetch's contract is that every intermediate version decoded
        along the walk is admitted, and the fused path materializes
        none of them.
        """
        if not self.fuse_chains or len(chain) < 2:
            return False
        if self.cache.enabled and self.prefetch:
            return False
        return all(record.delta_codec is not None
                   and get_delta_codec(record.delta_codec).composable
                   for record in chain)

    def _fused_apply(self, chain: list[ChunkRecord],
                     payloads: list[bytes],
                     base: np.ndarray) -> np.ndarray:
        """Fold every level's delta into one accumulator and apply it
        to the materialized root in a single pass.

        Compose order is irrelevant — both modes are associative *and*
        commutative (wrapping int64 addition, xor) — so levels fold in
        read order.  Sparse/hybrid levels scatter-accumulate at O(nnz)
        without ever materializing a full-size codes canvas; their
        (position, delta) pairs are collected across the whole chain —
        the levels read together as one ``read_many`` span batch — and
        folded in a single batched scatter, then the accumulator is
        ceded to the apply so the final pass runs in place.
        """
        codecs = [get_delta_codec(chunk_record.delta_codec)
                  for chunk_record in chain]
        # Scatter-only chains skip the full-array apply entirely: the
        # accumulator starts as the widened root, so the batched
        # O(nnz) scatter lands directly on the reconstructed cells.
        seeded = all(codec.scatters for codec in codecs)
        accumulator = numeric.seeded_accumulator(
            base, numeric.delta_mode_for(base.dtype)) if seeded \
            else None
        scatter_levels = 0
        mode = dtype = shape = None
        batch: list = []
        for codec, payload in zip(codecs, payloads):
            accumulator, mode, dtype, shape = codec.accumulate(
                payload, accumulator, batch=batch)
            if codec.scatters:
                scatter_levels += 1
        if batch:
            numeric.scatter_delta_batch(accumulator, batch, mode)
        self.store.stats.add(chains_fused=1, fused_levels=len(chain),
                             scatter_levels=scatter_levels)
        if seeded:
            return numeric.finalize_seeded(accumulator, mode, dtype,
                                           shape)
        return numeric.apply_delta_forward(
            base, accumulator.reshape(shape), mode, dtype,
            reuse_delta=True)

    def chain_state(self, record: ArrayRecord, version: int,
                    attribute: str, chunk: ChunkRef
                    ) -> RebaseState | None:
        """Locate, read, and *compose* one chunk's delta chain without
        the final apply — the encode-side counterpart of the fused
        read, feeding delta-of-delta re-base.

        Returns the chunk's state as a
        :class:`~repro.delta.auto.RebaseState` — the decoded root plus
        the chain's composed accumulator (None for a materialized
        version with no deltas above the root) — or None when the
        state cannot stand in for the canvas: a non-composable level
        in the chain, or a cache-enabled pipeline (bypassing
        :meth:`reconstruct` would skip the admissions the cache
        contract promises).  The root may be a zero-copy read-only
        view of the payload bytes; callers must not write through it.
        """
        if self.cache.enabled:
            return None
        chain: list[ChunkRecord] = []
        cursor: int | None = version
        seen: set[int] = set()
        while cursor is not None:
            if cursor in seen:
                raise StorageError(
                    f"delta cycle detected for {record.name!r} "
                    f"chunk {chunk.name} at version {cursor}")
            seen.add(cursor)
            chunk_record = self.catalog.get_chunk(
                record.array_id, cursor, attribute, chunk.name)
            chain.append(chunk_record)
            cursor = chunk_record.base_version
        root_record = chain[-1]
        if any(chunk_record.delta_codec is None
               or not get_delta_codec(chunk_record.delta_codec).composable
               for chunk_record in chain[:-1]):
            return None
        payloads = self.store.read_chunks(
            [chunk_record.location for chunk_record in chain])
        chain.pop()
        root = get_codec(root_record.compressor) \
            .decode_view(payloads.pop())
        if not chain:
            return RebaseState(root=root, accumulator=None,
                               mode=numeric.delta_mode_for(root.dtype))
        accumulator = None
        mode = None
        batch: list = []
        for chunk_record, payload in zip(chain, payloads):
            codec = get_delta_codec(chunk_record.delta_codec)
            accumulator, mode, _, _ = codec.accumulate(
                payload, accumulator, batch=batch)
        if batch:
            numeric.scatter_delta_batch(accumulator, batch, mode)
        return RebaseState(root=root, accumulator=accumulator, mode=mode)

    # ------------------------------------------------------------------
    # Stage 5: assembly
    # ------------------------------------------------------------------
    def read_version(self, record: ArrayRecord, grid: ChunkGrid,
                     version: int, *,
                     workers: int | None = None) -> ArrayData:
        """Assemble the full contents of one version.

        ``workers`` overrides the pipeline's configured parallelism for
        this call; > 1 fans per-chunk reconstruction across the shared
        executor.  The output is byte-identical either way.
        """
        tasks = [(attr, chunk) for attr in record.schema.attributes
                 for chunk in grid.chunks()]
        attributes: dict[str, np.ndarray] = {}
        for (attr, chunk), data in self._reconstruct_tasks(
                record, version, tasks,
                self._effective_workers(workers)):
            if data.shape == record.schema.shape:
                # A single chunk spanning the whole canvas *is* the
                # canvas: skip the copy.  ArrayData marks every buffer
                # read-only regardless, so the contents are exactly as
                # immutable as the copied canvas was.
                attributes[attr.name] = data
                continue
            canvas = attributes.get(attr.name)
            if canvas is None:
                canvas = attributes[attr.name] = np.empty(
                    record.schema.shape, dtype=attr.dtype)
            canvas[chunk.slices()] = data
        return ArrayData(record.schema, attributes)

    def read_region(self, record: ArrayRecord, grid: ChunkGrid,
                    version: int, lo: tuple[int, ...],
                    hi: tuple[int, ...], *,
                    workers: int | None = None) -> ArrayData:
        """Assemble a zero-based hyper-rectangle of one version.

        When exactly one chunk covers the query, the reconstructed
        chunk already holds the answer: its sliced view is returned
        directly instead of copying through a region-shaped canvas
        (:class:`ArrayData` marks the views read-only, so cached chunk
        contents can never be mutated through the result; a slice
        spanning the whole chunk stays zero-copy).
        """
        from repro.core.array import _sliced_schema

        schema = record.schema
        chunks = list(grid.chunks_overlapping(lo, hi))
        if len(chunks) == 1:
            src, _ = overlap_slices(chunks[0], lo, hi)
            tasks = [(attr, chunks[0]) for attr in schema.attributes]
            attributes = {
                attr.name: data[src]
                for (attr, _), data in self._reconstruct_tasks(
                    record, version, tasks,
                    self._effective_workers(workers))
            }
            return ArrayData(_sliced_schema(schema, lo, hi), attributes)

        region_shape = tuple(h - l + 1 for l, h in zip(lo, hi))
        tasks = [(attr, chunk) for attr in schema.attributes
                 for chunk in chunks]
        attributes = {
            attr.name: np.empty(region_shape, dtype=attr.dtype)
            for attr in schema.attributes
        }
        for (attr, chunk), data in self._reconstruct_tasks(
                record, version, tasks,
                self._effective_workers(workers)):
            src, dst = overlap_slices(chunk, lo, hi)
            attributes[attr.name][dst] = data[src]
        return ArrayData(_sliced_schema(schema, lo, hi), attributes)

    def _reconstruct_tasks(self, record: ArrayRecord, version: int,
                           tasks: list, workers: int):
        """Reconstruct every (attribute, chunk) task, yielding
        ``(task, chunk_data)`` pairs in task order.

        The parallel path submits all tasks to the shared executor and
        collects results in submission order, so callers assemble
        canvases identically to the serial path; each chunk's scope is
        private, making the tasks fully independent.
        """
        if workers > 1 and len(tasks) > 1:
            pool = self._pool(workers)
            futures = [
                pool.submit(self.reconstruct, record, version,
                            attr.name, chunk)
                for attr, chunk in tasks
            ]
            for task, future in zip(tasks, futures):
                yield task, future.result()
        else:
            for attr, chunk in tasks:
                yield (attr, chunk), self.reconstruct(
                    record, version, attr.name, chunk)


def overlap_slices(chunk: ChunkRef, lo: tuple[int, ...],
                   hi: tuple[int, ...]) -> tuple[tuple, tuple]:
    """Slices mapping a chunk's cells into a query region canvas.

    Returns ``(src, dst)`` where ``src`` indexes within the chunk array
    and ``dst`` within the region-shaped output canvas.
    """
    src = []
    dst = []
    for c_lo, c_hi, r_lo, r_hi in zip(chunk.lo, chunk.hi, lo, hi):
        start = max(c_lo, r_lo)
        stop = min(c_hi, r_hi)
        src.append(np.s_[start - c_lo:stop - c_lo + 1])
        dst.append(np.s_[start - r_lo:stop - r_lo + 1])
    return tuple(src), tuple(dst)
