"""Chunk placement over a pluggable byte backend.

Section III-B.3: "we implemented two different ways of storing the deltas
on disk: the first method stores all the deltas belonging to a given
version together in one file, while the second method co-locates chains
of deltas belonging to different versions but all corresponding to the
same chunk.  Unless stated otherwise, we consider co-located chains of
deltas in the following, since they are more efficient."

* ``per-version`` placement writes
  ``<array>/v<version>/<attribute>/<chunk-name>`` — one object per
  (version, chunk) pair;
* ``colocated`` placement appends every version's payload for one chunk
  to ``<array>/chunks/<attribute>/<chunk-name>`` and addresses payloads
  by (offset, length), so a chain of deltas for one chunk is one
  sequential read.

The store owns *placement* (which path a payload lands at) and
*accounting* (every byte and handle flows into :class:`IOStats`); the
bytes themselves live in a :class:`~repro.storage.backend.StorageBackend`
— local files by default, memory or future substrates by injection.
Delta/compression framing is the codecs' business, and which
(offset, length) belongs to which version is recorded in the metadata
catalog.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from repro.core.errors import StorageError
from repro.storage.backend import SYNC_FAN, StorageBackend, resolve_backend
from repro.storage.iostats import IOStats

PER_VERSION = "per-version"
COLOCATED = "colocated"
_PLACEMENTS = (PER_VERSION, COLOCATED)


@dataclass(frozen=True)
class ChunkLocation:
    """Where one encoded chunk payload lives in the backend."""

    path: str
    offset: int
    length: int


class ChunkStore:
    """Chunk addressing with per-version or co-located placement."""

    def __init__(self, root: str | os.PathLike,
                 placement: str = COLOCATED,
                 stats: IOStats | None = None,
                 backend: "StorageBackend | str | None" = None,
                 max_workers: int = 0):
        if placement not in _PLACEMENTS:
            raise StorageError(
                f"unknown placement {placement!r}; expected {_PLACEMENTS}")
        self.placement = placement
        self.stats = stats if stats is not None else IOStats()
        self.backend = resolve_backend(backend, Path(root))
        # Request-level counters (ranged GETs, over-fetched bytes) land
        # in the same stats instance as the chunk-level accounting.
        self.backend.bind_stats(self.stats)
        #: Span-level read parallelism handed to the backend's
        #: ``read_many`` fan-out path (0/1 = serial).
        self.max_workers = max_workers
        # Per-object request fan-out for high-latency backends (see
        # read_chunks); lazily created, distinct from the backend's
        # span pools so an outer per-path task never waits on an inner
        # span task queued to the same saturated pool.
        self._path_executor: ThreadPoolExecutor | None = None
        # Write-side placement fan-out (see placement_pool); its own
        # executor so commit-stage placements never queue behind read
        # traffic.
        self._placement_executor: ThreadPoolExecutor | None = None
        self._path_lock = threading.Lock()

    @property
    def concurrent_placement_ok(self) -> bool:
        """Whether the commit stage may fan placements concurrently.

        Within one version every chunk targets a distinct object, so
        placement order is only observable on backends that declare
        ``serial_writes`` (the fault injector's seeded op counting).
        """
        return not self.backend.serial_writes

    def _chunk_path(self, array: str, version: int, attribute: str,
                    chunk_name: str) -> str:
        if self.placement == PER_VERSION:
            return f"{array}/v{version}/{attribute}/{chunk_name}"
        return f"{array}/chunks/{attribute}/{chunk_name}"

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def write_chunk(self, array: str, version: int, attribute: str,
                    chunk_name: str, payload) -> ChunkLocation:
        """Persist one encoded chunk payload; returns its location.

        ``payload`` is either one byte string or a sequence of buffer
        parts — the encode pipeline hands the parts straight through,
        so the payload is composed exactly once, here at placement.
        """
        if not isinstance(payload, (bytes, bytearray, memoryview)):
            payload = b"".join(payload)
        path = self._chunk_path(array, version, attribute, chunk_name)
        if self.placement == PER_VERSION:
            self.backend.write(path, payload)
            location = ChunkLocation(path, 0, len(payload))
        else:
            offset = self.backend.append(path, payload)
            location = ChunkLocation(path, offset, len(payload))
        self.stats.add(chunks_written=1, bytes_written=len(payload),
                       file_opens=1)
        return location

    def sync_chunks(self, locations: list[ChunkLocation],
                    max_workers: int | None = None) -> None:
        """Durability barrier over the listed payloads' objects.

        The write pipeline raises this barrier once per version — after
        every placement, before the catalog transaction — so a catalog
        row can never name bytes that would not survive a crash.  A
        no-op on a plain local backend; durable backends fsync here,
        and the object store finalizes every pending multipart upload.
        ``max_workers`` > 1 fans the flushes across the backend's I/O
        pool (defaults to the store's configured degree).  On a
        high-latency backend the degree is raised to the barrier's
        I/O depth even when the CPU-oriented workers degree is serial,
        so whatever per-object waiting the barrier involves — the
        durable mode's fsync leg today, real finalize round trips on a
        remote store — overlaps rather than serializes.  (The local
        emulation's finalize composition itself is lock-serialized;
        see :meth:`ObjectStoreBackend.sync`.)
        """
        paths = list(dict.fromkeys(location.path
                                   for location in locations))
        degree = self.max_workers if max_workers is None else max_workers
        if self.backend.high_latency:
            degree = max(degree, SYNC_FAN)
        self.backend.sync(paths, max_workers=degree)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def read_chunk(self, location: ChunkLocation) -> bytes:
        """Read one payload back by location."""
        payload = self.backend.read(location.path, location.offset,
                                    location.length)
        self.stats.add(chunks_read=1, bytes_read=len(payload),
                       file_opens=1)
        return payload

    def read_chunks(self, locations: list[ChunkLocation]) -> list[bytes]:
        """Read several payloads, one backend open per distinct path.

        This is the chain-read fast path: a co-located delta chain's
        payloads share one object, so the whole chain costs a single
        open + seek pass (``file_opens`` in :class:`IOStats` counts the
        difference).  ``max_workers`` > 1 additionally shards each
        object's spans across the backend's thread-pool fan-out; the
        accounting is unchanged — one logical open per distinct object.
        Payloads are returned in ``locations`` order.

        The batching adapts to the backend's latency profile: on a
        high-latency (object-store) backend, per-request cost dominates
        per-byte cost, so when the read covers several distinct objects
        the per-object requests are issued **concurrently** (each one
        already coalesces its spans into few ranged GETs) instead of
        sharding spans within one object — the decode path's chain and
        prefetch reads pay the round trip once per object, overlapped,
        rather than once per span, serialized.
        """
        by_path: dict[str, list[int]] = {}
        for index, location in enumerate(locations):
            by_path.setdefault(location.path, []).append(index)

        payloads: list[bytes | None] = [None] * len(locations)

        def read_path(path: str, indexes: list[int],
                      span_workers: int) -> None:
            spans = [(locations[i].offset, locations[i].length)
                     for i in indexes]
            self.stats.add(file_opens=1)
            batch = self.backend.read_many(path, spans,
                                           max_workers=span_workers)
            for i, payload in zip(indexes, batch):
                payloads[i] = payload
            self.stats.add(chunks_read=len(batch),
                           bytes_read=sum(map(len, batch)))

        if self.backend.high_latency and self.max_workers > 1 and \
                len(by_path) > 1:
            # Request-cost-dominated substrate: fan whole objects, not
            # spans (span workers stay serial inside each task so the
            # two fan levels never share — and never deadlock — a pool).
            pool = self._path_pool()
            list(pool.map(lambda item: read_path(item[0], item[1], 0),
                          by_path.items()))
        else:
            for path, indexes in by_path.items():
                read_path(path, indexes, self.max_workers)
        return payloads  # type: ignore[return-value]

    def _path_pool(self) -> ThreadPoolExecutor:
        """One lazily-created per-object request executor per store."""
        with self._path_lock:
            if self._path_executor is None:
                self._path_executor = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="repro-store-path")
            return self._path_executor

    def placement_pool(self, degree: int) -> ThreadPoolExecutor:
        """The commit stage's write-side placement executor.

        Lazily created and sized at first use (at least 2 — a degree
        of 1 never reaches here); shut down with the store.  Separate
        from the read-side pools so a placement fan never waits behind
        a saturated chain read, and vice versa.
        """
        with self._path_lock:
            if self._placement_executor is None:
                self._placement_executor = ThreadPoolExecutor(
                    max_workers=max(degree, 2),
                    thread_name_prefix="repro-store-place")
            return self._placement_executor

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def delete_array(self, array: str) -> None:
        """Remove every object belonging to one array."""
        self.backend.delete(array)

    def delete_version_files(self, array: str, version: int) -> None:
        """Remove a version's objects (meaningful for per-version placement).

        Co-located objects interleave many versions, so their space is
        reclaimed by :meth:`repack` instead.
        """
        if self.placement == PER_VERSION:
            self.backend.delete(f"{array}/v{version}")

    @staticmethod
    def repack_target(path: str) -> str:
        """The object path a repack of ``path`` rewrites into.

        Repack must never overwrite an object the catalog still
        references (a mid-repack fault would destroy co-located
        payloads of *other* versions), so each pass writes a sibling
        object with a bumped ``@r<n>`` suffix — ``c0-0`` → ``c0-0@r1``
        → ``c0-0@r2`` — and the old object is reclaimed only after the
        catalog has swapped to the new one.  The suffix sits after the
        final path component, so a prefix delete of the old object can
        never touch its successor (backend deletes match only at ``/``
        boundaries).
        """
        base, gen = ChunkStore._split_generation(path)
        return f"{base}@r{gen + 1}"

    @staticmethod
    def _split_generation(path: str) -> tuple[str, int]:
        """Split an object path into its base name and repack
        generation (``c.dat@r2`` → ``("c.dat", 2)``; an unsuffixed
        path is generation 0)."""
        head, _, name = path.rpartition("/")
        base, marker, gen = name.rpartition("@r")
        if marker and gen.isdigit():
            name, generation = base, int(gen)
        else:
            generation = 0
        return (f"{head}/{name}" if head else name), generation

    @staticmethod
    def _repack_targets(by_path) -> dict[str, str]:
        """Collision-free rewrite targets for one repack batch.

        Live payloads can span several generations of the same object
        name (a post-repack write recreates the base path), so the
        naive per-path bump would aim one group's target at another
        group's *source* — truncating live bytes mid-repack, the exact
        corruption the swap scheme exists to prevent.  Every target is
        therefore assigned above the highest generation present in the
        batch, in deterministic (sorted-path) order, so targets collide
        with neither sources nor each other.
        """
        ceiling: dict[str, int] = {}
        for path in by_path:
            base, generation = ChunkStore._split_generation(path)
            ceiling[base] = max(ceiling.get(base, 0), generation)
        targets: dict[str, str] = {}
        for path in sorted(by_path):
            base, _ = ChunkStore._split_generation(path)
            ceiling[base] += 1
            targets[path] = f"{base}@r{ceiling[base]}"
        return targets

    def repack(self, array: str,
               keep: list[tuple[ChunkLocation, object]]
               ) -> dict[object, ChunkLocation]:
        """Rewrite co-located objects keeping only the listed payloads.

        ``keep`` pairs each surviving location with an opaque key; the
        returned mapping gives each key's new location.  Used after
        version deletion and by layout re-organization.

        Swap, don't overwrite: every rewritten blob lands at a *new*
        object path (:meth:`repack_target`) and is made durable before
        this method returns, so the caller can swap the catalog to the
        new locations in one transaction and only then reclaim the old
        objects (:meth:`reclaim`).  A fault at any point before that
        commit leaves the old objects and the catalog untouched — at
        worst an orphaned half-written sibling that the next successful
        pass supersedes.
        """
        by_path: dict[str, list[tuple[ChunkLocation, object]]] = {}
        for location, key in keep:
            by_path.setdefault(location.path, []).append((location, key))
        targets = self._repack_targets(by_path)

        new_locations: dict[object, ChunkLocation] = {}
        new_paths: list[str] = []
        for path, entries in by_path.items():
            survivors = self.read_chunks([location for location, _ in
                                          entries])
            target = targets[path]
            blob = bytearray()
            for (_, key), payload in zip(entries, survivors):
                offset = len(blob)
                blob += payload
                new_locations[key] = ChunkLocation(target, offset,
                                                   len(payload))
            self.stats.add(chunks_written=len(survivors),
                           bytes_written=len(blob))
            self.backend.write(target, bytes(blob))
            self.stats.add(file_opens=1)
            new_paths.append(target)
        self.backend.sync(new_paths, max_workers=self.max_workers)
        return new_locations

    def reclaim(self, paths: list[str] | set[str]) -> None:
        """Delete superseded objects after a repack's catalog swap.

        Strictly post-commit space reclamation: by the time this runs
        the catalog no longer references ``paths``, so a fault here
        leaks bytes (reclaimed by a later pass) but can never corrupt.
        """
        for path in sorted(set(paths)):
            self.backend.delete(path)

    def total_bytes(self, array: str | None = None) -> int:
        """Bytes stored under one array (or the whole store)."""
        return self.backend.total_bytes(array or "")

    def close(self) -> None:
        """Shut down the store's executors and the backend (idempotent;
        a later read or placement simply recreates its pool)."""
        with self._path_lock:
            pools = [self._path_executor, self._placement_executor]
            self._path_executor = None
            self._placement_executor = None
        for pool in pools:
            if pool is not None:
                pool.shutdown(wait=True)
        self.backend.close()
