"""Tests for the chunk store and both delta placements (Section III-B.3)."""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.errors import StorageError
from repro.storage.chunkstore import (
    COLOCATED,
    PER_VERSION,
    ChunkLocation,
    ChunkStore,
)
from repro.storage.iostats import IOStats


@pytest.fixture(params=[PER_VERSION, COLOCATED])
def store(request, tmp_path) -> ChunkStore:
    return ChunkStore(tmp_path, placement=request.param)


class TestWriteRead:
    def test_roundtrip(self, store):
        location = store.write_chunk("A", 1, "value", "chunk-0-0-9-9.dat",
                                     b"payload-bytes")
        assert store.read_chunk(location) == b"payload-bytes"

    def test_multiple_versions_same_chunk(self, store):
        loc1 = store.write_chunk("A", 1, "value", "chunk-0-0-9-9.dat", b"v1")
        loc2 = store.write_chunk("A", 2, "value", "chunk-0-0-9-9.dat",
                                 b"version-two")
        assert store.read_chunk(loc1) == b"v1"
        assert store.read_chunk(loc2) == b"version-two"

    def test_missing_file_raises(self, store):
        with pytest.raises(StorageError):
            store.read_chunk(ChunkLocation("A/nowhere.dat", 0, 4))

    def test_truncated_read_raises(self, store):
        location = store.write_chunk("A", 1, "value", "c.dat", b"abc")
        bad = ChunkLocation(location.path, location.offset, 100)
        with pytest.raises(StorageError):
            store.read_chunk(bad)

    def test_unknown_placement_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            ChunkStore(tmp_path, placement="scattered")


class TestPlacementLayouts:
    # These assert the *local filesystem* layout (one file per object,
    # appends growing one file), so they pin backend="local" instead of
    # inheriting the REPRO_BACKEND matrix default — the object backend
    # stages appends in a pending upload and only materializes the file
    # at the finalize barrier.
    def test_per_version_one_file_per_version(self, tmp_path):
        store = ChunkStore(tmp_path, placement=PER_VERSION,
                           backend="local")
        store.write_chunk("A", 1, "value", "c.dat", b"v1")
        store.write_chunk("A", 2, "value", "c.dat", b"v2")
        files = sorted(p.relative_to(tmp_path).as_posix()
                       for p in tmp_path.rglob("*.dat"))
        assert files == ["A/v1/value/c.dat", "A/v2/value/c.dat"]

    def test_colocated_appends_to_one_file(self, tmp_path):
        store = ChunkStore(tmp_path, placement=COLOCATED,
                           backend="local")
        loc1 = store.write_chunk("A", 1, "value", "c.dat", b"v1..")
        loc2 = store.write_chunk("A", 2, "value", "c.dat", b"v2..")
        files = list(tmp_path.rglob("*.dat"))
        assert len(files) == 1
        assert loc1.path == loc2.path
        assert loc2.offset == loc1.offset + 4


class TestMaintenance:
    @pytest.mark.parametrize("placement", [PER_VERSION, COLOCATED])
    def test_delete_array_removes_files(self, tmp_path, placement):
        # Disk-level assertion, so pinned to the local backend (the
        # backend-agnostic delete contract lives in test_backends).
        store = ChunkStore(tmp_path, placement=placement,
                           backend="local")
        store.write_chunk("A", 1, "value", "c.dat", b"data")
        store.write_chunk("B", 1, "value", "c.dat", b"keep")
        store.delete_array("A")
        remaining = [p for p in tmp_path.rglob("*.dat")]
        assert len(remaining) == 1
        assert "B" in str(remaining[0])

    def test_total_bytes(self, store):
        store.write_chunk("A", 1, "value", "c.dat", b"12345")
        assert store.total_bytes("A") == 5
        assert store.total_bytes("missing") == 0

    def test_repack_drops_dead_payloads(self, tmp_path):
        store = ChunkStore(tmp_path, placement=COLOCATED)
        loc1 = store.write_chunk("A", 1, "value", "c.dat", b"live-one")
        store.write_chunk("A", 2, "value", "c.dat", b"dead")
        loc3 = store.write_chunk("A", 3, "value", "c.dat", b"live-two")
        new = store.repack("A", [(loc1, "k1"), (loc3, "k3")])
        assert store.read_chunk(new["k1"]) == b"live-one"
        assert store.read_chunk(new["k3"]) == b"live-two"
        # Swap, don't overwrite: the old object (and the payloads it
        # co-locates, dead ones included) is untouched until the caller
        # commits the new locations and reclaims it.
        assert store.read_chunk(loc1) == b"live-one"
        assert store.read_chunk(loc3) == b"live-two"
        store.reclaim({loc1.path, loc3.path})
        assert store.total_bytes("A") == len(b"live-one") + len(b"live-two")

    def test_repack_writes_to_new_object_paths(self, tmp_path):
        store = ChunkStore(tmp_path, placement=COLOCATED)
        loc = store.write_chunk("A", 1, "value", "c.dat", b"payload!")
        first = store.repack("A", [(loc, "k")])
        assert first["k"].path != loc.path
        assert first["k"].path == ChunkStore.repack_target(loc.path)
        store.reclaim({loc.path})
        # A second pass bumps the suffix again — never an in-place
        # rewrite, even of a previous pass's object.
        second = store.repack("A", [(first["k"], "k")])
        assert second["k"].path not in (loc.path, first["k"].path)
        store.reclaim({first["k"].path})
        assert store.read_chunk(second["k"]) == b"payload!"
        assert store.total_bytes("A") == len(b"payload!")

    def test_repack_mixed_generations_never_collide(self, tmp_path):
        # After a repack + reclaim, new writes recreate the *base*
        # object path, so a later repack sees live payloads in two
        # generations of the same name.  The naive per-path bump would
        # rewrite the base group onto the still-live @r1 object
        # (truncating it mid-repack); targets must clear every
        # generation present in the batch.
        store = ChunkStore(tmp_path, placement=COLOCATED)
        loc1 = store.write_chunk("A", 1, "value", "c.dat", b"first-gen")
        moved = store.repack("A", [(loc1, "k1")])
        store.reclaim({loc1.path})
        loc2 = store.write_chunk("A", 2, "value", "c.dat", b"second-gen")
        assert loc2.path == loc1.path  # the base path is back in use
        new = store.repack("A", [(moved["k1"], "k1"), (loc2, "k2")])
        assert len({new["k1"].path, new["k2"].path,
                    moved["k1"].path, loc2.path}) == 4
        # Pre-swap locations still serve (nothing was overwritten) ...
        assert store.read_chunk(moved["k1"]) == b"first-gen"
        assert store.read_chunk(loc2) == b"second-gen"
        store.reclaim({moved["k1"].path, loc2.path})
        # ... and the swapped locations serve the same bytes after.
        assert store.read_chunk(new["k1"]) == b"first-gen"
        assert store.read_chunk(new["k2"]) == b"second-gen"

    def test_repack_target_suffix_scheme(self):
        assert ChunkStore.repack_target("A/chunks/v/c.dat") == \
            "A/chunks/v/c.dat@r1"
        assert ChunkStore.repack_target("A/chunks/v/c.dat@r1") == \
            "A/chunks/v/c.dat@r2"
        assert ChunkStore.repack_target("A/chunks/v/c.dat@r9") == \
            "A/chunks/v/c.dat@r10"
        # A literal "@r" not followed by a generation number is part of
        # the object name, not a suffix to bump.
        assert ChunkStore.repack_target("A/c@roo.dat") == "A/c@roo.dat@r1"
        assert ChunkStore.repack_target("bare") == "bare@r1"

    def test_mid_repack_fault_is_unobservable(self, tmp_path):
        # Two co-located objects; the seeded schedule kills the second
        # repack write.  Pre-fix (in-place rewrite) the first object
        # was already overwritten when the fault hit, so every location
        # pointing into it served corrupt bytes; post-fix both old
        # objects still serve, and a retry converges.
        from repro.storage.backend import (
            FaultInjectingBackend,
            LocalFileBackend,
        )

        inner = LocalFileBackend(tmp_path)
        store = ChunkStore(tmp_path, placement=COLOCATED, backend=inner)
        loc_a = store.write_chunk("A", 1, "value", "a.dat", b"alpha-v1")
        loc_b = store.write_chunk("A", 1, "other", "b.dat", b"bravo-v1")

        faulty = FaultInjectingBackend(inner,
                                       schedule={"write": frozenset({2})})
        store.backend = faulty
        with pytest.raises(StorageError):
            store.repack("A", [(loc_a, "ka"), (loc_b, "kb")])
        # Both pre-repack locations still serve correct bytes.
        store.backend = inner
        assert store.read_chunk(loc_a) == b"alpha-v1"
        assert store.read_chunk(loc_b) == b"bravo-v1"
        # The retry (fault schedule exhausted) completes the swap.
        new = store.repack("A", [(loc_a, "ka"), (loc_b, "kb")])
        assert store.read_chunk(new["ka"]) == b"alpha-v1"
        assert store.read_chunk(new["kb"]) == b"bravo-v1"


class TestIOStats:
    def test_counters(self, tmp_path):
        stats = IOStats()
        store = ChunkStore(tmp_path, placement=COLOCATED, stats=stats)
        location = store.write_chunk("A", 1, "value", "c.dat", b"12345678")
        assert stats.bytes_written == 8
        assert stats.chunks_written == 1
        store.read_chunk(location)
        assert stats.bytes_read == 8
        assert stats.chunks_read == 1

    def test_measure_window(self, tmp_path):
        stats = IOStats()
        store = ChunkStore(tmp_path, placement=COLOCATED, stats=stats)
        location = store.write_chunk("A", 1, "value", "c.dat", b"abcd")
        with stats.measure() as window:
            store.read_chunk(location)
        assert window.bytes_read == 4
        assert window.bytes_written == 0
        assert stats.bytes_written == 4  # outer counters unaffected

    def test_reset_and_delta(self):
        stats = IOStats()
        stats.add(chunks_read=1, bytes_read=10)
        snap = stats.snapshot()
        stats.add(chunks_read=1, bytes_read=5)
        delta = stats.delta_since(snap)
        assert delta.bytes_read == 5
        stats.reset()
        assert stats.bytes_read == 0

    def test_add_is_atomic_under_contention(self):
        """No lost increment, and no snapshot ever sees one ``add``
        half applied (``bytes_read`` always 3x ``chunks_read``)."""
        stats = IOStats()

        def write():
            for _ in range(2000):
                stats.add(chunks_read=1, bytes_read=3)

        def read():
            torn = 0
            for _ in range(2000):
                snap = stats.snapshot()
                torn += snap.bytes_read != 3 * snap.chunks_read
            return torn

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                writers = [pool.submit(write) for _ in range(6)]
                readers = [pool.submit(read) for _ in range(2)]
                for future in writers:
                    future.result(timeout=60)
                torn = sum(future.result(timeout=60)
                           for future in readers)
        finally:
            sys.setswitchinterval(interval)
        assert torn == 0
        assert stats.chunks_read == 12000
        assert stats.bytes_read == 36000
        with pytest.raises(KeyError):
            stats.add(no_such_counter=1)
