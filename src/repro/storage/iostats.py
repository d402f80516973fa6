"""Byte-, chunk- and handle-level I/O accounting.

Section IV-D argues that "because chunks read from disk in SciDB are
relatively large (i.e., several megabytes), disk seeks are amortized so
that we can count the number of chunks accessed as a proxy for total I/O
cost".  The evaluation tables report *Bytes Read* alongside wall-clock
time.  Every read and write the chunk store performs is recorded here so
benchmarks can report the same columns as the paper.

Beyond the paper's counters, :class:`IOStats` tracks ``file_opens`` —
how many *distinct objects* the store accessed (logical opens) — which
is what the batched chain read
(:meth:`~repro.storage.chunkstore.ChunkStore.read_chunks`) improves: a
co-located chain of *k* payloads is one object access, not *k* — and
the chunk-cache hit/miss counters, so cache effectiveness shows up in
the same report as the I/O it avoided.  The counter is deliberately
logical: when the backend's parallel span fan-out shards one object's
reads over several worker handles, that remains *one* open here, so
the chain-depth invariants stay comparable across workers settings.

The object-store backend adds request-level accounting: every ranged
GET it issues is counted in ``ranged_gets``, and every byte the
request-size floor or span coalescing fetched beyond what was asked
for lands in ``bytes_over_fetched`` — so the request-batching
trade-off (fewer round trips, more bytes) is visible in the same
report as the chunk- and handle-level counters it trades against.

Every counter moves through one lock-protected :meth:`IOStats.add`:
parallel chain reads (the decode pipeline's per-chunk fan-out) and
parallel chunk encodes (the encode pipeline's write-side fan-out) hammer
one shared instance from many threads, and benchmark invariants like
"file opens stay constant in chain depth" or "one encode task per chunk"
only hold if no increment is ever lost.  The write side is covered by
four counters: ``encode_tasks`` (delta+compress units executed by the
encode stage), ``chunks_written`` and ``bytes_written`` (placements that
follow), and ``concurrent_placements`` (placements dispatched through
the commit stage's concurrent fan instead of the serial loop).

The single-pass encode planner adds three more write-side counters:
``encode_plans`` (chunk encodes planned by
:func:`~repro.delta.auto.plan_encoding`), ``codec_encodes_avoided``
(representations the planner sized exactly from the shared code plan but
never encoded — losing delta candidates, plus the materialized payload
whenever the cost model proves a delta wins under the identity
compressor), and ``planner_bytes_saved`` (the total size of those
never-produced payloads).  ``encode_rebases`` counts chunk encodes
planned by delta-of-delta re-base — the insert diffed against (root,
accumulator) chain state instead of a reconstructed parent canvas.  The
planner's and re-base's shared contract is that they change no stored
byte, so these counters are the only place their work is visible outside
wall-clock time.

The fused read path is covered by three counters: ``chains_fused``
(chunk reconstructions that folded their whole delta chain into one
accumulator and applied it to the root once), ``fused_levels`` (delta
levels those folds absorbed — the full-array applies the fusion
avoided), and ``scatter_levels`` (the subset of those levels composed
at O(nnz) by sparse/hybrid scatter instead of a dense pass).  The scan
bench reports them next to MB/s so the fused path's coverage is
visible, and the equivalence oracle asserts they are exactly zero when
the stepwise path must run.

The cluster coordinator adds replication accounting on its own stats
instance: ``replica_writes`` counts redundant version copies landed on
non-primary replicas, ``failovers`` counts reads that abandoned a dead
or failing replica for the next live one, and ``migrated_chunks``
counts chunk placements performed by ``rebalance`` while resharding
the cluster onto a new node count.  The chaos suite asserts *exact*
values for all three, so they share the lock discipline of the
byte-level counters.

Anti-entropy repair adds three more cluster counters: ``repairs``
(repair passes that actually resynced at least one version onto a
stale or empty replica), ``repaired_versions`` (versions replayed
through the transactional write path during those passes), and
``repair_bytes`` (logical payload bytes those replays carried — the
numerator of the stale-replica resync MB/s the cluster bench
reports).  Repair under chaos retries until the replica digests
converge, so the counters accumulate across attempts; the fault-free
tests assert exact values.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, fields


@dataclass
class IOStats:
    """Mutable I/O counters attached to a chunk store."""

    bytes_read: int = 0
    bytes_written: int = 0
    chunks_read: int = 0
    chunks_written: int = 0
    encode_tasks: int = 0
    encode_plans: int = 0
    encode_rebases: int = 0
    codec_encodes_avoided: int = 0
    planner_bytes_saved: int = 0
    concurrent_placements: int = 0
    file_opens: int = 0
    ranged_gets: int = 0
    bytes_over_fetched: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    chains_fused: int = 0
    fused_levels: int = 0
    scatter_levels: int = 0
    failovers: int = 0
    replica_writes: int = 0
    migrated_chunks: int = 0
    repairs: int = 0
    repaired_versions: int = 0
    repair_bytes: int = 0

    def __post_init__(self):
        # Not a dataclass field, so reset/snapshot/delta_since (which
        # iterate ``fields``) keep seeing counters only.
        self._lock = threading.Lock()

    def add(self, **counts: int) -> None:
        """Add each ``counter=increment`` to its field under the lock.

        One call is one atomic update, so a group of counters that
        describe the same event (a chunk read's ``chunks_read`` and
        ``bytes_read``, a fused chain's ``chains_fused``,
        ``fused_levels`` and ``scatter_levels``) never shows half
        applied to a concurrent :meth:`snapshot`.  An unknown name
        raises ``KeyError`` rather than growing a new counter.
        """
        values = self.__dict__
        with self._lock:
            for name, count in counts.items():
                values[name] += count

    def reset(self) -> None:
        """Zero all counters."""
        with self._lock:
            for field in fields(self):
                setattr(self, field.name, 0)

    def snapshot(self) -> "IOStats":
        """A consistent copy of the current counters."""
        with self._lock:
            return IOStats(**{field.name: getattr(self, field.name)
                              for field in fields(self)})

    def delta_since(self, earlier: "IOStats") -> "IOStats":
        """Counter increments since an earlier snapshot."""
        return IOStats(**{
            field.name: getattr(self, field.name)
            - getattr(earlier, field.name)
            for field in fields(self)})

    @contextmanager
    def measure(self):
        """Context manager yielding the I/O performed inside the block.

        >>> stats = IOStats()
        >>> with stats.measure() as window:
        ...     stats.add(chunks_read=1, bytes_read=100)
        >>> window.bytes_read
        100
        """
        before = self.snapshot()
        window = IOStats()
        try:
            yield window
        finally:
            delta = self.delta_since(before)
            for field in fields(delta):
                setattr(window, field.name, getattr(delta, field.name))
