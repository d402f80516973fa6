"""The benchmark's four workloads and the oracle they are checked against.

Every workload is a closed loop with one client: the next operation is
sent only after the previous one returned.  Operations come in
*rounds*, each a fixed, seeded block whose latency distribution does
not drift with run length (rounds that grow a delta chain start from a
fresh array), so a longer run adds samples without moving the medians.

The program receives only the generated arrays and queries.  The
benchmark keeps its own compact model of every version — the seeded
root plus each version's sparse updates — and checks every read's
bytes against it outside the timed region.
"""

from __future__ import annotations

import itertools
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

INSERT = "insert"
POINT = "point_read"
VERSION = "version_read"
STACK = "stack_read"
KINDS = (INSERT, POINT, VERSION, STACK)
READ_KINDS = (POINT, VERSION, STACK)

#: Share of cells one version changes (the paper's "small change"
#: regime that makes delta chains pay).
UPDATE_FRACTION = 0.01
VALUE_RANGE = 1 << 20
UPDATE_STEP = 1000
#: Every store lives on the memory backend.  The encode, decode, cache
#: and catalog code is the same as on local files; what is left out is
#: the file system, whose append and SQLite-commit latency on a shared
#: virtual disk made insert p90 vary by a third or more between runs.
BACKEND = "memory"


@dataclass
class Op:
    """One timed call into the program.

    ``call`` is the program call (the only code inside the timed
    region); ``check`` receives its result and says whether it is
    right.  ``nbytes`` is the logical payload size of an insert.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    nbytes: int = 0


class History:
    """Oracle for one array: the seeded root plus, per later version,
    the flat positions it changed and their new values."""

    #: Full versions kept materialized (head-biased reads hit them).
    CACHED = 3

    def __init__(self, root: np.ndarray):
        self.root = root
        self.updates: list[tuple[np.ndarray, np.ndarray]] = []
        self._cached: OrderedDict[int, np.ndarray] = OrderedDict()
        self._remember(1, root)

    @property
    def head(self) -> int:
        """Newest version number (the root is version 1)."""
        return len(self.updates) + 1

    def _remember(self, version: int, data: np.ndarray) -> None:
        self._cached[version] = data
        self._cached.move_to_end(version)
        while len(self._cached) > self.CACHED:
            self._cached.popitem(last=False)

    def full(self, version: int) -> np.ndarray:
        """Contents of one version (read-only)."""
        if version in self._cached:
            self._cached.move_to_end(version)
            return self._cached[version]
        start = max((v for v in self._cached if v < version), default=None)
        data = (self.root if start is None
                else self._cached[start]).copy()
        for positions, values in self.updates[(start or 1) - 1:version - 1]:
            data.flat[positions] = values
        data.flags.writeable = False
        self._remember(version, data)
        return data

    def region(self, version: int, lo: tuple[int, int],
               hi: tuple[int, int]) -> np.ndarray:
        """A window of one version (inclusive corners)."""
        window = np.s_[lo[0]:hi[0] + 1, lo[1]:hi[1] + 1]
        if version in self._cached:
            return self._cached[version][window]
        out = self.root[window].copy()
        cols = self.root.shape[1]
        for positions, values in self.updates[:version - 1]:
            rows, columns = np.divmod(positions, cols)
            inside = (rows >= lo[0]) & (rows <= hi[0]) & \
                (columns >= lo[1]) & (columns <= hi[1])
            out[rows[inside] - lo[0], columns[inside] - lo[1]] = \
                values[inside]
        return out

    def grow(self, rng: np.random.Generator) -> np.ndarray:
        """Append one seeded version and return its full contents."""
        base = self.full(self.head)
        positions = np.unique(rng.integers(
            0, base.size, int(base.size * UPDATE_FRACTION)))
        values = base.flat[positions] + rng.integers(
            -UPDATE_STEP, UPDATE_STEP + 1, positions.size)
        data = base.copy()
        data.flat[positions] = values
        data.flags.writeable = False
        self.updates.append((positions, values))
        self._remember(self.head, data)
        return data


def seeded_root(rng: np.random.Generator, shape) -> np.ndarray:
    root = rng.integers(0, VALUE_RANGE, shape, dtype=np.int64)
    root.flags.writeable = False
    return root


def equal(expected: np.ndarray) -> Callable[[object], bool]:
    def check(result) -> bool:
        result = np.asarray(result)
        return result.shape == expected.shape and \
            result.dtype == expected.dtype and \
            bool(np.array_equal(result, expected))
    return check


def is_version(expected: int) -> Callable[[object], bool]:
    return lambda result: result == expected


#: Steps of the additive recurrence u_k = frac(u_0 + k * ALPHA) over
#: [0, 1)^3 (the R3 sequence: powers of 1/phi, phi**4 = phi + 1).
#: Successive points fill the cube evenly, so any run of draws covers
#: chain depths and chunk-boundary cases in nearly the same proportions
#: whatever the seed; independent random draws made the p50 of 100
#: full-version reads move by a fifth between seeds.
_PHI3 = 1.2207440846057596
ALPHA = np.array([_PHI3 ** -1, _PHI3 ** -2, _PHI3 ** -3])


def version_at(point, head: int) -> int:
    """A version in 1..head from the point's first coordinate."""
    return 1 + int(point[0] * head)


def window_at(point, shape, size: int):
    """A ``size`` x ``size`` window (inclusive corners) placed by the
    point's last two coordinates."""
    lo = tuple(int(u * (extent - size + 1))
               for u, extent in zip(point[1:], shape))
    return lo, tuple(l + size - 1 for l in lo)


@dataclass
class Built:
    """A store ready for the loop, and what it cost to build."""

    handle: object
    histories: dict[str, History]
    setup_s: float
    insert_s: list[float]
    insert_bytes: int


class Workload:
    """Shared plumbing: seeded streams, store construction, rounds."""

    name = ""
    #: Rounds must reach this many samples of every op kind the loop
    #: runs, so p90 has ten or more samples beyond it.
    min_samples = 100
    #: Op kinds whose samples come from the loop (the rest, if any,
    #: come from building the store).
    loop_kinds = KINDS

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, *stream: int) -> np.random.Generator:
        tag = _STREAM_TAGS[self.name]
        return np.random.default_rng([self.seed, tag, *stream])

    def picker(self, index: int, per_round: dict[str, int]):
        """``pick(kind)`` -> the next quasi-random point for that op
        kind.  Round ``index`` continues each kind's sequence where
        round ``index - 1`` left it, given ``per_round[kind]`` draws a
        round; the seed sets where the sequences start."""
        streams = {}
        for kind, count in per_round.items():
            start = self.rng(3, KINDS.index(kind)).random(3)
            streams[kind] = ((start + k * ALPHA) % 1.0
                             for k in itertools.count(index * count))
        return lambda kind: next(streams[kind])

    # Subclasses provide: open(path), create(handle) (the arrays),
    # insert(handle) (the insert call), setup_versions, round(handle,
    # histories, index), stats_sources(handle), managers(handle),
    # space(handle, histories) and close(handle).
    def build(self, path: Path) -> Built:
        """Create the store the loop starts from.  The program calls —
        opening the store, creating the arrays, inserting their first
        versions — are timed as set-up; generating the data is not."""
        histories, plan = self.plan((0,))
        start = time.perf_counter()
        handle = self.open(path)
        self.create(handle)
        insert_s = self.populate(self.insert(handle), plan)
        return Built(handle, histories, time.perf_counter() - start,
                     insert_s, sum(data.nbytes for _, data in plan))

    def restart(self, handle, histories, index: int) -> None:
        """Replace the arrays with fresh ones (untimed), so every round
        sees the same chain depths."""
        for name in histories:
            self.delete(handle, name)
        fresh, plan = self.plan((1, index))
        self.create(handle)
        self.populate(self.insert(handle), plan)
        histories.clear()
        histories.update(fresh)

    def plan(self, stream: tuple):
        """Seeded histories of ``setup_versions`` versions per array,
        and the inserts that load them, in order."""
        histories: dict[str, History] = {}
        plan = []
        for index, name in enumerate(self.arrays):
            rng = self.rng(*stream, index)
            history = histories[name] = History(
                seeded_root(rng, self.SHAPE))
            plan.append((name, history.root))
            plan += [(name, history.grow(rng))
                     for _ in range(self.setup_versions - 1)]
        return histories, plan

    @staticmethod
    def populate(insert, plan) -> list[float]:
        """Run the planned inserts, returning each one's seconds."""
        seconds = []
        for name, data in plan:
            start = time.perf_counter()
            insert(name, data)
            seconds.append(time.perf_counter() - start)
        return seconds

    def insert_op(self, insert, name: str, history: History,
                  rng: np.random.Generator) -> Op:
        data = history.grow(rng)
        return Op(INSERT, lambda: insert(name, data),
                  is_version(history.head), data.nbytes)


def _schema(shape):
    from repro.core.schema import ArraySchema

    return ArraySchema.simple(shape, dtype=np.int64)


def read_op(manager, name: str, history: History, kind: str, point,
            shape, *, stack: int) -> Op:
    """One storage-manager read of ``kind``: version and 32x32 window
    placed by ``point``."""
    version = version_at(point, history.head)
    if kind == VERSION:
        expected = history.full(version)
        return Op(VERSION, lambda: manager.select(name, version).single(),
                  equal(expected))
    lo, hi = window_at(point, shape, 32)
    if kind == POINT:
        expected = history.region(version, lo, hi)
        return Op(POINT, lambda: manager.select_region(
            name, version, lo, hi).single(), equal(expected))
    versions = list(range(max(1, version - stack + 1), version + 1))
    expected = np.stack([history.region(v, lo, hi) for v in versions])
    return Op(STACK, lambda: manager.select_versions_region(
        name, versions, lo, hi), equal(expected))


class _SingleNode(Workload):
    """A ``VersionedStorageManager`` with 64 KiB chunks and otherwise
    default settings (chain policy, cache off, serial executors)."""

    SHAPE = (512, 512)
    CHUNK = 64 << 10

    def open(self, path):
        from repro.storage.manager import VersionedStorageManager

        return VersionedStorageManager(path, chunk_bytes=self.CHUNK,
                                       backend=BACKEND)

    def create(self, manager):
        for name in self.arrays:
            manager.create_array(name, _schema(self.SHAPE))

    def insert(self, manager):
        return manager.insert

    def delete(self, manager, name):
        manager.delete_array(name)

    def stats_sources(self, manager):
        return [manager.stats]

    def managers(self, manager):
        return [manager]

    def space(self, manager, histories):
        return sum(manager.stored_bytes(name) for name in histories)

    def close(self, manager):
        manager.close()


class Ingest(_SingleNode):
    """Writes across four arrays taken in turn, then a read-back.

    Each round starts four fresh 512x512 int64 arrays and appends
    ``DEPTH`` versions to each, one array after another — as when one
    snapshot updates several variables.  Taking the arrays in turn
    misses the one-version hot slot, so every insert re-bases against
    its parent's chain state.  64 KiB chunks expose per-call overhead.
    The read-back that closes each round checks the ingested bytes and
    gives the round's read samples.
    """

    name = "ingest"
    arrays = tuple(f"Var{index}" for index in range(4))
    setup_versions = 1
    DEPTH = 12
    READS = 34  # per read kind per round

    def round(self, manager, histories, index):
        if index:
            self.restart(manager, histories, index)
        rng = self.rng(2, index)
        for _ in range(self.DEPTH):
            for name in self.arrays:
                yield self.insert_op(manager.insert, name, histories[name],
                                     rng)
        pick = self.picker(index, dict.fromkeys(READ_KINDS, self.READS))
        kinds = [kind for kind in READ_KINDS for _ in range(self.READS)]
        for kind in rng.permutation(kinds).tolist():
            # One coordinate picks the array and the version together.
            point = pick(kind)
            slot = int(point[0] * len(self.arrays) * histories[
                self.arrays[0]].head)
            name = self.arrays[slot % len(self.arrays)]
            point[0] = (slot // len(self.arrays) + 0.5) / \
                histories[name].head
            yield read_op(manager, name, histories[name], kind, point,
                          self.SHAPE, stack=4)


class HistoryReads(_SingleNode):
    """Table V "Mixed" reads over a 32-version history, cache off.

    Set-up builds one 512x512 int64 array of 32 versions in one chain
    (64 KiB chunks); its 32 inserts, over every set-up of the run, are
    the workload's insert samples (the one-array append path, through
    the hot-version slot).  Each round is ten reads spread evenly over
    the past versions: six small-window ``select_region``, two full
    ``select``, two ``select_versions_region`` stacks over 8 versions.
    Catalog locate, chunk fetch, fused delta decode and the kernels do
    all the work, across chain depths 1-32, with nothing cached.
    """

    name = "history_reads"
    loop_kinds = READ_KINDS
    arrays = ("History",)
    setup_versions = 32
    MIX = (POINT,) * 6 + (VERSION,) * 2 + (STACK,) * 2

    def round(self, manager, histories, index):
        rng = self.rng(2, index)
        pick = self.picker(index, {kind: self.MIX.count(kind)
                                   for kind in READ_KINDS})
        (name, history), = histories.items()
        for kind in rng.permutation(self.MIX).tolist():
            yield read_op(manager, name, history, kind, pick(kind),
                          self.SHAPE, stack=8)


class Interactive(Workload):
    """AQL reads beside inserts, chunk cache on and sized to fit.

    A ``Database`` with the default chunking (one chunk per 8 MiB
    version of a 1024x1024 int64 array).  Each round starts the array
    afresh with ``setup_versions`` versions and runs ``STEPS`` steps of
    ten operations: one ``Database.insert``, then a ``SUBSAMPLE`` of the
    new head (the scientist looks at what was just written), then six
    more ``SUBSAMPLE`` windows, one full ``SELECT`` and one
    ``SUBSAMPLE`` stack over up to four versions, in seeded order.
    Reads are head-biased (Table V "Head": 90% hit the newest version).
    This is the only workload through the ``query`` and ``cache``
    layers and the only one inserting through the hot slot with the
    cache on.
    """

    name = "interactive"
    SHAPE = (1024, 1024)
    arrays = ("Obs",)
    setup_versions = 4
    STEPS = 8
    CACHE_BYTES = 128 << 20  # every version of a round (8 MiB each) fits
    MIX = (POINT,) * 6 + (VERSION, STACK)
    HEAD_SHARE = 0.9

    def open(self, path):
        from repro.query.engine import Database

        return Database(path, cache_bytes=self.CACHE_BYTES,
                        backend=BACKEND)

    def create(self, db):
        rows, cols = self.SHAPE
        for name in self.arrays:
            db.execute(f"CREATE UPDATABLE ARRAY {name} ( value::INT64 )"
                       f" [ I=0:{rows - 1}, J=0:{cols - 1} ];")

    def insert(self, db):
        return db.insert

    def delete(self, db, name):
        db.manager.delete_array(name)

    def round(self, db, histories, index):
        if index:
            self.restart(db, histories, index)
        rng = self.rng(2, index)
        pick = self.picker(index, {
            kind: self.STEPS * (self.MIX.count(kind) + (kind == POINT))
            for kind in READ_KINDS})
        (name, history), = histories.items()
        for _ in range(self.STEPS):
            yield self.insert_op(db.insert, name, history, rng)
            yield self.aql_op(db, name, history, POINT, pick(POINT),
                              history.head)
            for kind in rng.permutation(self.MIX).tolist():
                yield self.aql_op(db, name, history, kind, pick(kind))

    def aql_op(self, db, name: str, history: History, kind: str, point,
               version: int | None = None) -> Op:
        head = history.head
        if version is None:
            # Head-biased: the first coordinate below HEAD_SHARE reads
            # the newest version, the rest spread over the older ones.
            older = (point[0] - self.HEAD_SHARE) / (1 - self.HEAD_SHARE)
            version = head if older < 0 or head == 1 \
                else 1 + int(older * (head - 1))
        if kind == VERSION:
            query = f"SELECT * FROM {name}@{version};"
            expected = history.full(version)
        else:
            lo, hi = window_at(point, self.SHAPE, 32)
            corners = f"{lo[0]}, {hi[0]}, {lo[1]}, {hi[1]}"
            if kind == POINT:
                query = (f"SELECT * FROM SUBSAMPLE({name}@{version}, "
                         f"{corners});")
                expected = history.region(version, lo, hi)
            else:
                # The trailing pair indexes the resolved version list.
                first = max(1, version - 3)
                query = (f"SELECT * FROM SUBSAMPLE({name}@*, {corners}, "
                         f"{first - 1}, {version - 1});")
                expected = np.stack([history.region(v, lo, hi)
                                     for v in range(first, version + 1)])
        return Op(kind, lambda: db.execute(query).value, equal(expected))

    def stats_sources(self, db):
        return [db.stats]

    def managers(self, db):
        return [db.manager]

    def space(self, db, histories):
        return sum(db.manager.stored_bytes(name) for name in histories)

    def close(self, db):
        db.close()


class Cluster(Workload):
    """Replicated inserts and band-crossing reads on a 2-node cluster.

    A ``ClusterCoordinator`` with two nodes and replication 2, default
    chunking and workers.  Each round starts a fresh
    512x512 int64 array with ``setup_versions`` versions, then runs
    ``STEPS`` steps: one replicated insert, then in seeded order two
    ``select_region`` windows straddling the band boundary, one full
    ``select`` and one ``select_versions`` over up to four versions.
    The only workload with node fan-out, replica writes and band
    assembly.
    """

    name = "cluster"
    SHAPE = (512, 512)
    arrays = ("Field",)
    setup_versions = 2
    NODES = 2
    REPLICATION = 2
    STEPS = 12
    MIX = (POINT, POINT, VERSION, STACK)

    def open(self, path):
        from repro.cluster.coordinator import ClusterCoordinator

        return ClusterCoordinator(path, nodes=self.NODES,
                                  replication=self.REPLICATION,
                                  backend=BACKEND)

    def create(self, cluster):
        for name in self.arrays:
            cluster.create_array(name, _schema(self.SHAPE))

    def insert(self, cluster):
        return cluster.insert

    def delete(self, cluster, name):
        cluster.delete_array(name)

    def round(self, cluster, histories, index):
        if index:
            self.restart(cluster, histories, index)
        rng = self.rng(2, index)
        pick = self.picker(index, {kind: self.STEPS * self.MIX.count(kind)
                                   for kind in READ_KINDS})
        (name, history), = histories.items()
        for _ in range(self.STEPS):
            yield self.insert_op(cluster.insert, name, history, rng)
            for kind in rng.permutation(self.MIX).tolist():
                yield self.cluster_op(cluster, name, history, kind,
                                      pick(kind))

    def cluster_op(self, cluster, name: str, history: History, kind: str,
                   point) -> Op:
        version = version_at(point, history.head)
        if kind == VERSION:
            expected = history.full(version)
            return Op(kind, lambda: cluster.select(name, version).single(),
                      equal(expected))
        if kind == STACK:
            versions = list(range(max(1, version - 3), version + 1))
            expected = np.stack([history.full(v) for v in versions])
            return Op(kind, lambda: cluster.select_versions(name, versions),
                      equal(expected))
        # A 32x32 window centred on the band boundary.
        boundary = self.SHAPE[0] // self.NODES
        column = int(point[2] * (self.SHAPE[1] - 32 + 1))
        lo = (boundary - 16, column)
        hi = (boundary + 15, column + 31)
        expected = history.region(version, lo, hi)
        return Op(kind, lambda: cluster.select_region(
            name, version, lo, hi).single(), equal(expected))

    def stats_sources(self, cluster):
        return [stats for row in cluster.replica_stats()
                for stats in row] + [cluster.stats]

    def managers(self, cluster):
        return [manager for row in cluster.replicas for manager in row]

    def space(self, cluster, histories):
        return sum(cluster.physical_bytes(name) for name in histories)

    def close(self, cluster):
        cluster.close()


WORKLOADS = {workload.name: workload
             for workload in (Ingest, HistoryReads, Interactive, Cluster)}
_STREAM_TAGS = {name: index for index, name in enumerate(WORKLOADS)}
