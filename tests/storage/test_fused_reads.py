"""Fused-vs-stepwise delta-chain read equivalence oracle.

The fused read path (:meth:`DecodePipeline.reconstruct` with
``fuse_chains`` on, the default) folds a chain of composable deltas into one
accumulator and applies it to the materialized root in a single pass.
Its contract is byte-exactness: for every delta policy, both delta
modes (ARITHMETIC for integers, XOR for floats), every chain depth,
and adversarial cell values (int64 wraparound, NaN / signed-zero /
infinity bit patterns), the fused result must equal the stepwise
result bit for bit — and the store fingerprint must be identical too,
since the decode path may never leak into written bytes.  The stepwise
oracle is the same decoder with ``fuse_chains`` switched off in
process.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.schema import ArraySchema
from repro.storage.manager import VersionedStorageManager

DEPTH = 8
SHAPE = (16, 16)

#: (policy-id, manager kwargs) — the delta-policy axis of the oracle.
POLICIES = [
    ("dense", dict(delta_policy="chain", delta_codec="dense")),
    ("sparse", dict(delta_policy="chain", delta_codec="sparse")),
    ("hybrid", dict(delta_policy="chain", delta_codec="hybrid")),
    ("hybrid+lz", dict(delta_policy="chain", delta_codec="hybrid+lz")),
    ("auto", dict(delta_policy="auto")),
]


def _int_versions() -> list[np.ndarray]:
    """A DEPTH-long int64 version chain exercising ARITHMETIC mode.

    The root holds both int64 extremes; every level nudges the
    iinfo.max cell by +100, so the running value wraps around the
    signed range mid-chain — the fused accumulator must telescope
    through the wrap exactly.  Remaining mutations are small and
    sparse so every delta codec beats materialization and the chain
    actually reaches DEPTH levels.
    """
    rng = np.random.default_rng(7)
    info = np.iinfo(np.int64)
    cur = rng.integers(-1000, 1000, SHAPE, dtype=np.int64)
    cur[0, 0] = info.max
    cur[0, 1] = info.min
    versions = [cur]
    for level in range(1, DEPTH):
        cur = cur.copy()
        with np.errstate(over="ignore"):
            cur[0, 0] += 100          # crosses iinfo.max and wraps
            cur[0, 1] -= 100          # crosses iinfo.min and wraps
        rows = rng.integers(1, SHAPE[0], 6)
        cols = rng.integers(0, SHAPE[1], 6)
        cur[rows, cols] += rng.integers(-500, 500, 6)
        versions.append(cur)
    return versions


def _float_versions() -> list[np.ndarray]:
    """A DEPTH-long float64 version chain exercising XOR mode.

    The root seeds every special bit pattern (NaN, both signed zeros,
    both infinities, a denormal); some levels leave them untouched
    (identity folds must preserve the exact bit patterns) and later
    levels rewrite them (NaN -> finite, finite -> -0.0, -0.0 -> NaN),
    so the accumulator also composes the large XOR codes such
    transitions produce.
    """
    rng = np.random.default_rng(11)
    cur = rng.normal(0, 100, SHAPE)
    cur[0, 0] = np.nan
    cur[0, 1] = -0.0
    cur[0, 2] = 0.0
    cur[0, 3] = np.inf
    cur[0, 4] = -np.inf
    cur[0, 5] = 5e-324              # smallest positive denormal
    versions = [cur]
    for level in range(1, DEPTH):
        cur = cur.copy()
        rows = rng.integers(1, SHAPE[0], 6)
        cols = rng.integers(0, SHAPE[1], 6)
        cur[rows, cols] += rng.normal(0, 1, 6)
        if level == 4:
            cur[0, 0] = 1.5         # NaN -> finite
            cur[0, 2] = -0.0        # +0.0 -> -0.0 (sign-bit-only code)
        if level == 6:
            cur[0, 1] = np.nan      # -0.0 -> NaN
            cur[0, 3] = -np.inf     # inf sign flip
        versions.append(cur)
    return versions


MODES = [("arith", np.int64, _int_versions),
         ("xor", np.float64, _float_versions)]


def _build(root, versions, dtype, fuse, **kwargs):
    manager = VersionedStorageManager(root, **kwargs)
    manager.decoder.fuse_chains = fuse
    manager.create_array(
        "A", ArraySchema.simple(SHAPE, dtype, attribute="value"))
    for data in versions:
        manager.insert("A", data.copy())
    return manager


@pytest.mark.parametrize("policy,kwargs", POLICIES,
                         ids=[p for p, _ in POLICIES])
@pytest.mark.parametrize("mode,dtype,make_versions", MODES,
                         ids=[m for m, _, _ in MODES])
def test_fused_equals_stepwise(tmp_path, policy, kwargs, mode, dtype,
                               make_versions):
    """Byte-identical arrays and fingerprints at every depth 1..DEPTH."""
    versions = make_versions()
    with _build(tmp_path / "fused", versions, dtype, True,
                **kwargs) as fused, \
            _build(tmp_path / "step", versions, dtype, False,
                   **kwargs) as step:
        # The knob is read-only: both stores hold identical bytes.
        assert fused.fingerprint("A") == step.fingerprint("A")
        for depth in range(1, DEPTH + 1):
            got_fused = fused.select("A", depth).attribute("value")
            got_step = step.select("A", depth).attribute("value")
            expected = versions[depth - 1]
            # tobytes() comparison is NaN-exact and sign-of-zero-exact.
            assert got_fused.tobytes() == got_step.tobytes()
            assert got_fused.tobytes() == \
                np.ascontiguousarray(expected).tobytes()
        assert step.stats.snapshot().chains_fused == 0
        # Depth-2+ selects of a composable chain must actually fuse.
        assert fused.stats.snapshot().chains_fused > 0
        # Reading must not disturb the stores.
        assert fused.fingerprint("A") == step.fingerprint("A")


def test_fused_counters_exact(tmp_path):
    """One deep select records exactly one fused chain, all levels."""
    versions = _int_versions()
    with _build(tmp_path / "s", versions, np.int64, True,
                delta_policy="chain", delta_codec="sparse") as manager:
        with manager.stats.measure() as window:
            manager.select("A", DEPTH)
        assert window.chains_fused == 1
        assert window.fused_levels == DEPTH - 1
        # Every sparse level composes by scatter, not a dense pass.
        assert window.scatter_levels == DEPTH - 1
    with _build(tmp_path / "d", versions, np.int64, True,
                delta_policy="chain", delta_codec="dense") as manager:
        with manager.stats.measure() as window:
            manager.select("A", DEPTH)
        assert window.chains_fused == 1
        assert window.fused_levels == DEPTH - 1
        assert window.scatter_levels == 0


def test_depth_one_chain_stays_stepwise(tmp_path):
    """A single delta level is already one apply — no fusion counted."""
    versions = _int_versions()[:2]
    with _build(tmp_path / "s", versions, np.int64, True,
                delta_policy="chain", delta_codec="sparse") as manager:
        with manager.stats.measure() as window:
            got = manager.select("A", 2).attribute("value")
        assert np.array_equal(got, versions[1])
        assert window.chains_fused == 0


@pytest.mark.parametrize("codec", ["bsdiff", "mpeg-like"])
def test_non_composable_codecs_fall_back(tmp_path, codec):
    """Directional codecs decode level-by-level, results still exact."""
    versions = _int_versions()
    with _build(tmp_path / "s", versions, np.int64, True,
                delta_policy="chain", delta_codec=codec) as manager:
        with manager.stats.measure() as window:
            got = manager.select("A", DEPTH).attribute("value")
        assert got.tobytes() == \
            np.ascontiguousarray(versions[DEPTH - 1]).tobytes()
        assert window.chains_fused == 0


def test_select_versions_shares_chain_scope(tmp_path):
    """Multi-version stacked selects fold common chain prefixes once.

    The fused path records only requested versions into the shared
    scope, so ``_stacked_select`` resolves in ascending version order —
    each chain walk stops at the previous version and the payload-read
    count stays exactly one per stored chunk, fused or stepwise, for
    any requested order.
    """
    versions = _int_versions()
    order = [DEPTH, 3, 5, 1]        # deliberately unsorted
    stacks = {}
    reads = {}
    for fuse in (False, True):
        with _build(tmp_path / f"f{fuse}", versions, np.int64, fuse,
                    delta_policy="chain", delta_codec="hybrid") as m:
            with m.stats.measure() as window:
                full = m.select_versions("A", list(range(1, DEPTH + 1)))
            # Ascending contiguous range: every chunk payload is read
            # exactly once regardless of the decode path.
            total_chunks = sum(
                len(m.catalog.chunks_for_version(1, v))
                for v in range(1, DEPTH + 1))
            assert window.chunks_read == total_chunks
            stacks[fuse] = (full.tobytes(),
                            m.select_versions("A", order).tobytes())
            reads[fuse] = window.chunks_read
    assert stacks[False] == stacks[True]
    assert reads[False] == reads[True]
    for layer, version in enumerate(order):
        expected = versions[version - 1]
        got = np.frombuffer(stacks[True][1],
                            dtype=np.int64).reshape((len(order),) + SHAPE)
        assert np.array_equal(got[layer], expected)


def test_prefetch_cache_keeps_stepwise_path(tmp_path):
    """Chain-aware prefetch needs the intermediates: no fusion, and
    every version along the chain is admitted to the cache."""
    versions = _int_versions()
    with VersionedStorageManager(
            tmp_path / "s", delta_policy="chain", delta_codec="sparse",
            cache_chunks=64) as manager:
        manager.create_array(
            "A", ArraySchema.simple(SHAPE, np.int64, attribute="value"))
        for data in versions:
            manager.insert("A", data.copy())
        manager.cache.clear()
        with manager.stats.measure() as window:
            manager.select("A", DEPTH)
        assert window.chains_fused == 0
        # The prefetch contract holds: an intermediate version is now
        # served from cache without any chunk read.
        with manager.stats.measure() as window:
            manager.select("A", DEPTH // 2)
        assert window.chunks_read == 0


def test_prefetch_off_cache_fuses(tmp_path):
    """Cache without prefetch admits only requested versions on either
    path, so the fused path runs and repeat reads still hit."""
    versions = _int_versions()
    with VersionedStorageManager(
            tmp_path / "s", delta_policy="chain", delta_codec="sparse",
            cache_chunks=64, prefetch=False) as manager:
        manager.create_array(
            "A", ArraySchema.simple(SHAPE, np.int64, attribute="value"))
        for data in versions:
            manager.insert("A", data.copy())
        manager.cache.clear()
        with manager.stats.measure() as window:
            first = manager.select("A", DEPTH).attribute("value")
        assert window.chains_fused == 1
        with manager.stats.measure() as window:
            again = manager.select("A", DEPTH).attribute("value")
        assert window.chunks_read == 0
        assert first.tobytes() == again.tobytes()


def test_read_region_single_chunk_returns_view(tmp_path):
    """``read_region`` with one covering chunk slices the reconstructed
    chunk directly instead of copying through a canvas."""
    versions = _int_versions()
    with _build(tmp_path / "s", versions, np.int64, True,
                delta_policy="chain", delta_codec="hybrid") as manager:
        # SHAPE fits one default chunk, so any region is single-chunk.
        region = manager.select_region("A", DEPTH, (2, 3), (9, 12))
        got = region.attribute("value")
        assert np.array_equal(got, versions[DEPTH - 1][2:10, 3:13])
        # The full-array region is a zero-copy view of the chunk.
        full = manager.select_region(
            "A", DEPTH, (0, 0), (SHAPE[0] - 1, SHAPE[1] - 1))
        assert np.array_equal(full.attribute("value"),
                              versions[DEPTH - 1])
        assert not full.attribute("value").flags.writeable


def test_decode_path_is_not_a_setting(tmp_path):
    """The fused decode and the planner are the only production paths:
    no constructor takes a switch for them, and the manager's
    ``fuse_chains`` only reports the decoder's in-process attribute."""
    from repro.cluster.coordinator import ClusterCoordinator
    from repro.query.engine import Database

    for kwarg in ("fuse_chains", "planner"):
        for make in (VersionedStorageManager, Database,
                     ClusterCoordinator):
            with pytest.raises(TypeError):
                make(tmp_path / f"{make.__name__}-{kwarg}",
                     **{kwarg: False})
    with VersionedStorageManager(tmp_path / "s") as manager:
        assert manager.fuse_chains and manager.planner
        manager.decoder.fuse_chains = False
        assert not manager.fuse_chains
