"""Property suite: the single-pass planner against the two-pass oracle.

:func:`repro.delta.auto.plan_encoding` must be *decision- and
byte-equivalent* to the two-pass ``choose_encoding`` oracle — same
winner under the same first-strictly-smaller tie-break, same size, same
payload bytes — while encoding at most one representation.  The suite
drives both through randomized dtypes, sparsity profiles, outlier
mixes and degenerate shapes, and separately pins the exactness of the
plan-fed size estimators, the shared width statistics (including the
fused native kernel when it compiled), and the planner plumbing in the
write pipeline.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import LempelZivCodec
from repro.core import bitpack, native
from repro.core.numeric import compute_delta
from repro.core.schema import ArraySchema
from repro.delta import (
    CodeStats,
    DenseDeltaCodec,
    HybridDeltaCodec,
    SparseDeltaCodec,
)
from repro.delta.auto import CodePlan, plan_encoding
from repro.delta.codes import delta_to_codes
from repro.storage import VersionedStorageManager
from repro.storage.pipeline import EncodePipeline

import encode_oracle
from encode_oracle import choose_encoding

_DTYPES = (np.int64, np.int32, np.uint16, np.int8,
           np.float64, np.float32, np.bool_)


@st.composite
def _version_pair(draw):
    """A (target, base) pair spanning the interesting encode regimes."""
    dtype = np.dtype(draw(st.sampled_from(_DTYPES)))
    shape = draw(st.sampled_from(
        [(), (1,), (7,), (64,), (9, 13), (3, 5, 7), (2000,)]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if dtype.kind == "f":
        base = rng.normal(0, 100, size=shape).astype(dtype)
    elif dtype.kind == "b":
        base = (rng.integers(0, 2, size=shape) > 0).astype(dtype)
    else:
        info = np.iinfo(dtype)
        base = rng.integers(info.min, int(info.max) + 1,
                            size=shape).astype(dtype)
    profile = draw(st.sampled_from(
        ["identical", "sparse", "smooth", "outliers", "random"]))
    target = base.copy()
    if profile == "sparse" and base.size:
        n_hits = draw(st.integers(1, max(1, base.size // 8)))
        flat = target.reshape(-1)
        hits = rng.choice(base.size, size=min(n_hits, base.size),
                          replace=False)
        if dtype.kind == "b":
            flat[hits] = ~flat[hits]
        else:
            flat[hits] = base.reshape(-1)[hits] // 2 + 1
    elif profile == "smooth" and base.size:
        if dtype.kind == "f":
            target = (base + rng.normal(0, 0.5,
                                        size=shape)).astype(dtype)
        elif dtype.kind != "b":
            noise = rng.integers(-3, 4, size=shape)
            with np.errstate(over="ignore"):
                target = (base + noise.astype(dtype)).astype(dtype)
    elif profile == "outliers" and base.size:
        flat = target.reshape(-1)
        n_out = draw(st.integers(1, max(1, base.size // 16)))
        hits = rng.choice(base.size, size=min(n_out, base.size),
                          replace=False)
        if dtype.kind == "f":
            flat[hits] = -flat[hits] * 1e30
        elif dtype.kind != "b":
            info = np.iinfo(dtype)
            flat[hits] = info.max
    elif profile == "random":
        if dtype.kind == "f":
            target = rng.normal(0, 100, size=shape).astype(dtype)
        elif dtype.kind == "b":
            target = (rng.integers(0, 2, size=shape) > 0).astype(dtype)
        else:
            info = np.iinfo(dtype)
            target = rng.integers(info.min, int(info.max) + 1,
                                  size=shape).astype(dtype)
    return target, base


version_pairs = _version_pair()


candidate_sets = st.sampled_from([
    None,                                   # default hybrid + sparse
    (HybridDeltaCodec(),),                  # the chain-policy shape
    (SparseDeltaCodec(),),
    (DenseDeltaCodec(),),
    (HybridDeltaCodec(lz=True),),           # sized only by encoding
    (HybridDeltaCodec(), SparseDeltaCodec(), DenseDeltaCodec()),
])


class TestPlannerMatchesOracle:
    @settings(max_examples=120, deadline=None)
    @given(pair=version_pairs, candidates=candidate_sets,
           lz_materialized=st.booleans())
    def test_decision_equivalence(self, pair, candidates,
                                  lz_materialized):
        target, base = pair
        compressor = LempelZivCodec() if lz_materialized else None
        oracle = choose_encoding(target, base, compressor=compressor,
                                 candidates=candidates)
        planned = plan_encoding(target, base, compressor=compressor,
                                candidates=candidates)
        assert planned.decision.delta_codec == oracle.delta_codec
        assert planned.decision.size == oracle.size
        assert planned.decision.payload == oracle.payload

    @settings(max_examples=60, deadline=None)
    @given(pair=version_pairs, candidates=candidate_sets)
    def test_no_base_equivalence(self, pair, candidates):
        target, _ = pair
        oracle = choose_encoding(target, None, candidates=candidates)
        planned = plan_encoding(target, None, candidates=candidates)
        assert not planned.decision.is_delta
        assert planned.decision.payload == oracle.payload

    def test_payload_join_is_cached(self, rng):
        base = rng.integers(0, 100, size=(16, 16)).astype(np.int64)
        planned = plan_encoding(base + 1, base)
        assert planned.decision.payload is planned.decision.payload

    def test_savings_accounting(self, rng):
        base = rng.integers(0, 100, size=(64, 64)).astype(np.int64)
        planned = plan_encoding(base + 1, base)
        # Small deltas: a delta codec wins, so the materialized payload
        # and the losing candidate were sized but never produced.
        assert planned.decision.is_delta
        assert planned.encodes_avoided >= 2
        assert planned.bytes_saved > base.nbytes


class TestEstimatorsExact:
    @settings(max_examples=80, deadline=None)
    @given(pair=version_pairs)
    def test_plan_size_equals_encoded_length(self, pair):
        target, base = pair
        plan = CodePlan.build(target, base)
        for codec in (HybridDeltaCodec(), SparseDeltaCodec(),
                      DenseDeltaCodec()):
            size = codec.plan_size(plan)
            assert size is not None
            payload = b"".join(codec.encode_from_plan(plan))
            assert size == len(payload), codec.name

    @settings(max_examples=40, deadline=None)
    @given(pair=version_pairs)
    def test_lz_hybrid_has_no_analytic_size(self, pair):
        target, base = pair
        plan = CodePlan.build(target, base)
        codec = HybridDeltaCodec(lz=True)
        assert codec.plan_size(plan) is None
        # encoded_size (the estimator API) must still match reality.
        payload = b"".join(codec.encode_from_plan(plan))
        assert codec.encoded_size(target, base) == len(payload)


class TestSharedStats:
    @settings(max_examples=80, deadline=None)
    @given(values=st.lists(
        st.one_of(st.integers(0, 2**64 - 1), st.integers(0, 40),
                  st.sampled_from([0, 1, 2**31, 2**53 - 1, 2**53,
                                   2**63, 2**64 - 1])),
        min_size=0, max_size=300))
    def test_width_histogram_is_exact(self, values):
        codes = np.array(values, dtype=np.uint64)
        stats = CodeStats.from_codes(codes)
        expected = np.zeros(65, dtype=np.int64)
        for value in values:
            expected[int(value).bit_length()] += 1
        assert np.array_equal(stats.width_counts, expected)
        assert stats.nonzero == sum(1 for v in values if v)
        assert stats.max_bits == max(
            (int(v).bit_length() for v in values), default=0)

    def test_split_curve_is_cached(self, rng):
        codes = rng.integers(0, 2**30, 512, dtype=np.uint64)
        stats = CodeStats.from_codes(codes)
        assert stats.split_curve() is stats.split_curve()

    @settings(max_examples=60, deadline=None)
    @given(pair=version_pairs)
    def test_lazy_delta_roundtrip(self, pair):
        target, base = pair
        plan = CodePlan.build(target, base)
        delta, mode = compute_delta(target, base)
        assert plan.mode == mode
        assert plan.delta.dtype == delta.dtype
        assert np.array_equal(plan.delta, delta)


@pytest.mark.skipif(not native.available(),
                    reason="native kernels did not compile")
class TestNativeKernels:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5000))
    def test_fused_delta_matches_numpy(self, seed, n):
        rng = np.random.default_rng(seed)
        target = rng.integers(-2**62, 2**62, n, dtype=np.int64)
        base = rng.integers(-2**62, 2**62, n, dtype=np.int64)
        fused = native.delta_zigzag_stats(target, base)
        assert fused is not None
        codes, hist = fused
        delta, mode = compute_delta(target, base)
        expected = delta_to_codes(delta, mode)
        assert np.array_equal(codes, expected)
        assert np.array_equal(
            hist, CodeStats.from_codes(expected).width_counts)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), bits=st.integers(1, 64),
           n=st.integers(1, 3000))
    def test_pack_matches_numpy_kernels(self, seed, bits, n):
        rng = np.random.default_rng(seed)
        if bits < 64:
            values = rng.integers(0, 1 << bits, n, dtype=np.uint64)
        else:
            values = rng.integers(0, 2**63, n, dtype=np.uint64) * 2 \
                + rng.integers(0, 2, n, dtype=np.uint64)
        words = native.pack_bits(values, bits)
        assert words is not None
        needed = (n * bits + 7) // 8
        got = words.view(np.uint8)[:needed].tobytes()
        n_words = (n * bits + 63) // 64
        ref_blocked = bitpack._pack_words_blocked(values, bits)
        ref_scatter = bitpack._pack_words_scatter(values, bits, n_words)
        assert got == ref_blocked.view(np.uint8)[:needed].tobytes()
        assert got == ref_scatter.view(np.uint8)[:needed].tobytes()

    def test_gated_off_by_dtype_and_layout(self, rng):
        f = rng.normal(size=8)
        assert native.delta_zigzag_stats(f, f) is None
        ints = rng.integers(0, 9, (8, 8), dtype=np.int64)
        assert native.delta_zigzag_stats(ints[:, ::2],
                                         ints[:, ::2]) is None
        empty = np.zeros(0, dtype=np.int64)
        assert native.delta_zigzag_stats(empty, empty) is None


class TestPipelinePlanner:
    @pytest.mark.parametrize("delta_policy", ["auto", "chain",
                                              "materialize"])
    def test_on_off_fingerprints_match(self, tmp_path, rng, monkeypatch,
                                       delta_policy):
        datas = [rng.integers(0, 1 << 30, (40, 40)).astype(np.int64)]
        for _ in range(3):
            datas.append(datas[-1]
                         + rng.integers(0, 3, (40, 40)).astype(np.int64))
        prints = {}
        for planner in (True, False):
            if not planner:
                # The whole store through the two-pass oracle.
                monkeypatch.setattr(EncodePipeline, "encode_chunk",
                                    encode_oracle.encode_chunk)
                monkeypatch.setattr(EncodePipeline, "can_rebase", False)
            root = tmp_path / f"planner-{planner}"
            manager = VersionedStorageManager(
                root, chunk_bytes=4000, delta_policy=delta_policy)
            manager.create_array("a", ArraySchema.simple(
                datas[0].shape, dtype=datas[0].dtype))
            for data in datas:
                manager.insert("a", data)
            prints[planner] = manager.fingerprint("a")
            stats = manager.stats
            if planner:
                assert stats.encode_plans == stats.encode_tasks
            else:
                assert stats.encode_plans == 0
                assert stats.codec_encodes_avoided == 0
                assert stats.planner_bytes_saved == 0
            manager.close()
        assert prints[True] == prints[False]

    def test_chain_policy_avoids_materialized_encodes(self, tmp_path,
                                                      rng):
        base = rng.integers(0, 100, (64, 64)).astype(np.int64)
        manager = VersionedStorageManager(
            tmp_path / "s", chunk_bytes=8192, delta_policy="chain")
        manager.create_array("a", ArraySchema.simple(
            base.shape, dtype=base.dtype))
        manager.insert("a", base)
        manager.insert("a", base + 1)
        stats = manager.stats
        # Every delta task proved the hybrid smaller than materializing
        # without producing the materialized payload.
        assert stats.codec_encodes_avoided > 0
        assert stats.planner_bytes_saved > 0
        manager.close()
