"""Automatic encoding choice: materialize vs. delta, and which delta.

Section III-B.3: "if an array would use less space on disk if stored
without delta compression, the system will choose not to use it.  Disk
space usage is calculated by trying both methods and choosing the more
economical one."  Section II-A adds that "delta-ing is performed
automatically by comparing the new version to versions already in the
system" — the user never has to supply the delta-list form to benefit.

:func:`plan_encoding` makes that decision in a single pass: one
:class:`CodePlan` computes the delta, the unsigned code array and its
width statistics exactly once; every candidate is *sized* from the
shared plan (exact sizes, not estimates — the codecs' ``plan_size`` is
byte-accurate), the materialized size is derived analytically under the
identity compressor, and exactly one encoder runs: the winner's, fed
the already-computed codes.  The test suite holds it to the winner,
size and payload bytes of the exhaustive two-pass form (fully encode
the materialized representation *and* every candidate, keep the
smallest), which lives in ``tests/`` as the oracle.

The planner additionally supports **delta-of-delta re-base**: when the
insert path has the base version's chain state (the decoded root plus
the chain's composed-but-unapplied accumulator, a :class:`RebaseState`
produced by the decode pipeline) instead of a reconstructed canvas,
:meth:`CodePlan.build_rebased` plans the new version's codes directly
from that state.  Both delta modes compose associatively and
commutatively — wrapping int64 addition and xor — so the base canvas
is never materialized: ``codes = zigzag(target - root - acc)`` for
arithmetic cells (one fused native pass for int64) and
``codes = bits(target) ^ bits(root) ^ acc`` for floats.  The contract
is byte identity with :meth:`CodePlan.build` over the canvas the state
denotes — same codes, same statistics, same winner, same payload — and
every candidate offered a rebased plan must be ``plan_sufficient``
(it sizes and encodes from the shared arrays, never ``plan.base``,
which a rebased plan does not carry).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from repro.compression.base import Codec, IdentityCodec
from repro.core import native, numeric
from repro.core.errors import CodecError
from repro.core.serial import pack_array_header
from repro.delta.base import DeltaCodec
from repro.delta.codes import CodeStats, codes_to_delta, delta_to_codes
from repro.delta.hybrid import HybridDeltaCodec
from repro.delta.sparse import SparseDeltaCodec


@dataclass(frozen=True)
class EncodingDecision:
    """The outcome of the materialize-or-delta comparison.

    ``delta_codec`` is None when materializing wins; otherwise it names
    the winning delta codec.  ``size`` is the encoded byte count of the
    winning representation and ``parts`` its buffers — the sections the
    encoder produced, carried unjoined so the chunk store can compose
    the payload exactly once at placement.  :attr:`payload` joins them
    for callers that want one byte string; the join is cached, so
    repeated access costs one copy total instead of one per access.
    """

    delta_codec: str | None
    size: int
    parts: tuple[bytes, ...]

    @cached_property
    def payload(self) -> bytes:
        return b"".join(self.parts)

    @property
    def is_delta(self) -> bool:
        return self.delta_codec is not None


@dataclass(frozen=True)
class RebaseState:
    """One chunk's base version as chain-walk state instead of canvas.

    ``root`` is the decoded materialized root (possibly a zero-copy
    read-only view — never written through), ``accumulator`` the
    chain's composed-but-unapplied delta (flat int64 for ARITHMETIC,
    uint64 for XOR; None when the base *is* the root and no deltas sit
    above it), and ``mode`` the compose mode.  Produced by
    ``DecodePipeline.chain_state``; consumed by
    :meth:`CodePlan.build_rebased`.
    """

    root: np.ndarray
    accumulator: np.ndarray | None
    mode: str


@dataclass(frozen=True)
class CodePlan:
    """The shared single-pass state of one chunk's encode.

    Computed once per (target, base) pair and handed to every candidate
    codec: the raw ``delta`` and its ``mode``, the flat unsigned
    ``codes`` the strategies of Section III-B.3 operate on, and the
    code array's :class:`~repro.delta.codes.CodeStats` — the one-pass
    width order statistics (a counting sort over code bit widths) that
    replace the per-candidate ``np.sort`` + ``searchsorted`` the
    two-pass path repeated for every estimator.  Dense width, sparse
    nonzero count and the full hybrid split-cost curve all fall out of
    the same statistics, so sizing a candidate costs arithmetic on a
    65-bucket histogram, not a pass over the chunk.
    """

    target: np.ndarray
    #: The base canvas — None for plans built by delta-of-delta
    #: re-base, which only plan-sufficient codecs may consume.
    base: np.ndarray | None
    mode: str
    codes: np.ndarray
    stats: CodeStats

    @classmethod
    def build(cls, target: np.ndarray, base: np.ndarray) -> "CodePlan":
        numeric.check_same_layout(target, base)
        fused = native.delta_zigzag_stats(target, base)
        if fused is not None:
            # One streaming pass produced the codes and the width
            # histogram together; the raw delta is never materialized
            # (the :attr:`delta` property rebuilds it on demand).
            codes, counts = fused
            return cls(target=target, base=base, mode=numeric.ARITHMETIC,
                       codes=codes,
                       stats=CodeStats.from_width_counts(codes.size,
                                                         counts))
        delta, mode = numeric.compute_delta(target, base)
        codes = delta_to_codes(delta, mode)
        plan = cls(target=target, base=base, mode=mode, codes=codes,
                   stats=CodeStats.from_codes(codes))
        # Seed the lazy property: this path already paid for the delta.
        plan.__dict__["delta"] = delta
        return plan

    @classmethod
    def build_rebased(cls, target: np.ndarray,
                      state: RebaseState) -> "CodePlan":
        """Plan ``target`` against a base given as chain state, without
        reconstructing the base canvas (delta-of-delta re-base).

        The base the state denotes is ``wrap(root + acc)`` cell-wise,
        so the new codes fall out of one fused pass:
        ``zigzag(target - root - acc)`` mod 2**64 for arithmetic cells
        (a single native kernel when the cells are int64; for narrower
        dtypes the parent is canonicalized through the attribute dtype
        — wrap, then re-widen — exactly the value a stepwise apply
        would have stored) and ``bits(target) ^ bits(root) ^ acc`` for
        floats, where xor needs no canonicalization.  Byte-identical
        to ``build(target, base_canvas)``: same codes, same width
        statistics, hence the same candidate sizes and winner.  The
        returned plan carries ``base=None`` — only plan-sufficient
        codecs may size or encode from it.
        """
        accumulator = state.accumulator
        if accumulator is None:
            return cls.build(target, state.root)
        root = state.root
        numeric.check_same_layout(target, root)
        mode = numeric.delta_mode_for(target.dtype)
        if mode != state.mode:
            raise CodecError(
                f"rebase state mode {state.mode!r} does not match "
                f"target dtype {target.dtype} (mode {mode!r})")
        if mode == numeric.ARITHMETIC:
            if target.dtype == np.int64:
                fused = native.rebase_zigzag_stats(
                    np.ascontiguousarray(target).reshape(-1),
                    np.ascontiguousarray(root).reshape(-1),
                    accumulator)
                if fused is not None:
                    codes, counts = fused
                    return cls(target=target, base=None, mode=mode,
                               codes=codes,
                               stats=CodeStats.from_width_counts(
                                   codes.size, counts))
            with np.errstate(over="ignore"):
                parent64 = (root.astype(np.int64, copy=False).reshape(-1)
                            + accumulator)
                # Canonicalize through the attribute dtype: wrap, then
                # re-widen — the exact cell values a stepwise apply
                # would have stored (identity for int64).
                parent64 = parent64.astype(target.dtype) \
                                   .astype(np.int64)
                delta = (target.astype(np.int64, copy=False).reshape(-1)
                         - parent64)
        else:
            # XOR folds bit patterns; the low float-width bits are
            # closed under xor, so no canonicalization is needed.
            folded, _ = numeric.compute_delta(target, root)
            delta = folded.reshape(-1) ^ accumulator
        codes = delta_to_codes(delta, mode)
        plan = cls(target=target, base=None, mode=mode, codes=codes,
                   stats=CodeStats.from_codes(codes))
        plan.__dict__["delta"] = delta.reshape(target.shape)
        return plan

    @cached_property
    def delta(self) -> np.ndarray:
        """The raw delta array, rebuilt from the codes when the fused
        kernel skipped materializing it (codes round-trip exactly)."""
        return codes_to_delta(self.codes,
                              self.mode).reshape(self.target.shape)


@dataclass(frozen=True)
class PlannedEncoding:
    """A planner decision plus what the plan saved over encoding every
    candidate: ``encodes_avoided`` counts representations that were sized
    exactly but never encoded (losing candidates, and the materialized
    form when a delta provably wins under the identity compressor), and
    ``bytes_saved`` is the total size of those never-produced payloads.
    """

    decision: EncodingDecision
    encodes_avoided: int
    bytes_saved: int


def default_delta_candidates() -> tuple[DeltaCodec, ...]:
    """The delta codecs tried by default on the insert path.

    The hybrid codec subsumes dense and sparse in size (its cost search
    includes both extremes), so trying hybrid plus plain sparse keeps the
    insert path fast while matching the paper's behaviour.
    """
    return (HybridDeltaCodec(), SparseDeltaCodec())


@lru_cache(maxsize=256)
def _identity_header_len(dtype_str: str, shape: tuple[int, ...]) -> int:
    """Length of the identity codec's array header, cached per layout
    (the write pipeline sizes the same chunk geometry thousands of
    times)."""
    return len(pack_array_header(np.dtype(dtype_str), shape))


def materialized_size(target: np.ndarray, compressor: Codec
                      ) -> tuple[int, bytes | None]:
    """Exact materialized size, without encoding when provable.

    Under the identity compressor the encoded form is the array header
    plus the raw cell bytes, so its length is arithmetic — the planner
    can rule materialization in or out without producing the payload.
    Any other compressor's output length is data dependent: encode it
    and return the payload alongside so a materialize win reuses it.
    ``type(...) is IdentityCodec`` deliberately excludes subclasses,
    whose ``encode`` may differ.
    """
    if type(compressor) is IdentityCodec:
        # ascontiguousarray (which IdentityCodec applies) promotes 0-d
        # arrays to shape (1,), so the stored header carries one extent.
        shape = target.shape if target.ndim else (1,)
        return _identity_header_len(target.dtype.str, shape) \
            + target.nbytes, None
    encoded = compressor.encode(target)
    return len(encoded), encoded


def plan_encoding(target: np.ndarray, base: np.ndarray | None,
                  compressor: Codec | None = None,
                  candidates: tuple[DeltaCodec, ...] | None = None,
                  *, rebase: RebaseState | None = None
                  ) -> PlannedEncoding:
    """Pick the cheapest representation of ``target`` in a single pass.

    Decision-equivalent and byte-identical to encoding every candidate
    and keeping the smallest (same winner under the same first-strictly-
    smaller tie-break, same size, same payload), but: the delta, code
    array and width statistics are computed once and shared; candidates
    that can size themselves from the plan are never encoded unless
    they win; candidates that cannot (LZ stages, transform codecs) are
    encoded exactly once and their parts cached for the win case; and
    the materialized form is sized analytically under the identity
    compressor, so when a delta wins its payload is never produced.

    ``rebase`` supplies the base as chain state instead of ``base``
    (pass exactly one): the plan comes from
    :meth:`CodePlan.build_rebased`, so the base canvas is never
    reconstructed, and every candidate must be ``plan_sufficient``.
    The decision is byte-identical to planning against the canvas the
    state denotes.
    """
    compressor = compressor or IdentityCodec()
    mat_size, mat_payload = materialized_size(target, compressor)
    if base is None and rebase is None:
        if mat_payload is None:
            mat_payload = compressor.encode(target)
        decision = EncodingDecision(delta_codec=None, size=mat_size,
                                    parts=(mat_payload,))
        return PlannedEncoding(decision=decision, encodes_avoided=0,
                               bytes_saved=0)

    if rebase is not None:
        if base is not None:
            raise CodecError(
                "plan_encoding takes a base canvas or a rebase state, "
                "not both")
        offered = candidates or default_delta_candidates()
        for codec in offered:
            if not codec.plan_sufficient:
                raise CodecError(
                    f"delta codec {codec.name!r} is not plan-sufficient; "
                    "it cannot be offered a rebased plan (no base canvas)")
        plan = CodePlan.build_rebased(target, rebase)
    else:
        plan = CodePlan.build(target, base)
    best_codec: DeltaCodec | None = None
    best_size = mat_size
    best_parts: list[bytes] | None = None
    sized: list[tuple[DeltaCodec, int, list[bytes] | None]] = []
    for codec in candidates or default_delta_candidates():
        size = codec.plan_size(plan)
        parts = None
        if size is None:
            # Data-dependent size: encode once, cache the parts so a
            # win never re-encodes.
            parts = codec.encode_from_plan(plan)
            size = sum(len(part) for part in parts)
        sized.append((codec, size, parts))
        if size < best_size:
            best_codec, best_size, best_parts = codec, size, parts

    encodes_avoided = 0
    bytes_saved = 0
    for codec, size, parts in sized:
        if parts is None and codec is not best_codec:
            encodes_avoided += 1
            bytes_saved += size

    if best_codec is None:
        if mat_payload is None:
            mat_payload = compressor.encode(target)
        decision = EncodingDecision(delta_codec=None, size=mat_size,
                                    parts=(mat_payload,))
    else:
        if mat_payload is None:
            # The cost model proved a delta wins under the identity
            # compressor: the materialized payload is never produced.
            encodes_avoided += 1
            bytes_saved += mat_size
        if best_parts is None:
            best_parts = best_codec.encode_from_plan(plan)
        decision = EncodingDecision(delta_codec=best_codec.name,
                                    size=best_size,
                                    parts=tuple(best_parts))
    return PlannedEncoding(decision=decision,
                           encodes_avoided=encodes_avoided,
                           bytes_saved=bytes_saved)
