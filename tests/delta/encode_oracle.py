"""The two-pass encode oracle the single-pass planner is held to.

Section III-B.3 chooses between materializing and delta-ing "by trying
both methods and choosing the more economical one".
:func:`choose_encoding` does exactly that: fully encode the
materialized representation *and* every candidate delta codec, keep the
smallest.  Every loser's payload is thrown away and each candidate
recomputes the same delta and width statistics, which is why the store
runs :func:`repro.delta.auto.plan_encoding` instead; the planner must
pick the same winner and produce the same bytes.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import Codec, IdentityCodec
from repro.delta.auto import EncodingDecision, default_delta_candidates
from repro.delta.base import DeltaCodec


def choose_encoding(target: np.ndarray, base: np.ndarray | None,
                    compressor: Codec | None = None,
                    candidates: tuple[DeltaCodec, ...] | None = None,
                    ) -> EncodingDecision:
    """Pick the cheapest representation of ``target`` (two-pass form).

    ``base`` is the version the optimizer proposes to delta against
    (None forces materialization).  ``compressor`` is applied to the
    materialized representation; delta payloads carry their own optional
    LZ stage.
    """
    compressor = compressor or IdentityCodec()
    materialized = compressor.encode(target)
    best = EncodingDecision(delta_codec=None, size=len(materialized),
                            parts=(materialized,))
    if base is None:
        return best

    for codec in candidates or default_delta_candidates():
        parts = codec.encode_parts(target, base)
        size = sum(len(part) for part in parts)
        if size < best.size:
            best = EncodingDecision(delta_codec=codec.name,
                                    size=size, parts=tuple(parts))
    return best


def encode_chunk(pipeline, target: np.ndarray, base: np.ndarray | None,
                 compressor, *, rebase=None) -> EncodingDecision:
    """Drop-in for :meth:`EncodePipeline.encode_chunk` through the
    oracle: same policy and candidates, no planner counters.  It needs
    the base canvas, so re-base must be patched off alongside it."""
    assert rebase is None
    if not pipeline.wants_base:
        base = None
    return choose_encoding(target, base, compressor=compressor,
                           candidates=pipeline.delta_candidates)
