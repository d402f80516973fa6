"""Delta encoding of array versions (Section III).

Provides the paper's differencing algorithms — dense, sparse, hybrid
(with optional LZ), the MPEG-2-like block matcher and a BSDiff-style
binary differ — plus automatic materialize-vs-delta selection.
"""

from repro.delta.auto import (
    CodePlan,
    EncodingDecision,
    PlannedEncoding,
    default_delta_candidates,
    plan_encoding,
)
from repro.delta.base import DeltaCodec
from repro.delta.codes import CodeStats
from repro.delta.bsdiff import BSDiffDeltaCodec, suffix_array
from repro.delta.dense import DenseDeltaCodec
from repro.delta.hybrid import HybridDeltaCodec
from repro.delta.mpeg_like import MPEGLikeDeltaCodec
from repro.delta.registry import (
    delta_codec_names,
    get_delta_codec,
    register_delta_codec,
)
from repro.delta.sparse import SparseDeltaCodec

__all__ = [
    "BSDiffDeltaCodec",
    "CodePlan",
    "CodeStats",
    "DeltaCodec",
    "DenseDeltaCodec",
    "EncodingDecision",
    "HybridDeltaCodec",
    "MPEGLikeDeltaCodec",
    "PlannedEncoding",
    "SparseDeltaCodec",
    "default_delta_candidates",
    "plan_encoding",
    "delta_codec_names",
    "get_delta_codec",
    "register_delta_codec",
    "suffix_array",
]
