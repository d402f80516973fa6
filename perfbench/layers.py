"""Per-layer timing from outside the program.

The traced run wraps the public entry points of each module in a span
recorder; nothing under ``src/`` knows it is being measured.  A span's
*self time* is its duration minus the part covered by its child spans,
so the per-layer self times of one operation add up to the operation's
wall time (less the glue code between layers that no span covers).

Wrappers are installed for the whole traced pass but only record while
:attr:`Tracer.active` is set, which ``run.py`` holds around each timed
operation — data generation, oracle checks and resets between rounds
call into the same modules and must not be charged to any layer.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

#: The layers, in report order; :func:`entry_points` lists what each
#: one wraps.
LAYERS = (
    "query", "cluster", "manager", "encode", "decode", "cache",
    "catalog", "chunkstore", "backend", "delta", "compression",
    "kernels",
)

_KERNELS_NUMERIC = ("scatter_delta_batch", "apply_delta_forward",
                    "seeded_accumulator", "finalize_seeded",
                    "accumulate_delta", "scatter_delta")
_KERNELS_BITPACK = ("pack_unsigned", "unpack_unsigned",
                    "zigzag_encode", "zigzag_decode")


class Tracer:
    """Span recorder: per-layer self time, call counts, and a check
    that no span's children cover more than the span itself."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Calls per wrapped function, by qualified name.
        self.entry_calls: Counter = Counter()
        self.violations = 0
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, layer: str):
        """Record one span of ``layer`` around the block."""
        stack = self._stack()
        children = [0.0]
        stack.append(children)
        start = self.clock()
        try:
            yield
        finally:
            duration = self.clock() - start
            stack.pop()
            own = duration - children[0]
            if own < 0:
                self.violations += 1
            self.self_s[layer] += own
            self.calls[layer] += 1
            if stack:
                stack[-1][0] += duration

    def wrap(self, layer: str, fn):
        """``fn`` recording a ``layer`` span whenever the tracer is
        active; a pass-through otherwise."""
        if inspect.isgeneratorfunction(fn):
            # A generator returns before its work is done; its span
            # would time nothing.
            raise TypeError(f"cannot time generator {fn.__qualname__}")

        name = fn.__qualname__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.entry_calls[name] += 1
            with self.span(layer):
                return fn(*args, **kwargs)

        return traced


def _own_methods(classes, names):
    """(class, name) for every listed method a class or its bases
    define concretely, each defining class once."""
    seen = set()
    for cls in classes:
        for klass in cls.__mro__:
            for name in names:
                fn = vars(klass).get(name)
                if fn is None or not inspect.isfunction(fn) or \
                        getattr(fn, "__isabstractmethod__", False):
                    continue
                if (klass, name) not in seen:
                    seen.add((klass, name))
                    yield klass, name


def entry_points(backend_classes=()) -> list[tuple[object, str, str]]:
    """``(owner, attribute, layer)`` for every entry point the traced
    run wraps.  Module functions are wrapped where their callers look
    them up (``plan_encoding`` is imported by name into the pipeline
    module, so both bindings are replaced)."""
    from repro.cluster import coordinator
    from repro.compression import registry as compression_registry
    from repro.core import bitpack, numeric
    from repro.delta import auto
    from repro.delta import registry as delta_registry
    from repro.query import aql, engine, processor
    from repro.storage import chunkstore, manager, metadata, pipeline

    points = [
        (engine.Database, "execute", "query"),
        (aql, "parse", "query"),
        (processor.QueryProcessor, "select", "query"),
    ]
    points += [(coordinator.ClusterCoordinator, name, "cluster")
               for name in ("insert", "select_region", "select_versions")]
    points += [(manager.VersionedStorageManager, name, "manager")
               for name in ("insert", "select", "select_region",
                            "select_versions_region")]
    points += [(pipeline.EncodePipeline, name, "encode")
               for name in ("write_version", "encode_chunk")]
    points += [(pipeline.DecodePipeline, name, "decode")
               for name in ("read_version", "read_region", "reconstruct",
                            "chain_state")]
    points += [(pipeline.ChunkCache, name, "cache")
               for name in ("get", "peek", "put", "invalidate_array")]
    points += [(metadata.MetadataCatalog, name, "catalog")
               for name in ("get_chunk", "put_chunks", "chunks_for_version",
                            "get_array", "get_version", "latest_version")]
    points += [(chunkstore.ChunkStore, name, "chunkstore")
               for name in ("read_chunks", "write_chunk", "sync_chunks")]
    points += [(klass, name, "backend") for klass, name in _own_methods(
        backend_classes, ("read_many", "read", "append", "write", "sync"))]
    points += [(auto, "plan_encoding", "delta"),
               (pipeline, "plan_encoding", "delta")]
    delta_classes = [type(delta_registry.get_delta_codec(name))
                     for name in delta_registry.delta_codec_names()]
    points += [(klass, name, "delta") for klass, name in _own_methods(
        delta_classes, ("accumulate", "decode_forward", "encode_from_plan"))]
    codec_classes = [type(compression_registry.get_codec(name))
                     for name in compression_registry.codec_names()]
    points += [(klass, name, "compression") for klass, name in _own_methods(
        codec_classes, ("encode", "decode", "decode_view"))]
    points += [(numeric, name, "kernels") for name in _KERNELS_NUMERIC]
    points += [(bitpack, name, "kernels") for name in _KERNELS_BITPACK]
    return points


@contextmanager
def installed(tracer: Tracer, points):
    """Replace every entry point with its traced wrapper for the
    duration of the block, restoring the originals on exit — also when
    the block raises."""
    originals = []
    try:
        for owner, name, layer in points:
            original = vars(owner)[name]
            originals.append((owner, name, original))
            setattr(owner, name, tracer.wrap(layer, original))
        yield
    finally:
        for owner, name, original in reversed(originals):
            setattr(owner, name, original)
