"""Command-line inspector for a versioned array store.

Usage::

    python -m repro.cli <store-root> list
    python -m repro.cli <store-root> info <array>
    python -m repro.cli <store-root> versions <array>
    python -m repro.cli <store-root> chunks <array> <version>
    python -m repro.cli <store-root> layout <array>
    python -m repro.cli <store-root> sql "VERSIONS(Example);"
    python -m repro.cli <store-root> --workers 4 ingest <array> a.npy b.npy

``list`` enumerates arrays; ``info`` prints schema and storage figures;
``versions`` the version history with parentage; ``chunks`` the
per-chunk encoding records of one version (which delta codec, which
base, where on disk); ``layout`` the current materialization structure
as a tree; ``sql`` executes one AQL statement; ``ingest`` appends one
version per ``.npy`` file (creating the array from the first file's
shape and dtype when absent) and reports throughput — ``--workers``
sets the encode *and* decode parallelism, so ingest fans chunk encoding
across the thread pool.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from repro.bench.harness import fmt_bytes, fmt_seconds
from repro.core.errors import StorageError
from repro.core.schema import ArraySchema
from repro.query.engine import Database
from repro.storage.backend import ensure_backend_spec
from repro.storage.pipeline import resolve_workers


def _cmd_list(db: Database, _args) -> int:
    for name in db.manager.list_arrays():
        print(name)
    return 0


def _cmd_info(db: Database, args) -> int:
    props = db.properties(args.array)
    record = db.manager.catalog.get_array(args.array)
    print(f"array:       {args.array}")
    print(f"schema:      {record.schema.to_aql()}")
    print(f"chunk bytes: {record.chunk_bytes}")
    print(f"compressor:  {record.compressor}")
    if record.parent_array:
        print(f"branched:    from {record.parent_array}"
              f"@{record.parent_version}")
    print(f"versions:    {props['versions']}")
    print(f"stored:      {fmt_bytes(props['stored_bytes'])}")
    print(f"logical:     {fmt_bytes(props['logical_bytes'])}")
    print(f"ratio:       {props['compression_ratio']:.2f}x")
    if props["sparsity"] is not None:
        print(f"sparsity:    {props['sparsity']:.2%} empty")
    return 0


def _cmd_versions(db: Database, args) -> int:
    record = db.manager.catalog.get_array(args.array)
    for version in db.manager.catalog.get_versions(record.array_id):
        size = db.manager.stored_bytes(args.array, version.version)
        parent = f" parent=v{version.parent_version}" \
            if version.parent_version else ""
        merge_parents = db.manager.catalog.merge_parents_of(
            record.array_id, version.version)
        merged = f" merged-from={merge_parents}" if merge_parents else ""
        print(f"v{version.version}  kind={version.kind}"
              f"{parent}{merged}  stored={fmt_bytes(size)}")
    return 0


def _cmd_chunks(db: Database, args) -> int:
    record = db.manager.catalog.get_array(args.array)
    chunks = db.manager.catalog.chunks_for_version(record.array_id,
                                                   args.version)
    for chunk in chunks:
        encoding = (f"delta[{chunk.delta_codec}] vs v{chunk.base_version}"
                    if chunk.is_delta else
                    f"materialized[{chunk.compressor}]")
        print(f"{chunk.attribute}/{chunk.chunk_name}  {encoding}  "
              f"{fmt_bytes(chunk.location.length)} at "
              f"{chunk.location.path}+{chunk.location.offset}")
    return 0


def _cmd_layout(db: Database, args) -> int:
    record = db.manager.catalog.get_array(args.array)
    parent_of: dict[int, set[int]] = {}
    roots = []
    for version in db.manager.catalog.get_versions(record.array_id):
        chunks = db.manager.catalog.chunks_for_version(
            record.array_id, version.version)
        bases = {c.base_version for c in chunks if c.is_delta}
        if bases:
            for base in bases:
                parent_of.setdefault(base, set()).add(version.version)
        else:
            roots.append(version.version)

    def render(version: int, indent: int) -> None:
        marker = "M" if indent == 0 else "Δ"
        print("  " * indent + f"{marker} v{version}")
        for child in sorted(parent_of.get(version, ())):
            render(child, indent + 1)

    for root in roots:
        render(root, 0)
    return 0


def _cmd_ingest(db: Database, args) -> int:
    """Append one version per ``.npy`` file, creating the array from
    the first file when it does not exist yet."""
    # Validate before any side effect (the ensure_policy rule): a typo,
    # an unloadable file, or a shape mismatch must fail before the
    # first version is created.  mmap keeps the pass cheap.
    missing = [filename for filename in args.files
               if not Path(filename).is_file()]
    if missing:
        print(f"ingest: no such file: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    shapes = {}
    for filename in args.files:
        try:
            probe = np.load(filename, mmap_mode="r")
        except Exception as exc:
            print(f"ingest: cannot load {filename}: {exc}",
                  file=sys.stderr)
            return 2
        shapes[filename] = (probe.shape, probe.dtype)
    if len(set(shapes.values())) > 1:
        print(f"ingest: files disagree on shape/dtype: {shapes}",
              file=sys.stderr)
        return 2
    manager = db.manager
    total_bytes = 0
    count = 0
    exists = args.array in manager.list_arrays()
    start = time.perf_counter()
    for filename in args.files:
        data = np.load(filename)
        if not exists:
            manager.create_array(
                args.array,
                ArraySchema.simple(data.shape, dtype=data.dtype),
                chunk_bytes=args.chunk_bytes)
            exists = True
        version = manager.insert(args.array, data)
        total_bytes += data.nbytes
        count += 1
        print(f"v{version}  {fmt_bytes(data.nbytes)}  {filename}")
    elapsed = time.perf_counter() - start
    window = manager.stats
    rate = total_bytes / elapsed if elapsed else float("inf")
    print(f"ingested {count} version(s), {fmt_bytes(total_bytes)} in "
          f"{fmt_seconds(elapsed)} ({fmt_bytes(rate)}/s; "
          f"{window.encode_tasks} encode tasks, "
          f"{fmt_bytes(window.bytes_written)} stored)")
    return 0


def _cmd_sql(db: Database, args) -> int:
    result = db.execute(args.statement)
    if result.value is not None:
        print(result.value)
    return 0


def _backend_spec(text: str) -> str:
    """argparse type for ``--backend``: validate the spec *before* the
    store is opened (the ``ensure_policy`` pattern — a bad flag must
    fail before any directory or catalog file is created).  Delegates
    to the storage layer's own validator so the CLI and the
    ``backend=`` kwarg can never drift."""
    try:
        return ensure_backend_spec(text)
    except StorageError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _workers_count(text: str) -> int:
    """argparse type for ``--workers``: delegates to the storage
    layer's own validator so the CLI and the ``workers=`` kwarg can
    never drift."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"workers must be an integer, got {text!r}") from None
    try:
        return resolve_workers(value)
    except StorageError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Inspect a versioned array store.")
    parser.add_argument("root", help="store root directory")
    parser.add_argument("--backend", type=_backend_spec,
                        default="local",
                        help="storage backend for chunk payloads"
                             " (default: local files; 'memory' starts"
                             " an empty ephemeral store;"
                             " 'object[:durable]' is the S3-style"
                             " object store — ranged GETs, multipart"
                             " append; 'striped:<n>[:<child>]' stripes"
                             " objects over n child backends, child in"
                             " {local,durable,memory,object};"
                             " 'faulty:<seed>[:<inner>]' injects a"
                             " deterministic seeded fault schedule"
                             " over an inner backend — seed 0 is"
                             " fault-free)")
    parser.add_argument("--workers", type=_workers_count, default=None,
                        help="parallel chunk encode/reconstruction"
                             " degree, applied to reads and to ingest"
                             " (default: the REPRO_WORKERS environment"
                             " variable, else serial)")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list").set_defaults(func=_cmd_list)

    info = commands.add_parser("info")
    info.add_argument("array")
    info.set_defaults(func=_cmd_info)

    versions = commands.add_parser("versions")
    versions.add_argument("array")
    versions.set_defaults(func=_cmd_versions)

    chunks = commands.add_parser("chunks")
    chunks.add_argument("array")
    chunks.add_argument("version", type=int)
    chunks.set_defaults(func=_cmd_chunks)

    layout = commands.add_parser("layout")
    layout.add_argument("array")
    layout.set_defaults(func=_cmd_layout)

    ingest = commands.add_parser("ingest")
    ingest.add_argument("array")
    ingest.add_argument("files", nargs="+",
                        help=".npy files, one version each")
    ingest.add_argument("--chunk-bytes", type=int, default=None,
                        help="chunk byte budget when the array is"
                             " created by this ingest")
    ingest.set_defaults(func=_cmd_ingest)

    sql = commands.add_parser("sql")
    sql.add_argument("statement")
    sql.set_defaults(func=_cmd_sql)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with Database(args.root, backend=args.backend,
                  workers=args.workers) as db:
        return args.func(db, args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
