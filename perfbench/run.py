"""Run one benchmark workload against the versioned array store.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
                             --trace <0|1>

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the loop runs for ``--seconds`` — longer if needed
to reach 100 samples of every op kind — rebuilding the workload's store
every few seconds between rounds (the median build is ``setup_s``), and
the end-to-end metrics are printed.  With ``--trace 1`` two identical stores are
built; the same op stream runs on one untraced and on the other with
every layer's entry points wrapped, and the per-layer metrics are
printed.  The two passes must return the same bytes and the same
``IOStats`` counts, op for op.

Every line but the last is for people (metrics with units and sample
counts, and a ``run_record`` line); the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 1 when any read returned wrong bytes or the passes disagreed,
2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import ExitStack
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from layers import LAYERS, Tracer, entry_points, installed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: An untraced run builds its starting store afresh between rounds about
#: every ``REBUILD_SECONDS``, repeating each build for at least
#: ``BUILD_BURST_SECONDS``; ``setup_s`` is the median build.  Spreading
#: the builds over the run averages them over the machine's slow drifts
#: in speed, as the loop's own samples are.
REBUILD_SECONDS = 2.0
BUILD_BURST_SECONDS = 0.2
#: Hard stop for the loop, well inside the 180 s a run may take.
MAX_LOOP_SECONDS = 120.0


@dataclass
class OpRecord:
    kind: str
    seconds: float
    counters: tuple
    ok: bool
    error: str | None
    nbytes_in: int
    nbytes_out: int


@dataclass
class Pass:
    records: list
    rounds: int
    stored: int
    logical: int


def execute(op, sources, counter_names, tracer=None) -> OpRecord:
    """Time one op; its ``IOStats`` deltas are summed over ``sources``.
    Everything but the program call stays outside the timed region."""
    error = result = None
    with ExitStack() as stack:
        windows = [stack.enter_context(source.measure())
                   for source in sources]
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # counted and reported, loop goes on
            error = f"{type(exc).__name__}: {exc}"
        finally:
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
    counters = tuple(sum(getattr(window, name) for window in windows)
                     for name in counter_names)
    ok = error is None and op.check(result)
    nbytes_out = 0
    if error is None and op.kind != "insert":
        nbytes_out = np.asarray(result).nbytes
    return OpRecord(op.kind, seconds, counters, ok, error, op.nbytes,
                    nbytes_out)


def run_loop(workload, built, *, seconds=None, rounds=None,
             need_samples=False, tracer=None, rebuild=None) -> Pass:
    """Run whole rounds until ``rounds`` are done, or until ``seconds``
    have passed (and, with ``need_samples``, every loop op kind has its
    minimum sample count).  ``rebuild()``, when given, replaces the
    store with a freshly built one between rounds every
    ``REBUILD_SECONDS``; every build holds the same contents, and each
    round after the first starts from its own fresh arrays."""
    from repro.storage.iostats import IOStats

    counter_names = [field.name for field in fields(IOStats)]
    sources = workload.stats_sources(built.handle)
    records: list[OpRecord] = []
    stored = logical = 0
    start = built_at = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        if rounds is not None:
            if index >= rounds:
                break
        elif index and (elapsed >= MAX_LOOP_SECONDS or (
                elapsed >= seconds and not (need_samples and any(
                    sum(r.kind == kind for r in records)
                    < workload.min_samples
                    for kind in workload.loop_kinds)))):
            break
        if rebuild is not None and index and \
                time.perf_counter() - built_at >= REBUILD_SECONDS:
            built = rebuild()
            sources = workload.stats_sources(built.handle)
            built_at = time.perf_counter()
        for op in workload.round(built.handle, built.histories, index):
            records.append(execute(op, sources, counter_names, tracer))
        stored += workload.space(built.handle, built.histories)
        logical += sum(history.head * history.root.nbytes
                       for history in built.histories.values())
        index += 1
    return Pass(records, index, stored, logical)


def percentile(values, q):
    return float(np.percentile(np.asarray(values), q))


def fit(xs, ys):
    """Least-squares slope of ``ys`` on ``xs`` and its r²; (0, 0) when
    ``xs`` does not vary."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if len(x) < 2 or np.ptp(x) == 0 or np.ptp(y) == 0:
        return 0.0, 0.0
    slope, intercept = np.polyfit(x, y, 1)
    residual = y - (slope * x + intercept)
    r2 = 1.0 - float(residual @ residual) / float(((y - y.mean()) ** 2).sum())
    return float(slope), r2


class Report:
    """Collects metrics; prints the human lines as they arrive."""

    def __init__(self):
        self.metrics: dict[str, dict] = {}

    def add(self, name, value, unit, samples=None):
        self.metrics[name] = {"value": float(value), "unit": unit}
        count = "" if samples is None else f"  (n={samples})"
        print(f"{name:42s} {value:14.6f} {unit}{count}")


def end_to_end(workload, setups, loop: Pass, report: Report) -> None:
    by_kind = {kind: [r for r in loop.records if r.kind == kind]
               for kind in ("insert", "point_read", "version_read",
                            "stack_read")}
    report.add("setup_s", statistics.median(b.setup_s for b in setups),
               "s", len(setups))
    loop_s = sum(r.seconds for r in loop.records)
    report.add("ops_per_s", len(loop.records) / loop_s, "1/s",
               len(loop.records))
    inserts = [(r.seconds, r.nbytes_in) for r in by_kind["insert"]]
    if not inserts:
        # A read-only loop: its inserts are the ones that built the
        # store, over every set-up of the run.
        inserts = [(seconds, built.insert_bytes / len(built.insert_s))
                   for built in setups for seconds in built.insert_s]
    report.add("ingest_mb_s", sum(n for _, n in inserts) / 1e6
               / sum(s for s, _ in inserts), "MB/s", len(inserts))
    latencies = {"insert": [s for s, _ in inserts]}
    latencies.update({kind: [r.seconds for r in records]
                      for kind, records in by_kind.items()
                      if kind != "insert"})
    for kind, values in latencies.items():
        for q in (50, 90):
            report.add(f"{kind}_p{q}_ms", percentile(values, q) * 1e3,
                       "ms", len(values))
    report.add("space_amp", loop.stored / loop.logical, "B/B", loop.rounds)
    report.add("peak_rss_mb",
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               "MB")


def per_layer(plain: Pass, traced: Pass, tracer, report: Report) -> None:
    from repro.storage.iostats import IOStats

    names = [field.name for field in fields(IOStats)]
    ops = len(traced.records)

    def total(name, records=traced.records):
        index = names.index(name)
        return sum(r.counters[index] for r in records)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    for layer in LAYERS:
        report.add(f"{layer}.self_ms",
                   tracer.self_s.get(layer, 0.0) * 1e3 / ops, "ms", ops)
        report.add(f"{layer}.calls", tracer.calls[layer] / ops, "count",
                   ops)
    reads = [r for r in traced.records if r.kind != "insert"]
    inserts = [r for r in traced.records if r.kind == "insert"]
    report.add("io.chunks_read_per_op", total("chunks_read") / ops,
               "count", ops)
    report.add("io.file_opens_per_op", total("file_opens") / ops, "count",
               ops)
    report.add("io.bytes_read_per_byte_returned",
               ratio(total("bytes_read", reads),
                     sum(r.nbytes_out for r in reads)), "B/B", len(reads))
    report.add("io.bytes_written_per_byte_ingested",
               ratio(total("bytes_written", inserts),
                     sum(r.nbytes_in for r in inserts)), "B/B",
               len(inserts))
    hits = total("cache_hits")
    report.add("cache.hit_ratio", ratio(hits, hits + total("cache_misses")),
               "ratio", ops)
    report.add("decode.fused_ratio",
               ratio(total("chains_fused"),
                     tracer.entry_calls["DecodePipeline.reconstruct"]),
               "ratio", ops)
    tasks = total("encode_tasks")
    report.add("encode.rebase_ratio", ratio(total("encode_rebases"), tasks),
               "ratio", tasks)
    report.add("encode.encodes_avoided_per_task",
               ratio(total("codec_encodes_avoided"), tasks), "count", tasks)
    report.add("cluster.replica_writes_per_insert",
               ratio(total("replica_writes"), len(inserts)), "count",
               len(inserts))
    report.add("cluster.failovers", total("failovers"), "count", ops)
    chunks = names.index("chunks_read")
    groups = {"": [r for r in plain.records if r.kind != "insert"]}
    groups.update({f"{kind}.": [r for r in plain.records if r.kind == kind]
                   for kind in ("insert", "point_read", "version_read",
                                "stack_read")})
    for prefix, records in groups.items():
        slope, r2 = fit([r.counters[chunks] for r in records],
                        [r.seconds * 1e3 for r in records])
        report.add(f"proxy.{prefix}ms_per_chunk_read", slope, "ms/chunk",
                   len(records))
        report.add(f"proxy.{prefix}r2", r2, "ratio", len(records))
    report.add("trace.overhead_ratio",
               sum(r.seconds for r in traced.records)
               / sum(r.seconds for r in plain.records), "ratio", ops)


def run_record(args, workload, handle) -> dict:
    from repro.core import native
    from repro.storage import pipeline

    manager = workload.managers(handle)[0]
    env = {key: value for key, value in sorted(os.environ.items())
           if key.startswith("REPRO_")}
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "native": native.available(),
        "workers": pipeline.resolve_workers(None),
        "fuse_chains": manager.fuse_chains,
        "planner": manager.planner,
        "backend": manager.backend.name,
        "repro_env": env,
    }
    if env:
        print("warning: REPRO_* settings in the environment change what "
              f"is measured: {env}", file=sys.stderr)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    report = Report()
    try:
        if args.trace:
            correct, records = traced_run(args, workload, work, report)
        else:
            correct, records = plain_run(args, workload, work, report)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    errors = [r for r in records if r.error is not None]
    wrong = [r for r in records if r.error is None and not r.ok]
    for r in (errors + wrong)[:5]:
        print(f"failed {r.kind}: {r.error or 'wrong bytes'}",
              file=sys.stderr)
    print(f"{'error_rate':42s} "
          f"{(len(errors) + len(wrong)) / len(records):14.6f} ratio"
          f"  (n={len(records)})")
    correct = correct and not wrong
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": len(errors) + len(wrong),
                      "metrics": report.metrics}))
    return 0 if correct else 1


def plain_run(args, workload, work, report):
    setups = []

    def rebuild():
        started = time.perf_counter()
        while not setups or \
                time.perf_counter() - started < BUILD_BURST_SECONDS:
            if setups:
                # Keep only the costs of a store no longer used.
                workload.close(setups[-1].handle)
                setups[-1] = replace(setups[-1], handle=None, histories={})
            setups.append(workload.build(work / "setup"))
        return setups[-1]

    try:
        built = rebuild()
        print("run_record", json.dumps(run_record(args, workload,
                                                  built.handle)))
        loop = run_loop(workload, built, seconds=args.seconds,
                        need_samples=True, rebuild=rebuild)
        end_to_end(workload, setups, loop, report)
    finally:
        if setups and setups[-1].handle is not None:
            workload.close(setups[-1].handle)
    return True, loop.records


def traced_run(args, workload, work, report):
    plain_built = workload.build(work / "plain")
    traced_built = workload.build(work / "traced")
    try:
        print("run_record", json.dumps(run_record(args, workload,
                                                  plain_built.handle)))
        plain = run_loop(workload, plain_built, seconds=args.seconds / 2)
        tracer = Tracer()
        backends = {type(manager.backend) for manager in
                    workload.managers(traced_built.handle)}
        with installed(tracer, entry_points(backends)):
            traced = run_loop(workload, traced_built, rounds=plain.rounds,
                              tracer=tracer)
        same = [(r.kind, r.ok, r.counters) for r in plain.records] == \
            [(r.kind, r.ok, r.counters) for r in traced.records]
        if not same:
            print("traced and untraced passes disagree", file=sys.stderr)
        if tracer.violations:
            print(f"{tracer.violations} spans shorter than their children",
                  file=sys.stderr)
        per_layer(plain, traced, tracer, report)
    finally:
        workload.close(plain_built.handle)
        workload.close(traced_built.handle)
    return same and not tracer.violations, plain.records + traced.records


if __name__ == "__main__":
    sys.exit(main())
