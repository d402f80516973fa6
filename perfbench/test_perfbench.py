"""Self-tests of the benchmark's tracer and run loop.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from layers import LAYERS, Tracer, entry_points, installed
from workloads import WORKLOADS


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("outer"):          # 0 .. 10
        clock.now = 2.0
        with tracer.span("mid"):        # 2 .. 5
            clock.now = 3.0
            with tracer.span("inner"):  # 3 .. 4
                clock.now = 4.0
            clock.now = 5.0
        clock.now = 6.0
        with tracer.span("mid"):        # 6 .. 8
            clock.now = 8.0
        clock.now = 10.0
    assert tracer.self_s == {"outer": 5.0, "mid": 4.0, "inner": 1.0}
    assert tracer.calls == {"outer": 1, "mid": 2, "inner": 1}
    assert sum(tracer.self_s.values()) == 10.0
    assert tracer.violations == 0


def test_children_covering_more_than_parent_is_flagged():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("outer"):
        with tracer.span("inner"):
            clock.now = 2.0
        clock.now = 1.0  # a clock running backwards
    assert tracer.violations == 1


def test_wrappers_record_only_while_active():
    tracer = Tracer()
    double = tracer.wrap("kernels", lambda x: 2 * x)
    assert double(2) == 4
    assert not tracer.calls
    tracer.active = True
    assert double(3) == 6
    assert tracer.calls == {"kernels": 1}


def _bindings(points):
    return [vars(owner)[name] for owner, name, _ in points]


def test_every_wrapper_is_removed_even_on_error():
    from repro.storage.backend import LocalFileBackend

    points = entry_points({LocalFileBackend})
    before = _bindings(points)
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with installed(tracer, points):
            during = _bindings(points)
            assert all(a is not b for a, b in zip(before, during))
            raise RuntimeError("stop mid-run")
    after = _bindings(points)
    assert all(a is b for a, b in zip(before, after))
    assert {layer for _, _, layer in points} == set(LAYERS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_pass_matches_untraced_pass(name, tmp_path):
    """Same seed, same rounds: identical results (both match the
    oracle) and identical ``IOStats`` counts, op for op."""
    workload = WORKLOADS[name](seed=7)
    plain_built = workload.build(tmp_path / "plain")
    traced_built = workload.build(tmp_path / "traced")
    try:
        plain = run.run_loop(workload, plain_built, rounds=1)
        tracer = Tracer()
        backends = {type(manager.backend) for manager in
                    workload.managers(traced_built.handle)}
        with installed(tracer, entry_points(backends)):
            traced = run.run_loop(workload, traced_built, rounds=1,
                                  tracer=tracer)
    finally:
        workload.close(plain_built.handle)
        workload.close(traced_built.handle)
    assert plain.records and all(r.ok for r in plain.records)
    assert all(r.ok for r in traced.records)
    assert [(r.kind, r.counters) for r in plain.records] == \
        [(r.kind, r.counters) for r in traced.records]
    assert tracer.violations == 0
    assert tracer.calls["manager"] + tracer.calls["cluster"] > 0
    traced_s = sum(r.seconds for r in traced.records)
    assert sum(tracer.self_s.values()) <= traced_s


def test_refuses_to_run_without_the_program(tmp_path):
    bench = Path(run.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / bench.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{bench.name}/run.py", "--workload", "ingest",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
