"""Span recorder: self-time arithmetic and generator-proxy semantics."""

import numpy as np

from repro.core import SchedulerControl, make_queue, persistent_kernel
from repro.bfs.persistent import BFSWorker
from repro.simt import FIJI, KernelContext, SimStats

from spans import SpanRecorder, TimedGenerator, self_times, traced_generator_function


def test_self_time_subtracts_direct_children_only():
    # 0 [0, 10] -> 1 [1, 4] -> 3 [2, 3]
    #           -> 2 [5, 9]
    # 4 [20, 21] (a second root)
    parent = np.array([-1, 0, 0, 1, -1])
    start = np.array([0.0, 1.0, 5.0, 2.0, 20.0])
    end = np.array([10.0, 4.0, 9.0, 3.0, 21.0])
    got = self_times(parent, end - start)
    np.testing.assert_allclose(got, [3.0, 2.0, 4.0, 1.0, 1.0])
    # self times of a tree add up to its root's duration
    assert got[:4].sum() == 10.0


def test_nested_spans_record_parent_and_launch():
    rec = SpanRecorder()
    rec.launch_id = 7
    with rec.span("simt.engine"):
        with rec.span("core.scheduler"):
            with rec.span("core.queue.acquire"):
                pass
        with rec.span("simt.atomics"):
            pass
    name, dur, parent, launch = rec.arrays()
    assert [rec.names[i] for i in name] == [
        "simt.engine", "core.scheduler", "core.queue.acquire", "simt.atomics"]
    assert list(parent) == [-1, 0, 1, 0]
    assert list(launch) == [7, 7, 7, 7]
    assert (dur >= 0).all() and (self_times(parent, dur) >= 0).all()


def test_proxy_passes_return_value_and_records_each_resume():
    rec = SpanRecorder()

    def inner(n):
        total = 0
        for _ in range(n):
            total += yield "op"
        return total

    acquire = traced_generator_function(rec, "core.queue.acquire", inner)

    def kernel():
        got = yield from acquire(3)
        yield got

    gen = kernel()
    assert next(gen) == "op"
    assert gen.send(1) == "op"
    assert gen.send(2) == "op"
    assert gen.send(3) == 6
    # four resumes of the proxy: the first next() and three sends
    assert len(rec.name) == 4
    assert rec.calls[(-1, "core.queue.acquire")] == 1


def test_close_through_yield_from_reaches_the_inner_generator():
    rec = SpanRecorder()
    closed = []

    def inner():
        try:
            while True:
                yield "poll"
        finally:
            closed.append(True)

    publish = traced_generator_function(rec, "core.queue.publish", inner)

    def kernel():
        yield from publish()

    gen = kernel()
    next(gen)
    gen.close()
    assert closed == [True]


def test_kernel_proxy_close_runs_the_scheduler_counter_flush():
    sched = SchedulerControl()
    kernel = persistent_kernel(make_queue("RF/AN", 64), BFSWorker(), sched)
    rec = SpanRecorder()
    traced = traced_generator_function(
        rec, "core.scheduler", kernel, close_name="core.scheduler.close")
    stats = SimStats()
    ctx = KernelContext(
        wf_id=0, n_wavefronts=1, device=FIJI, params={}, stats=stats, probe=None)
    gen = traced(ctx)
    assert isinstance(gen, TimedGenerator)
    gen.send(None)  # the kernel yields its first done-flag poll
    assert "scheduler.work_cycles" not in stats.custom
    gen.close()
    assert stats.custom["scheduler.work_cycles"] == 0
    assert stats.custom["scheduler.idle_lane_cycles"] == 0
    assert [rec.names[i] for i in rec.name] == ["core.scheduler", "core.scheduler.close"]
