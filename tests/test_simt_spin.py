"""The engine-resident idle spin (:class:`repro.simt.ops.Spin`).

A kernel that yields a ``Spin`` must simulate bit-identically to the
same kernel yielding the spin's reads one by one: same cycles, same
issued ops, same memory traffic, same values observed.  The toy kernels
here pin the protocol itself (where the engine hands control back and
what ``rounds``/``at`` say); the scheduler-level tests pin that the
persistent kernels' closed-form accounting of skipped iterations
reproduces the per-op loop, with probed launches (which never spin) as
the reference.
"""

from collections import Counter

import numpy as np
import pytest

from repro.bfs import run_persistent_bfs
from repro.core import (
    SchedulerControl,
    ShardedQueue,
    make_queue,
    persistent_kernel,
    sharded_persistent_kernel,
)
from repro.core.queue_adaptive import GrowQueue, SpillQueue
from repro.core.queue_api import DeviceQueue
from repro.core.queue_rfan import RetryFreeQueue
from repro.core.scheduler import K_WORK_CYCLES
from repro.core.state import WavefrontQueueState
from repro.graphs import dataset
from repro.simt import (
    FIJI,
    TESTGPU,
    Compute,
    Engine,
    MemRead,
    MemWrite,
    Probe,
    Spin,
)
from repro.simt import engine as simt_engine
from repro.verify.faults import SkipDnaRestoreQueue
from repro.verify.schedule import RandomController


def _frozen(*vals):
    a = np.array(vals, dtype=np.int64)
    a.setflags(write=False)
    return a


def _poll_kernel(spin, log, stagger=37):
    """Pollers watch ``slots[w]`` (plus an untouched ``flag`` word) until
    a producer — the last wavefront — stores a non-zero value there."""

    def kernel(ctx):
        w = ctx.wf_id
        if w == ctx.n_wavefronts - 1:
            for p in range(ctx.n_wavefronts - 1):
                yield Compute(stagger * (p + 1))
                yield MemWrite("slots", p, p + 100)
            return
        r0 = MemRead("flag", _frozen(0), trans=1, prechecked=True)
        r1 = MemRead("slots", _frozen(w), trans=1, prechecked=True)
        iters = 0
        while True:
            if spin:
                s = Spin((r0, r1))
                yield s
                # the engine hands back right after the first fresh read
                # of the round, every earlier read of it elided.
                assert s.reads[s.at].fresh
                assert not any(r.fresh for r in s.reads[: s.at])
                iters += s.rounds + 1
                if s.at == 0:
                    yield r1
            else:
                yield r0
                iters += 1
                yield r1
            if r1.fresh and int(r1.result[0]):
                break
        log.append((w, iters, int(r1.result[0])))

    return kernel


def _launch(kernel, n_wf, controller=None):
    eng = Engine(TESTGPU)
    eng.memory.alloc("flag", 1, fill=0)
    eng.memory.alloc("slots", 8, fill=0)
    simt_engine.reset_exec_counts()
    res = eng.launch(kernel, n_wf, controller=controller)
    return res, dict(simt_engine.EXEC_COUNTS)


def _sim(res):
    s = res.stats
    return (res.cycles, s.issued_ops, s.mem_reads, s.mem_writes,
            s.mem_transactions, s.cu_busy_cycles, s.compute_cycles)


class TestSpinProtocol:
    @pytest.mark.parametrize("n_wf", [2, 5, 8])
    def test_spin_equals_per_op_loop(self, n_wf):
        """Two wavefronts: every re-issue is inline.  Five or eight share
        CUs, so re-issues also go through the ready queue."""
        spun, plain = [], []
        res_s, ex_s = _launch(_poll_kernel(True, spun), n_wf)
        res_p, ex_p = _launch(_poll_kernel(False, plain), n_wf)
        assert _sim(res_s) == _sim(res_p)
        assert sorted(spun) == sorted(plain)
        assert [v for _w, _i, v in sorted(spun)] == [
            p + 100 for p in range(n_wf - 1)
        ]
        for k in ("reads_vector", "reads_elided"):
            assert ex_s[k] == ex_p[k]
        assert ex_s["resumes"] < ex_p["resumes"]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_controlled_spin_equals_per_op_loop(self, seed):
        spun, plain = [], []
        res_s, _ = _launch(
            _poll_kernel(True, spun), 8, RandomController(seed, hold_prob=0.2)
        )
        res_p, _ = _launch(
            _poll_kernel(False, plain), 8, RandomController(seed, hold_prob=0.2)
        )
        assert _sim(res_s) == _sim(res_p)
        assert sorted(spun) == sorted(plain)

    def test_fresh_first_read_returns_at_zero(self):
        seen = []

        def kernel(ctx):
            if ctx.wf_id == 1:
                yield Compute(200)
                yield MemWrite("flag", 0, 5)
                return
            r0 = MemRead("flag", _frozen(0), trans=1, prechecked=True)
            r1 = MemRead("slots", _frozen(0), trans=1, prechecked=True)
            yield r0
            yield r1
            s = Spin((r0, r1))
            yield s
            seen.append((s.rounds, s.at, int(r0.result[0])))

        _launch(kernel, 2)
        (rounds, at, val), = seen
        assert (at, val) == (0, 5)
        assert rounds > 0

    @pytest.mark.parametrize("limit", [1, 2, 5])
    def test_round_limit_is_never_exceeded(self, limit):
        seen = []

        def kernel(ctx):
            r0 = MemRead("flag", _frozen(0), trans=1, prechecked=True)
            r1 = MemRead("slots", _frozen(0), trans=1, prechecked=True)
            yield r0
            yield r1
            s = Spin((r0, r1), limit)
            yield s
            seen.append((s.rounds, s.at, r1.fresh))

        def reference(ctx):
            for _ in range(limit + 1):
                yield MemRead("flag", _frozen(0), trans=1, prechecked=True)
                yield MemRead("slots", _frozen(0), trans=1, prechecked=True)

        res, _ = _launch(kernel, 1)
        ref, _ = _launch(reference, 1)
        # handed back after the last read of round limit - 1, all elided
        assert seen == [(limit - 1, 1, False)]
        assert res.stats.issued_ops == 2 + 2 * limit
        assert _sim(res) == _sim(ref)

    def test_spin_validates_its_reads(self):
        with pytest.raises(ValueError):
            Spin(())

        def kernel(ctx):
            yield Spin((Compute(1),))

        with pytest.raises(TypeError):
            _launch(kernel, 1)


class _IdleWorker:
    """A worker that never gets a token; it only captures the stats."""

    def __init__(self):
        self.stats = None

    def make_state(self, ctx):
        self.stats = ctx.stats
        return None

    def work_cycle(self, ctx, wstate, st):  # pragma: no cover - no tokens
        raise AssertionError("no task was ever seeded")
        yield


def _wedged_launch(queue, probed, max_work_cycles=60, n_wf=8):
    """Pending says one task is in flight, but no token exists: every
    lane parks and spins until max_work_cycles trips."""
    eng = Engine(TESTGPU)
    sched = SchedulerControl()
    queue.allocate(eng.memory)
    sched.allocate(eng.memory)
    sched.seed(eng.memory, 1)
    worker = _IdleWorker()
    make = sharded_persistent_kernel if queue.variant == "SHARDED" else persistent_kernel
    kern = make(queue, worker, sched)
    simt_engine.reset_exec_counts()
    with pytest.raises(RuntimeError, match="max_work_cycles") as err:
        eng.launch(
            kern, n_wf, params={"max_work_cycles": max_work_cycles},
            probe=Probe() if probed else None,
        )
    return str(err.value), worker.stats, dict(simt_engine.EXEC_COUNTS)


class TestSchedulerSpin:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: make_queue("RF/AN", 256),
            lambda: make_queue("GROW", 256),
            lambda: ShardedQueue(128, n_shards=2, steal=False),
            lambda: ShardedQueue(128, n_shards=2, steal=True, spin_threshold=7),
        ],
        ids=["rfan", "grow", "sharded", "sharded-steal"],
    )
    def test_max_work_cycles_fires_at_the_same_iteration(self, make):
        msg_s, st_s, ex_s = _wedged_launch(make(), probed=False)
        msg_p, st_p, ex_p = _wedged_launch(make(), probed=True)
        assert msg_s == msg_p
        assert st_s == st_p
        assert st_s.custom[K_WORK_CYCLES] > 0
        assert ex_s["resumes"] < ex_p["resumes"]

    def test_probed_launch_never_spins(self):
        _, _, ex = _wedged_launch(make_queue("RF/AN", 256), probed=True)
        # the per-op loop: one resume per issued op, plus each exit
        # attempt — far more than the spinning run needs.
        _, stats, _ = _wedged_launch(make_queue("RF/AN", 256), probed=False)
        assert ex["resumes"] >= stats.issued_ops

    @pytest.mark.parametrize(
        "variant", ["SPILL", "AN", "BASE"]
    )
    def test_variants_without_a_spin_hook(self, variant):
        q = make_queue(variant, 64)
        st = WavefrontQueueState(TESTGPU.wavefront_size)
        assert q.idle_polls(None, st) is None

    def test_overriding_acquire_voids_the_inherited_hook(self):
        class Custom(RetryFreeQueue):
            def acquire(self, ctx, st, spun=0):
                yield from super().acquire(ctx, st, spun)

        class Adapted(Custom):
            def idle_polls(self, ctx, st):
                return None

        assert Custom.idle_polls is DeviceQueue.idle_polls
        # SPILL's acquire pumps before it polls, so it cannot spin.
        assert SpillQueue.idle_polls is DeviceQueue.idle_polls
        assert Adapted.idle_polls is not DeviceQueue.idle_polls
        # GROW and the planted bugs keep RF/AN's acquire, and its spin.
        assert GrowQueue.idle_polls is RetryFreeQueue.idle_polls
        assert SkipDnaRestoreQueue.idle_polls is RetryFreeQueue.idle_polls


@pytest.fixture(scope="module")
def road():
    spec = dataset("USA-road-d.NY")
    return spec.build(spec.default_scale * 0.125), spec.source


def _bfs(road, variant, n_wf, probed, **kw):
    g, src = road
    delivered = Counter()
    grant = WavefrontQueueState.grant

    def recording_grant(self, lanes, tokens):
        delivered.update(np.asarray(tokens).tolist())
        grant(self, lanes, tokens)

    WavefrontQueueState.grant = recording_grant
    try:
        simt_engine.reset_exec_counts()
        run = run_persistent_bfs(
            g, src, variant, FIJI, n_wf, verify=True,
            probe=Probe() if probed else None, **kw,
        )
    finally:
        WavefrontQueueState.grant = grant
    return run, delivered, dict(simt_engine.EXEC_COUNTS)


class TestBfsSpin:
    @pytest.mark.parametrize("variant", ["RF/AN", "GROW"])
    def test_four_wavefronts_per_cu_equal_probed_run(self, road, variant):
        run_s, got_s, ex_s = _bfs(road, variant, 224, probed=False)
        run_p, got_p, ex_p = _bfs(road, variant, 224, probed=True)
        assert run_s.cycles == run_p.cycles
        assert run_s.stats == run_p.stats
        assert got_s == got_p
        assert ex_s["reads_elided"] == ex_p["reads_elided"]
        assert ex_s["resumes"] < ex_p["resumes"] // 10

    def test_sharded_with_stealing_equals_probed_run(self, road):
        def factory(cap):
            return ShardedQueue(
                cap // 4 + 512, n_shards=4, steal=True, steal_quantum=32,
                spin_threshold=16,
            )

        run_s, got_s, ex_s = _bfs(
            road, "SHARDED", 56, probed=False, queue_factory=factory
        )
        run_p, got_p, ex_p = _bfs(
            road, "SHARDED", 56, probed=True, queue_factory=factory
        )
        assert run_s.cycles == run_p.cycles
        assert run_s.stats == run_p.stats
        assert got_s == got_p
        assert run_s.stats.custom["queue.steal_attempts"] > 0
        # spins stop at the steal threshold, and a wavefront whose
        # steals come back empty steals every cycle, so few spins remain.
        assert ex_s["resumes"] < ex_p["resumes"]

    @pytest.mark.parametrize(
        "variant, factory, pins",
        [
            ("RF/AN", None, (517_412, 168_403, 164_924, 1_495, 3_685)),
            # the bfs_grow bench configuration: 512-slot pool segments.
            (
                "GROW",
                lambda cap: GrowQueue(cap, seg_cap=512),
                (532_268, 180_387, 176_607, 1_670, 3_981),
            ),
        ],
        ids=["RF/AN", "GROW"],
    )
    def test_road_host_counts_are_pinned(self, road, variant, factory, pins):
        """The bench launches (road graph, 56 WGs): their deterministic
        host counters.  ~98% of their reads are elided re-polls, which
        the engine re-issues without resuming the kernel generator."""
        kw = {} if factory is None else {"queue_factory": factory}
        run, _, ex = _bfs(road, variant, 56, probed=False, **kw)
        assert (
            run.cycles, run.stats.issued_ops, ex["reads_elided"],
            ex["reads_vector"], ex["resumes"],
        ) == pins
