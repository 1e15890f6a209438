"""Integration tests for the three device-queue variants.

Each variant is exercised through small dedicated kernels (producer /
consumer / mixed) on the simulated GPU, checking the safety properties
the paper relies on:

* every enqueued token is dequeued exactly once (no loss, no duplication);
* RF/AN performs zero CAS operations (retry-free);
* RF/AN issues exactly one proxy atomic per wavefront batch (arbitrary-n);
* queue-full aborts the kernel;
* the queue-empty exception semantics differ per variant as specified.
"""

import numpy as np
import pytest

from repro import simt
from repro.core import (
    DNA,
    FRONT,
    REAR,
    QUEUE_VARIANTS,
    QueueFull,
    WavefrontQueueState,
    make_queue,
)
from repro.simt import Compute, Engine, KernelAbort, QueueFullError

ALL_VARIANTS = sorted(QUEUE_VARIANTS)


def drain_kernel(queue, out_buf, rounds):
    """Kernel: every lane tries to acquire; tokens recorded to out_buf."""

    def kernel(ctx):
        st = WavefrontQueueState(ctx.device.wavefront_size)
        got = []
        for _ in range(rounds):
            yield from queue.acquire(ctx, st)
            lanes = np.flatnonzero(st.has_token)
            for lane in lanes:
                got.append(int(st.token[lane]))
            st.complete(lanes)
            yield Compute(4)
        base = ctx.wf_id * 1000
        if got:
            idx = base + np.arange(len(got), dtype=np.int64)
            yield simt.MemWrite(out_buf, idx, np.array(got, dtype=np.int64))

    return kernel


class TestSeedAndDrain:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_tokens_consumed_exactly_once(self, variant, testgpu):
        eng = Engine(testgpu)
        q = make_queue(variant, capacity=256)
        q.allocate(eng.memory)
        tokens = list(range(100, 140))
        q.seed(eng.memory, tokens)
        eng.memory.alloc("out", 8000, fill=-1)
        eng.launch(drain_kernel(q, "out", rounds=60), 4)
        out = eng.memory["out"]
        got = sorted(int(v) for v in out[out >= 0])
        assert got == sorted(tokens)

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_seed_sets_counters(self, variant, testgpu):
        eng = Engine(testgpu)
        q = make_queue(variant, capacity=64)
        q.allocate(eng.memory)
        q.seed(eng.memory, [5, 6, 7])
        ctrl = eng.memory[q.buf_ctrl]
        assert ctrl[FRONT] == 0
        assert ctrl[REAR] == 3

    def test_seed_overflow_rejected(self, testgpu):
        eng = Engine(testgpu)
        q = make_queue("RF/AN", capacity=2)
        q.allocate(eng.memory)
        with pytest.raises(QueueFull):
            q.seed(eng.memory, [1, 2, 3])

    def test_seed_negative_token_rejected(self, testgpu):
        eng = Engine(testgpu)
        q = make_queue("RF/AN", capacity=8)
        q.allocate(eng.memory)
        with pytest.raises(ValueError):
            q.seed(eng.memory, [-3])


class TestProduceConsume:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_kernel_side_publish_then_drain(self, variant, testgpu):
        """Wavefront 0 publishes tokens; all wavefronts drain them."""
        eng = Engine(testgpu)
        q = make_queue(variant, capacity=512)
        q.allocate(eng.memory)
        eng.memory.alloc("out", 8000, fill=-1)
        wf = testgpu.wavefront_size
        per_lane = 3

        def kernel(ctx):
            st = WavefrontQueueState(wf)
            if ctx.wf_id == 0:
                counts = np.full(wf, per_lane, dtype=np.int64)
                toks = (
                    np.arange(wf * per_lane, dtype=np.int64).reshape(wf, per_lane)
                    + 1000
                )
                yield from q.publish(ctx, st, counts, toks)
            got = []
            for _ in range(80):
                yield from q.acquire(ctx, st)
                lanes = np.flatnonzero(st.has_token)
                got.extend(int(t) for t in st.token[lanes])
                st.complete(lanes)
                yield Compute(2)
            if got:
                idx = ctx.wf_id * 1000 + np.arange(len(got), dtype=np.int64)
                yield simt.MemWrite("out", idx, np.array(got, dtype=np.int64))

        eng.launch(kernel, 4)
        out = eng.memory["out"]
        got = sorted(int(v) for v in out[out >= 0])
        assert got == list(range(1000, 1000 + wf * per_lane))

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_publish_nothing_is_free(self, variant, testgpu):
        eng = Engine(testgpu)
        q = make_queue(variant, capacity=32)
        q.allocate(eng.memory)

        def kernel(ctx):
            st = WavefrontQueueState(ctx.device.wavefront_size)
            counts = np.zeros(ctx.device.wavefront_size, dtype=np.int64)
            toks = np.zeros((ctx.device.wavefront_size, 1), dtype=np.int64)
            yield from q.publish(ctx, st, counts, toks)
            yield Compute(1)

        res = eng.launch(kernel, 1)
        assert res.stats.total_atomic_requests == 0


class TestQueueFull:
    # SPILL is exempt by design: past the high-water mark it dead-drops
    # into the host overflow ring instead of aborting (see the
    # dedicated test below and docs/capacity.md).
    @pytest.mark.parametrize(
        "variant", [v for v in ALL_VARIANTS if v != "SPILL"]
    )
    def test_publish_past_capacity_aborts(self, variant, testgpu):
        eng = Engine(testgpu)
        q = make_queue(variant, capacity=4)
        q.allocate(eng.memory)
        wf = testgpu.wavefront_size

        def kernel(ctx):
            st = WavefrontQueueState(wf)
            counts = np.full(wf, 2, dtype=np.int64)  # 16 tokens > capacity 4
            toks = np.ones((wf, 2), dtype=np.int64)
            yield from q.publish(ctx, st, counts, toks)

        with pytest.raises(KernelAbort, match="full"):
            eng.launch(kernel, 1)

    def test_steal_republish_past_home_capacity_aborts(self, testgpu):
        """A thief whose home shard is full aborts with queue-full at the
        republish, naming the home shard."""
        from repro.core import ShardedQueue

        eng = Engine(testgpu)
        q = ShardedQueue(4, n_shards=2, steal_quantum=4, spin_threshold=0)
        q.allocate(eng.memory)
        q.seed(eng.memory, range(8))  # both shards at Rear == capacity

        def kernel(ctx):
            st = WavefrontQueueState(ctx.device.wavefront_size)
            # 1st: home grants its 4 tokens, the other lanes park beyond
            # capacity; 2nd: nothing arrives, so the wavefront steals
            # the victim's 4 tokens and republishes them at home.
            for _ in range(2):
                yield from q.acquire(ctx, st)

        with pytest.raises(QueueFullError, match="beyond capacity") as exc:
            eng.launch(kernel, 1)
        assert exc.value.info()["queue"] == "wq.s0"

    def test_spill_absorbs_overflow_instead_of_aborting(self, testgpu):
        eng = Engine(testgpu)
        q = make_queue("SPILL", capacity=4)
        q.allocate(eng.memory)
        wf = testgpu.wavefront_size

        def kernel(ctx):
            st = WavefrontQueueState(wf)
            counts = np.full(wf, 2, dtype=np.int64)  # 16 tokens > capacity 4
            toks = np.ones((wf, 2), dtype=np.int64)
            yield from q.publish(ctx, st, counts, toks)

        res = eng.launch(kernel, 1)  # must not abort
        spilled = res.stats.custom.get("queue.spill.tokens", 0)
        assert spilled > 0, "overflow should land in the host ring"


class TestVariantProperties:
    def test_rfan_is_retry_free(self, testgpu):
        """RF/AN must issue zero CAS requests, ever."""
        eng = Engine(testgpu)
        q = make_queue("RF/AN", capacity=256)
        q.allocate(eng.memory)
        q.seed(eng.memory, range(32))
        eng.memory.alloc("out", 8000, fill=-1)
        res = eng.launch(drain_kernel(q, "out", rounds=40), 4)
        assert res.stats.cas_attempts == 0
        assert res.stats.cas_failures == 0
        assert res.stats.custom.get("queue.empty_exceptions", 0) == 0

    def test_base_and_an_use_cas(self, testgpu):
        for variant in ("BASE", "AN"):
            eng = Engine(testgpu)
            q = make_queue(variant, capacity=256)
            q.allocate(eng.memory)
            q.seed(eng.memory, range(32))
            eng.memory.alloc("out", 8000, fill=-1)
            res = eng.launch(drain_kernel(q, "out", rounds=40), 4)
            assert res.stats.cas_attempts > 0, variant

    def test_arbitrary_n_single_atomic_per_batch(self, testgpu):
        """One RF/AN acquire for a whole hungry wavefront = 1 global atomic."""
        eng = Engine(testgpu)
        q = make_queue("RF/AN", capacity=64)
        q.allocate(eng.memory)
        q.seed(eng.memory, range(8))

        def kernel(ctx):
            st = WavefrontQueueState(ctx.device.wavefront_size)
            yield from q.acquire(ctx, st)

        res = eng.launch(kernel, 1)
        assert res.stats.atomic_requests.get("add", 0) == 1

    def test_base_flags_set(self):
        q = make_queue("BASE", 8)
        assert not q.retry_free and not q.arbitrary_n
        q = make_queue("AN", 8)
        assert not q.retry_free and q.arbitrary_n
        q = make_queue("RF/AN", 8)
        assert q.retry_free and q.arbitrary_n

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown queue variant"):
            make_queue("FANCY", 8)

    def test_rfan_overshoot_slots_wait_for_data(self, testgpu):
        """Hungry lanes past Rear park on slots and get fed by a later
        publish — the refactored queue-empty exception of §4.2."""
        eng = Engine(testgpu)
        q = make_queue("RF/AN", capacity=128)
        q.allocate(eng.memory)
        eng.memory.alloc("out", 8000, fill=-1)
        wf = testgpu.wavefront_size

        def consumer(ctx):
            st = WavefrontQueueState(wf)
            got = []
            for _ in range(300):
                yield from q.acquire(ctx, st)
                lanes = np.flatnonzero(st.has_token)
                got.extend(int(t) for t in st.token[lanes])
                st.complete(lanes)
                yield Compute(2)
            if got:
                idx = ctx.wf_id * 1000 + np.arange(len(got), dtype=np.int64)
                yield simt.MemWrite("out", idx, np.array(got, dtype=np.int64))

        def producer_then_consume(ctx):
            st = WavefrontQueueState(wf)
            yield Compute(2000)  # let consumers overshoot first
            counts = np.zeros(wf, dtype=np.int64)
            counts[0] = 5
            toks = np.zeros((wf, 5), dtype=np.int64)
            toks[0] = np.arange(5) + 77
            yield from q.publish(ctx, st, counts, toks)

        def kernel(ctx):
            if ctx.wf_id == 0:
                yield from producer_then_consume(ctx)
            else:
                yield from consumer(ctx)

        eng.launch(kernel, 3)
        out = eng.memory["out"]
        got = sorted(int(v) for v in out[out >= 0])
        assert got == [77, 78, 79, 80, 81]


class TestShardedStealCounters:
    """Steal-path instrumentation on a real multi-shard run.

    The per-victim stall counters and the claimed-batch-size histogram
    (`queue.steal_batch.<m>`) are documented in docs/sharding.md; this
    pins their presence and internal consistency on a workload that is
    imbalanced enough to actually steal.
    """

    @pytest.fixture(scope="class")
    def sharded_run(self):
        from repro.bfs.common import bfs_queue_capacity
        from repro.bfs.persistent import run_persistent_bfs
        from repro.core import ShardedQueue
        from repro.graphs import social_graph
        from repro.simt import TESTGPU

        g = social_graph(300, 8, seed=2)
        cap = bfs_queue_capacity(g, TESTGPU, 4)
        run = run_persistent_bfs(
            g, 0, "SHARDED", TESTGPU, 4, verify=True,
            queue_factory=lambda c: ShardedQueue(
                c, n_shards=4, steal=True, steal_quantum=8,
            ),
            capacity=cap,
        )
        return run

    def test_steals_happened(self, sharded_run):
        custom = sharded_run.stats.custom
        assert custom.get("queue.steal_attempts", 0) > 0
        assert custom.get("queue.stolen_tokens", 0) > 0

    def test_batch_histogram_is_bounded_and_conserves_tokens(
        self, sharded_run
    ):
        custom = sharded_run.stats.custom
        bins = {
            int(k.rsplit(".", 1)[1]): v
            for k, v in custom.items()
            if k.startswith("queue.steal_batch.")
        }
        assert bins, "expected at least one steal-batch histogram bin"
        assert all(0 <= m <= 8 for m in bins)  # bounded by steal_quantum
        assert all(count > 0 for count in bins.values())
        # every stolen token is accounted for by exactly one batch
        assert sum(m * count for m, count in bins.items()) == custom[
            "queue.stolen_tokens"
        ]
        # hits count batches that claimed at least one token
        assert sum(
            count for m, count in bins.items() if m > 0
        ) == custom["queue.steal_hits"]

    def test_per_shard_stall_counters_present(self, sharded_run):
        custom = sharded_run.stats.custom
        empty_shards = {
            k for k in custom
            if k.startswith("queue.shard") and k.endswith(".steal_empty")
        }
        assert empty_shards  # some victim probes found no surplus
        assert sum(custom[k] for k in empty_shards) == custom[
            "queue.steal_empty_probes"
        ]
        # successful transfers poll the claimed range at the home shard
        polls = [
            v for k, v in custom.items()
            if k.startswith("queue.shard") and k.endswith(".steal_poll_rounds")
        ]
        assert polls and all(v > 0 for v in polls)

    def test_single_shard_emits_no_steal_counters(self):
        from repro.bfs.common import bfs_queue_capacity
        from repro.bfs.persistent import run_persistent_bfs
        from repro.core import ShardedQueue
        from repro.graphs import roadmap_graph
        from repro.simt import TESTGPU

        g = roadmap_graph(8, 8, seed=1)
        cap = bfs_queue_capacity(g, TESTGPU, 2)
        run = run_persistent_bfs(
            g, 0, "SHARDED", TESTGPU, 2, verify=True,
            queue_factory=lambda c: ShardedQueue(c, n_shards=1),
            capacity=cap,
        )
        assert not [
            k for k in run.stats.custom
            if "steal" in k
        ]
