"""RF/AN — the paper's retry-free, arbitrary-n concurrent queue (§4).

Dequeue (Listing 1 + Listing 2)
    Hungry lanes agree on relative indices with a wavefront-local
    aggregation (the lock-step ``atomic_inc`` on ``lQueueSlotsNeeded``);
    the proxy lane then advances ``Front`` by the hungry count with a
    single **atomic fetch-add** — which cannot fail — and every hungry
    lane is parked on a unique slot.  From then on the lane checks its
    slot with one plain (non-atomic) global read per work cycle until the
    ``dna`` sentinel is replaced by a token.  The queue-empty exception
    has been *refactored into a memory poll*: no retry of any queue
    operation ever happens.

Enqueue (Listing 3)
    Lanes aggregate their newly-discovered token counts locally; the
    proxy advances ``Rear`` once by the total; lanes then copy their
    tokens into their reserved slots in lock-step, verifying each target
    slot still holds the sentinel.  A non-sentinel target is a queue-full
    exception, which **aborts the kernel** (capacity is a host planning
    decision, not something the device can fix by spinning).

Cost profile per wavefront work cycle: one local aggregation + *at most
one* global atomic for dequeue and one for enqueue, independent of how
many entries move — the arbitrary-n property.
"""

from __future__ import annotations

from typing import Generator, Optional, Tuple

import numpy as np

from repro.simt import (
    Abort,
    AtomicKind,
    AtomicRMW,
    KernelContext,
    LocalOp,
    MemRead,
    MemWrite,
    Op,
)
from repro.simt.engine import transactions_for
from repro.simt.lanes import rank_within, segmented_rank

from .constants import DNA, FRONT, REAR
from .queue_api import (
    DeviceQueue,
    K_ARRIVAL_CHECKS,
    K_DEQ_REQUESTS,
    K_DEQ_TOKENS,
    K_ENQ_TOKENS,
    K_PROXY_ATOMICS,
)
from .state import WavefrontQueueState


class RetryFreeQueue(DeviceQueue):
    """The proposed retry-free / arbitrary-n queue."""

    variant = "RF/AN"
    retry_free = True
    arbitrary_n = True

    def acquire(
        self, ctx: KernelContext, st: WavefrontQueueState, spun: int = 0
    ) -> Generator[Op, Op, None]:
        custom = ctx.stats.custom
        probe = ctx.probe
        if probe is not None:
            probe.queue_register(self.prefix, self.capacity, self.variant)

        # --- Listing 1: slot reservation for newly hungry lanes --------
        n_hungry = st.wavefront_size - st.n_token - st.n_watching
        if n_hungry:
            hungry = st.hungry_mask()
            custom[K_DEQ_REQUESTS] += n_hungry
            if probe is not None:
                probe.wf_phase(ctx.wf_id, "reserve", self.prefix)
            ranks, total = rank_within(hungry)
            # lock-step local atomic_inc: zeroing by the proxy + per-lane
            # increment, one LDS round (lines 2-9 of Listing 1).
            yield LocalOp(ctx.device.lds_op_cycles)
            # proxy thread reserves `total` slots with one AFA (line 13).
            op = AtomicRMW(self.buf_ctrl, FRONT, AtomicKind.ADD, total)
            yield op
            custom[K_PROXY_ATOMICS] += 1
            base = int(op.old[0])
            lanes = np.flatnonzero(hungry)
            st.watch(lanes, base + ranks[lanes])
            if probe is not None:
                probe.queue_counter(self.prefix, "front", probe.now, base + total)
                probe.queue_proxy(self.prefix, "acquire", total)
                probe.queue_reserve(self.prefix, "acquire", base, total)
                probe.queue_watch(self.prefix, base + ranks[lanes], probe.now)

        # --- Listing 2: data-arrival poll for every watching lane ------
        if st.n_watching == 0:
            return
        # the watch set only changes on reservation/grant, so the lane,
        # address and transaction arrays — and the poll op itself, whose
        # result the engine refills at each completion — are cached
        # between polls: this poll runs every work cycle of every starved
        # wavefront.
        cache = st.cache
        if cache is None:
            watching = st.slot >= 0
            raw = st.slot[watching]
            inb = self._in_bounds(raw)
            lanes = np.flatnonzero(watching)[inb]
            phys = np.asarray(self._phys(raw[inb]), dtype=np.int64)
            # frozen: the watch set never changes while this op is cached
            # (MemRead hot-loop contract), which also lets the engine
            # reuse its span across re-issues.
            phys.setflags(write=False)
            trans = transactions_for(phys) if phys.size else 0
            read = MemRead(self.buf_data, phys, trans=trans, prechecked=True)
            st.cache = cache = (lanes, phys, read, int(lanes.size))
        lanes, phys, read, n_lanes = cache
        if n_lanes == 0:
            # all monitored slots are beyond queue bounds; no data will
            # ever arrive there (kernel is winding down).
            return
        if probe is not None:
            probe.wf_phase(ctx.wf_id, "dna_spin", self.prefix)
        if not spun:
            yield read
        custom[K_ARRIVAL_CHECKS] += n_lanes
        if not read.fresh:
            # the engine elided the re-sample: no store hit the slot
            # array since the previous poll, and a cached poll op only
            # survives polls that granted nothing — so the previous
            # verdict (no arrivals) still holds without any reduction.
            if probe is not None:
                probe.queue_instant(self.prefix, "empty_poll", probe.now, n_lanes)
            return
        res = read.result
        # task tokens are non-negative and DNA is the smallest sentinel,
        # so max(slots) == DNA means no data arrived: one reduction in the
        # common empty poll instead of a compare plus an any().
        if int(res.max()) == DNA:
            if probe is not None:
                probe.queue_instant(self.prefix, "empty_poll", probe.now, n_lanes)
            return
        arrived = res != DNA
        got_lanes = lanes[arrived]
        tokens = res[arrived]
        # pick up the token and put the sentinel back so the slot can be
        # reused when the queue is configured circular (§4.2).  The
        # probe events fire at the restore write's issue, i.e. strictly
        # before any later wrap-around producer can observe the restored
        # sentinel — the ordering the verification oracle relies on.
        if probe is not None:
            probe.queue_grant(self.prefix, st.slot[got_lanes], probe.now)
            probe.queue_deliver(self.prefix, st.slot[got_lanes], tokens)
        yield MemWrite(self.buf_data, phys[arrived], DNA)
        st.unwatch(got_lanes)
        st.grant(got_lanes, tokens)
        custom[K_DEQ_TOKENS] += int(got_lanes.size)

    def idle_polls(
        self, ctx: KernelContext, st: WavefrontQueueState
    ) -> Optional[Tuple[Tuple[MemRead, ...], Optional[int]]]:
        """The cached arrival poll.

        With every lane parked, an elided poll grants nothing, so the
        acquire repeats itself until the poll comes back fresh.  A watch
        set entirely beyond the queue bounds polls nothing at all (an
        empty tuple).
        """
        cache = st.cache
        if cache is None:
            return None
        if cache[3] == 0:
            return (), None
        return (cache[2],), None

    def account_polls(
        self, ctx: KernelContext, st: WavefrontQueueState, rounds: int
    ) -> None:
        ctx.stats.custom[K_ARRIVAL_CHECKS] += rounds * st.cache[3]

    def publish(
        self,
        ctx: KernelContext,
        st: WavefrontQueueState,
        counts: np.ndarray,
        tokens: np.ndarray,
    ) -> Generator[Op, Op, None]:
        stats = ctx.stats
        dev = ctx.device
        counts = np.asarray(counts, dtype=np.int64)
        has_new = counts > 0
        if not has_new.any():
            return

        # --- Listing 3 lines 2-11: local aggregation of counts ---------
        probe = self._probe(ctx)
        if probe is not None:
            probe.wf_phase(ctx.wf_id, "reserve", self.prefix)
        ranks, total = segmented_rank(has_new, counts)
        yield LocalOp(dev.lds_op_cycles)

        # --- line 15: proxy reserves `total` entries with one AFA ------
        op = AtomicRMW(self.buf_ctrl, REAR, AtomicKind.ADD, total)
        yield op
        stats.custom[K_PROXY_ATOMICS] += 1
        base = int(op.old[0])
        if probe is not None:
            probe.queue_counter(self.prefix, "rear", probe.now, base + total)
            probe.queue_proxy(self.prefix, "publish", total)
            probe.queue_reserve(self.prefix, "publish", base, total)

        # --- lines 24-27: lock-step copy, one sub-iteration per token
        # rank within the busiest lane.  Each iteration checks the target
        # slot still holds the sentinel, then overwrites it.
        max_count = int(counts.max())
        lane_base = base + ranks
        for t in range(max_count):
            active = counts > t
            raw = lane_base[active] + t
            oob = ~self._in_bounds(raw)
            if oob.any():
                # enqueue must never store out of bounds (§4.3); a
                # monotonic queue that ran past capacity is full.
                yield Abort(
                    f"queue full: queue {self.prefix!r} raw index "
                    f"{int(raw[oob][0])} beyond capacity {self.capacity} "
                    f"(fill {int(raw[oob][0])}/{self.capacity})",
                    info={
                        "queue": self.prefix,
                        "capacity": self.capacity,
                        "fill": int(raw[oob][0]),
                    },
                )
            phys = self._phys(raw)
            check = MemRead(self.buf_data, phys)
            yield check
            if np.any(check.result != DNA):
                yield Abort(
                    f"queue full: queue {self.prefix!r} target slot not "
                    f"data-not-arrived (Listing 3 line 25; ring fill "
                    f"{self.capacity}/{self.capacity})",
                    info={
                        "queue": self.prefix,
                        "capacity": self.capacity,
                        # the overwritten slot still holds live data, so
                        # the physical ring is at capacity.
                        "fill": self.capacity,
                    },
                )
            vals = tokens[active, t]
            if probe is not None:
                probe.queue_store(self.prefix, raw, vals)
            yield MemWrite(self.buf_data, phys, vals)
        stats.custom[K_ENQ_TOKENS] += int(total)
