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

Hooks
    :class:`RetryFreeQueue` is the only code that runs Listings 1-3.  The
    other retry-free variants plug into it instead of copying it:

    *Slot map* — where a raw index lives.  ``_phys``/``_in_bounds``
    (flat or circular storage) and ``_slots`` (the device-side view of a
    wavefront) translate indices; ``_poll_plan`` builds the cached
    prechecked reads of Listing 2, optionally led by a slot-map read
    that ``_map_arrived`` folds back in; ``_map_batch`` runs before a
    publish's stores and ``_after_delivery`` after a grant.  GROW
    (:mod:`repro.core.queue_adaptive`) uses these to chain and recycle
    segments; ``_target_taken`` is its own diagnosis of an occupied
    target slot.

    *Fault points* — ``_claim_count`` (how many slots Listing 1's
    fetch-add claims; the probes report it), ``_restore`` (Listing 2's
    sentinel write-back) and ``_store_batch`` (one lock-step store of
    Listing 3).  The planted bugs of :mod:`repro.verify.faults` each
    override one of them.

    SPILL's re-injection and SHARDED's steal republish reuse the
    publish-side pieces directly: ``_claim_rear`` (the Rear fetch-add),
    ``_check_targets`` (bound and sentinel checks) and ``_store_batch``.
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
            claim = self._claim_count(total)
            op = AtomicRMW(self.buf_ctrl, FRONT, AtomicKind.ADD, claim)
            yield op
            custom[K_PROXY_ATOMICS] += 1
            base = int(op.old[0])
            lanes = np.flatnonzero(hungry)
            st.watch(lanes, base + ranks[lanes])
            if probe is not None:
                probe.queue_counter(self.prefix, "front", probe.now, base + claim)
                probe.queue_proxy(self.prefix, "acquire", claim)
                probe.queue_reserve(self.prefix, "acquire", base, claim)
                probe.queue_watch(self.prefix, base + ranks[lanes], probe.now)

        # --- Listing 2: data-arrival poll for every watching lane ------
        if st.n_watching == 0:
            return
        # the watch set only changes on reservation/grant, so the poll
        # plan — lanes, addresses and the poll ops themselves, whose
        # results the engine refills at each completion — is cached
        # between polls: this poll runs every work cycle of every starved
        # wavefront.
        while True:
            cache = st.cache
            if cache is None:
                st.cache = cache = self._poll_plan(ctx, st)
            lanes, phys, read, n_lanes, map_read = cache
            if map_read is None:
                break
            if spun:
                spun -= 1
            else:
                yield map_read
            if not (map_read.fresh and self._map_arrived(ctx, map_read)):
                break
            st.cache = None
        if n_lanes == 0:
            # no monitored slot is pollable: all lie beyond queue bounds
            # (the kernel is winding down) or in storage not mapped yet.
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
        raws = st.slot[got_lanes]
        # pick up the token and put the sentinel back so the slot can be
        # reused when the queue is configured circular (§4.2).  The
        # probe events fire at the restore write's issue, i.e. strictly
        # before any later wrap-around producer can observe the restored
        # sentinel — the ordering the verification oracle relies on.
        if probe is not None:
            probe.queue_grant(self.prefix, raws, probe.now)
            probe.queue_deliver(self.prefix, raws, tokens)
        yield from self._restore(ctx, phys[arrived])
        st.unwatch(got_lanes)
        st.grant(got_lanes, tokens)
        custom[K_DEQ_TOKENS] += int(got_lanes.size)
        yield from self._after_delivery(ctx, raws)

    def idle_polls(
        self, ctx: KernelContext, st: WavefrontQueueState
    ) -> Optional[Tuple[Tuple[MemRead, ...], Optional[int]]]:
        """The cached poll plan's reads.

        With every lane parked, an elided poll grants nothing, so the
        acquire repeats itself until a poll comes back fresh.  The
        slot-map read (if any) leads; a plan with no pollable slot omits
        the slot read, so a watch set entirely beyond the queue bounds
        polls nothing at all (an empty tuple).
        """
        cache = st.cache
        if cache is None:
            return None
        _lanes, _phys, read, n_lanes, map_read = cache
        polls = () if map_read is None else (map_read,)
        if n_lanes:
            polls += (read,)
        return polls, None

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
        counts = np.asarray(counts, dtype=np.int64)
        has_new = counts > 0
        if not has_new.any():
            return

        # --- Listing 3 lines 2-11: local aggregation of counts ---------
        probe = self._probe(ctx)
        if probe is not None:
            probe.wf_phase(ctx.wf_id, "reserve", self.prefix)
        ranks, total = segmented_rank(has_new, counts)
        yield LocalOp(ctx.device.lds_op_cycles)

        # --- line 15: proxy reserves `total` entries with one AFA ------
        base = yield from self._claim_rear(ctx, total)
        yield from self._map_batch(ctx, base, total)

        # --- lines 24-27: lock-step copy, one sub-iteration per token
        # rank within the busiest lane.  Each iteration checks the target
        # slot still holds the sentinel, then overwrites it.
        max_count = int(counts.max())
        lane_base = base + ranks
        for t in range(max_count):
            active = counts > t
            raw = lane_base[active] + t
            phys = yield from self._check_targets(ctx, raw)
            yield from self._store_batch(ctx, raw, phys, tokens[active, t])
        ctx.stats.custom[K_ENQ_TOKENS] += int(total)

    # ------------------------------------------------------------------
    # the publish-side protocol pieces (also run by SPILL's re-injection
    # and SHARDED's steal republish)
    # ------------------------------------------------------------------
    def _claim_rear(
        self, ctx: KernelContext, n: int
    ) -> Generator[Op, Op, int]:
        """Listing 3 line 15: reserve ``n`` entries with one fetch-add on
        ``Rear``; returns the first reserved raw index."""
        op = AtomicRMW(self.buf_ctrl, REAR, AtomicKind.ADD, n)
        yield op
        ctx.stats.custom[K_PROXY_ATOMICS] += 1
        base = int(op.old[0])
        probe = ctx.probe
        if probe is not None:
            probe.queue_counter(self.prefix, "rear", probe.now, base + n)
            probe.queue_proxy(self.prefix, "publish", n)
            probe.queue_reserve(self.prefix, "publish", base, n)
        return base

    def _check_targets(
        self, ctx: KernelContext, raw: np.ndarray
    ) -> Generator[Op, Op, np.ndarray]:
        """Listing 3 lines 24-25: abort unless every reserved target is
        in bounds and still holds the sentinel; returns the physical
        slots."""
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
        phys = self._slots(ctx, raw)
        check = MemRead(self.buf_data, phys)
        yield check
        taken = check.result != DNA
        if np.any(taken):
            yield self._target_taken(raw, taken)
        return phys

    def _target_taken(self, raw: np.ndarray, taken: np.ndarray) -> Abort:
        """The abort for reserved targets that still hold data."""
        return Abort(
            f"queue full: queue {self.prefix!r} target slot not "
            f"data-not-arrived (Listing 3 line 25; ring fill "
            f"{self.capacity}/{self.capacity})",
            info={
                "queue": self.prefix,
                "capacity": self.capacity,
                # the overwritten slot still holds live data, so the
                # physical ring is at capacity.
                "fill": self.capacity,
            },
        )

    # ------------------------------------------------------------------
    # slot-map hooks (flat and circular storage; GROW segments them)
    # ------------------------------------------------------------------
    def _slots(self, ctx: KernelContext, raw: np.ndarray) -> np.ndarray:
        """Physical slots of ``raw`` as wavefront ``ctx.wf_id`` sees them."""
        return self._phys(raw)

    def _poll_plan(self, ctx: KernelContext, st: WavefrontQueueState) -> tuple:
        """Listing 2's cached poll of the watch set: ``(lanes, phys,
        read, n_lanes, map_read)`` — the pollable lanes, their physical
        slots, one prechecked read of those slots, its lane count, and a
        slot-map read to issue first (None: the map is static)."""
        watching = st.slot >= 0
        raw = st.slot[watching]
        inb = self._in_bounds(raw)
        lanes = np.flatnonzero(watching)[inb]
        phys, read = self._slot_poll(self._phys(raw[inb]))
        return lanes, phys, read, int(lanes.size), None

    def _slot_poll(self, phys) -> Tuple[np.ndarray, MemRead]:
        """A prechecked read of ``phys``, frozen: the watch set never
        changes while the read is cached (MemRead hot-loop contract),
        which also lets the engine reuse its span across re-issues."""
        phys = np.asarray(phys, dtype=np.int64)
        phys.setflags(write=False)
        trans = transactions_for(phys) if phys.size else 0
        return phys, MemRead(self.buf_data, phys, trans=trans, prechecked=True)

    def _map_arrived(self, ctx: KernelContext, map_read: MemRead) -> bool:
        """Fold a fresh slot-map poll into the wavefront's view; True when
        the poll plan must be rebuilt."""
        return False

    def _map_batch(
        self, ctx: KernelContext, base: int, n: int
    ) -> Generator[Op, Op, None]:
        """Make raw indices ``base .. base+n-1`` storable (runs after the
        Rear claim, before the stores)."""
        return
        yield  # pragma: no cover - keeps this a generator

    def _after_delivery(
        self, ctx: KernelContext, raws: np.ndarray
    ) -> Generator[Op, Op, None]:
        """Runs after the slots ``raws`` were granted and restored."""
        return
        yield  # pragma: no cover - keeps this a generator

    # ------------------------------------------------------------------
    # fault points (see repro.verify.faults)
    # ------------------------------------------------------------------
    def _claim_count(self, total: int) -> int:
        """Slots Listing 1's fetch-add claims for ``total`` hungry lanes."""
        return total

    def _restore(
        self, ctx: KernelContext, phys: np.ndarray
    ) -> Generator[Op, Op, None]:
        """Listing 2's write-back: put ``dna`` back into consumed slots."""
        yield MemWrite(self.buf_data, phys, DNA)

    def _store_batch(
        self,
        ctx: KernelContext,
        raw: np.ndarray,
        phys: np.ndarray,
        vals: np.ndarray,
    ) -> Generator[Op, Op, None]:
        """One lock-step store sub-iteration of Listing 3."""
        if ctx.probe is not None:
            ctx.probe.queue_store(self.prefix, raw, vals)
        yield MemWrite(self.buf_data, phys, vals)
