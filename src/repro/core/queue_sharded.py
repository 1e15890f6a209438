"""Sharded multi-queue composition with cross-shard work stealing.

The paper's RF/AN queue is a single global MPMC structure; its one
``Front``/``Rear`` pair is the contention point that the synthetic
saturation benchmark exposes at Fiji scale.  The standard next step
(Tzeng, Patney & Owens 2010; Shetty et al.; Atos) is to *shard* the
queue — one instance per compute unit — and rebalance load by stealing
between shards.  :class:`ShardedQueue` is that composition layer:

* one inner queue (RF/AN by default, AN/BASE parameterisable) per
  shard, each with its own control words and slot array;
* every wavefront has a **home shard** (``wf_id % n_shards``, which on
  this simulator coincides with its compute unit whenever
  ``n_shards == n_cus``) — all of its proxy reservations, slot parks
  and publishes go to the home shard, so *within a shard* the inner
  variant's properties (retry-freedom, arbitrary-n) are fully
  preserved;
* when the home shard keeps serving ``dna`` — the wavefront's parked
  lanes see no arrivals for more than ``spin_threshold`` consecutive
  work cycles — the wavefront attempts one **steal** per work cycle
  from a victim shard (round-robin or seeded-random selection).

Steal protocol (steal-as-transfer)
----------------------------------
Lanes only ever park on their home shard, so a steal may not hand
tokens to lanes directly (their reservations live at home).  Instead
the thief *transfers a batch*:

1. read the victim's ``(Front, Rear)``; ``avail = Rear - Front`` is the
   stealable surplus (tokens enqueued but not yet dequeue-reserved) —
   if none, try the next victim on the next work cycle;
2. claim ``m = min(steal_quantum, avail)`` entries with one **CAS** on
   the victim's ``Front`` (the only non-retry-free step, and it is not
   retried: a lost race just means somebody else made progress);
3. poll the claimed slots until every token has arrived (the claimed
   range is enqueue-reserved, so each store is on its way), restore the
   ``dna`` sentinel at the victim;
4. reserve ``m`` fresh slots at the home shard with the inner queue's
   own publish-side reservation (an AFA for RF/AN) and store the
   tokens there, where the home's parked lanes pick them up through
   the unmodified retry-free dequeue path.

The transfer preserves the global no-loss/no-duplication contract
(every token leaves the victim exactly once and lands at home exactly
once — checked by :class:`repro.verify.oracle.MultiQueueOracle`) and
keeps the hot per-wavefront paths retry-free; only the cold cross-shard
path pays a CAS.  Stealing therefore requires a retry-free inner
variant (the claimed slots must be ``dna``-sentinel slots that the
thief can poll and restore); AN/BASE inner shards are supported with
``steal=False``.

With ``n_shards=1`` every method delegates directly to the single
inner queue under the *same* buffer prefix: the composition is
bit-identical to the bare inner variant (pinned by
``tests/test_simt_determinism.py``).
"""

from __future__ import annotations

import random
from typing import Dict, Generator, Iterable, List, Optional, Tuple, Type

import numpy as np

from repro.simt import (
    AtomicKind,
    AtomicRMW,
    GlobalMemory,
    KernelContext,
    MemRead,
    Op,
)

from .constants import DNA, FRONT
from .queue_api import (
    DeviceQueue,
    K_ARRIVAL_CHECKS,
    K_CAS_ROUNDS,
    K_PROXY_ATOMICS,
)
from .queue_an import ArbitraryNQueue
from .queue_base_cas import BaseCasQueue
from .queue_rfan import RetryFreeQueue
from .state import WavefrontQueueState

# steal-path custom counters (only ever touched when n_shards > 1, so a
# single-shard run's stats stay bit-identical to the inner variant's)
K_STEAL_ATTEMPTS = "queue.steal_attempts"      # victim probes issued
K_STEAL_HITS = "queue.steal_hits"              # transfers that moved tokens
K_STEAL_EMPTY = "queue.steal_empty_probes"     # victim had no surplus
K_STEAL_CAS_FAIL = "queue.steal_cas_failures"  # lost the Front race
K_STEAL_TOKENS = "queue.stolen_tokens"         # tokens moved across shards

#: inner variants a shard may be built from.
INNER_VARIANTS: Dict[str, Type[DeviceQueue]] = {
    "RF/AN": RetryFreeQueue,
    "AN": ArbitraryNQueue,
    "BASE": BaseCasQueue,
}


def shard_key(shard: int, name: str) -> str:
    """Per-shard custom-counter key (``queue.shard<i>.<name>``)."""
    return f"queue.shard{shard}.{name}"


class ShardedQueue(DeviceQueue):
    """One inner queue per shard + cross-shard batch stealing.

    Parameters
    ----------
    capacity:
        Per-shard slot count (each shard owns its own slot array).
    n_shards:
        Number of inner queues; wavefront ``w`` is homed on shard
        ``w % n_shards``.
    inner:
        Inner variant name (``"RF/AN"``, ``"AN"``, ``"BASE"``).
    steal:
        Enable cross-shard batch transfers (requires a retry-free
        inner variant).
    steal_quantum:
        Maximum tokens moved per transfer.
    spin_threshold:
        Consecutive empty-handed work cycles (with lanes parked) a
        wavefront tolerates before probing a victim.
    victim:
        ``"round-robin"`` (deterministic cursor per wavefront) or
        ``"random"`` (seeded per-wavefront PRNG).
    victim_seed:
        Base seed for ``victim="random"``.
    """

    variant = "SHARDED"

    def __init__(
        self,
        capacity: int,
        prefix: str = "wq",
        circular: bool = False,
        *,
        n_shards: int = 1,
        inner: str = "RF/AN",
        steal: bool = True,
        steal_quantum: int = 8,
        spin_threshold: int = 4,
        victim: str = "round-robin",
        victim_seed: int = 0,
    ):
        super().__init__(capacity, prefix=prefix, circular=circular)
        if n_shards <= 0:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        try:
            inner_cls = INNER_VARIANTS[inner]
        except KeyError:
            raise ValueError(
                f"unknown inner variant {inner!r}; expected one of "
                f"{sorted(INNER_VARIANTS)}"
            ) from None
        if steal_quantum <= 0:
            raise ValueError(
                f"steal_quantum must be positive, got {steal_quantum}"
            )
        if spin_threshold < 0:
            raise ValueError(
                f"spin_threshold must be non-negative, got {spin_threshold}"
            )
        if victim not in ("round-robin", "random"):
            raise ValueError(
                f"victim must be 'round-robin' or 'random', got {victim!r}"
            )
        steal = bool(steal) and n_shards > 1
        if steal and not inner_cls.retry_free:
            raise ValueError(
                "stealing requires a retry-free inner variant (the thief "
                "polls and restores dna-sentinel slots); use inner='RF/AN' "
                "or steal=False"
            )
        self.n_shards = int(n_shards)
        self.inner = inner
        self.steal = steal
        self.steal_quantum = int(steal_quantum)
        self.spin_threshold = int(spin_threshold)
        self.victim = victim
        self.victim_seed = int(victim_seed)
        # the composition inherits the inner variant's properties: every
        # per-wavefront operation runs entirely inside one shard.
        self.retry_free = bool(inner_cls.retry_free)
        self.arbitrary_n = bool(inner_cls.arbitrary_n)
        #: the inner queues.  A single shard reuses the outer prefix so
        #: the composition is buffer-for-buffer identical to the bare
        #: inner variant.
        self.shards: List[DeviceQueue] = [
            inner_cls(
                capacity,
                prefix=prefix if n_shards == 1 else f"{prefix}.s{i}",
                circular=circular,
            )
            for i in range(self.n_shards)
        ]
        #: per-wavefront steal state (spin counter, victim cursor/rng),
        #: reset at every allocate() so one queue object can serve
        #: successive launches.
        self._wf: Dict[int, dict] = {}
        #: per-shard counter keys, precomputed so the per-work-cycle hot
        #: path never pays an f-string format.
        self._k_granted = [shard_key(i, "granted") for i in range(self.n_shards)]
        self._k_enqueued = [shard_key(i, "enqueued") for i in range(self.n_shards)]
        self._k_steal_out = [shard_key(i, "steal_out") for i in range(self.n_shards)]
        self._k_steal_in = [shard_key(i, "steal_in") for i in range(self.n_shards)]
        # steal-path stall attribution (all only touched inside _steal,
        # i.e. never when n_shards == 1): per-victim empty probes and
        # lost CAS races, per-home arrival-poll rounds, and a histogram
        # of transfer batch sizes (1 .. steal_quantum).
        self._k_steal_empty = [
            shard_key(i, "steal_empty") for i in range(self.n_shards)
        ]
        self._k_steal_cas_fail = [
            shard_key(i, "steal_cas_fail") for i in range(self.n_shards)
        ]
        self._k_steal_polls = [
            shard_key(i, "steal_poll_rounds") for i in range(self.n_shards)
        ]
        self._k_steal_batch = [
            f"queue.steal_batch.{n}" for n in range(self.steal_quantum + 1)
        ]

    # ------------------------------------------------------------------
    # host side
    # ------------------------------------------------------------------
    def allocate(self, memory: GlobalMemory) -> None:
        for sh in self.shards:
            sh.allocate(memory)
        self._wf.clear()

    def seed(self, memory: GlobalMemory, tokens: Iterable[int]) -> int:
        """Round-robin the initial tokens across shards (token ``i`` to
        shard ``i % n_shards``), mirroring :meth:`note_seed` splitting
        in the multi-queue oracle."""
        toks = list(tokens)
        total = 0
        for i, sh in enumerate(self.shards):
            total += sh.seed(memory, toks[i :: self.n_shards])
        return total

    def drain_host(self, memory: GlobalMemory) -> np.ndarray:
        parts = [sh.drain_host(memory) for sh in self.shards]
        return (
            np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        )

    # ------------------------------------------------------------------
    # kernel side
    # ------------------------------------------------------------------
    def _home(self, ctx: KernelContext) -> int:
        return ctx.wf_id % self.n_shards

    def _wf_state(self, ctx: KernelContext) -> dict:
        wf = self._wf.get(ctx.wf_id)
        if wf is None:
            wf = {"spin": 0, "cursor": 0}
            if self.victim == "random":
                wf["rng"] = random.Random(
                    self.victim_seed * 1_000_003 + ctx.wf_id
                )
            self._wf[ctx.wf_id] = wf
        return wf

    def _next_victim(self, home: int, wf: dict) -> int:
        """Pick a victim shard != home (deterministic per wavefront)."""
        n_other = self.n_shards - 1
        if self.victim == "random":
            off = wf["rng"].randrange(n_other)
        else:
            off = wf["cursor"]
            wf["cursor"] = (off + 1) % n_other
        return (home + 1 + off) % self.n_shards

    def acquire(
        self, ctx: KernelContext, st: WavefrontQueueState, spun: int = 0
    ) -> Generator[Op, Op, None]:
        home = ctx.wf_id % self.n_shards
        h = self.shards[home]
        # only a spin-capable (RF/AN) shard is ever resumed mid-acquire.
        inner = h.acquire(ctx, st, spun) if spun else h.acquire(ctx, st)
        if self.n_shards == 1:
            yield from inner
            return
        before = st.n_token
        yield from inner
        got = st.n_token - before
        if got:
            ctx.stats.custom[self._k_granted[home]] += got
        if not self.steal or st.n_watching == 0:
            return
        wf = self._wf.get(ctx.wf_id)
        if wf is None:
            wf = self._wf_state(ctx)
        if got:
            wf["spin"] = 0
            return
        spin = wf["spin"] + 1
        wf["spin"] = spin
        if spin <= self.spin_threshold:
            return
        yield from self._steal(ctx, home, wf)

    def idle_polls(
        self, ctx: KernelContext, st: WavefrontQueueState
    ) -> Optional[Tuple[Tuple[MemRead, ...], Optional[int]]]:
        """The home shard's idle polls.  With stealing on, every idle
        acquire bumps the wavefront's steal spin counter and the one
        that passes ``spin_threshold`` steals, so the rounds are capped
        just short of it."""
        polls = self.shards[ctx.wf_id % self.n_shards].idle_polls(ctx, st)
        if polls is None or not self.steal:
            return polls
        left = self.spin_threshold - self._wf_state(ctx)["spin"]
        if left <= 0:
            return None
        reads, cap = polls
        return reads, left if cap is None else min(cap, left)

    def account_polls(
        self, ctx: KernelContext, st: WavefrontQueueState, rounds: int
    ) -> None:
        self.shards[ctx.wf_id % self.n_shards].account_polls(ctx, st, rounds)
        if self.steal:
            self._wf_state(ctx)["spin"] += rounds

    def publish(
        self,
        ctx: KernelContext,
        st: WavefrontQueueState,
        counts: np.ndarray,
        tokens: np.ndarray,
    ) -> Generator[Op, Op, None]:
        if self.n_shards == 1:
            yield from self.shards[0].publish(ctx, st, counts, tokens)
            return
        home = ctx.wf_id % self.n_shards
        total = int(np.maximum(np.asarray(counts, dtype=np.int64), 0).sum())
        yield from self.shards[home].publish(ctx, st, counts, tokens)
        if total:
            ctx.stats.custom[self._k_enqueued[home]] += total

    # ------------------------------------------------------------------
    # the steal path
    # ------------------------------------------------------------------
    def _steal(
        self, ctx: KernelContext, home: int, wf: dict
    ) -> Generator[Op, Op, None]:
        """One transfer attempt: victim probe, CAS claim, poll, republish."""
        custom = ctx.stats.custom
        victim_idx = self._next_victim(home, wf)
        v = self.shards[victim_idx]
        h = self.shards[home]
        custom[K_STEAL_ATTEMPTS] += 1
        probe = ctx.probe
        if probe is not None:
            probe.wf_phase(ctx.wf_id, "steal", v.prefix)

        # 1. sample the victim's surplus.
        ctrl = v._read_ctrl()
        yield ctrl
        front, rear = int(ctrl.result[0]), int(ctrl.result[1])
        avail = rear - front
        if not v.circular:
            # monotonic shards: slots at or beyond capacity never receive
            # data, so never claim them (the publisher aborts first).
            avail = min(avail, v.capacity - front)
        if avail <= 0:
            custom[K_STEAL_EMPTY] += 1
            custom[self._k_steal_empty[victim_idx]] += 1
            return
        m = min(self.steal_quantum, avail)

        # 2. claim [front, front+m) with one CAS on the victim's Front.
        #    This is the only non-retry-free step of the composition and
        #    it is deliberately not retried: a lost race means either the
        #    victim's own lanes or another thief took the surplus.
        op = AtomicRMW(v.buf_ctrl, FRONT, AtomicKind.CAS, front, front + m)
        yield op
        custom[K_PROXY_ATOMICS] += 1
        if not bool(op.success[0]):
            custom[K_STEAL_CAS_FAIL] += 1
            custom[K_CAS_ROUNDS] += 1
            custom[self._k_steal_cas_fail[victim_idx]] += 1
            return
        custom[self._k_steal_batch[m]] += 1
        if probe is not None:
            v._probe(ctx)  # ensure the victim is registered
            probe.queue_counter(v.prefix, "front", probe.now, front + m)
            probe.queue_proxy(v.prefix, "acquire", m)
            probe.queue_reserve(v.prefix, "acquire", front, m)

        # 3. the claimed range is enqueue-reserved (rear covered it and
        #    Front had not passed it), so every store is on its way: poll
        #    until all m tokens arrived.
        src_raw = np.arange(front, front + m, dtype=np.int64)
        src_phys = np.asarray(v._phys(src_raw), dtype=np.int64)
        # frozen + prechecked: the claimed range never changes across poll
        # iterations, so the engine may cache its span and elide re-samples
        # while the victim's slot array is untouched.
        src_phys.setflags(write=False)
        read = MemRead(v.buf_data, src_phys, prechecked=True)
        k_polls = self._k_steal_polls[home]
        while True:
            yield read
            custom[K_ARRIVAL_CHECKS] += m
            custom[k_polls] += 1
            if not read.fresh:
                # elided re-sample: nothing stored since the previous
                # poll, which still saw an empty slot.
                continue
            # tokens are non-negative and DNA is the smallest sentinel:
            # min == DNA iff some claimed slot is still empty.
            if int(read.result.min()) != DNA:
                break
        tokens = read.result.copy()

        # 4. republish the batch into the home shard.
        yield from self._republish(ctx, h, v, src_raw, src_phys, tokens)
        custom[K_STEAL_HITS] += 1
        custom[K_STEAL_TOKENS] += m
        custom[self._k_steal_out[victim_idx]] += m
        custom[self._k_steal_in[home]] += m
        wf["spin"] = 0

    def _republish(
        self,
        ctx: KernelContext,
        h: RetryFreeQueue,
        v: RetryFreeQueue,
        src_raw: np.ndarray,
        src_phys: np.ndarray,
        tokens: np.ndarray,
    ) -> Generator[Op, Op, None]:
        """Move ``tokens`` (already claimed and read from victim ``v``)
        into fresh slots of home shard ``h``: the home's Rear claim,
        ``dna`` restored at the victim, then the home's sentinel-checked
        store.

        Split out so the planted-bug fixtures of ``repro.verify.faults``
        can sabotage exactly this window."""
        probe = ctx.probe
        m = int(tokens.size)
        if probe is not None:
            h._probe(ctx)
        hbase = yield from h._claim_rear(ctx, m)
        dst_raw = np.arange(hbase, hbase + m, dtype=np.int64)
        if probe is not None:
            # announce the transfer before the victim-side delivery so
            # the multi-queue oracle can classify the delivery as a
            # transfer rather than a lane consumption.
            probe.queue_steal(v.prefix, h.prefix, src_raw, hbase, tokens)
            probe.queue_grant(v.prefix, src_raw, probe.now)
            probe.queue_deliver(v.prefix, src_raw, tokens)
        # restore the sentinel at the victim (the consuming side of the
        # transfer — same ordering contract as the RF/AN dequeue: the
        # grant/deliver probes fire at this write's issue).
        yield from v._restore(ctx, src_phys)
        dst_phys = yield from h._check_targets(ctx, dst_raw)
        yield from self._store_batch(ctx, h, dst_raw, dst_phys, tokens)

    def _store_batch(
        self,
        ctx: KernelContext,
        h: RetryFreeQueue,
        dst_raw: np.ndarray,
        dst_phys: np.ndarray,
        tokens: np.ndarray,
    ) -> Generator[Op, Op, None]:
        """Land a transferred batch in its reserved home slots (the final
        store step of :meth:`_republish`; a separate method so fault
        fixtures can drop individual stores)."""
        yield from h._store_batch(ctx, dst_raw, dst_phys, tokens)
