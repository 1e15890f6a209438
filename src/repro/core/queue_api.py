"""Abstract interface shared by every concurrent-queue variant.

BASE (:mod:`.queue_base_cas`) and AN (:mod:`.queue_an`) implement it
directly.  RF/AN (:mod:`.queue_rfan`) implements it once for the whole
retry-free family: GROW and SPILL (:mod:`.queue_adaptive`), SHARDED's
steal path (:mod:`.queue_sharded`) and the planted bugs of
:mod:`repro.verify.faults` plug into RF/AN's Listings 1-3 through small
hooks (slot map, storage steps, fault points — see the RF/AN module
docstring) rather than carrying their own copies.

A :class:`DeviceQueue` is a *device-resident* data structure: its state
lives entirely in :class:`~repro.simt.memory.GlobalMemory` buffers
(statically allocated, per the GPU constraint in §3.1 of the paper), and
its operations are generator methods that kernels drive with
``yield from``.  The Python object itself holds only immutable
configuration (capacity, buffer names) — it is the *code* of the queue,
not its data, so one object can serve any number of concurrent simulated
wavefronts.

The contract seen by the persistent-thread scheduler:

``acquire(ctx, st)``
    Try to obtain task tokens for hungry lanes of ``st``.  Variants
    differ in *how* (and in how much contention they cause):

    * BASE — every hungry lane runs its own CAS loop on ``Front``;
      queue-empty is an exception that leaves the lane hungry.
    * AN — the proxy lane claims ``n`` entries with one CAS loop.
    * RF/AN — the proxy lane claims ``n`` *slots* with one non-failing
      fetch-add; lanes then monitor their private slot for data arrival
      (no retries of any kind).

``publish(ctx, st, counts, tokens)``
    Enqueue newly discovered tokens: lane *i* contributes
    ``tokens[i, :counts[i]]``.

``idle_polls(ctx, st)`` / ``account_polls(ctx, st, rounds)``
    The engine-resident spin (:class:`~repro.simt.ops.Spin`).  The
    scheduler asks only when every lane of ``st`` is parked on a slot.
    When the next ``acquire`` would then only re-issue cached prechecked
    polls — nothing else to do unless a poll comes back fresh —
    ``idle_polls`` returns those reads and how many such acquires may
    run back to back (None: no bound).  The scheduler hands
    them to the engine; ``account_polls`` then books the counters of the
    ``rounds`` acquires the engine ran without resuming the generator,
    and ``acquire(ctx, st, spun=k)`` finishes an acquire whose first
    ``k`` polls the engine already issued.  The default is None: no
    spin.  A subclass that overrides ``acquire`` without overriding
    ``idle_polls`` gets the default back, because its idle path may
    issue other ops.  RF/AN implements the pair once: GROW and the
    planted bugs inherit it, SHARDED delegates to its home shard, and
    SPILL, whose ``acquire`` runs its drain pump first, gets the default.

Statistics land in ``ctx.stats.custom`` under ``queue.*`` keys so the
harness can compute the paper's retry metrics (Figures 1 and 5).
"""

from __future__ import annotations

import abc
from typing import Generator, Iterable, Optional, Tuple

import numpy as np

from repro.simt import GlobalMemory, KernelContext, MemRead, Op
from repro.simt.memory import MemoryFault

from .constants import DNA, FRONT, REAR
from .state import WavefrontQueueState

#: the (Front, Rear) index of every control read.  Read-only, so the
#: engine caches its span and transaction count once per launch.
_CTRL_INDEX = np.array([FRONT, REAR], dtype=np.int64)
_CTRL_INDEX.setflags(write=False)

# custom-counter keys (shared across variants so reports line up)
K_DEQ_REQUESTS = "queue.dequeue_requests"      # lanes that asked for work
K_DEQ_TOKENS = "queue.dequeued_tokens"         # tokens handed out
K_ENQ_TOKENS = "queue.enqueued_tokens"         # tokens stored
K_EMPTY_EXC = "queue.empty_exceptions"         # queue-empty retry events
K_CAS_ROUNDS = "queue.cas_retry_rounds"        # extra CAS loop iterations
K_PROXY_ATOMICS = "queue.proxy_atomics"        # aggregated global atomics
K_ARRIVAL_CHECKS = "queue.arrival_checks"      # RF/AN slot polls


class QueueFull(Exception):
    """Host-visible queue-full abort (paper footnote 2: not retryable)."""


class DeviceQueue(abc.ABC):
    """Configuration + kernel-side code of one bounded concurrent queue.

    Parameters
    ----------
    capacity:
        Number of task-token slots.  The paper's BFS sizes the queue for
        the whole problem; undersizing aborts the kernel with queue-full.
    prefix:
        Buffer-name prefix, so several queues can coexist in one memory.
    circular:
        If True, raw indices wrap (``physical = raw % capacity``) and the
        structure is reusable indefinitely provided ``capacity`` exceeds
        the maximum number of in-flight plus monitored entries.  If False
        (the paper's BFS configuration), indices are monotonic and a slot
        index beyond ``capacity`` simply never receives data (Listing 2's
        bound check).
    """

    #: short variant id used in tables ("BASE", "AN", "RF/AN").
    variant: str = "?"
    #: whether the variant has the retry-free property.
    retry_free: bool = False
    #: whether the variant has the arbitrary-n property.
    arbitrary_n: bool = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # a new idle path voids the inherited spin hook (see module doc).
        if "acquire" in cls.__dict__ and "idle_polls" not in cls.__dict__:
            cls.idle_polls = DeviceQueue.idle_polls  # type: ignore[method-assign]

    def __init__(self, capacity: int, prefix: str = "wq", circular: bool = False):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self.prefix = prefix
        self.circular = bool(circular)
        self.buf_data = f"{prefix}.data"
        self.buf_ctrl = f"{prefix}.ctrl"

    # ------------------------------------------------------------------
    # host side
    # ------------------------------------------------------------------
    def allocate(self, memory: GlobalMemory) -> None:
        """Statically allocate the queue's buffers (before kernel launch).

        The slot array is marked L2-resident: its active window (the
        slots around Front/Rear) is re-read by every hungry thread every
        work cycle, the most heavily re-referenced data in the kernel.
        """
        memory.alloc(self.buf_data, self.capacity, fill=DNA)
        memory.mark_hot(self.buf_data)
        memory.alloc(self.buf_ctrl, 2, fill=0)

    def seed(self, memory: GlobalMemory, tokens: Iterable[int]) -> int:
        """Host-side enqueue of the initial ready tasks.

        Returns the number of tokens seeded.  Mirrors the host writing the
        source vertex before launching the BFS kernel.
        """
        toks = np.asarray(list(tokens), dtype=np.int64)
        if toks.size > self.capacity:
            raise QueueFull(
                f"{toks.size} seed tokens exceed capacity {self.capacity}"
            )
        if np.any(toks < 0):
            raise ValueError("task tokens must be non-negative")
        data = memory[self.buf_data]
        ctrl = memory[self.buf_ctrl]
        rear = int(ctrl[REAR])
        for i, t in enumerate(toks):
            data[self._phys(rear + i)] = t
        ctrl[REAR] = rear + toks.size
        self._host_mark_valid(memory, rear, toks.size)
        return int(toks.size)

    def _host_mark_valid(self, memory: GlobalMemory, start: int, n: int) -> None:
        """Hook for variants with per-slot valid flags (BASE/AN)."""

    def drain_host(self, memory: GlobalMemory) -> np.ndarray:
        """Read all stored-but-unconsumed tokens (host-side debugging)."""
        ctrl = memory[self.buf_ctrl]
        data = memory[self.buf_data]
        front, rear = int(ctrl[FRONT]), int(ctrl[REAR])
        out = []
        for raw in range(front, rear):
            v = data[self._phys(raw)]
            if v != DNA:
                out.append(int(v))
        return np.asarray(out, dtype=np.int64)

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _phys(self, raw) -> np.ndarray | int:
        """Map raw (monotonic) indices to physical slots."""
        if self.circular:
            return raw % self.capacity
        return raw

    def _in_bounds(self, raw: np.ndarray) -> np.ndarray:
        """Which raw indices address real storage (Listing 2 line 3)."""
        if self.circular:
            return np.ones(raw.shape, dtype=bool)
        return raw < self.capacity

    # ------------------------------------------------------------------
    # kernel side
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def acquire(
        self, ctx: KernelContext, st: WavefrontQueueState
    ) -> Generator[Op, Op, None]:
        """Obtain tokens for hungry lanes (variant-specific protocol)."""

    @abc.abstractmethod
    def publish(
        self,
        ctx: KernelContext,
        st: WavefrontQueueState,
        counts: np.ndarray,
        tokens: np.ndarray,
    ) -> Generator[Op, Op, None]:
        """Enqueue ``tokens[i, :counts[i]]`` for every lane ``i``."""

    def idle_polls(
        self, ctx: KernelContext, st: WavefrontQueueState
    ) -> Optional[Tuple[Tuple[MemRead, ...], Optional[int]]]:
        """``(reads, max_rounds)`` of an idle ``acquire`` of a wavefront
        whose lanes are all parked, or None."""
        return None

    def account_polls(
        self, ctx: KernelContext, st: WavefrontQueueState, rounds: int
    ) -> None:
        """Book the counters of ``rounds`` idle acquires run as a spin."""

    # convenience for subclasses -----------------------------------------
    def _read_ctrl(self) -> MemRead:
        """One coalesced read of (Front, Rear)."""
        return MemRead(self.buf_ctrl, _CTRL_INDEX)

    def _probe(self, ctx: KernelContext) -> Optional[object]:
        """The launch's observability probe (None almost always).

        Registers this queue on first sight so exporters know its
        capacity/variant.  Probes are passive: nothing on this path may
        touch stats, memory, or op scheduling.
        """
        probe = ctx.probe
        if probe is not None:
            probe.queue_register(self.prefix, self.capacity, self.variant)
        return probe

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}(capacity={self.capacity}, "
            f"prefix={self.prefix!r}, circular={self.circular})"
        )
