"""The persistent-thread task scheduler (Algorithm 1 + §4).

A persistent kernel launches "just enough" wavefronts to saturate the
device; every wavefront loops through *work cycles* until all tasks are
done:

1. read the global done flag — exit if set;
2. ``queue.acquire`` — hungry lanes ask the queue variant for tokens;
3. one :class:`Worker` work cycle — lanes holding tokens process up to
   ``subtasks_per_cycle`` uniform sub-tasks (paper footnote 3) and may
   discover new tasks and/or complete their current one;
4. account the new tasks in the in-flight counter, ``queue.publish``
   them, then account the completions — the wavefront whose decrement
   drives the counter to zero raises the done flag.

Termination protocol
--------------------
The paper does not spell out its termination test; we use a global
in-flight counter (see DESIGN.md §7).  Ordering matters: newly discovered
tasks are counted *before* their tokens become visible and completions
are counted *after*, so the counter can only reach zero when no task is
running, queued, or about to be queued.  Counter updates are fetch-adds
(they never fail); variants with the arbitrary-n property aggregate them
through the proxy lane, BASE pays one per lane — consistent with which
variant owns lane aggregation machinery.

Progress signals
----------------
The probe marks this loop fires — ``sched_tokens`` after every acquire,
``wf_phase("work")`` around each work cycle, ``sched_done`` at the
termination store — double as the liveness signals of
:class:`repro.obs.watchdog.LivenessWatchdog`: a launch whose flight
recorder sees no work marks, deliveries, stores, or exits for a whole
watch window is wedged, and the recorder's per-wavefront phase marks
name the dominant stall class in the resulting post-mortem.

Engine-resident idle spin
-------------------------
A wavefront whose lanes are all parked on queue slots repeats the same
iteration — an elided done-flag poll, the queue's elided arrival polls,
nothing else — until some poll comes back fresh.  Unprobed, both
kernels hand that iteration to the engine as one
:class:`~repro.simt.ops.Spin` (see :meth:`DeviceQueue.idle_polls
<repro.core.queue_api.DeviceQueue.idle_polls>`) and book the skipped
iterations' counters in closed form when it returns.  A round limit
keeps ``max_work_cycles`` raising at the same iteration as the per-op
loop.  Probed launches keep the per-op loop, which every probe hook
observes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Protocol, Tuple

import numpy as np

from repro.simt import (
    AtomicKind,
    AtomicRMW,
    GlobalMemory,
    KernelContext,
    MemRead,
    MemWrite,
    Op,
    Spin,
)
from .constants import DEFAULT_SUBTASKS_PER_CYCLE, DONE, PENDING
from .queue_api import DeviceQueue
from .state import WavefrontQueueState

K_WORK_CYCLES = "scheduler.work_cycles"
K_IDLE_CYCLES = "scheduler.idle_lane_cycles"
K_TASKS_DONE = "scheduler.tasks_completed"


def sched_shard_key(shard: int, name: str) -> str:
    """Per-home-shard scheduler counter key (``scheduler.shard<i>.*``)."""
    return f"scheduler.shard{shard}.{name}"


@dataclass
class WorkCycleResult:
    """What a worker did in one work cycle.

    Attributes
    ----------
    completed:
        Lane mask: the lane's current task finished this cycle.
    new_counts:
        Per-lane number of newly discovered ready tasks.
    new_tokens:
        ``(wavefront_size, max_new)`` array; lane ``i`` discovered
        ``new_tokens[i, :new_counts[i]]``.
    """

    completed: np.ndarray
    new_counts: np.ndarray
    new_tokens: np.ndarray

    @staticmethod
    def nothing(wavefront_size: int) -> "WorkCycleResult":
        return WorkCycleResult(
            completed=np.zeros(wavefront_size, dtype=bool),
            new_counts=np.zeros(wavefront_size, dtype=np.int64),
            new_tokens=np.zeros((wavefront_size, 1), dtype=np.int64),
        )


class Worker(Protocol):
    """An irregular workload plugged into the persistent scheduler.

    ``make_state`` creates per-wavefront private state (lane registers);
    ``work_cycle`` is a generator performing one work cycle for the lanes
    of ``st`` that hold tokens, returning a :class:`WorkCycleResult`.

    A task may span several work cycles (e.g. a BFS vertex with more
    children than ``subtasks_per_cycle``): the worker simply does not set
    ``completed`` for that lane, and the lane keeps its token.
    """

    def make_state(self, ctx: KernelContext) -> object: ...

    def work_cycle(
        self,
        ctx: KernelContext,
        wstate: object,
        st: WavefrontQueueState,
    ) -> Generator[Op, Op, WorkCycleResult]: ...


class SchedulerControl:
    """Host handle for the scheduler's global control buffer."""

    def __init__(self, prefix: str = "sched"):
        self.prefix = prefix
        self.buf_ctrl = f"{prefix}.ctrl"  # [PENDING, DONE]

    def allocate(self, memory: GlobalMemory) -> None:
        memory.alloc(self.buf_ctrl, 2, fill=0)

    def seed(self, memory: GlobalMemory, n_initial: int) -> None:
        """Record the initially ready tasks before launch."""
        if n_initial < 0:
            raise ValueError("n_initial must be non-negative")
        ctrl = memory[self.buf_ctrl]
        ctrl[PENDING] = n_initial
        ctrl[DONE] = 1 if n_initial == 0 else 0

    def is_done(self, memory: GlobalMemory) -> bool:
        return bool(memory[self.buf_ctrl][DONE])

    def pending(self, memory: GlobalMemory) -> int:
        return int(memory[self.buf_ctrl][PENDING])


def _idle_spin(
    queue: DeviceQueue,
    ctx: KernelContext,
    st: WavefrontQueueState,
    dread: MemRead,
    cycles: int,
    max_cycles: Optional[int],
) -> Optional[Spin]:
    """The next iteration as one Spin, for a wavefront whose lanes are
    all parked (a pure poller), when the queue can spin.

    Rounds are capped so the engine never runs the iteration that would
    exceed ``max_cycles``; a cap below two rounds saves nothing.
    """
    polls = queue.idle_polls(ctx, st)
    if polls is None:
        return None
    reads, cap = polls
    if max_cycles is not None:
        left = max_cycles - cycles
        cap = left if cap is None else min(cap, left)
    if cap is not None and cap < 2:
        return None
    return Spin((dread,) + reads, cap)


def _book_open_spin(
    queue: DeviceQueue,
    ctx: KernelContext,
    st: WavefrontQueueState,
    spin: Spin,
    cycles: int,
    idle_lanes: int,
) -> Tuple[int, int]:
    """Counters of a spin the launch teardown closed mid-flight.

    The engine leaves ``rounds`` whole rounds and the index ``at`` of
    the read in flight; the per-op loop would have booked those rounds
    plus the current work cycle once its done-flag poll completed.
    """
    rounds = spin.rounds
    queue.account_polls(ctx, st, rounds)
    return (
        cycles + rounds + (1 if spin.at else 0),
        idle_lanes + rounds * st.wavefront_size,
    )


def persistent_kernel(
    queue: DeviceQueue,
    worker: Worker,
    sched: SchedulerControl,
    subtasks_per_cycle: int = DEFAULT_SUBTASKS_PER_CYCLE,
    aggregate_termination: Optional[bool] = None,
):
    """Build the persistent-thread kernel for a queue variant + worker.

    The returned callable is a :data:`repro.simt.Kernel`; launch it with
    ``Engine.launch``.  ``subtasks_per_cycle`` is forwarded to workers via
    ``ctx.params`` under ``"subtasks_per_cycle"``.

    ``aggregate_termination`` overrides whether in-flight-counter updates
    go through the proxy lane (default: follow the queue's arbitrary-n
    property); the termination ablation bench uses this.
    """
    aggregated = (
        queue.arbitrary_n
        if aggregate_termination is None
        else aggregate_termination
    )

    def kernel(ctx: KernelContext) -> Generator[Op, Op, None]:
        ctx.params.setdefault("subtasks_per_cycle", subtasks_per_cycle)
        stats = ctx.stats
        wf_size = ctx.device.wavefront_size
        st = WavefrontQueueState(wf_size)
        wstate = worker.make_state(ctx)
        max_cycles: Optional[int] = ctx.params.get("max_work_cycles")  # type: ignore[assignment]
        cycles = 0

        done_idx = np.array([DONE], dtype=np.int64)
        # one reusable poll op: the engine fills `result` afresh at every
        # completion and never holds a read past its wavefront's resume,
        # so re-yielding the same object each work cycle is safe and spares
        # one allocation per poll in the simulator's hottest loop.
        dread = MemRead(sched.buf_ctrl, done_idx, trans=1, prechecked=True)
        custom = stats.custom
        probe = ctx.probe
        # per-cycle counters accumulate in locals and flush in the finally
        # block (the engine closes kernel generators at launch teardown,
        # so the flush also runs for aborted or timed-out launches).
        idle_lanes = 0
        spin: Optional[Spin] = None
        try:
            while True:
                # 1. WorkRemains()? — poll the done flag.  An elided poll
                # (dread.fresh False) means the control word is untouched
                # since the previous cycle's check, which saw 0.
                spun = 0
                if probe is None and st.n_watching == wf_size:
                    spin = _idle_spin(queue, ctx, st, dread, cycles, max_cycles)
                if spin is None:
                    if probe is not None:
                        probe.wf_phase(ctx.wf_id, "termination")
                    yield dread
                else:
                    yield spin
                    rounds = spin.rounds
                    if rounds:
                        cycles += rounds
                        idle_lanes += rounds * wf_size
                        queue.account_polls(ctx, st, rounds)
                    spun = spin.at
                    spin = None
                if dread.fresh and int(dread.result[0]):
                    break
                cycles += 1
                if max_cycles is not None and cycles > max_cycles:
                    raise RuntimeError(
                        f"wavefront {ctx.wf_id} exceeded max_work_cycles="
                        f"{max_cycles}; termination protocol stuck?"
                    )

                # 2. GetWorkToken() for hungry lanes (after a spin, its
                # first `spun` polls are already issued).
                if spun:
                    yield from queue.acquire(ctx, st, spun=spun)
                else:
                    yield from queue.acquire(ctx, st)
                idle_lanes += wf_size - st.n_token
                if probe is not None:
                    probe.sched_tokens(probe.now, ctx.wf_id, st.n_token, wf_size)
                if st.n_token == 0:
                    continue

                # 3. DoWorkUnit() — one work cycle of uniform sub-tasks.
                if probe is not None:
                    probe.wf_phase(ctx.wf_id, "work")
                res = yield from worker.work_cycle(ctx, wstate, st)
                n_new = int(res.new_counts.sum())
                n_done = int(res.completed.sum())

                # 4. ScheduleNewlyDiscoveredWorkTokens() with termination
                #    accounting: count new tasks in-flight *before* their
                #    tokens appear, completions *after*.
                if n_new:
                    if probe is not None:
                        probe.wf_phase(ctx.wf_id, "termination")
                    if aggregated:
                        op = AtomicRMW(
                            sched.buf_ctrl, PENDING, AtomicKind.ADD, n_new
                        )
                        yield op
                    else:
                        has_new = res.new_counts > 0
                        k = int(has_new.sum())
                        op = AtomicRMW(
                            sched.buf_ctrl,
                            np.full(k, PENDING, dtype=np.int64),
                            AtomicKind.ADD,
                            res.new_counts[has_new],
                        )
                        yield op
                    yield from queue.publish(
                        ctx, st, res.new_counts, res.new_tokens
                    )

                if n_done:
                    if probe is not None:
                        probe.wf_phase(ctx.wf_id, "termination")
                    st.complete(np.flatnonzero(res.completed))
                    custom[K_TASKS_DONE] += n_done
                    if aggregated:
                        op = AtomicRMW(
                            sched.buf_ctrl, PENDING, AtomicKind.ADD, -n_done
                        )
                        yield op
                        remaining = int(op.old[0]) - n_done
                    else:
                        op = AtomicRMW(
                            sched.buf_ctrl,
                            np.full(n_done, PENDING, dtype=np.int64),
                            AtomicKind.ADD,
                            -1,
                        )
                        yield op
                        remaining = int(op.old.min()) - 1
                    if remaining == 0:
                        if probe is not None:
                            probe.sched_done(probe.now, ctx.wf_id)
                        yield MemWrite(sched.buf_ctrl, DONE, 1)
                    elif remaining < 0:
                        raise RuntimeError(
                            "in-flight counter went negative: a task was "
                            "completed twice or never accounted"
                        )
        finally:
            if spin is not None:
                cycles, idle_lanes = _book_open_spin(
                    queue, ctx, st, spin, cycles, idle_lanes
                )
            custom[K_WORK_CYCLES] = custom.get(K_WORK_CYCLES, 0) + cycles
            custom[K_IDLE_CYCLES] = custom.get(K_IDLE_CYCLES, 0) + idle_lanes

    return kernel


def sharded_persistent_kernel(
    queue: DeviceQueue,
    worker: Worker,
    sched: SchedulerControl,
    subtasks_per_cycle: int = DEFAULT_SUBTASKS_PER_CYCLE,
    aggregate_termination: Optional[bool] = None,
):
    """Shard-aware persistent kernel for a :class:`~repro.core.queue_sharded.ShardedQueue`.

    Same work-cycle structure as :func:`persistent_kernel`, with two
    shard-specific changes:

    * **Fused termination accounting.**  The baseline kernel pays two
      fetch-adds on the global in-flight counter per productive work
      cycle (``+n_new`` before publish, ``-n_done`` after).  Here both
      are folded into a single ``+(n_new - n_done)`` fetch-add issued
      *before* publish, halving traffic on the scheduler's hot word —
      the one word queue sharding cannot split.  This is safe: the fused
      delta still counts discoveries no later than their tokens become
      visible, so the counter reaching zero proves ``n_new == 0`` for
      the observing wavefront (its own discoveries are included in
      ``remaining``) and no task anywhere is running, queued, or about
      to be queued.
    * **Per-home-shard counters.**  ``scheduler.shard<i>.work_cycles`` /
      ``idle_lane_cycles`` / ``tasks_completed`` expose cross-shard load
      imbalance in every run's metrics without any probe attached.

    For a single-shard queue this *returns* :func:`persistent_kernel`'s
    kernel unchanged, keeping the shards=1 configuration bit-identical
    to the bare inner variant (same op stream, no extra counter keys).
    """
    n_shards = int(getattr(queue, "n_shards", 1))
    if n_shards <= 1:
        return persistent_kernel(
            queue, worker, sched, subtasks_per_cycle, aggregate_termination
        )

    def kernel(ctx: KernelContext) -> Generator[Op, Op, None]:
        ctx.params.setdefault("subtasks_per_cycle", subtasks_per_cycle)
        stats = ctx.stats
        wf_size = ctx.device.wavefront_size
        st = WavefrontQueueState(wf_size)
        wstate = worker.make_state(ctx)
        max_cycles: Optional[int] = ctx.params.get("max_work_cycles")  # type: ignore[assignment]
        cycles = 0

        home = ctx.wf_id % n_shards
        custom = stats.custom
        k_cycles = sched_shard_key(home, "work_cycles")
        k_idle = sched_shard_key(home, "idle_lane_cycles")
        k_done = sched_shard_key(home, "tasks_completed")

        done_idx = np.array([DONE], dtype=np.int64)
        dread = MemRead(sched.buf_ctrl, done_idx, trans=1, prechecked=True)
        probe = ctx.probe
        # per-cycle counters accumulate in locals and flush in the finally
        # block (the engine closes kernel generators at launch teardown,
        # so the flush also runs for aborted or timed-out launches).
        idle_lanes = 0
        spin: Optional[Spin] = None
        try:
            while True:
                # An elided poll (dread.fresh False) means the control
                # word is untouched since the previous check, which saw 0.
                spun = 0
                if probe is None and st.n_watching == wf_size:
                    spin = _idle_spin(queue, ctx, st, dread, cycles, max_cycles)
                if spin is None:
                    if probe is not None:
                        probe.wf_phase(ctx.wf_id, "termination")
                    yield dread
                else:
                    yield spin
                    rounds = spin.rounds
                    if rounds:
                        cycles += rounds
                        idle_lanes += rounds * wf_size
                        queue.account_polls(ctx, st, rounds)
                    spun = spin.at
                    spin = None
                if dread.fresh and int(dread.result[0]):
                    break
                cycles += 1
                if max_cycles is not None and cycles > max_cycles:
                    raise RuntimeError(
                        f"wavefront {ctx.wf_id} exceeded max_work_cycles="
                        f"{max_cycles}; termination protocol stuck?"
                    )

                if spun:
                    yield from queue.acquire(ctx, st, spun=spun)
                else:
                    yield from queue.acquire(ctx, st)
                idle_lanes += wf_size - st.n_token
                if probe is not None:
                    probe.sched_tokens(probe.now, ctx.wf_id, st.n_token, wf_size)
                if st.n_token == 0:
                    continue

                if probe is not None:
                    probe.wf_phase(ctx.wf_id, "work")
                res = yield from worker.work_cycle(ctx, wstate, st)
                n_new = int(res.new_counts.sum())
                n_done = int(res.completed.sum())

                # fused accounting: one fetch-add covers +new and -done, and
                # must land before the new tokens become visible (publish).
                delta = n_new - n_done
                if n_new or n_done:
                    if probe is not None:
                        probe.wf_phase(ctx.wf_id, "termination")
                    op = AtomicRMW(sched.buf_ctrl, PENDING, AtomicKind.ADD, delta)
                    yield op
                    remaining = int(op.old[0]) + delta
                    if n_new:
                        yield from queue.publish(
                            ctx, st, res.new_counts, res.new_tokens
                        )
                    if n_done:
                        st.complete(np.flatnonzero(res.completed))
                        custom[K_TASKS_DONE] += n_done
                        custom[k_done] += n_done
                    if remaining == 0:
                        if probe is not None:
                            probe.wf_phase(ctx.wf_id, "termination")
                            probe.sched_done(probe.now, ctx.wf_id)
                        yield MemWrite(sched.buf_ctrl, DONE, 1)
                    elif remaining < 0:
                        raise RuntimeError(
                            "in-flight counter went negative: a task was "
                            "completed twice or never accounted"
                        )
        finally:
            if spin is not None:
                cycles, idle_lanes = _book_open_spin(
                    queue, ctx, st, spin, cycles, idle_lanes
                )
            custom[K_WORK_CYCLES] = custom.get(K_WORK_CYCLES, 0) + cycles
            custom[k_cycles] = custom.get(k_cycles, 0) + cycles
            custom[K_IDLE_CYCLES] = custom.get(K_IDLE_CYCLES, 0) + idle_lanes
            custom[k_idle] = custom.get(k_idle, 0) + idle_lanes

    return kernel

