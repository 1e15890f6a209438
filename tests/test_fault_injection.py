"""Failure-injection tests: the system must fail loudly, never silently.

Each test corrupts device state or configuration mid-experiment and
checks that the corresponding guard fires with a diagnosable error —
the behaviours a user will hit first when extending the library.
"""

import numpy as np
import pytest

from repro import simt
from repro.bfs import run_persistent_bfs
from repro.bfs.common import BUF_COSTS, alloc_graph_buffers
from repro.core import (
    DNA,
    GrowQueue,
    QueueFull,
    SchedulerControl,
    WavefrontQueueState,
    make_queue,
    persistent_kernel,
)
from repro.graphs import path_graph, star_graph
from repro.simt import (
    Compute,
    Engine,
    KernelAbort,
    MemRead,
    MemoryFault,
    SimulationTimeout,
)
from repro.verify.faults import FAULT_POINTS, PLANTS

from test_core_scheduler import CountdownWorker


class TestMemoryFaults:
    def test_out_of_bounds_read_faults(self, testgpu):
        eng = Engine(testgpu)
        eng.memory.alloc("b", 4)

        def kernel(ctx):
            yield MemRead("b", 99)

        with pytest.raises(MemoryFault, match="out of bounds"):
            eng.launch(kernel, 1)

    def test_unknown_buffer_faults(self, testgpu):
        eng = Engine(testgpu)

        def kernel(ctx):
            yield MemRead("ghost", 0)

        with pytest.raises(MemoryFault, match="ghost"):
            eng.launch(kernel, 1)


class TestQueueCorruption:
    def test_clobbered_sentinel_triggers_queue_full(self, testgpu):
        """A non-sentinel value where the enqueuer expects `dna` is the
        paper's queue-full detection (Listing 3, line 25)."""
        eng = Engine(testgpu)
        q = make_queue("RF/AN", capacity=64)
        q.allocate(eng.memory)
        # corrupt a slot the first publish will target
        eng.memory[q.buf_data][0] = 12345

        def kernel(ctx):
            st = WavefrontQueueState(ctx.device.wavefront_size)
            counts = np.zeros(ctx.device.wavefront_size, dtype=np.int64)
            counts[0] = 1
            toks = np.zeros((ctx.device.wavefront_size, 1), dtype=np.int64)
            yield from q.publish(ctx, st, counts, toks)

        with pytest.raises(KernelAbort, match="data-not-arrived"):
            eng.launch(kernel, 1)

    def test_pending_undercount_cannot_look_successful(self, testgpu):
        """Seeding fewer in-flight tasks than tokens must fail loudly:
        either a racing decrement drives the counter negative (the
        scheduler raises), or the done flag fires early and the run
        visibly completes fewer tasks than the workload contains —
        never a clean-looking full run."""
        eng = Engine(testgpu)
        q = make_queue("RF/AN", capacity=128)
        sched = SchedulerControl()
        q.allocate(eng.memory)
        sched.allocate(eng.memory)
        q.seed(eng.memory, [3, 3, 3])
        sched.seed(eng.memory, 1)  # lie: 3 tokens, 1 counted
        kern = persistent_kernel(q, CountdownWorker(), sched)
        expected_tasks = (3 + 1) * 3
        try:
            res = eng.launch(kern, 2, params={"max_work_cycles": 10_000})
        except RuntimeError as exc:
            assert "negative" in str(exc)
        else:
            done = res.stats.custom.get("scheduler.tasks_completed", 0)
            assert done < expected_tasks

    def test_stuck_termination_hits_watchdog(self, testgpu):
        """Overcounting leaves pending > 0 forever; the engine watchdog
        (rather than a silent hang) reports it."""
        eng = Engine(testgpu)
        q = make_queue("RF/AN", capacity=128)
        sched = SchedulerControl()
        q.allocate(eng.memory)
        sched.allocate(eng.memory)
        q.seed(eng.memory, [1])
        sched.seed(eng.memory, 2)  # one phantom task
        kern = persistent_kernel(q, CountdownWorker(), sched)
        with pytest.raises(SimulationTimeout):
            eng.launch(kern, 2, max_cycles=500_000)


class TestCapacityPressure:
    @pytest.mark.parametrize("variant", ["BASE", "AN", "RF/AN"])
    def test_every_variant_aborts_clean_on_overflow(self, variant, testgpu):
        g = star_graph(500)
        with pytest.raises(QueueFull):
            run_persistent_bfs(
                g, 0, variant, testgpu, 4, capacity=8, grow_on_full=False
            )

    def test_costs_intact_after_grow_retry(self, testgpu):
        """The §4.4 regrow path must restart cleanly: final costs are
        correct even though earlier attempts aborted mid-flight."""
        g = star_graph(300)
        run = run_persistent_bfs(
            g, 0, "RF/AN", testgpu, 4, capacity=16, grow_on_full=True
        )
        run.verify(g, 0)


class TestHostCorruptionVisibility:
    def test_cost_corruption_caught_by_verify(self, testgpu):
        g = path_graph(16)
        run = run_persistent_bfs(g, 0, "AN", testgpu, 2)
        run.costs[7] = 0
        with pytest.raises(AssertionError, match="vertex 7"):
            run.verify(g, 0)


class TestOracleCatchesInjectedQueueFaults:
    """Faults injected into the queue protocol itself (repro.verify).

    The planted queues corrupt specific protocol steps — the arbitrary-n
    proxy reservation while it is in flight, the store leg of a publish
    reservation, the DNA-restore that makes wrap-around safe — and the
    invariant oracle must convict each one with a diagnosable invariant,
    not a downstream hang or silent wrong answer.
    """

    def test_fault_during_inflight_proxy_reservation(self):
        """The proxy AFAs Front by n+1 but parks only n lanes: an
        in-flight arbitrary-n reservation that claims more than the
        active mask.  The oracle matches the watch set against the
        reservation the proxy announced."""
        from repro.verify.faults import PLANTS
        from repro.verify.scenario import Scenario, run_scenario

        out = run_scenario(Scenario(
            plant="over-reserve", variant="RF/AN", scale=12,
            max_work_cycles=3_000,
        ))
        assert not out.ok
        assert out.invariant == "watch-reservation-mismatch"
        assert out.invariant in PLANTS["over-reserve"]["invariants"]

    def test_fault_in_the_store_leg_of_a_publish_reservation(self):
        """A lane's token store is dropped after its slot was reserved:
        at quiescence the reservation is unfilled (or, if a consumer got
        there first, the token is lost)."""
        from repro.verify.faults import PLANTS
        from repro.verify.scenario import Scenario, run_scenario

        out = run_scenario(Scenario(
            plant="lost-store", variant="RF/AN", scale=12,
            max_work_cycles=3_000,
        ))
        assert not out.ok
        assert out.invariant in PLANTS["lost-store"]["invariants"]

    def test_fault_during_wraparound_dna_restore(self):
        """Skipping the DNA restore on acquire breaks the invariant that
        makes circular reuse safe: once Rear wraps, a producer either
        sees the stale token (spurious queue-full) or the oracle sees a
        physical slot reused before its occupant was delivered."""
        from repro.verify.faults import PLANTS
        from repro.verify.scenario import Scenario, run_scenario

        out = run_scenario(Scenario(
            plant="skip-dna-restore", variant="RF/AN", workload="countdown",
            scale=20, circular=True, capacity=56, max_work_cycles=3_000,
        ))
        assert not out.ok
        assert out.invariant in PLANTS["skip-dna-restore"]["invariants"]

    def test_crash_between_segment_link_and_store_publish(self):
        """GROW's hand-off window: a producer wins the segment-link CAS
        but dies before its store lands in the freshly linked segment.
        The planted queue drops exactly that store — the slot stays DNA
        forever, and the oracle must convict the unfilled reservation
        (or the lost token, if a consumer parked on the slot) rather
        than let the run wedge silently."""
        from repro.verify.faults import PLANTS
        from repro.verify.scenario import Scenario, run_scenario

        spec = PLANTS["grow-link-lost-task"]
        out = run_scenario(Scenario(
            plant="grow-link-lost-task", variant="GROW",
            workload="countdown", scale=12, capacity=48,
            seg_cap=spec["kwargs"]["seg_cap"],
            pool_segments=spec["kwargs"]["pool_segments"],
            max_work_cycles=3_000,
        ))
        assert not out.ok
        assert out.invariant in spec["invariants"]

    def test_crash_between_spill_write_and_ring_head_advance(self):
        """SPILL's pump window: entries are read from the overflow ring
        and re-published, but the crash lands before the ring head
        advances past them.  The next pump run re-reads the same
        entries and re-announces tokens that were only spilled once —
        the oracle's spill ledger convicts the duplicate reinject."""
        from repro.verify.faults import PLANTS
        from repro.verify.scenario import Scenario, run_scenario

        spec = PLANTS["spill-reinject-double-deliver"]
        out = run_scenario(Scenario(
            plant="spill-reinject-double-deliver", variant="SPILL",
            workload="fanout", scale=255, n_wavefronts=2, capacity=24,
            spill_capacity=spec["kwargs"]["spill_capacity"],
            high_water=spec["kwargs"]["high_water"],
            low_water=spec["kwargs"]["low_water"],
            max_work_cycles=3_000,
        ))
        assert not out.ok
        assert out.invariant == "reinject-unspilled"
        assert out.invariant in spec["invariants"]

    @pytest.mark.parametrize("variant", ["GROW", "SPILL"])
    def test_real_adaptive_queues_acquitted_under_plant_configs(
        self, variant
    ):
        """The oracle must convict the plants *because of* the injected
        fault, not because the configurations are inherently doomed:
        the genuine queues pass clean under the identical geometry."""
        from repro.verify.scenario import Scenario, run_scenario

        if variant == "GROW":
            sc = Scenario(
                variant="GROW", workload="countdown", scale=12,
                capacity=48, seg_cap=8, pool_segments=6,
                max_work_cycles=3_000,
            )
        else:
            sc = Scenario(
                variant="SPILL", workload="fanout", scale=255,
                n_wavefronts=2, capacity=24, spill_capacity=1024,
                high_water=10, low_water=6, max_work_cycles=3_000,
            )
        out = run_scenario(sc)
        assert out.ok, f"[{out.invariant}] {out.detail}"
        assert out.delivered_counts

    def test_publication_order_fault_needs_an_adversarial_schedule(self):
        """Writing the valid flag before the data word is only visible
        when a schedule stretches the window between the two stores —
        the case that justifies schedule exploration (seed pinned from
        the selftest sweep)."""
        from repro.verify.faults import PLANTS
        from repro.verify.scenario import Scenario, run_scenario

        sc = Scenario(plant="valid-before-data", variant="BASE", scale=12,
                      max_work_cycles=3_000)
        assert run_scenario(sc).ok  # invisible in native order
        sc.schedule = {"kind": "random", "seed": 4,
                       "hold_prob": 0.15, "burst": 48}
        out = run_scenario(sc)
        assert not out.ok
        assert out.invariant in PLANTS["valid-before-data"]["invariants"]


class TestPlantsOverrideOnlyFaultPoints:
    """A plant sabotages one named step of the shared protocol and
    inherits everything else, so the code under test is the code that
    ships: no plant may carry its own copy of ``acquire``/``publish``."""

    @pytest.mark.parametrize(
        "plant",
        sorted(p for p, spec in PLANTS.items() if spec["variant"] != "BASE"),
    )
    def test_plant_overrides_only_fault_points(self, plant):
        # dunders (``__init__`` included) and ABCMeta's cache aside
        own = {
            name for name in vars(PLANTS[plant]["cls"])
            if not name.startswith("__")
        } - {"_abc_impl"}
        assert not own & {"acquire", "publish"}
        assert own <= FAULT_POINTS, sorted(own - FAULT_POINTS)

    def test_grow_reuses_the_rfan_protocol(self):
        assert "acquire" not in vars(GrowQueue)
        assert "publish" not in vars(GrowQueue)
