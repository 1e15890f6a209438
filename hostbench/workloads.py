"""Workloads of the host-time benchmark: inputs, launch configs, checks.

Every launch is a persistent-thread BFS on the Fiji model with 56
workgroups, driven through the simulator's public API
(``persistent_kernel``/``sharded_persistent_kernel``, ``BFSWorker``,
``Engine.launch``).  Only ``Engine.launch`` is timed; allocation, the
correctness checks and garbage collection happen outside that span.
See ``README.md`` in this directory for why each workload exists.
"""

from __future__ import annotations

import gc
import json
import traceback
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bfs.common import alloc_graph_buffers, bfs_queue_capacity, read_costs
from repro.bfs.persistent import BFSWorker
from repro.core import (
    GrowQueue,
    SchedulerControl,
    ShardedQueue,
    SpillQueue,
    make_queue,
    persistent_kernel,
    sharded_persistent_kernel,
)
from repro.graphs import CSRGraph, bfs_levels, dataset
from repro.graphs.generators import roadmap_graph
from repro.obs.flight import FlightRecorder, FlightSession
from repro.obs.watchdog import DEFAULT_WINDOW, LivenessWatchdog
from repro.simt import FIJI, Engine
from repro.simt.atomics import PATH_COUNTS, AtomicSystem
from repro.simt.engine import EXEC_COUNTS
from repro.simt.probe import Probe

from spans import SpanRecorder, patched_methods, traced_generator_function

#: the road generator seed of the ``USA-road-d.NY`` stand-in: at this
#: seed both graphs equal the ``DatasetSpec.build`` graphs, and the
#: launches must reproduce the simulated numbers pinned in ``pins.json``.
DEFAULT_SEED = 3
#: the graphs are 1/8 of the harness scale.
SCALE_DIVISOR = 8
#: 45 x 45 = 2,025 road vertices.
ROAD_SIDE = 45
ROAD_SOURCE = 0
N_WORKGROUPS = 56
SHARDS = 4
STEAL_QUANTUM = 32
GROW_SEG_CAP = 512
SPILL_RING = 16_384
#: Synthetic is relabelled in aligned blocks of this many vertex ids.
RELABEL_BLOCK = 1024
#: the watchdog window shrinks with the graphs, so a launch sees about
#: as many polls as at harness scale (two on the road launch).
WATCHDOG_WINDOW = DEFAULT_WINDOW // SCALE_DIVISOR

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: probe callbacks the engine, queues and scheduler invoke.
PROBE_HOOKS = tuple(
    n for n, v in vars(Probe).items() if callable(v) and not n.startswith("_")
)


@dataclass(frozen=True)
class Config:
    """One launch configuration: a queue variant on one graph."""

    #: metric key within ``variant-mix`` (``core.variant.<name>.*``).
    name: str
    #: queue variant, as named in ``repro.core.QUEUE_VARIANTS`` or SHARDED.
    variant: str
    #: ``"road"`` or ``"synthetic"``.
    graph: str
    #: run under ``FlightSession(watchdog=True)``.
    flight: bool = False

    @property
    def pin_key(self) -> str:
        return f"{self.graph}.{self.name}"


RFAN_ROAD = Config("rfan", "RF/AN", "road")

#: launch rotation of each workload; a measured round is one launch of
#: every config, in this order.  Set-up warms up with the first config.
WORKLOADS: Dict[str, Tuple[Config, ...]] = {
    "road-rfan": (RFAN_ROAD,),
    "synthetic-rfan": (Config("rfan", "RF/AN", "synthetic"),),
    "variant-mix": (
        RFAN_ROAD,
        Config("base", "BASE", "road"),
        Config("an", "AN", "road"),
        Config("grow", "GROW", "road"),
        Config("sharded", "SHARDED", "road"),
        Config("sharded_imb", "SHARDED", "synthetic"),
        Config("spill", "SPILL", "synthetic"),
    ),
    "road-flight": (Config("rfan", "RF/AN", "road", flight=True),),
}


def make_launch_queue(cfg: Config, capacity: int):
    if cfg.variant == "SHARDED":
        per_shard = capacity // SHARDS + max(64, 16 * STEAL_QUANTUM)
        return ShardedQueue(
            per_shard, n_shards=SHARDS, steal=True,
            steal_quantum=STEAL_QUANTUM, spin_threshold=1,
        )
    if cfg.variant == "GROW":
        return GrowQueue(capacity, seg_cap=GROW_SEG_CAP)
    if cfg.variant == "SPILL":
        return SpillQueue(SPILL_RING)
    return make_queue(cfg.variant, capacity)


def _counter_guard(key: str):
    def guard(custom) -> Optional[str]:
        if custom.get(key, 0) <= 0:
            return f"{key} is 0: the config no longer takes its path"
        return None

    return guard


def _spill_guard(custom) -> Optional[str]:
    spilled = custom.get("queue.spill.tokens", 0)
    reinjected = custom.get("queue.spill.reinjected", 0)
    if spilled <= 0:
        return "queue.spill.tokens is 0: the ring never overflowed"
    if reinjected != spilled:
        return f"spilled {spilled} tokens but reinjected {reinjected}"
    return None


#: path guards of ``variant-mix``: config drift fails the launch instead
#: of quietly measuring another path.
PATH_GUARDS = {
    "base": _counter_guard("queue.cas_retry_rounds"),
    "grow": _counter_guard("queue.grow.segment_links"),
    "spill": _spill_guard,
    "sharded_imb": _counter_guard("queue.steal_hits"),
}


@dataclass
class Inputs:
    """A generated graph with its BFS source, CPU depths and queue size."""

    graph: CSRGraph
    source: int
    depths: np.ndarray
    capacity: int

    @classmethod
    def from_graph(cls, graph: CSRGraph, source: int) -> "Inputs":
        return cls(
            graph, source, bfs_levels(graph, source),
            bfs_queue_capacity(graph, FIJI, N_WORKGROUPS),
        )


def build_inputs(kind: str, seed: int, rec: Optional[SpanRecorder] = None) -> Inputs:
    """Generate the ``kind`` graph for ``seed``.

    The road seed feeds the generator; Synthetic has no randomness, so
    the seed relabels its vertices instead (the identity at the default
    seed).  The relabelling happens here, so the simulator only ever sees
    a generated graph.  It permutes aligned blocks of
    ``RELABEL_BLOCK`` ids and keeps the order within a block, so gathers
    stay as coalesced as in the original; a full permutation scatters
    them, and then SPILL's ring no longer overflows.
    """
    with ExitStack() as stack:
        if rec is not None:
            stack.enter_context(rec.span("graphs.build"))
        if kind == "road":
            graph = roadmap_graph(
                ROAD_SIDE, ROAD_SIDE, seed=seed, name="USA-road-d.NY"
            )
        elif kind == "synthetic":
            spec = dataset("Synthetic")
            graph = spec.build(spec.default_scale / SCALE_DIVISOR)
        else:
            raise ValueError(f"unknown graph kind {kind!r}")
    if kind == "road":
        return Inputs.from_graph(graph, ROAD_SOURCE)
    source = dataset("Synthetic").source
    if seed != DEFAULT_SEED:
        blocks = np.random.default_rng(seed).permutation(
            graph.n_vertices // RELABEL_BLOCK)
        perm = (blocks[:, None] * RELABEL_BLOCK + np.arange(RELABEL_BLOCK)).ravel()
        graph = CSRGraph.from_edges(
            graph.n_vertices, perm[graph.to_edges()], name=graph.name
        )
        source = int(perm[source])
    return Inputs.from_graph(graph, source)


def load_pins(seed: int) -> Dict[str, Dict[str, int]]:
    """Pinned ``cycles``/``issued_ops`` per config, at the default seed only."""
    pins = json.loads(PINS_PATH.read_text())
    return pins["launches"] if seed == pins["seed"] else {}


@dataclass
class Outcome:
    """One launch: host seconds, simulated numbers and failed checks."""

    config: Config
    seconds: float = 0.0
    cycles: int = 0
    issued_ops: int = 0
    custom: Dict[str, int] = field(default_factory=dict)
    exec_counts: Dict[str, int] = field(default_factory=dict)
    path_counts: Dict[str, int] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    #: reference speed over the machine's speed around this launch, set
    #: by the caller (see ``run.speed_probe``).
    scale: float = 1.0

    @property
    def ok(self) -> bool:
        return not self.problems

    def simulated(self) -> tuple:
        """Everything a launch simulates; tracing must leave it unchanged."""
        return (self.cycles, self.issued_ops, sorted(self.custom.items()))


def _delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {k: after[k] - before.get(k, 0) for k in after}


def run_launch(
    cfg: Config,
    inputs: Inputs,
    pin: Optional[Dict[str, int]] = None,
    rec: Optional[SpanRecorder] = None,
) -> Outcome:
    """Allocate, launch (timed) and check one BFS launch.

    A launch that raises or fails a check comes back with ``problems``
    set; it never propagates, so one bad launch cannot end the run.
    """
    out = Outcome(cfg)
    engine = Engine(FIJI)
    alloc_graph_buffers(engine.memory, inputs.graph, inputs.source)
    queue = make_launch_queue(cfg, inputs.capacity)
    sched = SchedulerControl()
    queue.allocate(engine.memory)
    sched.allocate(engine.memory)
    queue.seed(engine.memory, [inputs.source])
    sched.seed(engine.memory, 1)
    worker = BFSWorker()
    make_kernel = (
        sharded_persistent_kernel if cfg.variant == "SHARDED" else persistent_kernel
    )
    kernel = make_kernel(queue, worker, sched)
    exec0, path0 = dict(EXEC_COUNTS), dict(PATH_COUNTS)

    gc.collect()
    gc.disable()
    try:
        with ExitStack() as stack:
            if cfg.flight:
                stack.enter_context(FlightSession(
                    watchdog=True, watchdog_opts={"window": WATCHDOG_WINDOW}))
            if rec is not None:
                kernel = _instrument(rec, stack, queue, worker, kernel)
            t0 = perf_counter()
            result = engine.launch(kernel, N_WORKGROUPS)
            out.seconds = perf_counter() - t0
    except Exception as exc:  # a failed launch is counted, not fatal
        traceback.print_exc()
        out.problems.append(f"{cfg.pin_key}: raised {type(exc).__name__}: {exc}")
        return out
    finally:
        gc.enable()

    out.cycles = int(result.cycles)
    out.issued_ops = int(result.stats.issued_ops)
    out.custom = dict(result.stats.custom)
    out.exec_counts = _delta(EXEC_COUNTS, exec0)
    out.path_counts = _delta(PATH_COUNTS, path0)
    out.problems = check_launch(
        cfg, inputs, out, read_costs(engine.memory, inputs.graph.n_vertices), pin
    )
    return out


def _instrument(rec: SpanRecorder, stack: ExitStack, queue, worker, kernel):
    """Trace one launch's layers; returns the kernel to launch instead."""
    queue.acquire = traced_generator_function(rec, "core.queue.acquire", queue.acquire)
    queue.publish = traced_generator_function(rec, "core.queue.publish", queue.publish)
    worker.work_cycle = traced_generator_function(rec, "bfs.worker", worker.work_cycle)
    # an unprobed AtomicSystem binds ``service`` to ``_service`` per
    # instance, so both are wrapped; probed, ``service`` calls ``_service``.
    stack.enter_context(
        patched_methods(rec, AtomicSystem, ("service", "_service"), "simt.atomics"))
    stack.enter_context(patched_methods(rec, FlightRecorder, PROBE_HOOKS, "obs.probe"))
    stack.enter_context(patched_methods(rec, LivenessWatchdog, ("poll",), "obs.watchdog"))
    stack.enter_context(rec.span("simt.engine"))
    return traced_generator_function(
        rec, "core.scheduler", kernel, close_name="core.scheduler.close"
    )


def check_launch(
    cfg: Config,
    inputs: Inputs,
    out: Outcome,
    costs: np.ndarray,
    pin: Optional[Dict[str, int]],
) -> List[str]:
    """Every way a finished launch can be wrong, as messages."""
    problems = []
    bad = np.flatnonzero(costs != inputs.depths)
    if bad.size:
        v = int(bad[0])
        problems.append(
            f"{cfg.pin_key}: {bad.size} BFS depths differ from the CPU "
            f"reference (vertex {v}: {int(costs[v])} != {int(inputs.depths[v])})"
        )
    enq = out.custom.get("queue.enqueued_tokens", 0)
    deq = out.custom.get("queue.dequeued_tokens", 0)
    done = out.custom.get("scheduler.tasks_completed", 0)
    if not deq == done == enq + 1:
        problems.append(
            f"{cfg.pin_key}: token counts disagree (enqueued {enq} + 1 seed, "
            f"dequeued {deq}, completed {done})"
        )
    if pin is not None:
        for key in ("cycles", "issued_ops"):
            if getattr(out, key) != pin[key]:
                problems.append(
                    f"{cfg.pin_key}: {key} {getattr(out, key)} != pinned {pin[key]}"
                )
    guard = PATH_GUARDS.get(cfg.name)
    msg = guard(out.custom) if guard is not None else None
    if msg:
        problems.append(f"{cfg.pin_key}: {msg}")
    return problems
