"""Instruments compose: explicit probes, sessions and sinks on one launch.

Every session attaches one :class:`repro.simt.engine.Instruments` entry
through :func:`repro.simt.engine.attach`; a launch combines its explicit
probe with every attached entry.  These tests pin that the combination
is bit-invisible, that each instrument records exactly what it records
alone, and that nothing in ``src/repro`` reaches back into the engine's
module state.
"""

import ast
from contextlib import ExitStack
from pathlib import Path

import numpy as np
import pytest

import repro.simt.engine as engine_mod
from repro.bfs import run_persistent_bfs
from repro.graphs import roadmap_graph
from repro.obs import (
    BlameSession,
    FlightRecorder,
    FlightSession,
    MetricsSession,
    ProfileSession,
    TimelineProbe,
)
from repro.simt import TESTGPU, Compute, Engine
from repro.simt.engine import Instruments, attach
from repro.simt.probe import FanoutProbe, Probe

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _bfs(**kw):
    g = roadmap_graph(12, 12, seed=2)
    return run_persistent_bfs(g, 0, "RF/AN", TESTGPU, 4, verify=False, **kw)


def _sessions():
    return (
        ProfileSession(bins=16),
        BlameSession(),
        FlightSession(watchdog=True),
        MetricsSession(),
    )


def _outputs(profile, blame, flight, metrics):
    """What each session recorded, in a comparable form."""
    return {
        "profile": [e["metrics"] for e in profile.launches],
        "blame": blame.launches,
        "flight": flight.last.snapshot(),
        "progress": flight.last.progress_signature(),
        "watchdog": flight.watchdog_events,
        "metrics": metrics.registry.snapshot(),
    }


class TestSessionsCompose:
    def test_four_sessions_on_one_launch(self):
        bare = _bfs()
        solo = {}
        for session in _sessions():
            with session:
                run = _bfs()
            assert run.cycles == bare.cycles
            solo[type(session).__name__] = session
        solo_out = _outputs(*solo.values())

        sessions = _sessions()
        with ExitStack() as stack:
            for session in sessions:
                stack.enter_context(session)
            assert len(engine_mod.attached()) == 4
            composed = _bfs()
        assert engine_mod.attached() == ()

        assert composed.cycles == bare.cycles
        assert composed.stats.snapshot() == bare.stats.snapshot()
        assert np.array_equal(composed.costs, bare.costs)
        out = _outputs(*sessions)
        for key in solo_out:
            assert out[key] == solo_out[key], key
        assert len(out["profile"]) == 1 and len(out["blame"]) == 1

    def test_explicit_probe_joins_flight_and_watchdog(self):
        bare = _bfs()
        mine = TimelineProbe()
        with FlightSession(watchdog=True) as session:
            run = _bfs(probe=mine)
        assert run.cycles == bare.cycles
        assert run.stats.snapshot() == bare.stats.snapshot()
        assert mine.cycles == run.cycles
        assert session.last is not None
        assert session.last.cycles == run.cycles

    def test_verify_oracle_runs_under_flight_session(self):
        from repro.verify import Scenario, run_scenario

        sc = Scenario(
            variant="RF/AN", scale=8,
            schedule={"kind": "random", "seed": 3, "hold_prob": 0.1},
        )
        alone = run_scenario(sc)
        assert alone.ok
        with FlightSession(watchdog=True) as session:
            watched = run_scenario(sc)
        assert watched == alone
        assert session.last is not None
        assert session.last.cycles == alone.cycles
        assert session.watchdog_events == []


def _one_op(ctx):
    yield Compute(5)


def _seen_probe(probe=None):
    """Launch a one-op kernel; return the probe its context received."""
    seen = []

    def kernel(ctx):
        seen.append(ctx.probe)
        yield Compute(1)

    Engine(TESTGPU).launch(kernel, 1, probe=probe)
    return seen[0]


class TestLaunchComposition:
    def test_nothing_attached_leaves_launch_unprobed(self):
        assert _seen_probe() is None
        with attach(Instruments(probe=lambda: None)):
            assert _seen_probe() is None

    def test_single_probe_is_not_wrapped(self):
        rec = FlightRecorder()
        with attach(Instruments(probe=lambda: rec)):
            assert _seen_probe() is rec
        mine = Probe()
        assert _seen_probe(mine) is mine

    def test_explicit_probe_comes_first(self):
        mine, rec = Probe(), FlightRecorder()
        with attach(Instruments(probe=lambda: rec)):
            seen = _seen_probe(mine)
        assert isinstance(seen, FanoutProbe)
        assert seen.probes == (mine, rec)

    def test_watchdog_receives_its_own_entrys_probe(self):
        got = []

        class Watch:
            def launch_begin(self, device, n_wavefronts):
                return 1 << 60

        def factory(probe):
            got.append(probe)
            return Watch()

        first, second = FlightRecorder(), FlightRecorder()
        with attach(Instruments(probe=lambda: first)), \
                attach(Instruments(probe=lambda: second, watchdog=factory)):
            _seen_probe()
        assert got == [second]

    def test_second_watchdog_raises(self):
        class Watch:
            def launch_begin(self, device, n_wavefronts):
                return 1 << 60

        with attach(Instruments(watchdog=lambda probe: Watch())):
            with pytest.raises(ValueError, match="one watchdog"):
                Engine(TESTGPU).launch(_one_op, 1, watchdog=Watch())
            with attach(Instruments(watchdog=lambda probe: Watch())):
                with pytest.raises(ValueError, match="one watchdog"):
                    _seen_probe()

    def test_sinks_fire_in_attachment_order_after_stats(self):
        calls = []

        def sink(tag):
            def fire(device, n_wavefronts, stats):
                calls.append(
                    (tag, device.name, n_wavefronts, stats.sim_cycles)
                )

            return fire

        with attach(Instruments(on_launch_end=sink("a"))), \
                attach(Instruments(on_launch_end=sink("b"))):
            res = Engine(TESTGPU).launch(_one_op, 2)
        assert calls == [
            ("a", "TestGPU", 2, res.cycles),
            ("b", "TestGPU", 2, res.cycles),
        ]

    def test_attach_detaches_on_error(self):
        inst = Instruments()
        with pytest.raises(KeyError):
            with attach(inst):
                assert engine_mod.attached() == (inst,)
                raise KeyError("boom")
        assert engine_mod.attached() == ()


class TestFanoutProbe:
    def test_binds_only_overriding_children(self):
        calls = []

        class Exits(Probe):
            def on_exit(self, cycle, wf):
                calls.append(("exits", cycle, wf))

        class Both(Probe):
            def on_exit(self, cycle, wf):
                calls.append(("both", cycle, wf))

            def on_wake(self, cycle, wf):
                calls.append(("wake", cycle, wf))

        a, b = Exits(), Both()
        fan = FanoutProbe([a, b])
        # one overriding child: its bound method itself, no wrapper
        assert fan.on_wake == b.on_wake
        # no overriding child: the inherited no-op
        assert fan.sched_done.__func__ is Probe.sched_done
        fan.on_exit(7, 2)
        fan.on_wake(9, 1)
        assert calls == [("exits", 7, 2), ("both", 7, 2), ("wake", 9, 1)]

    def test_clock_and_wavefront_reach_every_child(self):
        a, b = Probe(), FlightRecorder()
        fan = FanoutProbe([a, b])
        assert (fan.now, fan.cur_wf) == (0, -1)
        fan.now = 41
        fan.cur_wf = 3
        assert (fan.now, a.now, b.now) == (41, 41, 41)
        assert (fan.cur_wf, a.cur_wf, b.cur_wf) == (3, 3, 3)


def _engine_aliases(tree: ast.AST, path: Path):
    """Names a module binds to ``repro.simt.engine``."""
    names = set()
    in_simt = path.parent.name == "simt"
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro.simt.engine" and alias.asname:
                    names.add(alias.asname)
        elif isinstance(node, ast.ImportFrom):
            simt = node.module == "repro.simt" or (
                in_simt and node.level == 1 and node.module is None
            )
            for alias in node.names:
                if simt and alias.name == "engine":
                    names.add(alias.asname or "engine")
    return names


def _dotted(node) -> str:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


class TestNoEngineGlobals:
    def test_engine_keeps_no_hook_slots(self):
        # a module global defaulting to None is a hook slot for other
        # modules to assign; instruments go through attach() instead.
        slots = [
            name for name, value in vars(engine_mod).items()
            if value is None and not name.startswith("__")
        ]
        assert slots == []

    def test_no_module_assigns_an_engine_attribute(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            aliases = _engine_aliases(tree, path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "setattr"
                    and node.args
                ):
                    targets = [ast.Attribute(value=node.args[0], attr="?")]
                else:
                    continue
                for target in targets:
                    if not isinstance(target, ast.Attribute):
                        continue
                    owner = _dotted(target.value)
                    if owner in aliases or owner == "repro.simt.engine":
                        offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []
