"""Launch checks: failures are counted per launch, never raised."""

from dataclasses import replace

import pytest

from repro.graphs.generators import roadmap_graph
from repro.simt.atomics import AtomicSystem

import workloads as wl
from run import tail
from spans import SpanRecorder


@pytest.fixture(scope="module")
def small():
    return wl.Inputs.from_graph(roadmap_graph(6, 6, seed=1), 0)


def test_a_wrong_pin_is_a_failed_launch_not_a_crash(small):
    good = wl.run_launch(wl.RFAN_ROAD, small)
    assert good.ok, good.problems
    pin = {"cycles": good.cycles, "issued_ops": good.issued_ops}
    assert wl.run_launch(wl.RFAN_ROAD, small, pin).ok

    bad = wl.run_launch(wl.RFAN_ROAD, small, dict(pin, cycles=pin["cycles"] + 1))
    assert not bad.ok
    assert any("pinned" in p for p in bad.problems)
    assert bad.seconds > 0


def test_a_launch_that_raises_is_a_failed_launch(small):
    out = wl.run_launch(wl.RFAN_ROAD, replace(small, capacity=4))
    assert not out.ok
    assert any("raised" in p for p in out.problems)


def test_wrong_depths_fail_the_check(small):
    wrong = small.depths.copy()
    wrong[-1] += 1
    out = wl.run_launch(wl.RFAN_ROAD, replace(small, depths=wrong))
    assert any("CPU reference" in p for p in out.problems)


def test_path_guards():
    assert wl.PATH_GUARDS["base"]({"queue.cas_retry_rounds": 0})
    assert wl.PATH_GUARDS["base"]({"queue.cas_retry_rounds": 3}) is None
    spill = wl.PATH_GUARDS["spill"]
    assert spill({"queue.spill.tokens": 5, "queue.spill.reinjected": 4})
    assert spill({}) and spill({"queue.spill.tokens": 5, "queue.spill.reinjected": 5}) is None


@pytest.mark.parametrize("cfg", [wl.RFAN_ROAD, wl.WORKLOADS["road-flight"][0]])
def test_a_traced_launch_simulates_what_the_untraced_one_does(small, cfg):
    plain = wl.run_launch(cfg, small)
    rec = SpanRecorder()
    rec.launch_id = 0
    traced = wl.run_launch(cfg, small, rec=rec)
    assert plain.ok and traced.ok
    assert traced.simulated() == plain.simulated()
    # class-level wrappers are gone after the launch
    assert AtomicSystem.__dict__["service"].__name__ == "service"
    seen = {rec.names[i] for i in rec.name}
    layers = {"simt.engine", "core.scheduler", "core.queue.acquire", "bfs.worker",
              "simt.atomics"}
    assert layers <= seen
    assert ("obs.probe" in seen) == cfg.flight


def test_tail_keeps_ten_samples_beyond_it():
    assert tail(range(25)) == (14, 60.0)
    assert tail(range(11)) == (0, 100.0 / 11)
    assert tail([3, 1, 2]) == (3, 100.0)
