"""Span recorder for the traced run of the host-time benchmark.

Spans are recorded around the simulator's public entry points, from the
benchmark's side of each call:

* ``simt.engine``      — one root span per ``Engine.launch``;
* ``core.scheduler``   — each resume of a persistent-kernel generator;
* ``core.queue.acquire`` / ``core.queue.publish`` — each resume of the
  queue's ``acquire``/``publish`` generators;
* ``bfs.worker``       — each resume of ``BFSWorker.work_cycle``;
* ``simt.atomics``     — each ``AtomicSystem.service`` call;
* ``obs.probe``        — each probe callback of an attached recorder;
* ``obs.watchdog``     — each ``LivenessWatchdog.poll``;
* ``graphs.build``     — each graph generation.

A span stores its name, start, end, parent and launch id in flat arrays
that stay in memory until the run ends.  A span's self time is its
duration minus the durations of its direct children; the engine's self
time is therefore the launch span minus the kernel, atomic, probe and
watchdog spans that ran inside it.

Generator resumes are timed by :class:`TimedGenerator`, which forwards
``send``/``throw``/``close`` so the wrapped generator behaves exactly as
before — in particular ``close()`` still runs the kernel's ``finally``
block that flushes the scheduler's deferred counters.
"""

from __future__ import annotations

from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

#: span names, in the order their ids are assigned.
LAYER_SPANS = (
    "simt.engine",
    "core.scheduler",
    "core.scheduler.close",
    "core.queue.acquire",
    "core.queue.publish",
    "bfs.worker",
    "simt.atomics",
    "obs.probe",
    "obs.watchdog",
    "graphs.build",
)


class SpanRecorder:
    """In-memory span store: one row per span, appended in open order."""

    def __init__(self) -> None:
        self.names: List[str] = list(LAYER_SPANS)
        self._ids: Dict[str, int] = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.launch = array("i")
        #: calls of wrapped generator functions, by ``(launch, span name)``.
        self.calls: Counter = Counter()
        #: launch id stamped on new spans; -1 outside any launch (set-up).
        self.launch_id = -1
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.launch.append(self.launch_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        i = self.open(self._ids[name])
        try:
            yield
        finally:
            self.close(i)

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(name, duration, parent, launch)`` as NumPy arrays."""
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        return (
            np.frombuffer(self.name, dtype=np.int32),
            dur,
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.launch, dtype=np.int32),
        )

    def save(self, path) -> None:
        """Write every span to an ``.npz`` file (called once, at run end)."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.asarray(self.name),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            parent=np.asarray(self.parent),
            launch=np.asarray(self.launch),
        )


def self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its children."""
    has_parent = parent >= 0
    children = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=dur.size
    )
    return dur - children


class TimedGenerator:
    """Generator proxy that records one span per resume of ``gen``.

    Usable wherever the wrapped generator was: the engine drives kernels
    with ``send``/``close``, and ``yield from`` delegates ``send``,
    ``throw`` and ``close`` to it.  A ``StopIteration`` carrying the
    generator's return value passes through unchanged.
    """

    __slots__ = ("_gen", "_rec", "_nid", "_close_nid")

    def __init__(self, rec: SpanRecorder, nid: int, close_nid: int, gen):
        self._gen = gen
        self._rec = rec
        self._nid = nid
        self._close_nid = close_nid

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        rec = self._rec
        i = rec.open(self._nid)
        try:
            return self._gen.send(value)
        finally:
            rec.close(i)

    def throw(self, *args):
        rec = self._rec
        i = rec.open(self._nid)
        try:
            return self._gen.throw(*args)
        finally:
            rec.close(i)

    def close(self):
        rec = self._rec
        i = rec.open(self._close_nid)
        try:
            self._gen.close()
        finally:
            rec.close(i)


def traced_generator_function(
    rec: SpanRecorder, name: str, fn: Callable, close_name: str = ""
) -> Callable:
    """Wrap a generator function so each call returns a TimedGenerator."""
    nid = rec.name_id(name)
    close_nid = rec.name_id(close_name or name)

    def wrapper(*args, **kwargs):
        rec.calls[(rec.launch_id, name)] += 1
        return TimedGenerator(rec, nid, close_nid, fn(*args, **kwargs))

    return wrapper


def traced_function(rec: SpanRecorder, name: str, fn: Callable) -> Callable:
    """Wrap a plain function so each call records one span."""
    nid = rec.name_id(name)

    def wrapper(*args, **kwargs):
        i = rec.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(i)

    return wrapper


@contextmanager
def patched_methods(
    rec: SpanRecorder, cls: type, methods, name: str
) -> Iterator[None]:
    """Time ``cls``'s ``methods`` (inherited ones too) under span ``name``.

    Patches the class attributes for the duration of the block and
    restores them afterwards, so every instance created inside the block
    — such as the atomic system ``Engine.launch`` builds per launch — is
    traced.
    """
    saved = {m: cls.__dict__.get(m) for m in methods}
    try:
        for m in methods:
            setattr(cls, m, traced_function(rec, name, getattr(cls, m)))
        yield
    finally:
        for m, orig in saved.items():
            if orig is None:
                delattr(cls, m)
            else:
                setattr(cls, m, orig)
