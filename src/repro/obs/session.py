"""Process-wide instrument attachment for existing entry points.

The harness (and user code) reaches the engine through several layers
— ``run_persistent_bfs``, soup drivers, experiment tables — and most of
those signatures predate observability.  A session avoids threading a
``probe=`` argument through all of them: while it is open, it keeps one
:class:`repro.simt.engine.Instruments` entry attached with
:func:`repro.simt.engine.attach`, so every ``Engine.launch`` in this
process gets the session's instruments.

:class:`InstrumentSession` is the shared enter/exit of
:class:`ProfileSession` (here), :class:`~repro.obs.blame.BlameSession`,
:class:`~repro.obs.flight.FlightSession` and
:class:`~repro.obs.registry.MetricsSession`; each names only the
instruments it attaches.  Sessions compose: open any of them together
and every launch feeds all of them.  Probes are passive, so everything
the wrapped code returns (reports, stats, tables) is byte-identical to
an uninstrumented run.

Usage::

    with ProfileSession() as prof, FlightSession(watchdog=True):
        run_persistent_bfs(...)
    prof.launches[0]["metrics"]["engine"]["occupancy"]

Not multiprocess-aware: the attachment lives in *this* interpreter, so
worker processes open their own sessions (as the harness does).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.simt.engine import Instruments, attach

from .metrics import compute_metrics
from .timeline import TimelineProbe


class InstrumentSession:
    """Attach :meth:`_instruments` while the session is open.

    Not re-entrant: entering an open session, or exiting one that is
    not open, raises :class:`RuntimeError` and leaves every attachment
    as it was.  A closed session can be entered again.
    """

    _attachment = None

    def _instruments(self) -> Instruments:
        raise NotImplementedError

    def __enter__(self):
        if self._attachment is not None:
            raise RuntimeError(f"{type(self).__name__} is not re-entrant")
        attachment = attach(self._instruments())
        attachment.__enter__()
        self._attachment = attachment
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._attachment is None:
            raise RuntimeError(
                f"{type(self).__name__} exited without being entered"
            )
        attachment, self._attachment = self._attachment, None
        attachment.__exit__(None, None, None)


class ProfileSession(InstrumentSession):
    """Attach a TimelineProbe to every launch while the session is open.

    Parameters
    ----------
    bins:
        Time-bin count handed to :func:`~repro.obs.metrics.compute_metrics`.
    max_events:
        Per-launch cap forwarded to :class:`TimelineProbe`.
    keep_timelines:
        When true, the raw probe objects are retained in
        ``launches[i]["timeline"]`` (needed for Perfetto export);
        otherwise only the reduced metrics dict is kept.
    """

    def __init__(
        self,
        bins: int = 60,
        max_events: int = 2_000_000,
        keep_timelines: bool = True,
    ):
        self.bins = bins
        self.max_events = max_events
        self.keep_timelines = keep_timelines
        #: one entry per finished launch: {"metrics": ..., "timeline": ...}
        self.launches: List[Dict] = []

    def _collect(self, probe: TimelineProbe) -> None:
        entry: Dict = {"metrics": compute_metrics(probe, bins=self.bins)}
        if self.keep_timelines:
            entry["timeline"] = probe
        self.launches.append(entry)

    def _factory(self) -> TimelineProbe:
        return TimelineProbe(max_events=self.max_events, on_end=self._collect)

    def _instruments(self) -> Instruments:
        return Instruments(probe=self._factory)

    # ------------------------------------------------------------------
    @property
    def last(self) -> Optional[Dict]:
        """The most recent launch entry, or None."""
        return self.launches[-1] if self.launches else None

    def total_cycles(self) -> int:
        """Sum of simulated cycles across collected launches."""
        return sum(e["metrics"]["cycles"] for e in self.launches)
