"""Recorders, spans, counters, gauges — and the active-recorder stack.

Instrumented code never holds a recorder; it calls the module-level
helpers (:func:`span`, :func:`count`, :func:`gauge`,
:func:`gauge_max`), which dispatch to every recorder currently
installed by :func:`record`.  With no recorder installed the helpers
return immediately, so instrumentation is free in ordinary runs.

Recorders nest by stacking: events reach *all* active recorders, which
lets :func:`repro.verify.receptiveness.check_receptiveness` attach its
own per-call metrics while an outer CLI ``--profile`` recorder sees the
same events — the two can never disagree.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.obs.clock import Clock, MonotonicClock

#: Version tag carried by every emitted metrics payload.
SCHEMA_VERSION = "repro.obs/v1"


@dataclass
class SpanRecord:
    """One timed phase.  ``end`` is ``None`` while the span is open."""

    name: str
    start: float
    end: float | None = None
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float | None:
        return None if self.end is None else self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "meta": dict(self.meta),
        }


class MetricsRecorder:
    """A sink for spans, counters and gauges.

    * **spans** are appended in open order and closed in place;
    * **counters** are additive (``count`` sums deltas);
    * **gauges** are level measurements — ``gauge`` overwrites,
      ``gauge_max`` keeps the high-water mark.

    The clock defaults to the clock of the innermost already-active
    recorder (so a test installing a :class:`~repro.obs.clock.FakeClock`
    controls nested recorders too), then to a monotonic clock.
    """

    def __init__(self, clock: Clock | None = None):
        if clock is None:
            parent = current()
            clock = parent.clock if parent is not None else MonotonicClock()
        self.clock = clock
        self.spans: list[SpanRecord] = []
        self.counters: dict[str, int | float] = {}
        self.gauges: dict[str, int | float] = {}

    # -- event sinks --------------------------------------------------------

    def start_span(self, name: str, meta: dict[str, Any]) -> SpanRecord:
        record = SpanRecord(name, self.clock.now(), None, meta)
        self.spans.append(record)
        return record

    def end_span(self, span: SpanRecord) -> None:
        span.end = self.clock.now()

    def count(self, name: str, delta: int | float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + delta

    def gauge(self, name: str, value: int | float) -> None:
        self.gauges[name] = value

    def gauge_max(self, name: str, value: int | float) -> None:
        if value > self.gauges.get(name, float("-inf")):
            self.gauges[name] = value

    # -- export -------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The documented JSON payload (see ``docs/OBSERVABILITY.md``)."""
        return {
            "schema": SCHEMA_VERSION,
            "clock": self.clock.name,
            "spans": [span.to_dict() for span in self.spans],
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
        }


#: Innermost-last stack of active recorders; events go to all of them.
_stack: list[MetricsRecorder] = []


def active() -> bool:
    """``True`` iff at least one recorder is collecting."""
    return bool(_stack)


def current() -> MetricsRecorder | None:
    """The innermost active recorder, or ``None``."""
    return _stack[-1] if _stack else None


@contextmanager
def record(
    clock: Clock | None = None, recorder: MetricsRecorder | None = None
) -> Iterator[MetricsRecorder]:
    """Install a recorder for the duration of the ``with`` block."""
    sink = recorder if recorder is not None else MetricsRecorder(clock=clock)
    _stack.append(sink)
    try:
        yield sink
    finally:
        for index in range(len(_stack) - 1, -1, -1):
            if _stack[index] is sink:
                del _stack[index]
                break


class SpanHandle:
    """Yielded by :func:`span`; lets the body attach metadata."""

    __slots__ = ("_meta",)

    def __init__(self, meta: dict[str, Any]):
        self._meta = meta

    def set(self, **values: Any) -> None:
        self._meta.update(values)


class _NullHandle:
    __slots__ = ()

    def set(self, **values: Any) -> None:
        pass


_NULL_HANDLE = _NullHandle()


@contextmanager
def span(name: str, **meta: Any) -> Iterator[SpanHandle | _NullHandle]:
    """Time a phase on every active recorder.

    The handle's ``set(**values)`` attaches metadata visible in all
    recorders (the ``meta`` dict is shared).  Spans close even when the
    body raises, so aborted explorations still report their cost.
    """
    if not _stack:
        yield _NULL_HANDLE
        return
    shared = dict(meta)
    opened = [(sink, sink.start_span(name, shared)) for sink in _stack]
    try:
        yield SpanHandle(shared)
    finally:
        for sink, started in opened:
            sink.end_span(started)


def count(name: str, delta: int | float = 1) -> None:
    """Add ``delta`` to a counter on every active recorder."""
    for sink in _stack:
        sink.count(name, delta)


def gauge(name: str, value: int | float) -> None:
    """Set a gauge (last write wins) on every active recorder."""
    for sink in _stack:
        sink.gauge(name, value)


def gauge_max(name: str, value: int | float) -> None:
    """Raise a high-water-mark gauge on every active recorder."""
    for sink in _stack:
        sink.gauge_max(name, value)
