"""Hierarchical span tracer: the event-level view of one run.

The paper's contribution is a *runtime* decision procedure, so the
interesting questions are trajectories, not totals: why did this key
route compute-side, which request paid three retries, where did the
fallback land.  A :class:`Tracer` records that as a tree of **spans**
(``job → batch → request → retry attempt``) plus point **events**
(routing decisions, injected faults, timeouts) attached to spans.

Two invariants keep the tracer safe to thread through every engine:

* **Near-zero overhead when disabled.**  Every call site guards with a
  single attribute check (``if tracer.enabled:``) against the shared
  :data:`NO_TRACER` singleton, so an untraced run pays one boolean
  load per site and allocates nothing.
* **Observation only.**  Recording never touches the simulator — no
  events scheduled, no resources acquired, no RNG draws — so enabling
  tracing cannot change a run's outputs or timings (asserted by
  ``tests/test_obs.py``).

Timestamps are whatever clock the call site lives in: simulated
seconds inside the discrete-event engines, wall-clock offsets on
``ClusterBackend``.  One run sticks to one clock.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Hashable, Iterator


class Span:
    """One timed node in the trace tree."""

    __slots__ = ("span_id", "parent_id", "name", "start", "end", "status", "attrs")

    def __init__(
        self,
        span_id: str,
        parent_id: str | None,
        name: str,
        start: float,
        attrs: dict[str, Any],
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: float | None = None
        self.status: str | None = None
        self.attrs = attrs

    @property
    def finished(self) -> bool:
        """Whether :meth:`Tracer.end` has been called on this span."""
        return self.end is not None

    @property
    def duration(self) -> float:
        """Span length (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id}, "
            f"[{self.start:.4f}, {self.end}], status={self.status})"
        )


class SpanEvent:
    """One instantaneous occurrence, optionally attached to a span."""

    __slots__ = ("name", "time", "parent_id", "attrs")

    def __init__(
        self, name: str, time: float, parent_id: str | None, attrs: dict[str, Any]
    ) -> None:
        self.name = name
        self.time = time
        self.parent_id = parent_id
        self.attrs = attrs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpanEvent({self.name!r}, t={self.time:.4f}, parent={self.parent_id})"


class Tracer:
    """Recorder of spans and events for one run.

    Spans are created with :meth:`start` (explicit parent — the engines
    are callback-driven, so there is no call stack to infer nesting
    from) and closed with :meth:`end`.  The tracer never prunes: tests
    and exporters read :attr:`spans` / :attr:`events` directly.
    """

    #: Call sites guard on this before building attribute dicts.
    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.events: list[SpanEvent] = []
        self._seq = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def start(
        self,
        name: str,
        parent: "Span | str | None" = None,
        at: float = 0.0,
        **attrs: Any,
    ) -> Span:
        """Open a span named ``name`` at time ``at`` under ``parent``."""
        self._seq += 1
        span = Span(
            span_id=f"s{self._seq}",
            parent_id=_span_id(parent),
            name=name,
            start=at,
            attrs=attrs,
        )
        self.spans.append(span)
        return span

    def end(
        self, span: Span, at: float = 0.0, status: str = "ok", **attrs: Any
    ) -> None:
        """Close ``span`` at time ``at`` with a terminal ``status``."""
        span.end = at
        span.status = status
        if attrs:
            span.attrs.update(attrs)

    def event(
        self,
        name: str,
        parent: "Span | str | None" = None,
        at: float = 0.0,
        **attrs: Any,
    ) -> None:
        """Record one point event at time ``at`` under ``parent``."""
        self.events.append(SpanEvent(name, at, _span_id(parent), attrs))

    # ------------------------------------------------------------------
    # Views (used by exporters and tests)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.spans)

    def find(self, name: str) -> list[Span]:
        """All spans named ``name``, in creation order."""
        return [s for s in self.spans if s.name == name]

    def span_map(self) -> dict[str, Span]:
        """``span_id -> Span`` for parent-link checks."""
        return {s.span_id: s for s in self.spans}

    def children(self, span: Span | str) -> list[Span]:
        """Direct child spans of ``span``."""
        sid = _span_id(span)
        return [s for s in self.spans if s.parent_id == sid]

    def events_named(self, name: str) -> list[SpanEvent]:
        """All events named ``name``, in occurrence order."""
        return [e for e in self.events if e.name == name]

    def route_mix(self) -> dict[str, int]:
        """Routing-decision breakdown from the recorded route events."""
        return dict(
            Counter(e.attrs["route"] for e in self.events if e.name == "route")
        )

    def key_history(self, key: Hashable) -> list[str]:
        """The route sequence one key experienced."""
        return [
            e.attrs["route"] for e in self.events_named("route")
            if e.attrs["key"] == key
        ]

    def orphans(self) -> list[Span]:
        """Spans whose parent id does not resolve (should be empty)."""
        known = {s.span_id for s in self.spans}
        return [
            s for s in self.spans
            if s.parent_id is not None and s.parent_id not in known
        ]

    def unfinished(self) -> list[Span]:
        """Spans never ended (should be empty after a completed run)."""
        return [s for s in self.spans if not s.finished]

    def walk(self, span: Span) -> Iterator[Span]:
        """Depth-first iteration over ``span`` and its descendants."""
        yield span
        for child in self.children(span):
            yield from self.walk(child)


class NullTracer(Tracer):
    """The disabled tracer: every method is a no-op.

    A single shared instance (:data:`NO_TRACER`) is the default
    everywhere, so the hot paths pay one ``tracer.enabled`` check and
    nothing else.  ``start`` hands back one preallocated dummy span so
    even an unguarded call site cannot crash.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._dummy = Span("s0", None, "noop", 0.0, {})

    def start(self, name, parent=None, at=0.0, **attrs):  # type: ignore[override]
        return self._dummy

    def end(self, span, at=0.0, status="ok", **attrs):  # type: ignore[override]
        return None

    def event(self, name, parent=None, at=0.0, **attrs):  # type: ignore[override]
        return None


#: Shared disabled tracer — the default for every ``tracer`` parameter.
NO_TRACER = NullTracer()


def _span_id(parent: Span | str | None) -> str | None:
    if parent is None:
        return None
    if isinstance(parent, Span):
        return parent.span_id
    return parent
