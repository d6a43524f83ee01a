"""Cycle-accurate span tracer with Chrome trace-event JSON export.

The tracer records a nested timeline of the simulation — exponentiation →
multiplication → controller-state segments → per-cycle events — against a
:class:`CycleClock` that the instrumented circuits advance once per
*charged* clock cycle.  The export is the Chrome trace-event format
(JSON object with a ``traceEvents`` array), directly openable in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``; one simulated cycle is
rendered as one microsecond, the format's native tick.

Detail levels (each includes the previous):

* ``"op"``    — operation spans only (exponentiate / multiply);
* ``"state"`` — adds one segment span per controller-state visit
  (MUL1/MUL2/OUT), i.e. ``3l+4`` segments per multiplication;
* ``"cycle"`` — adds per-cycle instant events from the array model.

Spans are emitted as complete (``ph: "X"``) events when they close, so a
finished trace needs no begin/end pairing by the viewer; spans still open
at export time are closed at the current clock value in the exported copy
only.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

__all__ = [
    "CycleClock",
    "SpanTracer",
    "TRACE_DETAILS",
    "validate_chrome_trace",
]

TRACE_DETAILS = ("op", "state", "cycle")


class CycleClock:
    """Monotonic simulated-cycle counter shared by tracer and circuits."""

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0

    def advance(self, cycles: int = 1) -> None:
        self.now += cycles

    def reset(self) -> None:
        self.now = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CycleClock(now={self.now})"


class SpanTracer:
    """Nested-span recorder over a :class:`CycleClock`.

    Parameters
    ----------
    clock:
        The cycle clock providing timestamps; created if not given.  When
        installed on the global observer, instrumented circuits advance
        this clock once per charged cycle.
    detail:
        One of :data:`TRACE_DETAILS`; how deep the emitted timeline goes.
    """

    PID = 1
    TID = 1

    def __init__(
        self, clock: Optional[CycleClock] = None, *, detail: str = "op"
    ) -> None:
        if detail not in TRACE_DETAILS:
            raise ValueError(f"detail must be one of {TRACE_DETAILS}, got {detail!r}")
        self.clock = clock if clock is not None else CycleClock()
        self.detail = detail
        self.events: List[Dict[str, Any]] = []
        self._stack: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(self, name: str, cat: str = "sim", **args: Any) -> None:
        """Open a nested span at the current cycle."""
        self._stack.append(
            {"name": name, "cat": cat, "ts": self.clock.now, "args": dict(args)}
        )

    def end(self, **args: Any) -> Optional[Dict[str, Any]]:
        """Close the innermost open span; extra args merge into the span.

        Tolerates an empty stack (returns ``None``) so instrumentation
        that was enabled mid-operation cannot crash the simulation.
        """
        if not self._stack:
            return None
        top = self._stack.pop()
        top["args"].update(args)
        event = self._complete_event(
            top["name"], top["cat"], top["ts"], self.clock.now - top["ts"], top["args"]
        )
        self.events.append(event)
        return event

    def complete(
        self, name: str, ts: int, dur: int, cat: str = "sim", **args: Any
    ) -> None:
        """Record an already-delimited span (e.g. a 1-cycle state segment)."""
        self.events.append(self._complete_event(name, cat, ts, dur, dict(args)))

    def instant(self, name: str, cat: str = "sim", **args: Any) -> None:
        """A zero-duration marker at the current cycle."""
        self.events.append(
            {
                "name": name,
                "cat": cat,
                "ph": "i",
                "s": "t",
                "ts": self.clock.now,
                "pid": self.PID,
                "tid": self.TID,
                "args": dict(args),
            }
        )

    def counter(self, name: str, value: float, cat: str = "sim") -> None:
        """A counter-track sample (rendered as a graph in Perfetto)."""
        self.events.append(
            {
                "name": name,
                "cat": cat,
                "ph": "C",
                "ts": self.clock.now,
                "pid": self.PID,
                "args": {"value": value},
            }
        )

    def _complete_event(
        self, name: str, cat: str, ts: int, dur: int, args: Dict[str, Any]
    ) -> Dict[str, Any]:
        return {
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": ts,
            "dur": dur,
            "pid": self.PID,
            "tid": self.TID,
            "args": args,
        }

    # ------------------------------------------------------------------
    # Introspection helpers (used by tests and the CLI summary)
    # ------------------------------------------------------------------
    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def spans(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        """All recorded complete events, optionally filtered by name."""
        return [
            e
            for e in self.events
            if e["ph"] == "X" and (name is None or e["name"] == name)
        ]

    def span_cycles(self, name: str) -> int:
        """Total duration (in cycles) of every span with this name."""
        return sum(e["dur"] for e in self.spans(name))

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The Chrome trace-event object; open spans closed in the copy."""
        events: List[Dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": self.PID,
                "tid": 0,
                "args": {"name": "repro simulation"},
            },
            {
                "name": "thread_name",
                "ph": "M",
                "pid": self.PID,
                "tid": self.TID,
                "args": {"name": "cycles"},
            },
        ]
        events.extend(self.events)
        for frame in reversed(self._stack):
            events.append(
                self._complete_event(
                    frame["name"],
                    frame["cat"],
                    frame["ts"],
                    self.clock.now - frame["ts"],
                    {**frame["args"], "unclosed": True},
                )
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "tool": "repro.observability",
                "timeUnit": "1 ts = 1 simulated clock cycle",
                "detail": self.detail,
            },
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")


# ----------------------------------------------------------------------
# Schema validation (shared by the test-suite and ``--trace`` users)
# ----------------------------------------------------------------------
_VALID_PHASES = set("BEXiICcbnesfMmPOoDTRpv(){}N")


def validate_chrome_trace(obj: Any) -> List[str]:
    """Check ``obj`` against the Chrome trace-event JSON schema.

    Returns a list of human-readable problems — empty when the trace is
    valid.  Covers the subset of the format Perfetto requires for import:
    a ``traceEvents`` array of dicts, each with a known ``ph``, a string
    ``name``, integer timestamps, ``dur`` on complete events, balanced
    ``B``/``E`` pairs, and a scope flag on instants.
    """
    problems: List[str] = []
    if not isinstance(obj, dict) or "traceEvents" not in obj:
        return ["top level must be an object with a 'traceEvents' key"]
    events = obj["traceEvents"]
    if not isinstance(events, list):
        return ["'traceEvents' must be an array"]
    depth = 0
    for i, e in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(e, dict):
            problems.append(f"{where}: event must be an object")
            continue
        ph = e.get("ph")
        if not isinstance(ph, str) or ph not in _VALID_PHASES:
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        if not isinstance(e.get("name"), str):
            problems.append(f"{where}: missing string 'name'")
        if "pid" not in e:
            problems.append(f"{where}: missing 'pid'")
        if ph != "M":
            ts = e.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"{where}: missing/negative 'ts'")
        if ph == "X":
            dur = e.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: complete event needs 'dur' >= 0")
        elif ph == "i":
            if e.get("s", "t") not in ("g", "p", "t"):
                problems.append(f"{where}: instant scope must be g/p/t")
        elif ph == "B":
            depth += 1
        elif ph == "E":
            depth -= 1
            if depth < 0:
                problems.append(f"{where}: 'E' without matching 'B'")
                depth = 0
        elif ph == "C" and "args" not in e:
            problems.append(f"{where}: counter event needs 'args'")
    if depth > 0:
        problems.append(f"{depth} 'B' event(s) never closed by 'E'")
    return problems
