"""Unit tests for the span tracer and Chrome trace-event export."""

import json

import pytest

from repro.observability.trace import (
    CycleClock,
    SpanTracer,
    validate_chrome_trace,
)


class TestCycleClock:
    def test_advance_and_reset(self):
        clk = CycleClock()
        clk.advance()
        clk.advance(5)
        assert clk.now == 6
        clk.reset()
        assert clk.now == 0


class TestSpanTracer:
    def test_invalid_detail_rejected(self):
        with pytest.raises(ValueError):
            SpanTracer(detail="everything")

    def test_nested_spans_become_complete_events(self):
        tr = SpanTracer()
        tr.begin("outer", "cat")
        tr.clock.advance(3)
        tr.begin("inner", "cat")
        tr.clock.advance(2)
        tr.end()
        tr.clock.advance(1)
        tr.end(extra="yes")
        inner, outer = tr.events
        assert (inner["name"], inner["ts"], inner["dur"]) == ("inner", 3, 2)
        assert (outer["name"], outer["ts"], outer["dur"]) == ("outer", 0, 6)
        assert outer["args"]["extra"] == "yes"
        assert all(e["ph"] == "X" for e in tr.events)

    def test_end_with_empty_stack_is_tolerated(self):
        tr = SpanTracer()
        assert tr.end() is None
        assert tr.events == []

    def test_complete_instant_counter_events(self):
        tr = SpanTracer()
        tr.complete("seg", ts=4, dur=1, cat="controller")
        tr.instant("marker", cycle=7)
        tr.counter("gates", 120)
        phases = [e["ph"] for e in tr.events]
        assert phases == ["X", "i", "C"]
        assert tr.events[2]["args"] == {"value": 120}

    def test_span_cycles_sums_by_name(self):
        tr = SpanTracer()
        tr.complete("mmm", ts=0, dur=28)
        tr.complete("mmm", ts=28, dur=28)
        tr.complete("other", ts=0, dur=5)
        assert tr.span_cycles("mmm") == 56
        assert len(tr.spans()) == 3
        assert len(tr.spans("other")) == 1

    def test_export_closes_open_spans_without_mutating(self):
        tr = SpanTracer()
        tr.begin("open", "cat")
        tr.clock.advance(9)
        doc = tr.to_dict()
        closed = [e for e in doc["traceEvents"] if e.get("name") == "open"]
        assert closed[0]["dur"] == 9
        assert closed[0]["args"]["unclosed"] is True
        assert tr.open_spans == 1  # the live stack is untouched
        assert tr.events == []

    def test_export_has_metadata_and_validates(self):
        tr = SpanTracer(detail="state")
        with_clock = tr.clock
        tr.begin("exponentiate", "exponentiator")
        with_clock.advance(28)
        tr.end()
        doc = tr.to_dict()
        names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "M"]
        assert "process_name" in names and "thread_name" in names
        assert doc["otherData"]["detail"] == "state"
        assert validate_chrome_trace(doc) == []

    def test_json_roundtrip(self, tmp_path):
        tr = SpanTracer()
        tr.complete("s", ts=0, dur=1)
        path = tmp_path / "t.json"
        tr.write(str(path))
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == []


class TestValidateChromeTrace:
    def test_rejects_non_object(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"events": []}) != []

    def test_rejects_bad_phase_and_missing_fields(self):
        bad = {
            "traceEvents": [
                {"ph": "?", "name": "x", "pid": 1},
                {"ph": "X", "name": "x", "pid": 1, "ts": 0},  # no dur
                {"ph": "X", "pid": 1, "ts": 0, "dur": 1},  # no name
            ]
        }
        problems = validate_chrome_trace(bad)
        assert len(problems) == 3

    def test_rejects_unbalanced_begin_end(self):
        doc = {"traceEvents": [{"ph": "B", "name": "a", "pid": 1, "ts": 0}]}
        assert any("never closed" in p for p in validate_chrome_trace(doc))
        doc = {"traceEvents": [{"ph": "E", "name": "a", "pid": 1, "ts": 0}]}
        assert any("without matching" in p for p in validate_chrome_trace(doc))

    def test_accepts_minimal_valid_trace(self):
        doc = {
            "traceEvents": [
                {"ph": "X", "name": "a", "pid": 1, "tid": 1, "ts": 0, "dur": 2},
                {"ph": "i", "name": "b", "pid": 1, "tid": 1, "ts": 1, "s": "t"},
            ]
        }
        assert validate_chrome_trace(doc) == []
