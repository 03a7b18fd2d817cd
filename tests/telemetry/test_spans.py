"""Tracer semantics and Chrome-trace JSON shape."""

from __future__ import annotations

import json

from repro.telemetry.spans import (
    NULL_TRACER,
    Tracer,
    get_tracer,
    use_tracer,
)


class TestTracer:
    def test_span_records_on_exit(self):
        tracer = Tracer()
        with tracer.span("outer", label="x"):
            with tracer.span("inner"):
                pass
        events = tracer.events()
        assert [e.name for e in events] == ["inner", "outer"]  # completion order
        outer = events[1]
        assert outer.args == {"label": "x"}
        assert outer.duration_us >= events[0].duration_us

    def test_nesting_by_timestamps(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.events()
        assert outer.start_us <= inner.start_us
        assert outer.start_us + outer.duration_us >= inner.start_us + inner.duration_us

    def test_chrome_trace_shape(self):
        tracer = Tracer()
        with tracer.span("round", index=3):
            pass
        trace = tracer.to_chrome_trace()
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        (event,) = trace["traceEvents"]
        assert event["ph"] == "X"
        assert event["name"] == "round"
        assert event["args"] == {"index": 3}
        for key in ("ts", "dur", "pid", "tid"):
            assert isinstance(event[key], (int, float))
        json.dumps(trace)  # must be serialisable as-is

    def test_write_chrome_trace_and_jsonl(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        trace_path = tmp_path / "trace.json"
        jsonl_path = tmp_path / "trace.jsonl"
        tracer.write_chrome_trace(trace_path)
        tracer.write_jsonl(jsonl_path)
        loaded = json.loads(trace_path.read_text())
        assert len(loaded["traceEvents"]) == 2
        lines = [json.loads(ln) for ln in jsonl_path.read_text().splitlines()]
        assert [ln["name"] for ln in lines] == ["a", "b"]


class TestNullTracer:
    def test_default_is_noop(self):
        tracer = get_tracer()
        assert not tracer.enabled
        with tracer.span("anything", k=1):
            pass
        assert tracer.events() == []
        assert tracer.to_chrome_trace()["traceEvents"] == []

    def test_use_tracer_restores_previous(self):
        mine = Tracer()
        with use_tracer(mine):
            assert get_tracer() is mine
        assert get_tracer() is NULL_TRACER
