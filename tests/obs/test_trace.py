"""Tracer: ids, ring buffer bounds, stage aggregation, JSONL sink."""

import pytest

from repro.obs import TRACE_STAGES, Tracer, read_run


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


class TestRequestTrace:
    def test_ids_are_monotonic(self):
        tracer = Tracer()
        assert tracer.begin().trace_id == 1
        assert tracer.begin().trace_id == 2

    def test_started_at_from_clock_or_caller(self):
        clock = FakeClock(12.5)
        tracer = Tracer(clock=clock)
        assert tracer.begin().started_at == 12.5
        assert tracer.begin(started_at=3.0).started_at == 3.0

    def test_mark_clamps_negative(self):
        trace = Tracer().begin()
        trace.mark("enqueue", -0.5)
        assert trace.stages["enqueue"] == 0.0


class TestTracer:
    def test_finish_fills_every_stage(self):
        tracer = Tracer()
        trace = tracer.begin()
        trace.mark("forward", 0.25)
        record = tracer.finish(trace, 0.5)
        assert set(record["stages"]) == set(TRACE_STAGES)
        assert record["stages"]["forward"] == 0.25
        assert record["stages"]["enqueue"] == 0.0
        assert record["total_seconds"] == 0.5

    def test_ring_is_bounded(self):
        tracer = Tracer(capacity=3)
        for _ in range(10):
            tracer.finish(tracer.begin(), 0.1)
        assert len(tracer) == 3
        assert tracer.completed == 10
        # Oldest-first, holding the most recent ids.
        assert [t["trace_id"] for t in tracer.recent()] == [8, 9, 10]
        assert [t["trace_id"] for t in tracer.recent(2)] == [9, 10]

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_stage_totals(self):
        tracer = Tracer()
        for forward in (0.1, 0.3):
            trace = tracer.begin()
            trace.mark("forward", forward)
            tracer.finish(trace, forward + 0.1)
        totals = tracer.stage_totals()
        assert totals["forward"]["count"] == 2
        assert totals["forward"]["total_seconds"] == pytest.approx(0.4)
        assert totals["forward"]["mean_seconds"] == pytest.approx(0.2)
        assert totals["forward"]["max_seconds"] == pytest.approx(0.3)
        assert totals["total"]["total_seconds"] == pytest.approx(0.6)

    def test_pack_totals_count_only_packed_traces(self):
        """Padded execution is part of ``forward``: there is no separate
        pack stage, and every trace counts toward every stage's totals."""
        assert "pack" not in TRACE_STAGES
        tracer = Tracer()
        for forward in (0.1, 0.2, 0.1):
            trace = tracer.begin()
            trace.mark("forward", forward)
            tracer.finish(trace, 0.5)
        records = tracer.recent()
        assert all(set(r["stages"]) == set(TRACE_STAGES) for r in records)
        assert all("packed" not in r for r in records)
        totals = tracer.stage_totals()
        assert "pack" not in totals
        assert totals["forward"]["count"] == 3
        assert totals["forward"]["mean_seconds"] == pytest.approx(0.4 / 3)
        assert totals["enqueue"]["count"] == 3

    def test_stage_totals_empty(self):
        totals = Tracer().stage_totals()
        assert totals["total"]["count"] == 0
        assert totals["forward"]["mean_seconds"] == 0.0

    def test_clear(self):
        tracer = Tracer()
        tracer.finish(tracer.begin(), 0.1)
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.completed == 1  # lifetime counter survives


class TestTraceSink:
    def test_completed_traces_reach_the_sink(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        tracer = Tracer(capacity=2, sink_path=path)
        for _ in range(5):
            trace = tracer.begin()
            trace.mark("forward", 0.1)
            tracer.finish(trace, 0.2)
        tracer.close()
        records = read_run(path)
        traces = [r for r in records if r["type"] == "trace"]
        # The sink keeps everything, beyond the in-memory ring's capacity.
        assert len(traces) == 5
        assert traces[0]["stages"]["forward"] == 0.1
        summary = [r for r in records if r["type"] == "summary"]
        assert summary and summary[0]["traces_completed"] == 5

    def test_close_without_sink_is_noop(self):
        tracer = Tracer()
        tracer.close()
        tracer.close()
