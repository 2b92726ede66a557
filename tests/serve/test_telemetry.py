"""The serve-tier telemetry plane: traces, windows, SLO health, export.

Everything here rides the same acceptance property as the rest of the
serve tests: telemetry is passive, so scores never change — plus the
plane's own contracts: stage timings that add up, health() that breaches
under an injected fake clock, and an exporter that drains on close.
"""

import errno
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.core import HIREPredictor
from repro.obs import RunRecorder, SLORule, read_run
from repro.serve import PredictionService, QueueFullError, ServiceConfig


class FakeClock:
    """Monotonic fake: starts at a real offset so real-clock defaults in
    unrelated components stay sane."""

    def __init__(self, now=1000.0):
        self.now = now
        self._lock = threading.Lock()

    def __call__(self):
        with self._lock:
            return self.now

    def advance(self, seconds):
        with self._lock:
            self.now += seconds


def make_service(model, split, tasks, clock=None, **overrides):
    config = ServiceConfig(**overrides)
    kwargs = {} if clock is None else {"clock": clock}
    return PredictionService.from_split(model, split, tasks, config=config,
                                        **kwargs)


@pytest.fixture(scope="module")
def sequential_scores(serve_model, ml_split, serve_tasks):
    predictor = HIREPredictor(serve_model, ml_split, serve_tasks, seed=0,
                              per_task_rng=True)
    return [predictor.predict_task(task) for task in serve_tasks]


class TestTracingIsPassive:
    def test_traced_scores_equal_untraced_and_sequential(
            self, serve_model, ml_split, serve_tasks, sequential_scores,
            tmp_path):
        with make_service(serve_model, ml_split, serve_tasks,
                          trace_enabled=False) as service:
            untraced = [service.predict(t.user, t.query_items,
                                        t.support_items)
                        for t in serve_tasks]
        with make_service(serve_model, ml_split, serve_tasks,
                          trace_enabled=True,
                          trace_sink=str(tmp_path / "traces.jsonl"),
                          export_path=str(tmp_path / "telemetry.jsonl"),
                          export_interval_seconds=0.05) as service:
            traced = [service.predict(t.user, t.query_items, t.support_items)
                      for t in serve_tasks]
        for expected, a, b in zip(sequential_scores, untraced, traced):
            assert np.array_equal(expected, a)
            assert np.array_equal(expected, b)


class TestStageAttribution:
    def test_every_completed_request_is_traced(self, serve_model, ml_split,
                                               serve_tasks):
        with make_service(serve_model, ml_split, serve_tasks,
                          max_batch_size=4) as service:
            futures = [service.submit(t.user, t.query_items, t.support_items)
                       for t in serve_tasks]
            for future in futures:
                future.result(60)
            assert service.tracer.completed == len(serve_tasks)
            totals = service.tracer.stage_totals()
            assert totals["total"]["count"] == len(serve_tasks)
            for trace in service.tracer.recent():
                stages = trace["stages"]
                assert all(v >= 0.0 for v in stages.values())
                # Stage times cannot exceed end-to-end latency (respond
                # overlaps the tail, so compare the pipeline stages).
                pipeline = (stages["enqueue"] + stages["batch_form"]
                            + stages["assemble"] + stages["forward"])
                assert pipeline <= trace["total_seconds"] + 1e-6

    def test_stage_windows_populated(self, serve_model, ml_split,
                                     serve_tasks):
        with make_service(serve_model, ml_split, serve_tasks) as service:
            task = serve_tasks[0]
            service.predict(task.user, task.query_items, task.support_items)
            snapshot = service.metrics.snapshot()
            assert "pack" not in obs.TRACE_STAGES
            for stage in obs.TRACE_STAGES:
                snap = snapshot[f"serve.stage.{stage}_seconds"]
                assert snap["type"] == "windowed_histogram"
                assert snap["count"] == 1
            assert snapshot["serve.window.latency_seconds"]["count"] == 1

    def test_pack_stage_counts_only_packed_batches(self, serve_model,
                                                   ml_split, serve_tasks):
        """A padded request's model execution is its ``forward`` stage: a
        request whose budget pads up to its bucket (20x26 -> 24x32) reports
        forward time like a uniform-budget one, and no stage is named
        ``pack``.  Only the padded bucket sets the packing metrics."""
        with make_service(serve_model, ml_split, serve_tasks) as service:
            uniform, mixed = serve_tasks[0], serve_tasks[1]
            service.predict(uniform.user, uniform.query_items,
                            uniform.support_items)
            assert "serve.packed_contexts_total" not in (
                service.metrics.snapshot())
            service.predict(mixed.user, mixed.query_items,
                            mixed.support_items, context_users=20,
                            context_items=26)
            snapshot = service.metrics.snapshot()
            traces = service.tracer.recent()
            totals = service.tracer.stage_totals()
        assert snapshot["serve.packed_contexts_total"]["value"] > 0
        for trace in traces:
            assert "packed" not in trace
            assert set(trace["stages"]) == set(obs.TRACE_STAGES)
            assert trace["stages"]["forward"] > 0.0
        assert "serve.stage.pack_seconds" not in snapshot
        assert snapshot["serve.stage.forward_seconds"]["count"] == 2
        assert "pack" not in totals
        assert totals["forward"]["count"] == 2

    def test_trace_disabled_leaves_no_trace_state(self, serve_model,
                                                  ml_split, serve_tasks):
        with make_service(serve_model, ml_split, serve_tasks,
                          trace_enabled=False) as service:
            task = serve_tasks[0]
            service.predict(task.user, task.query_items, task.support_items)
            assert service.tracer is None
            snapshot = service.metrics.snapshot()
            assert not any(name.startswith("serve.stage.")
                           for name in snapshot)
            assert "trace" not in service.stats()

    def test_stats_and_report_surface_traces(self, serve_model, ml_split,
                                             serve_tasks):
        with make_service(serve_model, ml_split, serve_tasks) as service:
            task = serve_tasks[0]
            service.predict(task.user, task.query_items, task.support_items)
            stats = service.stats()
            assert stats["trace"]["completed"] == 1
            assert stats["trace"]["stage_totals"]["forward"]["count"] == 1
            report = service.report()
            assert "forward" in report
            assert "health: ok" in report

    def test_packed_path_span_attribution(self, serve_model, ml_split,
                                          serve_tasks, parked_worker):
        """Mixed context budgets force the packed path; its engine work
        shows up under serve/forward in the span tree, and the trace's
        forward stage counts it."""
        budgets = [(20, 26), (24, 30), (18, 28)]  # one (24, 32) bucket
        with make_service(serve_model, ml_split, serve_tasks,
                          max_batch_size=len(budgets)) as service:
            obs.reset_spans()
            with obs.profiling():
                task = serve_tasks[0]
                with parked_worker(service):
                    futures = [service.submit(task.user, task.query_items,
                                              task.support_items,
                                              context_users=n,
                                              context_items=m)
                               for n, m in budgets]
                for future in futures:
                    future.result(60)
            totals = obs.span_totals()
        assert totals["serve/assemble"].count >= 1
        assert totals["serve/forward"].count >= 1
        assert not any(name.endswith("serve/pack") for name in totals)
        engine = totals["serve/forward/infer/forward"]
        assert engine.count >= 1
        assert engine.total_seconds <= totals["serve/forward"].total_seconds
        # The trace agrees: the forward stage is non-zero on the packed path.
        assert service.tracer.stage_totals()["forward"]["total_seconds"] > 0


class TestHealth:
    def test_idle_service_is_ok_with_no_data(self, serve_model, ml_split,
                                             serve_tasks):
        with make_service(serve_model, ml_split, serve_tasks) as service:
            health = service.health()
            assert health["state"] == "ok"
            states = {s["name"]: s["state"] for s in health["slos"]}
            assert states["latency_p99"] == "no_data"
            assert health["workers_alive"] == 1
            assert not health["closed"]

    def test_fake_clock_latency_breaches_p99_rule(
            self, serve_model, ml_split, serve_tasks, monkeypatch):
        """The acceptance scenario: a request held 5 fake seconds behind a
        gate violates a 100 ms p99 SLO and health() reports the breach."""
        clock = FakeClock()
        rules = (SLORule(name="latency_p99", probe="latency_p99_seconds",
                         objective="max", threshold=0.1),)
        service = make_service(serve_model, ml_split, serve_tasks,
                               clock=clock, slo_rules=rules)
        try:
            gate = threading.Event()
            original = service._process_batch

            def gated(batch):
                gate.wait(30)
                original(batch)

            monkeypatch.setattr(service, "_process_batch", gated)
            task = serve_tasks[0]
            future = service.submit(task.user, task.query_items,
                                    task.support_items)
            clock.advance(5.0)  # the request ages behind the gate
            gate.set()
            future.result(60)
            health = service.health()
            assert health["state"] == "breach"
            latency = {s["name"]: s for s in health["slos"]}["latency_p99"]
            assert latency["state"] == "breach"
            assert latency["short_value"] >= 5.0
            assert "breach" in service.report()
        finally:
            service.close()

    def test_shed_rate_probe_counts_rejections(self, serve_model, ml_split,
                                               serve_tasks, monkeypatch):
        service = make_service(serve_model, ml_split, serve_tasks,
                               queue_size=1, max_batch_size=1)
        try:
            gate = threading.Event()
            original = service._process_batch

            def gated(batch):
                gate.wait(30)
                original(batch)

            monkeypatch.setattr(service, "_process_batch", gated)
            task = serve_tasks[0]
            futures, rejected = [], 0
            for _ in range(12):
                try:
                    futures.append(service.submit(task.user, task.query_items,
                                                  task.support_items))
                except QueueFullError:
                    rejected += 1
            assert rejected > 0
            health = service.health()
            shed = {s["name"]: s for s in health["slos"]}["shed_rate"]
            expected = rejected / (rejected + len(futures))
            assert shed["short_value"] == pytest.approx(expected)
            assert shed["state"] == "breach"
            gate.set()
            for future in futures:
                future.result(60)
        finally:
            service.close()

    def test_health_in_stats(self, serve_model, ml_split, serve_tasks):
        with make_service(serve_model, ml_split, serve_tasks) as service:
            stats = service.stats()
            assert stats["health"]["state"] == "ok"
            assert "windows" in stats["health"]


class TestServiceExporter:
    def test_exporter_drains_on_close(self, serve_model, ml_split,
                                      serve_tasks, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        with make_service(serve_model, ml_split, serve_tasks,
                          export_path=str(path),
                          export_interval_seconds=3600.0) as service:
            task = serve_tasks[0]
            service.predict(task.user, task.query_items, task.support_items)
        # Interval far in the future: the only export is the drain on
        # close, and it must already hold the request's telemetry.
        records = read_run(path)
        exports = [r for r in records if r["type"] == "export"]
        assert len(exports) == 1
        final = exports[-1]
        assert final["metrics"]["serve.completed_total"]["value"] == 1.0
        assert final["health"]["state"] in ("ok", "warn", "breach")
        assert records[-1]["type"] == "summary"

    def test_periodic_export_ticks(self, serve_model, ml_split, serve_tasks,
                                   tmp_path):
        path = tmp_path / "telemetry.jsonl"
        with make_service(serve_model, ml_split, serve_tasks,
                          export_path=str(path),
                          export_interval_seconds=0.02) as service:
            deadline = time.monotonic() + 5.0
            while (service.exporter.num_exports < 2
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert service.exporter.num_exports >= 2

    def test_no_export_path_no_exporter(self, serve_model, ml_split,
                                        serve_tasks):
        with make_service(serve_model, ml_split, serve_tasks) as service:
            assert service.exporter is None


class TestTraceSinkFromService:
    def test_sink_holds_every_completed_trace(self, serve_model, ml_split,
                                              serve_tasks, tmp_path):
        path = tmp_path / "traces.jsonl"
        with make_service(serve_model, ml_split, serve_tasks,
                          trace_sink=str(path)) as service:
            futures = [service.submit(t.user, t.query_items, t.support_items)
                       for t in serve_tasks]
            for future in futures:
                future.result(60)
        traces = [r for r in read_run(path) if r["type"] == "trace"]
        assert len(traces) == len(serve_tasks)
        assert all(set(t["stages"]) == set(obs.TRACE_STAGES) for t in traces)


def failing_writes(monkeypatch, record_type):
    """Make every ``RunRecorder`` write of ``record_type`` records fail
    the way a full disk does."""
    write = RunRecorder._write

    def failing(self, record):
        if record["type"] == record_type:
            raise OSError(errno.ENOSPC, "No space left on device")
        write(self, record)

    monkeypatch.setattr(RunRecorder, "_write", failing)


class TestTelemetryWriteErrors:
    def test_trace_sink_error_does_not_fail_served_requests(
            self, serve_model, ml_split, serve_tasks, sequential_scores,
            parked_worker, monkeypatch, tmp_path):
        """The sink's write error used to escape into the batch: of four
        coalesced requests only the first was answered."""
        failing_writes(monkeypatch, "trace")
        task = serve_tasks[0]
        with make_service(serve_model, ml_split, serve_tasks,
                          max_batch_size=4,
                          trace_sink=str(tmp_path / "traces.jsonl")
                          ) as service:
            with parked_worker(service):
                futures = [service.submit(task.user, task.query_items,
                                          task.support_items)
                           for _ in range(4)]
            scores = [future.result(60) for future in futures]
            snapshot = service.metrics.snapshot()
            stats = service.stats()
            health = service.health()
        for got in scores:
            assert np.array_equal(got, sequential_scores[0])
        assert "serve.failed_total" not in snapshot
        assert snapshot["serve.completed_total"]["value"] == 4
        assert stats["trace"]["completed"] == 4
        assert stats["trace"]["buffered"] == 4
        assert stats["trace"]["sink_error"].startswith("OSError")
        assert health["trace_sink_error"] == stats["trace"]["sink_error"]
        assert health["export_error"] is None

    def test_export_error_is_surfaced_and_close_completes(
            self, serve_model, ml_split, serve_tasks, monkeypatch, tmp_path):
        """The exporter's write error used to end its thread silently and
        make close() raise before the tracer finalized its sink."""
        failing_writes(monkeypatch, "export")
        trace_path = tmp_path / "traces.jsonl"
        service = make_service(serve_model, ml_split, serve_tasks,
                               trace_sink=str(trace_path),
                               export_path=str(tmp_path / "telemetry.jsonl"),
                               export_interval_seconds=0.01)
        task = serve_tasks[0]
        service.predict(task.user, task.query_items, task.support_items)
        deadline = time.monotonic() + 30.0
        while (service.health()["export_error"] is None
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert service.health()["export_error"].startswith("OSError")
        service.close()
        assert service.health()["export_error"].startswith("OSError")
        assert service.exporter.num_exports == 0
        records = read_run(trace_path)
        assert [r["type"] for r in records] == ["run_start", "trace",
                                                "summary"]


class TestConfigValidation:
    def test_window_bounds(self):
        with pytest.raises(ValueError):
            ServiceConfig(window_seconds=0.0)
        with pytest.raises(ValueError):
            ServiceConfig(short_window_seconds=120.0, window_seconds=60.0)
        with pytest.raises(ValueError):
            ServiceConfig(trace_buffer=0)
        with pytest.raises(ValueError):
            ServiceConfig(export_interval_seconds=0.0)

    @pytest.mark.parametrize("field", ["window_seconds",
                                       "short_window_seconds"])
    @pytest.mark.parametrize("seconds", [float("nan"), float("inf")])
    def test_window_must_be_a_finite_number(self, field, seconds):
        """NaN passed every ordered comparison and failed only when the
        service built its windows; infinity has no slice count."""
        with pytest.raises(ValueError, match="window_seconds"):
            ServiceConfig(**{field: seconds})

    @pytest.mark.parametrize("interval", [float("inf"), 1e12, float("nan")])
    def test_export_interval_must_be_waitable(self, interval):
        """The exporter thread waits on the interval: inf and 1e12
        overflow its wait, NaN never waits."""
        with pytest.raises(ValueError, match="export_interval_seconds"):
            ServiceConfig(export_interval_seconds=interval)
