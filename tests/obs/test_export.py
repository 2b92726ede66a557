"""TelemetryExporter: periodic snapshots, drain-on-close, source errors."""

import threading
import time

import pytest

from repro.obs import MetricsRegistry, TelemetryExporter, read_run


class TestExportOnce:
    def test_snapshot_record_shape(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        with TelemetryExporter(tmp_path / "t.jsonl", registry=reg,
                               interval_seconds=60.0,
                               sources={"extra": lambda: {"x": 1}}) as exp:
            record = exp.export_once()
        assert record["metrics"]["c"]["value"] == 3.0
        assert record["extra"] == {"x": 1}
        assert "at" in record

    def test_registry_optional(self, tmp_path):
        with TelemetryExporter(tmp_path / "t.jsonl",
                               interval_seconds=60.0,
                               sources={"n": lambda: 7}) as exp:
            record = exp.export_once()
        assert "metrics" not in record
        assert record["n"] == 7

    def test_source_error_does_not_kill_the_tick(self, tmp_path):
        def broken():
            raise RuntimeError("probe down")

        with TelemetryExporter(tmp_path / "t.jsonl",
                               interval_seconds=60.0,
                               sources={"bad": broken,
                                        "good": lambda: 1}) as exp:
            record = exp.export_once()
        assert record["good"] == 1
        assert "bad" not in record
        assert "probe down" in record["source_errors"]["bad"]

    def test_interval_validated(self, tmp_path):
        with pytest.raises(ValueError):
            TelemetryExporter(tmp_path / "t.jsonl", interval_seconds=0.0)

    @pytest.mark.parametrize("interval", [float("inf"), 1e12, float("nan")])
    def test_unwaitable_interval_rejected_before_the_thread_starts(
            self, tmp_path, interval):
        """inf and 1e12 would overflow the thread's wait and kill it; NaN
        would never wait.  Nothing is started or written."""
        before = set(threading.enumerate())
        with pytest.raises(ValueError, match="interval_seconds"):
            TelemetryExporter(tmp_path / "t.jsonl", interval_seconds=interval)
        assert set(threading.enumerate()) <= before
        assert not (tmp_path / "t.jsonl").exists()


class TestBackgroundThread:
    def test_exports_on_interval(self, tmp_path):
        reg = MetricsRegistry()
        exporter = TelemetryExporter(tmp_path / "t.jsonl", registry=reg,
                                     interval_seconds=0.02)
        deadline = time.monotonic() + 5.0
        while exporter.num_exports < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        exporter.close()
        assert exporter.num_exports >= 3

    def test_close_writes_final_drain_snapshot(self, tmp_path):
        reg = MetricsRegistry()
        exporter = TelemetryExporter(tmp_path / "t.jsonl", registry=reg,
                                     interval_seconds=3600.0)
        reg.counter("late").inc(9)  # lands between ticks
        exporter.close()
        records = read_run(tmp_path / "t.jsonl")
        exports = [r for r in records if r["type"] == "export"]
        assert exports, "drain snapshot missing"
        assert exports[-1]["metrics"]["late"]["value"] == 9.0
        assert exporter.closed

    def test_close_is_idempotent(self, tmp_path):
        exporter = TelemetryExporter(tmp_path / "t.jsonl",
                                     interval_seconds=60.0)
        exporter.close()
        before = exporter.num_exports
        exporter.close()
        assert exporter.num_exports == before


class TestFileFormat:
    def test_readable_by_read_run(self, tmp_path):
        reg = MetricsRegistry()
        reg.gauge("g").set(0.5)
        with TelemetryExporter(tmp_path / "t.jsonl", registry=reg,
                               interval_seconds=60.0) as exporter:
            exporter.export_once()
        records = read_run(tmp_path / "t.jsonl")
        types = [r["type"] for r in records]
        assert types[0] == "run_start"
        assert types[-1] == "summary"
        assert "export" in types
        exports = [r for r in records if r["type"] == "export"]
        assert [r["sequence"] for r in exports] == list(range(len(exports)))
        assert records[-1]["num_exports"] == len(exports)
