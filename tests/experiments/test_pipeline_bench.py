"""The pipeline bench judges overlap against the CPUs it may run on."""

import os

from repro.experiments import pipeline_bench


def test_pinned_to_one_cpu_is_not_parallel_hardware(monkeypatch):
    """A run pinned to one CPU of a multi-core host is held to overhead
    neutrality, not to the parallel speedup bar it cannot reach."""
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    payload = pipeline_bench.run_pipeline_benchmark(smoke=True)
    assert payload["cpu_count"] == 1
    assert payload["parallel_hardware"] is False


def test_affinity_mask_counts_every_allowed_cpu(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2, 5},
                        raising=False)
    assert pipeline_bench.usable_cpu_count() == 2


def test_falls_back_to_cpu_count_without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert pipeline_bench.usable_cpu_count() == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert pipeline_bench.usable_cpu_count() == 1
