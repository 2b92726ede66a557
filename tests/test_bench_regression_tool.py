"""Unit tests of ``tools/check_bench_regression.py``.

The tool guards the committed benchmark trajectory; these tests drive it
through ``--baseline-dir`` (no git involved) with synthetic payloads, so
both verdicts — clean pass and >10% headline regression — are exercised
deterministically.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
TOOL_PATH = REPO_ROOT / "tools" / "check_bench_regression.py"

spec = importlib.util.spec_from_file_location("check_bench_regression",
                                              TOOL_PATH)
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)


def pareto_payload(dynamic_range=2.0, smoke=False):
    """A top-level headline: ``latency_dynamic_range``."""
    return {
        "benchmark": "pareto_frontier",
        "smoke": smoke,
        "latency_dynamic_range": dynamic_range,
    }


def online_payload(recovery_ratio=1.5, smoke=False):
    """A nested headline: ``recovery.rmse_recovery_ratio``."""
    return {
        "benchmark": "online_loop",
        "smoke": smoke,
        "recovery": {"rmse_recovery_ratio": recovery_ratio},
    }


def write(directory: Path, filename: str, payload: dict) -> None:
    (directory / filename).write_text(json.dumps(payload))


@pytest.fixture
def roots(tmp_path):
    current = tmp_path / "current"
    baseline = tmp_path / "baseline"
    current.mkdir()
    baseline.mkdir()
    return current, baseline


def run_tool(current: Path, baseline: Path, *extra: str) -> int:
    return tool.main(["--repo-root", str(current),
                      "--baseline-dir", str(baseline), *extra])


class TestDottedGet:
    def test_resolves_nested(self):
        payload = {"a": {"b": {"c": 3.0}}}
        assert tool.dotted_get(payload, "a.b.c") == 3.0

    def test_missing_returns_none(self):
        assert tool.dotted_get({"a": 1}, "a.b") is None
        assert tool.dotted_get({}, "missing") is None


class TestVerdicts:
    def test_identical_passes(self, roots):
        current, baseline = roots
        write(current, "BENCH_pareto.json", pareto_payload())
        write(baseline, "BENCH_pareto.json", pareto_payload())
        assert run_tool(current, baseline) == 0

    def test_improvement_passes(self, roots):
        current, baseline = roots
        write(current, "BENCH_pareto.json", pareto_payload(3.0))
        write(baseline, "BENCH_pareto.json", pareto_payload(2.0))
        assert run_tool(current, baseline) == 0

    def test_small_drop_within_tolerance_passes(self, roots):
        current, baseline = roots
        write(current, "BENCH_pareto.json", pareto_payload(1.85))
        write(baseline, "BENCH_pareto.json", pareto_payload(2.0))
        assert run_tool(current, baseline) == 0  # -7.5% < 10%

    def test_large_drop_fails(self, roots):
        current, baseline = roots
        write(current, "BENCH_pareto.json", pareto_payload(1.5))
        write(baseline, "BENCH_pareto.json", pareto_payload(2.0))
        assert run_tool(current, baseline) == 1  # -25%

    def test_nested_metric_drop_fails(self, roots):
        current, baseline = roots
        write(current, "BENCH_online.json", online_payload(1.0))
        write(baseline, "BENCH_online.json", online_payload(1.6))
        assert run_tool(current, baseline) == 1

    def test_headline_missing_from_current_fails(self, roots):
        """A headline the baseline reports but the current file dropped is
        a failure, not a skip: retiring one means deleting it from
        HEADLINE."""
        current, baseline = roots
        dropped = online_payload()
        del dropped["recovery"]
        write(current, "BENCH_online.json", dropped)
        write(baseline, "BENCH_online.json", online_payload())
        assert run_tool(current, baseline) == 1

    def test_null_headline_in_current_fails(self, roots, capsys):
        current, baseline = roots
        write(current, "BENCH_online.json", online_payload(None))
        write(baseline, "BENCH_online.json", online_payload())
        assert run_tool(current, baseline) == 1
        assert "recovery.rmse_recovery_ratio" in capsys.readouterr().err

    def test_tolerance_is_configurable(self, roots):
        current, baseline = roots
        write(current, "BENCH_pareto.json", pareto_payload(1.9))
        write(baseline, "BENCH_pareto.json", pareto_payload(2.0))
        assert run_tool(current, baseline, "--tolerance", "0.02") == 1
        assert run_tool(current, baseline, "--tolerance", "0.10") == 0


class TestSkips:
    def test_missing_baseline_file_skipped(self, roots):
        current, baseline = roots
        write(current, "BENCH_pareto.json", pareto_payload(0.1))
        assert run_tool(current, baseline) == 0

    def test_missing_current_file_skipped(self, roots):
        current, baseline = roots
        write(baseline, "BENCH_pareto.json", pareto_payload())
        assert run_tool(current, baseline) == 0

    def test_smoke_payload_skipped(self, roots):
        current, baseline = roots
        write(current, "BENCH_pareto.json",
              pareto_payload(0.1, smoke=True))
        write(baseline, "BENCH_pareto.json", pareto_payload())
        assert run_tool(current, baseline) == 0

    def test_measurement_protocol_change_skipped(self, roots):
        """Numbers from different measurement protocols are incomparable:
        the first run under a new protocol resets the trajectory rather
        than being judged against the old one."""
        current, baseline = roots
        changed = online_payload(0.5)  # would fail if compared
        changed["measurement"] = {"protocol": "interleaved", "repeats": 2}
        write(current, "BENCH_online.json", changed)
        write(baseline, "BENCH_online.json", online_payload(1.6))
        assert run_tool(current, baseline) == 0

    def test_same_measurement_protocol_still_compared(self, roots):
        current, baseline = roots
        new, old = online_payload(0.5), online_payload(1.6)
        for payload in (new, old):
            payload["measurement"] = {"protocol": "interleaved", "repeats": 2}
        write(current, "BENCH_online.json", new)
        write(baseline, "BENCH_online.json", old)
        assert run_tool(current, baseline) == 1

    def test_metric_missing_from_baseline_skipped(self, roots):
        current, baseline = roots
        write(current, "BENCH_online.json", online_payload())
        old = online_payload()
        del old["recovery"]
        write(baseline, "BENCH_online.json", old)
        assert run_tool(current, baseline) == 0

    def test_null_in_baseline_skipped(self, roots):
        """A headline the baseline holds as null has nothing to regress
        against — clean skip, whatever the current value."""
        current, baseline = roots
        write(current, "BENCH_online.json", online_payload(0.1))
        write(baseline, "BENCH_online.json", online_payload(None))
        assert run_tool(current, baseline) == 0

    def test_corrupt_baseline_file_skipped(self, roots):
        """A truncated/mangled baseline reads as "no baseline", not a
        crash — a broken baseline can never prove a regression."""
        current, baseline = roots
        write(current, "BENCH_pareto.json", pareto_payload(0.1))
        (baseline / "BENCH_pareto.json").write_text(
            '{"latency_dynamic_range": 2.0')
        assert run_tool(current, baseline) == 0

    def test_corrupt_current_file_skipped(self, roots):
        current, baseline = roots
        (current / "BENCH_pareto.json").write_text("not json at all")
        write(baseline, "BENCH_pareto.json", pareto_payload())
        assert run_tool(current, baseline) == 0

    def test_non_dict_payload_skipped(self, roots):
        current, baseline = roots
        (current / "BENCH_pareto.json").write_text('[1, 2, 3]')
        write(baseline, "BENCH_pareto.json", pareto_payload())
        assert run_tool(current, baseline) == 0

    def test_unknown_git_ref_skips_cleanly(self, tmp_path):
        """Through the git path (no --baseline-dir), a ref that does not
        exist yields a skip for every file, not a crash."""
        write(tmp_path, "BENCH_pareto.json", pareto_payload())
        assert tool.main(["--repo-root", str(tmp_path),
                          "--baseline-ref", "no-such-ref"]) == 0


class TestOnlineHeadline:
    def test_online_recovery_drop_fails(self, roots):
        current, baseline = roots
        write(current, "BENCH_online.json", online_payload(1.0))
        write(baseline, "BENCH_online.json", online_payload(1.5))
        assert run_tool(current, baseline) == 1

    def test_online_recovery_held_passes(self, roots):
        current, baseline = roots
        write(current, "BENCH_online.json", online_payload(1.5))
        write(baseline, "BENCH_online.json", online_payload(1.5))
        assert run_tool(current, baseline) == 0

    def test_online_absent_from_baseline_skipped(self, roots):
        """The first commit shipping BENCH_online.json has no baseline to
        regress against — the gate must skip it, not crash."""
        current, baseline = roots
        write(current, "BENCH_online.json", online_payload(0.5))
        assert run_tool(current, baseline) == 0


class TestAgainstRealRepoFiles:
    def test_headline_schema_matches_committed_files(self):
        """Every headline metric must exist in the committed BENCH files —
        otherwise the guard silently checks nothing."""
        for filename, metrics in tool.HEADLINE.items():
            path = REPO_ROOT / filename
            if not path.is_file():
                continue
            payload = json.loads(path.read_text())
            for metric in metrics:
                assert isinstance(tool.dotted_get(payload, metric),
                                  (int, float)), (
                    f"{filename}: headline metric {metric!r} missing from "
                    f"the committed payload")

    def test_repo_vs_itself_passes(self, tmp_path):
        for filename in tool.HEADLINE:
            source = REPO_ROOT / filename
            if source.is_file():
                (tmp_path / filename).write_text(source.read_text())
        assert tool.main(["--repo-root", str(REPO_ROOT),
                          "--baseline-dir", str(tmp_path)]) == 0
