#!/usr/bin/env python3
"""Guard the committed benchmark trajectory: fail on headline regressions.

The repo tracks performance as ``BENCH_*.json`` files at the root, rewritten
by each full benchmark run.  This tool diffs the current files against a
baseline — by default the committed version at ``HEAD`` (``git show``), or a
directory of baseline files via ``--baseline-dir`` — and **fails (exit 1)
when any headline metric drops by more than the tolerance** (default 10%).

Headline metrics are the higher-is-better numbers each benchmark exists to
defend, and they are all *ratios* (speedups, gains) measured within one run:
ratios normalise machine speed, so the gate survives the baseline having
been produced on a faster or slower box.  Absolute numbers — latencies, raw
seconds, requests/second — are deliberately not compared; machine state
moves them tens of percent with no code change.  Files or metrics absent
from the baseline are skipped — a new benchmark cannot regress against
nothing — and so are payloads whose ``measurement`` field (the benchmark's
own methodology marker: repeat counts, interleaving) differs from the
baseline's, because a protocol change resets the trajectory.  A headline
the baseline reports as a number but the current file drops (or nulls)
fails: the only way to retire a headline is to delete it from
``HEADLINE``.

Usage::

    python tools/check_bench_regression.py                  # vs HEAD
    python tools/check_bench_regression.py --baseline-ref origin/main
    python tools/check_bench_regression.py --baseline-dir /path/to/old
    python tools/check_bench_regression.py --tolerance 0.05
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

# file -> dotted paths of higher-is-better headline metrics (ratios only).
HEADLINE = {
    "BENCH_serve.json": (
        "best_speedup",
        "packing.pack_gain",
    ),
    "BENCH_infer.json": ("speedup_single", "speedup_batched"),
    "BENCH_online.json": ("recovery.rmse_recovery_ratio",),
    "BENCH_pareto.json": ("latency_dynamic_range",),
    "BENCH_pipeline.json": ("best_speedup",),
}


def dotted_get(payload: dict, path: str):
    """Resolve ``a.b.c`` through nested dicts; ``None`` when absent."""
    node = payload
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _parse(text: str) -> dict | None:
    """JSON-decode a payload; ``None`` (→ clean skip) on anything broken.

    A truncated or hand-mangled baseline file must read as "no baseline",
    not crash the gate — a broken baseline can never prove a regression.
    """
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def load_current(repo_root: Path, filename: str) -> dict | None:
    path = repo_root / filename
    if not path.is_file():
        return None
    return _parse(path.read_text())


def load_baseline(repo_root: Path, filename: str, ref: str,
                  baseline_dir: Path | None) -> dict | None:
    if baseline_dir is not None:
        path = baseline_dir / filename
        if not path.is_file():
            return None
        return _parse(path.read_text())
    try:
        proc = subprocess.run(
            ["git", "show", f"{ref}:{filename}"],
            cwd=repo_root, capture_output=True, text=True)
    except OSError:
        return None
    if proc.returncode != 0:
        # The file is absent from the baseline commit (a brand-new
        # benchmark) or the ref is unknown — nothing to regress against.
        return None
    return _parse(proc.stdout)


def compare(current: dict, baseline: dict, filename: str,
            tolerance: float) -> tuple[list[str], list[str]]:
    """One file's headline diff: (report lines, failure lines)."""
    lines, failures = [], []
    for metric in HEADLINE[filename]:
        new = dotted_get(current, metric)
        old = dotted_get(baseline, metric)
        if not isinstance(old, (int, float)):
            lines.append(f"  {metric}: skipped (missing in baseline)")
            continue
        if not isinstance(new, (int, float)):
            failures.append(
                f"{filename}: {metric} is {old:.4g} in the baseline but "
                f"{new!r} now; retire a headline by deleting it from "
                "HEADLINE")
            lines.append(f"  {metric}: {old:.4g} -> missing REGRESSION")
            continue
        change = (new - old) / old if old else 0.0
        verdict = "ok"
        if new < old * (1.0 - tolerance):
            verdict = "REGRESSION"
            failures.append(
                f"{filename}: {metric} fell {-change * 100:.1f}% "
                f"({old:.4g} -> {new:.4g}; tolerance {tolerance * 100:.0f}%)")
        lines.append(f"  {metric}: {old:.4g} -> {new:.4g} "
                     f"({change * 100:+.1f}%) {verdict}")
    return lines, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff BENCH_*.json headline metrics against a baseline.")
    parser.add_argument("--repo-root", type=Path,
                        default=Path(__file__).resolve().parents[1])
    parser.add_argument("--baseline-ref", default="HEAD",
                        help="git ref holding the baseline files")
    parser.add_argument("--baseline-dir", type=Path, default=None,
                        help="directory of baseline files (overrides the ref)")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed fractional drop before failing")
    args = parser.parse_args(argv)

    failures: list[str] = []
    compared = 0
    for filename in sorted(HEADLINE):
        current = load_current(args.repo_root, filename)
        if current is None:
            print(f"{filename}: not present, skipped")
            continue
        baseline = load_baseline(args.repo_root, filename,
                                 args.baseline_ref, args.baseline_dir)
        if baseline is None:
            print(f"{filename}: no baseline, skipped")
            continue
        if current.get("smoke") or baseline.get("smoke"):
            print(f"{filename}: smoke-mode payload, skipped")
            continue
        if current.get("measurement") != baseline.get("measurement"):
            # A benchmark that changed how it measures (repeat counts,
            # interleaving, warmup policy) produces numbers that are not
            # comparable to the old protocol's — the first run under the
            # new protocol becomes the new baseline instead of being
            # judged against the old one.
            print(f"{filename}: measurement protocol changed "
                  f"({baseline.get('measurement')} -> "
                  f"{current.get('measurement')}), skipped")
            continue
        print(f"{filename}:")
        lines, file_failures = compare(current, baseline, filename,
                                       args.tolerance)
        print("\n".join(lines))
        failures.extend(file_failures)
        compared += 1

    if failures:
        print(f"\n{len(failures)} headline regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\n{compared} benchmark file(s) checked, no headline regressions.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
