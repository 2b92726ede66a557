"""Command-line entry point for the reproduction harness.

Examples::

    python -m repro.experiments.cli list
    python -m repro.experiments.cli run table3 --scale fast
    python -m repro.experiments.cli run table6 --max-tasks 2   # a quick check
    python -m repro.experiments.cli run all --scale fast -o results/
    python -m repro.experiments.cli compare table3
    python -m repro.experiments.cli serve --requests 64 --workers 2
    python -m repro.experiments.cli serve --checkpoint ckpt.npz \
        --workload traffic.jsonl -o results/

``run`` runs an artifact under its registry protocol (``EXPERIMENTS``),
prints its text files and, with ``--output``, writes every file of
:func:`repro.experiments.render_artifact` — text and SVG — into that
directory: ``run all --scale fast -o results/`` writes the same files
``pytest benchmarks/`` does.  ``--max-tasks`` overrides the artifact's
task count.  ``compare`` runs an overall or ablation table under the same
protocol and prints it beside the paper's numbers.  ``serve`` stands up a
:class:`repro.serve.PredictionService`, replays a workload through it, and
prints the service's latency/queue/cache report.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .compare import render_comparison
from .configs import EXPERIMENTS
from .paper_numbers import _TABLES
from .runner import run_experiment
from .tables import render_artifact

__all__ = ["main"]


def _cmd_list(_args) -> int:
    width = max(len(k) for k in EXPERIMENTS)
    for key, spec in EXPERIMENTS.items():
        print(f"{key:<{width}}  {spec.paper_artifact:<10} {spec.description}")
    return 0


def _cmd_run(args) -> int:
    targets = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [t for t in targets if t not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}; try 'list'", file=sys.stderr)
        return 2
    output_dir = Path(args.output) if args.output else None
    if output_dir:
        output_dir.mkdir(parents=True, exist_ok=True)

    for experiment_id in targets:
        start = time.perf_counter()
        result = run_experiment(experiment_id, scale=args.scale, seed=args.seed,
                                max_tasks=args.max_tasks)
        elapsed = time.perf_counter() - start
        files = render_artifact(experiment_id, result)
        print(f"== {EXPERIMENTS[experiment_id].paper_artifact} "
              f"({experiment_id}, scale={args.scale}, {elapsed:.1f}s) ==")
        for name, text in files.items():
            if output_dir:
                (output_dir / name).write_text(text)
            if not name.endswith(".svg"):
                print(text)
    return 0


def _cmd_compare(args) -> int:
    if args.experiment not in _TABLES:
        print(f"no paper numbers for {args.experiment!r}; "
              f"choose from {sorted(_TABLES)}", file=sys.stderr)
        return 2
    result = run_experiment(args.experiment, scale=args.scale, seed=args.seed,
                            max_tasks=args.max_tasks)
    text = render_comparison(args.experiment, result)
    print(text)
    if args.output:
        out = Path(args.output)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{args.experiment}_compare.txt").write_text(text + "\n")
    return 0


def _cmd_serve(args) -> int:
    """Stand up a PredictionService, replay a workload, print its report."""
    import numpy as np

    from ..core import HIRE, HIREConfig, HIRETrainer, TrainerConfig
    from ..eval.tasks import build_eval_tasks
    from ..serve import (
        ModelRegistry,
        PredictionService,
        ServiceConfig,
        load_workload,
        replay_workload,
        synthesize_update_bursts,
        synthesize_workload,
    )
    from .runner import _workload

    dataset, split = _workload(args.dataset, args.scale, args.seed)
    tasks = build_eval_tasks(split, "user", min_query=2, seed=args.seed,
                             max_tasks=args.max_tasks)

    registry = ModelRegistry(dataset)
    if args.checkpoint:
        # The checkpoint must come from a model trained on this same
        # dataset profile/scale/seed (the registry rebuilds HIRE from the
        # stored config against the dataset's attribute schema).
        registry.register("checkpoint", args.checkpoint, activate=True)
    else:
        model = HIRE(dataset, HIREConfig(seed=args.seed))
        HIRETrainer(model, split,
                    config=TrainerConfig(steps=args.train_steps,
                                         seed=args.seed)).fit()
        registry.add("freshly-trained", model)

    if args.workload:
        requests = load_workload(args.workload)
    else:
        requests = synthesize_workload(tasks, args.requests, seed=args.seed)
    bursts = (synthesize_update_bursts(split, tasks,
                                       num_bursts=args.update_bursts,
                                       burst_size=args.burst_size,
                                       seed=args.seed)
              if args.update_bursts else [])

    config = ServiceConfig(
        max_batch_size=args.batch_size,
        num_workers=args.workers,
        queue_size=args.queue_size,
        seed=args.seed,
    )
    service = PredictionService.from_split(registry, split, tasks,
                                           config=config)
    segments = np.array_split(np.arange(len(requests)), len(bursts) + 1)
    start = time.perf_counter()
    for index, segment in enumerate(segments):
        replay_workload(service, [requests[i] for i in segment])
        if index < len(bursts):
            service.update_ratings(bursts[index])
    elapsed = time.perf_counter() - start
    service.close()

    updates = service.graph_store.stats()
    lines = [
        f"== serve replay ({args.dataset}, scale={args.scale}, "
        f"model={registry.active_name}) ==",
        f"{len(requests)} requests in {elapsed:.2f}s "
        f"({len(requests) / elapsed:.1f} req/s)"
        + (f"; updates: {updates['applied_total']} applied / "
           f"{updates['skipped_total']} skipped across {len(bursts)} bursts"
           if bursts else ""),
        "",
        service.report(),
    ]
    text = "\n".join(lines)
    print(text)
    if args.output:
        out = Path(args.output)
        out.mkdir(parents=True, exist_ok=True)
        (out / "serve.txt").write_text(text + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(func=_cmd_list)

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment id (see 'list') or 'all'")
    run.add_argument("--scale", choices=("fast", "full"), default="fast")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--max-tasks", type=int, default=None,
                     help="evaluation tasks per scenario (default: the "
                          "artifact's own count)")
    run.add_argument("-o", "--output", default=None,
                     help="directory to write the artifact's files into")
    run.set_defaults(func=_cmd_run)

    compare = sub.add_parser(
        "compare", help="run an overall table and compare against the paper")
    compare.add_argument("experiment", help="table3 | table4 | table5 | table6")
    compare.add_argument("--scale", choices=("fast", "full"), default="fast")
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--max-tasks", type=int, default=None,
                         help="evaluation tasks per scenario (default: the "
                              "artifact's own count)")
    compare.add_argument("-o", "--output", default=None)
    compare.set_defaults(func=_cmd_compare)

    serve = sub.add_parser(
        "serve", help="replay a workload through the online prediction service")
    serve.add_argument("--checkpoint", default=None,
                       help="HIRE checkpoint (.npz) to serve; trains a fresh "
                            "model when omitted")
    serve.add_argument("--workload", default=None,
                       help="JSONL workload to replay (one "
                            '{"user", "items"} per line); synthesized from '
                            "eval tasks when omitted")
    serve.add_argument("--dataset",
                       choices=("movielens", "bookcrossing", "douban"),
                       default="movielens")
    serve.add_argument("--scale", choices=("fast", "full"), default="fast")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--max-tasks", type=int, default=12,
                       help="evaluation tasks the workload is drawn from")
    serve.add_argument("--requests", type=int, default=48,
                       help="synthesized workload size (ignored with --workload)")
    serve.add_argument("--train-steps", type=int, default=30,
                       help="training steps for the fresh model (no --checkpoint)")
    serve.add_argument("--batch-size", type=int, default=8)
    serve.add_argument("--workers", type=int, default=1)
    serve.add_argument("--queue-size", type=int, default=64)
    serve.add_argument("--update-bursts", type=int, default=0,
                       help="apply N rating-update bursts between replay "
                            "segments (exercises the incremental data plane)")
    serve.add_argument("--burst-size", type=int, default=4,
                       help="deltas per update burst")
    serve.add_argument("-o", "--output", default=None,
                       help="directory to write serve.txt into")
    serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
