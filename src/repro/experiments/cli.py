"""Command-line entry point for the reproduction harness.

Examples::

    python -m repro.experiments.cli list
    python -m repro.experiments.cli run table3 --scale fast --max-tasks 6
    python -m repro.experiments.cli run fig9 --scale fast -o results/
    python -m repro.experiments.cli run all --scale fast -o results/
    python -m repro.experiments.cli serve --requests 64 --workers 2
    python -m repro.experiments.cli serve --checkpoint ckpt.npz \
        --workload traffic.jsonl -o results/

``run`` prints the paper-style rendering of the chosen artifact and, with
``--output``, writes it to ``<output>/<experiment>.txt``.  ``serve`` stands
up a :class:`repro.serve.PredictionService`, replays a workload through it,
and prints the service's latency/queue/cache report.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .compare import render_comparison
from .configs import DATASET_SCALES, EXPERIMENTS
from .paper_numbers import _TABLES
from .runner import run_experiment
from .tables import (
    render_ablation_table,
    render_attention_matrix,
    render_overall_table,
    render_sweep_table,
    render_timing_table,
)

__all__ = ["main", "render_experiment"]


def render_experiment(experiment_id: str, result) -> str:
    """Render one experiment's result in the paper's layout."""
    if experiment_id in ("table3", "table4", "table5"):
        return render_overall_table(result, ks=EXPERIMENTS[experiment_id].ks)
    if experiment_id == "fig6":
        return render_timing_table(result)
    if experiment_id == "fig7":
        blocks = [r for r in result if r["sweep"] == "num_him_blocks"]
        contexts = [r for r in result if r["sweep"] == "context_size"]
        return ("HIM blocks sweep\n" + render_sweep_table(blocks, "value")
                + "\n\nContext size sweep\n" + render_sweep_table(contexts, "value"))
    if experiment_id == "table6":
        return render_ablation_table(result)
    if experiment_id == "fig8":
        return render_sweep_table(result, "sampler")
    if experiment_id == "fig9":
        parts = []
        for key, title in (("user", "MBU (between users)"),
                           ("item", "MBI (between items)"),
                           ("attr", "MBA (between attributes)")):
            labels = None
            if key == "attr":
                labels = list(result["attribute_names"])
            parts.append(title)
            parts.append(render_attention_matrix(result["attention"][key], labels))
        return "\n".join(parts)
    raise KeyError(f"unknown experiment {experiment_id!r}")


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
        kwargs = {}
        if experiment_id != "fig9" and args.max_tasks is not None:
            kwargs["max_tasks"] = args.max_tasks
        start = time.perf_counter()
        result = run_experiment(experiment_id, scale=args.scale, seed=args.seed,
                                **kwargs)
        elapsed = time.perf_counter() - start
        text = render_experiment(experiment_id, result)
        banner = (f"== {EXPERIMENTS[experiment_id].paper_artifact} "
                  f"({experiment_id}, scale={args.scale}, {elapsed:.1f}s) ==")
        print(banner)
        print(text)
        print()
        if output_dir:
            (output_dir / f"{experiment_id}.txt").write_text(text + "\n")
            if getattr(args, "svg", False):
                for name, svg in _render_svgs(experiment_id, result).items():
                    (output_dir / name).write_text(svg + "\n")
    return 0


def _render_svgs(experiment_id: str, result) -> dict[str, str]:
    """SVG charts for the figure experiments (empty for tables)."""
    from ..viz import fig6_svg, fig7_svg, fig8_svg, fig9_svg

    if experiment_id == "fig6":
        return {"fig6.svg": fig6_svg(result)}
    if experiment_id == "fig7":
        return {
            "fig7_blocks.svg": fig7_svg(result, sweep="num_him_blocks"),
            "fig7_context.svg": fig7_svg(result, sweep="context_size"),
        }
    if experiment_id == "fig8":
        return {"fig8.svg": fig8_svg(result)}
    if experiment_id == "fig9":
        return {f"fig9_{which}.svg": fig9_svg(result, which=which)
                for which in ("user", "item", "attr")}
    return {}


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
    from ..data import dataset_by_name, make_cold_start_split
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
    from .runner import _SPLIT_FRACTIONS

    sizes = DATASET_SCALES[args.scale]
    dataset = dataset_by_name(
        args.dataset, seed=args.seed,
        num_users=sizes["num_users"], num_items=sizes["num_items"],
        ratings_per_user=sizes["ratings_per_user"][args.dataset],
    )
    fraction = _SPLIT_FRACTIONS[args.dataset]
    split = make_cold_start_split(dataset, fraction, fraction, seed=args.seed)
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
    run.add_argument("--max-tasks", type=int, default=6,
                     help="evaluation tasks per scenario (None = all)")
    run.add_argument("-o", "--output", default=None,
                     help="directory to write rendered artifacts into")
    run.add_argument("--svg", action="store_true",
                     help="also write SVG charts for figure experiments")
    run.set_defaults(func=_cmd_run)

    compare = sub.add_parser(
        "compare", help="run an overall table and compare against the paper")
    compare.add_argument("experiment", help="table3 | table4 | table5 | table6")
    compare.add_argument("--scale", choices=("fast", "full"), default="fast")
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--max-tasks", type=int, default=6)
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
