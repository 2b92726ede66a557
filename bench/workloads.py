"""The benchmark's four workloads: set-up, timed phases and output checks.

Dataset, model, training and online-delta seeds are fixed at 0.  ``--seed``
drives only a serving workload's traffic: the request stream, the arrival
schedule and the rating bursts (``train`` has no traffic and ignores it).
A serving workload splits its ``seconds`` into open-loop phase A (the
first ``A_SHARE``) and phase B (the rest: waves of ``WAVE`` requests,
capped at ``closed_max`` requests).  It scores its probe tasks before the
window, on the graph as set up, so the reported RMSE does not depend on
the seeded bursts.  ``README.md`` records why each workload exists.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import obs
from repro.core import HIRE, HIREConfig, HIREPredictor, HIRETrainer, TrainerConfig
from repro.data import make_cold_start_split, movielens_like
from repro.eval.metrics import rmse
from repro.eval.tasks import EvalTask, build_eval_tasks
from repro.online import (FineTuneConfig, GateConfig, IncrementalTrainer,
                          OnlineConfig, OnlineController, PromotionGate,
                          RatingLog)
from repro.serve import (ModelRegistry, PredictionService, ServiceConfig,
                         synthesize_power_law_workload,
                         synthesize_update_bursts, synthesize_workload)

from . import checks
from .loadgen import TICK_S, LoadGen, Phase, poisson_arrivals

A_SHARE = 0.6
WAVE = 48                         # phase B requests per wave
BURST_EVERY_S = 1.0               # phase A rating-burst cadence; B: per wave
MAX_CHUNKS = 64                   # online: delta chunks synthesized
ROUND_TIMEOUT_S = 120.0           # online: wait for the last round
# The paper's model (K=3 HIM blocks, 8 heads of width 16) and two smaller ones.
PAPER = dict(num_blocks=3, num_heads=8, attr_dim=16)
SMALL = dict(num_blocks=1, num_heads=2, attr_dim=4)
MEDIUM = dict(num_blocks=2, num_heads=4, attr_dim=8)
# --smoke: a few-second run of the same code paths for the self-test.
SMOKE = dict(users=60, items=50, tasks=6, model=SMALL, closed_max=24,
             probe_tasks=3)


@dataclass
class Outcome:
    """What one timed run measured, plus what the per-layer ledger needs."""

    latencies_ms: np.ndarray      # phase A requests, or a fit's steps
    throughput: float             # phase B completions/s, or fit steps/s
    quality: float                # RMSE on the fixed probe tasks
    attempted: int
    failed: int
    errors: list[str]             # output-check failures
    phases: list[Phase] = field(default_factory=list)
    telemetry: dict = field(default_factory=dict)


def _build_split(users: int, items: int):
    dataset = movielens_like(num_users=users, num_items=items, seed=0)
    return dataset, make_cold_start_split(dataset, 0.2, 0.2, seed=0)


def _request_tasks(split, count: int, seed: int, max_items: int | None):
    """Cold-user tasks to serve, each asking for at most ``max_items``."""
    return [EvalTask(task.user, task.support, task.query[:max_items])
            for task in build_eval_tasks(split, "user", min_query=2,
                                         seed=seed, max_tasks=count)]


def _service_config(context: int) -> ServiceConfig:
    return ServiceConfig(context_users=context, context_items=context)


def _counters(service) -> dict:
    """Service and inference-engine counters, for deltas over a window."""
    stats = service.stats()
    cache = stats.get("cache", {})
    frontier = stats.get("frontier_cache", {})
    batches = stats["metrics"].get("serve.batch_size", {})
    engine = obs.get_registry().snapshot()
    return {
        "cache_hits": cache.get("hits", 0),
        "cache_misses": cache.get("misses", 0),
        "cache_evicted": (cache.get("evictions", 0)
                          + cache.get("entries_evicted", 0)),
        "invalidation_evicted": cache.get("entries_evicted", 0),
        "invalidation_spared": cache.get("entries_spared", 0),
        "frontier_hits": frontier.get("hits", 0),
        "frontier_misses": frontier.get("misses", 0),
        "batches": batches.get("count", 0),
        "batched_requests": batches.get("sum", 0.0),
        "plan_hits": engine.get("infer.plan_cache.hit", {}).get("value", 0),
        "plan_misses": engine.get("infer.plan_cache.miss", {}).get("value", 0),
        "deltas_applied": stats["updates"]["applied_total"],
    }


def _window_telemetry(service, before: dict, admitted) -> dict:
    after = _counters(service)
    delta = {key: after[key] - before[key] for key in after}
    workspace = obs.get_registry().snapshot().get("infer.workspace_bytes", {})
    delta["workspace_bytes"] = workspace.get("value", 0)
    delta["queue_wait_ms"] = np.array([
        (request.batch_formed_at - request.enqueued_at) * 1e3
        for request in admitted if request.future.done()])
    return delta


# --------------------------------------------------------------------------- #
# serve-hot and serve-cold
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ServeSpec:
    users: int
    items: int
    tasks: int
    model: dict
    rate: float                   # phase A arrivals per second
    closed_max: int               # phase B request cap
    probe_tasks: int
    context: int = 32             # the service's default n = m
    max_items: int | None = None  # items scored per request (None: all)
    zipf: float | None = None     # None: uniform over tasks
    budgets: tuple = ()           # per-request (n, m) draws; () = defaults
    burst_size: int = 0           # deltas per rating burst; 0 = no writes


@dataclass
class ServeStack:
    spec: ServeSpec
    split: object
    tasks: list
    model: HIRE
    service: PredictionService


class ServeWorkload:
    """Requests from one load thread against a one-worker service."""

    def __init__(self, spec: ServeSpec, smoke: bool):
        self.spec = dataclasses.replace(spec, **SMOKE) if smoke else spec

    def setup(self) -> ServeStack:
        spec = self.spec
        dataset, split = _build_split(spec.users, spec.items)
        tasks = _request_tasks(split, spec.tasks, 0, spec.max_items)
        model = HIRE(dataset, HIREConfig(**spec.model, seed=0))
        service = PredictionService.from_split(
            model, split, tasks, config=_service_config(spec.context))
        # One request per context shape, so no timed request pays for the
        # first use of a shape.
        task = tasks[-1]
        for n, m in spec.budgets or ((None, None),):
            service.predict(task.user, task.query_items, task.support_items,
                            context_users=n, context_items=m)
        return ServeStack(spec, split, tasks, model, service)

    def close(self, stack: ServeStack) -> None:
        stack.service.close()

    def shim_targets(self, stack: ServeStack) -> dict:
        return {"service": stack.service}

    def _stream(self, tasks, count: int, seed: int):
        spec = self.spec
        budgets = list(spec.budgets) or None
        if spec.zipf is not None:
            return synthesize_power_law_workload(
                tasks, count, seed=seed, exponent=spec.zipf,
                context_budgets=budgets)
        return synthesize_workload(tasks, count, seed=seed, hot_fraction=0.0,
                                   context_budgets=budgets)

    def run(self, stack: ServeStack, seed: int, seconds: float,
            out_dir: Path, recorder=None) -> Outcome:
        spec, service = self.spec, stack.service
        clock = time.perf_counter
        a_seconds = A_SHARE * seconds
        arrivals = poisson_arrivals(spec.rate, a_seconds,
                                    np.random.default_rng(seed))
        stream = self._stream(stack.tasks, len(arrivals) + spec.closed_max,
                              seed)
        bursts = []
        if spec.burst_size:
            bursts = synthesize_update_bursts(
                stack.split, stack.tasks,
                num_bursts=(int(a_seconds / BURST_EVERY_S) + 2
                            + spec.closed_max // WAVE),
                burst_size=spec.burst_size, seed=seed)
        if recorder is not None:
            recorder.enabled = False
        probe = stack.tasks[:spec.probe_tasks]
        probe_requests = [service.submit_request(task.user, task.query_items,
                                                 task.support_items)
                          for task in probe]
        probe_scores = [request.future.result(60.0)
                        for request in probe_requests]
        if recorder is not None:
            recorder.enabled = True

        snapshots = [service.graph_store.state]
        admitted = []             # (PredictRequest, snapshot index)
        update_ms = []

        def submit(index):
            wanted = stream[index]
            request = service.submit_request(
                wanted.user, wanted.item_ids, wanted.support_items,
                context_users=wanted.context_users,
                context_items=wanted.context_items)
            admitted.append((request, len(snapshots) - 1))
            return request.future

        def write():
            if len(update_ms) < len(bursts):
                start = clock()
                service.update_ratings(bursts[len(update_ms)])
                update_ms.append((clock() - start) * 1e3)
                snapshots.append(service.graph_store.state)

        next_burst = [float("inf")]

        def tick(now):
            if now >= next_burst[0]:
                write()
                next_burst[0] += BURST_EVERY_S

        gen = LoadGen(submit, tick=tick if bursts else None)
        before = _counters(service)
        if bursts:
            next_burst[0] = clock() + BURST_EVERY_S
        phase_a = gen.open_loop(arrivals, a_seconds)
        next_burst[0] = float("inf")
        phase_b = gen.waves(WAVE, seconds - a_seconds, spec.closed_max,
                            between=write if bursts else None)
        telemetry = _window_telemetry(service, before,
                                      [request for request, _ in admitted])
        telemetry["update_ms"] = np.array(update_ms)

        if recorder is not None:
            recorder.enabled = False
        served = [(request, snapshots[index], request.future.result())
                  for request, index in admitted
                  if request.future.done()
                  and request.future.exception() is None]
        served += [(request, snapshots[0], scores)
                   for request, scores in zip(probe_requests, probe_scores)]
        errors, distinct = checks.check_served(stack.model, service.config,
                                               served)
        telemetry["distinct_checked"] = distinct
        return Outcome(
            latencies_ms=phase_a.latencies_ms(),
            throughput=phase_b.throughput(),
            quality=rmse(np.concatenate(probe_scores),
                         np.concatenate([t.query_ratings for t in probe])),
            attempted=(len(phase_a.requests) + len(phase_b.requests)
                       + len(probe) + len(update_ms)),
            failed=phase_a.failed + phase_b.failed,
            errors=errors, phases=[phase_a, phase_b], telemetry=telemetry)


# --------------------------------------------------------------------------- #
# online
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class OnlineSpec:
    users: int = 120
    items: int = 90
    tasks: int = 24
    model: dict = field(default_factory=lambda: dict(MEDIUM))
    context: int = 16
    max_items: int | None = 12
    rate: float = 15.0
    closed_max: int = 1000
    probe_tasks: int = 8
    chunk_size: int = 32          # deltas per ingest, one round each
    quality_round: int = 4        # the promotion whose probe RMSE is reported
    tune_steps: int = 12


@dataclass
class OnlineStack:
    dataset: object
    split: object
    tasks: list
    registry: ModelRegistry
    service: PredictionService
    controller: OnlineController


class OnlineWorkload:
    """Serving while a background controller fine-tunes and hot-swaps."""

    def __init__(self, spec: OnlineSpec, smoke: bool):
        self.spec = (dataclasses.replace(spec, **SMOKE, chunk_size=8,
                                         quality_round=2, tune_steps=2)
                     if smoke else spec)

    def setup(self) -> OnlineStack:
        spec = self.spec
        dataset, split = _build_split(spec.users, spec.items)
        tasks = _request_tasks(split, spec.tasks, 2, spec.max_items)
        probe = build_eval_tasks(split, "user", min_query=2, seed=1,
                                 max_tasks=spec.probe_tasks)
        registry = ModelRegistry(dataset)
        registry.add("base", HIRE(dataset, HIREConfig(**spec.model, seed=0)))
        log = RatingLog()
        service = PredictionService.from_split(
            registry, split, tasks, config=_service_config(spec.context),
            rating_log=log)
        trainer = IncrementalTrainer(split, config=FineTuneConfig(
            steps=spec.tune_steps, batch_size=4,
            context_users=16, context_items=16))
        # Any finite candidate is promoted, so every chunk ends in a swap.
        gate = PromotionGate(split, probe, GateConfig(
            context_users=16, context_items=16, accept_margin=1e9))
        controller = OnlineController(
            registry, trainer, gate, log=log, service=service,
            config=OnlineConfig(min_new_ratings=1, poll_interval_seconds=0.05,
                                rollback_enabled=False))
        task = tasks[-1]
        service.predict(task.user, task.query_items, task.support_items)
        controller.start()
        return OnlineStack(dataset, split, tasks, registry, service,
                           controller)

    def close(self, stack: OnlineStack) -> None:
        stack.controller.close()
        stack.service.close()

    def shim_targets(self, stack: OnlineStack) -> dict:
        return {"service": stack.service, "controller": stack.controller}

    def run(self, stack: OnlineStack, seed: int, seconds: float,
            out_dir: Path, recorder=None) -> Outcome:
        spec, service, controller = self.spec, stack.service, stack.controller
        registry = stack.registry
        clock = time.perf_counter
        a_seconds = A_SHARE * seconds
        arrivals = poisson_arrivals(spec.rate, a_seconds,
                                    np.random.default_rng(seed))
        stream = synthesize_workload(stack.tasks,
                                     len(arrivals) + spec.closed_max,
                                     seed=seed)
        # The deltas the loop learns from do not depend on the seed, so the
        # probe RMSE after a given round depends on the code alone.
        chunks = synthesize_update_bursts(stack.split, stack.tasks,
                                          num_bursts=MAX_CHUNKS,
                                          burst_size=spec.chunk_size, seed=0)
        rejections = controller.metrics.counter("online.rejections_total")
        rounds = []               # one dict per ingested chunk
        admitted = []

        def submit(index):
            wanted = stream[index]
            request = service.submit_request(wanted.user, wanted.item_ids,
                                             wanted.support_items)
            admitted.append(request)
            return request.future

        window_end = clock() + seconds

        def tick(now):
            """Ingest the next chunk as soon as the last round has swapped,
            until the window ends and ``quality_round`` rounds are in."""
            current = rounds[-1] if rounds else None
            if current is not None and "status" not in current:
                if registry.active_name == current["version"]:
                    metadata = registry.version(current["version"]).metadata
                    current.update(status="promoted",
                                   round_s=now - current["start"],
                                   log_offset=metadata["log_offset"],
                                   probe_rmse=metadata["probe_rmse"])
                elif rejections.value > current["rejections"]:
                    current["status"] = "rejected"
                return
            if len(rounds) < len(chunks) and (
                    now < window_end or len(rounds) < spec.quality_round):
                start = clock()
                applied = controller.ingest(chunks[len(rounds)])
                rounds.append({
                    "version": (f"{controller.config.version_prefix}"
                                f"-r{len(rounds)}"),
                    "start": start, "ingest_ms": (clock() - start) * 1e3,
                    "applied": applied, "expected_offset": len(controller.log),
                    "rejections": rejections.value})

        gen = LoadGen(submit, tick=tick)
        before = _counters(service)
        phase_a = gen.open_loop(arrivals, a_seconds)
        phase_b = gen.waves(WAVE, seconds - a_seconds, spec.closed_max)
        limit = clock() + ROUND_TIMEOUT_S
        while (len(rounds) < spec.quality_round
               or "status" not in rounds[-1]) and clock() < limit:
            tick(clock())
            time.sleep(TICK_S)
        telemetry = _window_telemetry(service, before, admitted)

        if recorder is not None:
            recorder.enabled = False
        errors = []
        high = stack.dataset.rating_range[1]
        for phase in (phase_a, phase_b):
            for record in phase.ok:
                scores = record.future.result()
                if not (np.isfinite(scores).all() and (scores >= 0).all()
                        and (scores <= high).all()):
                    errors.append(f"request {record.index}: scores outside "
                                  f"[0, {high}]")
        statuses = [r.get("status", "timeout") for r in rounds]
        if len(rounds) < spec.quality_round or set(statuses) != {"promoted"}:
            errors.append(f"round statuses {statuses}: every round must be "
                          f"promoted, at least {spec.quality_round} of them")
        for r in rounds:
            if r.get("log_offset", r["expected_offset"]) != r["expected_offset"]:
                errors.append(f"{r['version']} trained to log offset "
                              f"{r['log_offset']}, expected "
                              f"{r['expected_offset']}")
        quality = (rounds[spec.quality_round - 1].get("probe_rmse", float("nan"))
                   if len(rounds) >= spec.quality_round else float("nan"))
        telemetry["update_ms"] = np.array([r["ingest_ms"] for r in rounds])
        telemetry["round_s"] = np.array([r["round_s"] for r in rounds
                                         if "round_s" in r])
        telemetry["rounds"] = [{key: r[key] for key in r if key != "start"}
                               for r in rounds]
        return Outcome(
            latencies_ms=phase_a.latencies_ms(),
            throughput=phase_b.throughput(),
            quality=float(quality),
            attempted=len(phase_a.requests) + len(phase_b.requests) + len(rounds),
            failed=(phase_a.failed + phase_b.failed
                    + sum(r.get("status") != "promoted" for r in rounds)),
            errors=errors, phases=[phase_a, phase_b], telemetry=telemetry)


# --------------------------------------------------------------------------- #
# train
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class TrainSpec:
    users: int = 150
    items: int = 100
    model: dict = field(default_factory=lambda: dict(PAPER))
    steps: int = 16               # steps per fit, step 0 to checkpoint
    batch_size: int = 4
    budget: int = 16
    probe_tasks: int = 16


@dataclass
class TrainStack:
    dataset: object
    split: object
    probe: list


class _StepTimes(obs.TrainerObserver):
    def __init__(self):
        self.ms = []

    def on_step(self, event) -> None:
        self.ms.append(event.step_seconds * 1e3)


class TrainWorkload:
    """Repeated fits from step 0 to a saved, reloaded checkpoint."""

    def __init__(self, spec: TrainSpec, smoke: bool):
        self.spec = (dataclasses.replace(spec, users=60, items=50,
                                         model=SMALL, steps=3, probe_tasks=3)
                     if smoke else spec)

    def _config(self) -> HIREConfig:
        return HIREConfig(**self.spec.model, seed=0)

    def _trainer(self, model, split) -> HIRETrainer:
        spec = self.spec
        return HIRETrainer(model, split, config=TrainerConfig(
            steps=spec.steps, batch_size=spec.batch_size,
            context_users=spec.budget, context_items=spec.budget, seed=0))

    def setup(self) -> TrainStack:
        dataset, split = _build_split(self.spec.users, self.spec.items)
        probe = build_eval_tasks(split, "user", min_query=2, seed=0,
                                 max_tasks=self.spec.probe_tasks)
        # One step on a throwaway model, so no timed step is the first.
        self._trainer(HIRE(dataset, self._config()), split).train_step()
        return TrainStack(dataset, split, probe)

    def close(self, stack: TrainStack) -> None:
        pass

    def shim_targets(self, stack: TrainStack) -> dict:
        return {}

    def _predict(self, model, stack: TrainStack) -> np.ndarray:
        predictor = HIREPredictor(model, stack.split, stack.probe,
                                  context_users=self.spec.budget,
                                  context_items=self.spec.budget,
                                  per_task_rng=True)
        return np.concatenate([predictor.predict_task(task)
                               for task in stack.probe])

    def run(self, stack: TrainStack, seed: int, seconds: float,
            out_dir: Path, recorder=None) -> Outcome:
        clock = time.perf_counter
        path = out_dir / f"train-{seed}.ckpt.npz"
        steps = _StepTimes()
        ckpt_s = []
        steps_per_s = []          # per fit, from building the model to saving it
        first = reloaded = None
        errors = []
        started = clock()
        while not ckpt_s or clock() < started + seconds:
            built = clock()
            model = HIRE(stack.dataset, self._config())
            trainer = self._trainer(model, stack.split)
            fit_start = clock()
            trainer.fit(observers=[steps])
            written = model.save(path)
            saved = clock()
            ckpt_s.append(saved - fit_start)
            steps_per_s.append(self.spec.steps / (saved - built))
            if first is None:
                first = model
                reloaded = HIRE(stack.dataset, self._config())
                reloaded.load(written)
            else:
                state, again = first.state_dict(), model.state_dict()
                if any(not np.array_equal(state[k], again[k]) for k in state):
                    errors.append(f"fit {len(ckpt_s)} diverged from fit 1 "
                                  "under the same seed")
        if recorder is not None:
            recorder.enabled = False
        Path(written).unlink()
        predicted = self._predict(reloaded, stack)
        if not np.array_equal(predicted, self._predict(first, stack)):
            errors.append("the reloaded checkpoint predicts differently from "
                          "the in-memory model")
        actual = np.concatenate([task.query_ratings for task in stack.probe])
        # Every fit repeats the same steps, so a step's time is its median
        # over the fits: a slow spell of the host moves one fit, not a step.
        per_step_ms = np.median(
            np.reshape(steps.ms, (len(ckpt_s), self.spec.steps)), axis=0)
        return Outcome(
            latencies_ms=per_step_ms,
            throughput=float(np.median(steps_per_s)),
            quality=rmse(predicted, actual),
            attempted=len(steps.ms), failed=0, errors=errors,
            telemetry={"ckpt_s": np.array(ckpt_s)})


WORKLOADS = {
    "serve-hot": lambda smoke: ServeWorkload(ServeSpec(
        users=300, items=200, tasks=24, model=PAPER, rate=5.0,
        closed_max=1000, probe_tasks=8, context=16, max_items=12, zipf=1.1),
        smoke),
    "serve-cold": lambda smoke: ServeWorkload(ServeSpec(
        users=800, items=400, tasks=160, model=SMALL, rate=15.0,
        closed_max=900, probe_tasks=32,
        budgets=((8, 8), (12, 12), (16, 16)), burst_size=16), smoke),
    "train": lambda smoke: TrainWorkload(TrainSpec(), smoke),
    "online": lambda smoke: OnlineWorkload(OnlineSpec(), smoke),
}
