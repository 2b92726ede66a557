"""Serving workloads: synthesis, JSONL persistence, and replay.

A workload is a list of :class:`WorkloadRequest` — the offline stand-in for
online traffic.  :func:`synthesize_workload` draws requests from evaluation
tasks with a skewed hot set (a small fraction of users receives most of the
traffic, as real request streams do), which is what makes the context cache
earn its keep in benchmarks.  :func:`replay_workload` pushes a workload
through a :class:`~repro.serve.service.PredictionService`, retrying briefly
when backpressure sheds a request.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..eval.tasks import EvalTask
from .errors import QueueFullError

__all__ = [
    "WorkloadRequest",
    "synthesize_workload",
    "synthesize_power_law_workload",
    "synthesize_update_bursts",
    "save_workload",
    "load_workload",
    "replay_workload",
]


@dataclass(frozen=True)
class WorkloadRequest:
    """One replayable ``(user, items)`` request; supports may be explicit.

    ``context_users`` / ``context_items`` optionally carry per-request
    context-budget overrides (``None`` = service default) — the knob that
    makes a workload *mixed-shape* and exercises the padded packer.
    """

    user: int
    item_ids: tuple[int, ...]
    support_items: tuple[int, ...] | None = None
    context_users: int | None = None
    context_items: int | None = None

    @classmethod
    def from_task(cls, task: EvalTask,
                  context_users: int | None = None,
                  context_items: int | None = None) -> "WorkloadRequest":
        return cls(user=int(task.user),
                   item_ids=tuple(int(i) for i in task.query_items),
                   support_items=tuple(int(i) for i in task.support_items),
                   context_users=context_users, context_items=context_items)


def synthesize_workload(tasks: list[EvalTask], num_requests: int,
                        seed: int = 0, hot_fraction: float = 0.8,
                        hot_set_size: int | None = None,
                        context_budgets: list[tuple[int, int]] | None = None
                        ) -> list[WorkloadRequest]:
    """Draw a skewed request stream from evaluation tasks.

    ``hot_fraction`` of the requests target a random ``hot_set_size``-task
    hot set (default: a quarter of the tasks), the rest are uniform over all
    tasks.  Repeats are intentional — they exercise request coalescing and
    the context cache.

    ``context_budgets`` (a list of ``(context_users, context_items)``
    pairs) makes the stream mixed-shape: each request draws one pair
    uniformly as its budget override.  ``None`` keeps every request on the
    service's default budgets (single-shape traffic).
    """
    if not tasks:
        raise ValueError("need at least one task to synthesize a workload")
    rng = np.random.default_rng(seed)
    if hot_set_size is None:
        hot_set_size = max(len(tasks) // 4, 1)
    hot_set_size = min(hot_set_size, len(tasks))
    hot = rng.choice(len(tasks), size=hot_set_size, replace=False)

    requests = []
    for _ in range(num_requests):
        if rng.random() < hot_fraction:
            index = int(rng.choice(hot))
        else:
            index = int(rng.integers(len(tasks)))
        budget = (None, None)
        if context_budgets:
            budget = context_budgets[int(rng.integers(len(context_budgets)))]
        requests.append(WorkloadRequest.from_task(
            tasks[index], context_users=budget[0], context_items=budget[1]))
    return requests


def synthesize_power_law_workload(tasks: list[EvalTask], num_requests: int,
                                  seed: int = 0, exponent: float = 1.1,
                                  context_budgets: list[tuple[int, int]] | None = None
                                  ) -> list[WorkloadRequest]:
    """Draw a rank-weighted power-law request stream (Zipf-like traffic).

    Tasks are ranked by a seeded shuffle and task at rank ``r`` receives
    traffic proportional to ``1 / r**exponent`` — the heavy-tailed shape of
    real request streams, and deliberately harsher than
    :func:`synthesize_workload`'s two-tier hot set: the head users keep
    their caches hot while the long tail keeps missing, which is what the
    ledger's hot-traffic workload and the adaptive ladder's overload test
    use to exercise serving under realistic skew.
    """
    if not tasks:
        raise ValueError("need at least one task to synthesize a workload")
    if exponent < 0:
        raise ValueError("exponent must be >= 0")
    rng = np.random.default_rng(seed)
    ranked = rng.permutation(len(tasks))
    weights = 1.0 / np.arange(1, len(tasks) + 1) ** exponent
    weights /= weights.sum()

    requests = []
    for _ in range(num_requests):
        index = int(ranked[rng.choice(len(tasks), p=weights)])
        budget = (None, None)
        if context_budgets:
            budget = context_budgets[int(rng.integers(len(context_budgets)))]
        requests.append(WorkloadRequest.from_task(
            tasks[index], context_users=budget[0], context_items=budget[1]))
    return requests


def synthesize_update_bursts(split, tasks: list[EvalTask], num_bursts: int,
                             burst_size: int, seed: int = 0
                             ) -> list[np.ndarray]:
    """Flash rating-update bursts to interleave with a replayed workload.

    Each burst is a ``(burst_size, 3)`` delta batch, half re-rates of warm
    training triples (value reflected within the dataset's rating range, so
    every re-rate is a genuine change) and half brand-new ratings on
    previously unrated warm-user × warm-item pairs.  Entities are drawn
    with inverse-degree weights — flash updates come disproportionately
    from *tail* users and items (new activity), and tail entities are
    exactly the ones hot contexts never sampled, so the bursts exercise the
    fine-grained invalidation's ability to spare unrelated cache entries.
    Two more properties matter for replayability:

    * bursts never touch a task user, so no delta can rate a pair the
      workload queries (``submit`` rejects already-rated query pairs);
    * every entity stays inside the serving candidate pools, so bursts
      exercise the *fine-grained* invalidation path, never the pool-growth
      full invalidation.
    """
    if num_bursts < 0 or burst_size < 1:
        raise ValueError("need num_bursts >= 0 and burst_size >= 1")
    rng = np.random.default_rng(seed)
    low, high = split.dataset.rating_range
    task_users = {int(task.user) for task in tasks}
    train = np.asarray(split.train_ratings(), dtype=np.float64)
    train_u = train[:, 0].astype(np.int64)
    train_i = train[:, 1].astype(np.int64)
    eligible = np.flatnonzero(~np.isin(train_u, sorted(task_users)))
    users_pool = split.train_users[
        ~np.isin(split.train_users, sorted(task_users))]
    if not eligible.size or not users_pool.size:
        raise ValueError("no warm non-task users to build bursts from")
    rated = {(int(u), int(i)) for u, i, _ in train}

    user_degree = np.bincount(train_u, minlength=split.dataset.num_users)
    item_degree = np.bincount(train_i, minlength=split.dataset.num_items)

    def normalized(weights):
        return weights / weights.sum()

    triple_w = normalized(1.0 / (user_degree[train_u[eligible]]
                                 * item_degree[train_i[eligible]]))
    user_w = normalized(1.0 / np.maximum(user_degree[users_pool], 1))
    item_w = normalized(1.0 / np.maximum(item_degree[split.train_items], 1))

    bursts = []
    for _ in range(num_bursts):
        num_rerates = burst_size // 2
        rows = []
        picks = rng.choice(eligible, size=min(num_rerates, eligible.size),
                           replace=False, p=triple_w)
        for index in picks:
            user, item, value = train[index]
            reflected = low + high - value
            if reflected == value:  # midpoint: reflection is a no-op
                reflected = high if value < (low + high) / 2 + 0.5 else low
            rows.append((user, item, reflected))
        attempts = 0
        while len(rows) < burst_size and attempts < burst_size * 100:
            attempts += 1
            user = int(rng.choice(users_pool, p=user_w))
            item = int(rng.choice(split.train_items, p=item_w))
            if (user, item) in rated:
                continue
            rated.add((user, item))
            rows.append((user, item, float(rng.integers(int(low), int(high) + 1))))
        bursts.append(np.array(rows, dtype=np.float64))
    return bursts


def save_workload(path: str | Path, requests: list[WorkloadRequest]) -> Path:
    """Write a workload as JSONL: one ``{"user", "items", "supports"}`` per line."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for request in requests:
            record = {"user": request.user, "items": list(request.item_ids)}
            if request.support_items is not None:
                record["supports"] = list(request.support_items)
            if request.context_users is not None:
                record["context_users"] = request.context_users
            if request.context_items is not None:
                record["context_items"] = request.context_items
            handle.write(json.dumps(record) + "\n")
    return path


def load_workload(path: str | Path) -> list[WorkloadRequest]:
    """Read a JSONL workload written by :func:`save_workload`."""
    requests = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            supports = record.get("supports")
            context_users = record.get("context_users")
            context_items = record.get("context_items")
            requests.append(WorkloadRequest(
                user=int(record["user"]),
                item_ids=tuple(int(i) for i in record["items"]),
                support_items=(tuple(int(i) for i in supports)
                               if supports is not None else None),
                context_users=(int(context_users)
                               if context_users is not None else None),
                context_items=(int(context_items)
                               if context_items is not None else None),
            ))
    return requests


def replay_workload(service, requests: list[WorkloadRequest],
                    timeout: float = 60.0,
                    retry_interval: float = 0.001,
                    rate: float | None = None) -> list[np.ndarray]:
    """Submit a workload and gather every score vector, in request order.

    Shed requests (:class:`QueueFullError`) are retried after a short sleep
    — the replay is a closed loop, so backpressure slows submission instead
    of losing work.

    ``rate`` optionally paces submission at that many requests per second
    (open-loop arrival schedule: each request has a fixed target instant,
    so a slow service sees the queue build up instead of slowing the
    submitter down).  ``None`` submits as fast as the queue accepts — the
    overload regime the adaptive budget ladder is benchmarked under.
    """
    futures = []
    started = time.perf_counter()
    for index, request in enumerate(requests):
        if rate is not None:
            due = started + index / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
        supports = (np.asarray(request.support_items, dtype=np.int64)
                    if request.support_items is not None else None)
        while True:
            try:
                futures.append(service.submit(
                    request.user, request.item_ids, supports,
                    context_users=request.context_users,
                    context_items=request.context_items))
                break
            except QueueFullError:
                time.sleep(retry_interval)
    return [future.result(timeout) for future in futures]
