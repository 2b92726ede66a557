"""Test-time inference for HIRE over cold-start evaluation tasks.

For each :class:`~repro.eval.tasks.EvalTask`, the predictor assembles a
prediction context around the task's cold user: the query items (chunked if
they exceed the item budget), the support items, and neighbourhood-sampled
warm entities.  Support ratings are force-revealed (they are the cold
entity's known interactions), query cells are force-masked, and the
remaining observed cells follow the 10 %-revealed protocol — mirroring how
training contexts are built.

The context-assembly pipeline is exposed as module-level functions
(:func:`build_serving_graph`, :func:`assemble_user_chunks`,
:func:`ensure_targets`, :func:`task_chunk_rng`) so the online serving layer
(:mod:`repro.serve`) scores requests through exactly the same code path as
the offline predictor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.bipartite import RatingGraph
from ..data.splits import ColdStartSplit
from ..eval.tasks import EvalTask
from .context import PredictionContext, build_context
from .model import HIRE
from .sampling import ContextSampler, NeighborhoodSampler

__all__ = [
    "HIREPredictor",
    "AssembledChunk",
    "assemble_user_chunks",
    "build_serving_graph",
    "ensure_targets",
    "task_chunk_rng",
]


def build_serving_graph(split: ColdStartSplit, tasks: list[EvalTask]
                        ) -> tuple[RatingGraph, np.ndarray, np.ndarray]:
    """Visible test-time graph and candidate pools for a set of tasks.

    The tasks' support ratings join the warm training ratings, so the
    neighbourhood sampler can hop through cold entities.  Returns
    ``(graph, candidate_users, candidate_items)`` — the state both
    :class:`HIREPredictor` and :class:`repro.serve.PredictionService`
    assemble contexts against.
    """
    dataset = split.dataset
    visible = [split.train_ratings()]
    visible.extend(task.support for task in tasks if task.support.size)
    graph = RatingGraph(np.concatenate(visible) if visible else np.empty((0, 3)),
                        dataset.num_users, dataset.num_items)
    # Context candidates may include any entity visible at test time.
    candidate_users = np.union1d(split.train_users,
                                 np.array([t.user for t in tasks], dtype=np.int64))
    cold_items = [t.support_items for t in tasks] + [t.query_items for t in tasks]
    candidate_items = np.union1d(
        split.train_items,
        np.unique(np.concatenate(cold_items)) if cold_items else np.empty(0, np.int64),
    )
    return graph, candidate_users, candidate_items


def ensure_targets(users: np.ndarray, items: np.ndarray, target_user: int,
                   target_items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Samplers put targets first, but defend against budget overflow.

    Membership tests are broadcast comparisons (:func:`_member`), exactly
    equivalent to the original per-element scans (pinned by
    ``tests/core/test_predictor.py``).
    """
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    target_items = np.asarray(target_items, dtype=np.int64)
    if not (users == target_user).any():
        users = np.concatenate([[target_user], users[:-1]])
    missing = target_items[~_member(target_items, items)]
    if missing.size:
        head = missing[: len(items)]
        keep = items[~_member(items, head)]
        items = np.concatenate([missing, keep])[: len(items)].astype(np.int64)
    return users, items


def _member(values: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """``np.isin(values, pool)`` for context-sized integer arrays: one
    broadcast comparison, without ``isin``'s per-call dispatch cost."""
    return (values[:, None] == pool).any(axis=1)


def task_chunk_rng(seed: int, user: int, sample_index: int,
                   chunk_start: int) -> np.random.Generator:
    """Deterministic RNG for one context chunk of one user's prediction.

    Deriving the generator from ``(seed, user, sample, chunk)`` — instead of
    advancing one shared stream — makes context assembly a pure function of
    its inputs: scores no longer depend on request order, which is what lets
    the serving layer batch, parallelise, and cache assembled contexts while
    staying bit-identical to sequential prediction.
    """
    return np.random.default_rng([int(seed), int(user), int(sample_index),
                                  int(chunk_start)])


@dataclass
class AssembledChunk:
    """One sampled n × m context covering a slice of a user's query items."""

    context: PredictionContext
    user_row: int        # row of the target user inside the context
    cols: np.ndarray     # column of each chunk item, in chunk order
    start: int           # offset of this chunk within the query list

    def __len__(self) -> int:
        return len(self.cols)


def assemble_user_chunks(graph: RatingGraph, sampler: ContextSampler, user: int,
                         query_items: np.ndarray, support_items: np.ndarray, *,
                         context_users: int, context_items: int,
                         reveal_fraction: float, candidate_users: np.ndarray,
                         candidate_items: np.ndarray,
                         rng_factory) -> list[AssembledChunk]:
    """Sample and build the contexts that score ``query_items`` for a user.

    ``rng_factory`` maps a chunk's query offset to the generator driving its
    sampling and reveal draw — :class:`HIREPredictor` passes its shared
    advancing stream, the serving layer passes :func:`task_chunk_rng`.
    Model-free by design: callers run the forward pass (individually, or
    stacked across users via :meth:`HIRE.forward_many`).
    """
    query_items = np.asarray(query_items, dtype=np.int64)
    support_items = np.asarray(support_items, dtype=np.int64)
    # Reserve a slice of the item budget for support items so the cold
    # user always has revealed interactions inside the context.
    reserve = min(len(support_items), max(context_items // 4, 1))
    chunk_size = max(context_items - reserve, 1)
    chunks: list[AssembledChunk] = []

    for start in range(0, len(query_items), chunk_size):
        chunk = query_items[start:start + chunk_size]
        target_items = np.concatenate([chunk, support_items[:reserve]])
        rng = rng_factory(start)
        users, items = sampler.sample(
            graph,
            target_users=np.array([user]),
            target_items=target_items,
            n=context_users, m=context_items,
            rng=rng,
            candidate_users=candidate_users,
            candidate_items=candidate_items,
        )
        users, items = ensure_targets(users, items, user, target_items)

        user_row = int(np.flatnonzero(users == user)[0])
        # Query ratings are absent from the visible graph by construction
        # (no leakage): their cells are unobserved, hence encoded with a
        # zero rating vector — already masked from the model's view.
        # Support cells the graph holds are force-revealed.
        forced_reveal = np.zeros((len(users), len(items)), dtype=bool)
        forced_reveal[user_row] = (_member(items, support_items)
                                   & _member(items, graph.items_of_user(user)))

        context = build_context(
            graph, users, items, rng,
            reveal_fraction=reveal_fraction,
            forced_reveal=forced_reveal,
        )
        # Each chunk item's column (ensure_targets put every one in items).
        cols = (chunk[:, None] == items).argmax(axis=1)
        assert not context.observed[user_row, cols].any(), (
            "query ratings leaked into the visible test-time graph"
        )
        chunks.append(AssembledChunk(context=context, user_row=user_row,
                                     cols=cols, start=start))
    return chunks


class HIREPredictor:
    """Scores evaluation tasks with a trained HIRE model.

    Parameters
    ----------
    model:
        A trained :class:`HIRE`.
    split:
        The cold-start split the model was trained on.
    tasks:
        All evaluation tasks of the scenario; their support ratings join the
        warm training ratings to form the visible test-time graph, so the
        neighbourhood sampler can hop through cold entities.
    per_task_rng:
        With the default ``False``, one RNG stream advances across tasks and
        chunks (the original offline behaviour).  ``True`` derives a fresh
        generator per ``(task, sample, chunk)`` via :func:`task_chunk_rng`,
        making every task's scores independent of evaluation order — the
        mode :class:`repro.serve.PredictionService` reproduces bit-exactly.

    Chunk forwards go through :meth:`HIRE.predict` with the target user's
    row, which uses the graph-free :mod:`repro.nn.inference` engine and its
    target-row tail when supported.
    """

    def __init__(self, model: HIRE, split: ColdStartSplit, tasks: list[EvalTask],
                 sampler: ContextSampler | None = None, context_users: int = 32,
                 context_items: int = 32, reveal_fraction: float = 0.1,
                 num_context_samples: int = 1, seed: int = 0,
                 per_task_rng: bool = False):
        if num_context_samples < 1:
            raise ValueError("num_context_samples must be >= 1")
        self.model = model
        self.split = split
        self.sampler = sampler or NeighborhoodSampler()
        self.context_users = context_users
        self.context_items = context_items
        self.reveal_fraction = reveal_fraction
        # Averaging scores over several independently sampled contexts
        # reduces the variance the context lottery introduces (an extension
        # beyond the paper's single-context prediction; see DESIGN.md).
        self.num_context_samples = num_context_samples
        self.seed = seed
        self.per_task_rng = per_task_rng
        self.rng = np.random.default_rng(seed)
        self.graph, self.candidate_users, self.candidate_items = (
            build_serving_graph(split, tasks))

    def predict_task(self, task: EvalTask) -> np.ndarray:
        """Predicted scores for ``task.query_items``, in query order.

        With ``num_context_samples > 1`` the returned scores average the
        predictions from that many independently sampled contexts.
        """
        total = self._predict_once(task, 0)
        for sample_index in range(1, self.num_context_samples):
            total = total + self._predict_once(task, sample_index)
        return total / self.num_context_samples

    def _predict_once(self, task: EvalTask, sample_index: int = 0) -> np.ndarray:
        support_values = {int(i): v for i, v in zip(task.support_items,
                                                    task.support[:, 2])}
        if self.per_task_rng:
            def rng_factory(start, _task=task, _sample=sample_index):
                return task_chunk_rng(self.seed, _task.user, _sample, start)
        else:
            def rng_factory(start):
                return self.rng

        chunks = assemble_user_chunks(
            self.graph, self.sampler, task.user,
            task.query_items, task.support_items,
            context_users=self.context_users,
            context_items=self.context_items,
            reveal_fraction=self.reveal_fraction,
            candidate_users=self.candidate_users,
            candidate_items=self.candidate_items,
            rng_factory=rng_factory,
        )
        scores = np.empty(len(task.query_items), dtype=np.float64)
        for chunk in chunks:
            predicted = self.model.predict(chunk.context, row=chunk.user_row)
            scores[chunk.start:chunk.start + len(chunk)] = predicted[chunk.cols]

        # Items whose rating is in the support set are already known; keep
        # the model honest by never letting supports leak into query scores
        # (they cannot, by construction, but assert the alignment).
        assert not set(int(i) for i in task.query_items) & set(support_values), (
            "query items overlap support items"
        )
        return scores
