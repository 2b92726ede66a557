"""Output checks run after the timed phases.

Served scores are compared bit for bit with a sequential reference that
shares nothing with the service but the public assembly functions: it
assembles each request's contexts with ``assemble_user_chunks`` and
``task_chunk_rng`` against the graph snapshot the load thread captured,
and scores them with the autograd (Tensor-path) ``HIRE.forward`` one
chunk at a time — no batching, caching, packing or inference engine.
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.core import NeighborhoodSampler, assemble_user_chunks, task_chunk_rng


def reference_scores(model, config, snapshot, user: int, items, supports,
                     n: int, m: int) -> np.ndarray:
    """Sequential Tensor-path scores of one request against ``snapshot``."""
    sampler = NeighborhoodSampler()
    items = np.asarray(items, dtype=np.int64)
    total = None
    for sample in range(config.num_context_samples):
        chunks = assemble_user_chunks(
            snapshot.graph, sampler, user, items,
            np.asarray(supports, dtype=np.int64),
            context_users=n, context_items=m,
            reveal_fraction=config.reveal_fraction,
            candidate_users=snapshot.candidate_users,
            candidate_items=snapshot.candidate_items,
            rng_factory=lambda start, s=sample: task_chunk_rng(
                config.seed, user, s, start))
        part = np.empty(len(items), dtype=np.float64)
        with nn.no_grad():
            for chunk in chunks:
                out = model.forward(chunk.context).data
                part[chunk.start:chunk.start + len(chunk)] = (
                    out[chunk.user_row, chunk.cols])
        total = part if total is None else total + part
    return total / config.num_context_samples


def check_served(model, config, served) -> tuple[list[str], int]:
    """Compare every ``(request, snapshot, scores)`` with its reference.

    ``snapshot`` is the graph state the load thread saw when it submitted
    the request; the service must have pinned exactly that one.  Returns
    the mismatch messages and the number of distinct requests checked.
    """
    references: dict[tuple, np.ndarray] = {}
    errors = []
    for request, snapshot, scores in served:
        if request.graph_state is not snapshot:
            errors.append(f"user {request.user}: admitted under generation "
                          f"{request.generation}, expected "
                          f"{snapshot.generation}")
            continue
        n = (config.context_users if request.context_users is None
             else request.context_users)
        m = (config.context_items if request.context_items is None
             else request.context_items)
        key = (request.user, tuple(request.item_ids.tolist()),
               tuple(request.support_items.tolist()), n, m,
               snapshot.generation)
        if key not in references:
            references[key] = reference_scores(
                model, config, snapshot, request.user, request.item_ids,
                request.support_items, n, m)
        if not np.array_equal(scores, references[key]):
            errors.append(f"user {request.user} at {n}x{m}, generation "
                          f"{snapshot.generation}: served scores differ from "
                          "the sequential reference")
    return errors, len(references)
