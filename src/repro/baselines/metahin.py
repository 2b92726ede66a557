"""MetaHIN (Lu et al., KDD 2020) [33] — meta-learning over a HIN.

MetaHIN exploits HIN semantics *at the data level* (each user task is
augmented with metapath-induced semantic contexts) and meta-learning *at the
model level* (MAML-style adaptation).  Here every task conditions on a
semantic context vector: the mean embedding of items reachable from the
user's support items along item→user→item co-rating paths in the HIN.  The
decision layers adapt per task with first-order MAML, as in
:mod:`repro.baselines.melu`; the semantic context makes the adaptation
HIN-aware.

Like the paper, this baseline targets the MovieLens-like dataset (rich
attributes → meaningful HIN).
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..data.hin import HIN, build_hin, metapath_neighbors, node_id
from ..data.schema import RatingDataset
from ..data.splits import ColdStartSplit
from ..eval.tasks import EvalTask
from .base import PairEncoder
from .meta import Episode, EpisodicMetaModel

__all__ = ["MetaHIN"]


class _MetaHINNetwork(nn.Module):
    def __init__(self, dataset: RatingDataset, attr_dim: int, hidden: int,
                 rng: np.random.Generator):
        super().__init__()
        self.encoder = PairEncoder(dataset, attr_dim, rng)
        self.context_proj = nn.Linear(self.encoder.item_dim, hidden // 2, rng)
        in_dim = self.encoder.user_dim + self.encoder.item_dim + hidden // 2
        self.head = nn.MLP([in_dim, hidden, hidden // 2, 1], rng)
        self.hidden = hidden

    def forward(self, users: np.ndarray, items: np.ndarray,
                context: nn.Tensor) -> nn.Tensor:
        batch = len(users)
        features = nn.functional.concatenate([
            self.encoder.encode_users(users),
            self.encoder.encode_items(items),
            context.reshape(1, -1) + nn.Tensor(np.zeros((batch, self.hidden // 2))),
        ], axis=-1)
        return self.head(features)

    def decision_parameters(self) -> list[nn.Parameter]:
        return list(self.head.parameters())


class MetaHIN(EpisodicMetaModel):
    """HIN-augmented meta-learning for cold-start."""

    name = "MetaHIN"

    def __init__(self, dataset: RatingDataset, attr_dim: int = 8, hidden: int = 32,
                 inner_steps: int = 2, inner_lr: float = 5e-2,
                 max_context_items: int = 12, **kwargs):
        super().__init__(dataset, **kwargs)
        self.attr_dim = attr_dim
        self.hidden = hidden
        self.inner_steps = inner_steps
        self.inner_lr = inner_lr
        self.max_context_items = max_context_items
        self.hin: HIN | None = None

    def build(self, rng: np.random.Generator) -> nn.Module:
        self.network = _MetaHINNetwork(self.dataset, self.attr_dim, self.hidden, rng)
        return self.network

    def fit(self, split: ColdStartSplit, tasks: list[EvalTask]) -> None:
        # Semantic contexts come from the HIN over warm ratings plus the
        # tasks' support ratings (the data-level augmentation).
        visible = [split.train_ratings()]
        visible.extend(task.support for task in tasks if task.support.size)
        self.hin = build_hin(self.dataset, ratings=np.concatenate(visible))
        super().fit(split, tasks)

    # ------------------------------------------------------------------ #
    def _semantic_context(self, support_items: np.ndarray) -> nn.Tensor:
        """Mean embedding of items co-rated with the support items (I-U-I)."""
        reachable: set[int] = set()
        for item in support_items[: self.max_context_items]:
            ends = metapath_neighbors(self.hin, node_id("item", int(item)),
                                      ["user", "item"], self.rng, max_neighbors=6)
            reachable.update(index for ntype, index in ends if ntype == "item")
        if not reachable:
            return nn.Tensor(np.zeros(self.network.hidden // 2))
        items = np.fromiter(reachable, dtype=np.int64)[: self.max_context_items]
        embedded = self.network.encoder.encode_items(items)
        return self.network.context_proj(embedded).relu().mean(axis=0)

    def _loss_on(self, triples: np.ndarray, context: nn.Tensor) -> nn.Tensor:
        users = triples[:, 0].astype(np.int64)
        items = triples[:, 1].astype(np.int64)
        predicted = self.network(users, items, context).sigmoid() * self.alpha
        return nn.functional.mse_loss(predicted.reshape(-1), triples[:, 2])

    def episode_update(self, episode: Episode, optimizer: nn.Optimizer) -> float:
        decision = self.network.decision_parameters()
        saved = self.save_params(decision)
        support_items = episode.support[:, 1].astype(np.int64)
        self.inner_adapt(
            decision,
            lambda: self._loss_on(episode.support, self._semantic_context(support_items)),
            self.inner_steps, self.inner_lr,
        )
        optimizer.zero_grad()
        context = self._semantic_context(support_items)
        query_loss = self._loss_on(episode.query, context)
        query_loss.backward()
        self.restore_params(decision, saved)
        optimizer.step()
        return query_loss.item()

    def adapt_and_score(self, support: np.ndarray, user: int,
                        query_items: np.ndarray) -> np.ndarray:
        decision = self.network.decision_parameters()
        saved = self.save_params(decision)
        support_items = support[:, 1].astype(np.int64) if support.size else np.empty(0, np.int64)
        if support.size:
            self.inner_adapt(
                decision,
                lambda: self._loss_on(support, self._semantic_context(support_items)),
                self.inner_steps, self.inner_lr,
            )
        users = np.full(len(query_items), user, dtype=np.int64)
        with nn.no_grad():
            context = self._semantic_context(support_items)
            scores = (self.network(users, query_items, context).sigmoid() * self.alpha).data
        self.restore_params(decision, saved)
        return scores.reshape(-1)
