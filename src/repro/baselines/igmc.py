"""IGMC-style inductive matrix completion (Zhang & Chen, ICLR 2020) [44].

The paper positions HIRE against GNN-based inductive matrix completion
(§IV-A): both predict a rating from a local neighbourhood, but IMC models
message-pass over the *observed* rating edges of an enclosing subgraph,
while HIRE attends over a complete graph with learned soft adjacency.
This module implements the comparison point as an extension (it is not in
the paper's evaluation tables; ``benchmarks/bench_extension_igmc.py``
quantifies it on our workloads).

For each (user, item) pair we extract the 1-hop enclosing subgraph — the
item's raters and the user's rated items, bounded per side — and run an
R-GCN-style network: one dense adjacency per rating level, a weight matrix
per level per layer.  Node inputs are structural role labels only
(target-user / target-item / context-user / context-item), which is what
makes the model inductive: cold entities get the same labels as warm ones.
The readout concatenates the target nodes' embeddings from every layer.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..data.bipartite import RatingGraph
from ..data.schema import RatingDataset
from ..data.splits import ColdStartSplit
from ..eval.tasks import EvalTask
from .base import RatingModel, combine_support_ratings

__all__ = ["IGMC"]

_NUM_ROLES = 4  # target user, target item, context user, context item


class _RGCNLayer(nn.Module):
    """Dense relational GCN layer: one weight per rating level + self loop."""

    def __init__(self, in_dim: int, out_dim: int, num_levels: int,
                 rng: np.random.Generator):
        super().__init__()
        self.level_weights = nn.ModuleList(
            nn.Linear(in_dim, out_dim, rng, bias=False) for _ in range(num_levels)
        )
        self.self_weight = nn.Linear(in_dim, out_dim, rng)

    def forward(self, h: nn.Tensor, adjacency: list[np.ndarray]) -> nn.Tensor:
        out = self.self_weight(h)
        for level, weight in enumerate(self.level_weights):
            a = adjacency[level]
            if a.any():
                out = out + nn.Tensor(a) @ weight(h)
        return out.tanh()


class _IGMCNetwork(nn.Module):
    def __init__(self, hidden: int, layers: int, num_levels: int,
                 rng: np.random.Generator):
        super().__init__()
        self.role_embed = nn.Embedding(_NUM_ROLES, hidden, rng)
        self.layers = nn.ModuleList(
            _RGCNLayer(hidden, hidden, num_levels, rng) for _ in range(layers)
        )
        self.readout = nn.MLP([2 * hidden * layers, hidden, 1], rng)
        self.num_layers = layers

    def forward(self, roles: np.ndarray, adjacency: list[np.ndarray]) -> nn.Tensor:
        h = self.role_embed(roles)
        target_states = []
        for layer in self.layers:
            h = layer(h, adjacency)
            # Nodes 0 and 1 are the target user and item by construction.
            target_states.append(h[0])
            target_states.append(h[1])
        fused = nn.functional.concatenate(target_states, axis=-1)
        return self.readout(fused.reshape(1, -1))


class IGMC(RatingModel):
    """Enclosing-subgraph GNN rating prediction (extension baseline)."""

    name = "IGMC"

    def __init__(self, dataset: RatingDataset, hidden: int = 16, layers: int = 2,
                 max_neighbors: int = 8, steps: int = 200, batch_size: int = 16,
                 lr: float = 5e-3, seed: int = 0):
        self.dataset = dataset
        self.hidden = hidden
        self.layers = layers
        self.max_neighbors = max_neighbors
        self.steps = steps
        self.batch_size = batch_size
        self.lr = lr
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        low, high = dataset.rating_range
        self.rating_low = low
        self.alpha = float(high)
        self.num_levels = int(round(high - low)) + 1
        self.network: _IGMCNetwork | None = None
        self.graph: RatingGraph | None = None
        self.loss_history: list[float] = []

    # ------------------------------------------------------------------ #
    # Enclosing subgraph extraction
    # ------------------------------------------------------------------ #
    def _subgraph(self, user: int, item: int, exclude_target_edge: bool):
        """Nodes, role labels and per-level adjacency of the 1-hop subgraph.

        Node order: [target user, target item, context users…, context
        items…].  The target edge itself is removed during training (it is
        the label, not an input).
        """
        raters = self.graph.users_of_item(item)
        raters = raters[raters != user][: self.max_neighbors]
        rated = self.graph.items_of_user(user)
        rated = rated[rated != item][: self.max_neighbors]

        users = [user] + [int(u) for u in raters]
        items = [item] + [int(i) for i in rated]
        num_nodes = len(users) + len(items)
        roles = np.zeros(num_nodes, dtype=np.int64)
        roles[0] = 0                      # target user
        roles[len(users)] = 1             # target item
        roles[1:len(users)] = 2           # context users
        roles[len(users) + 1:] = 3        # context items

        values, observed = self.graph.rating_matrix(np.array(users),
                                                    np.array(items))
        if exclude_target_edge:
            observed[0, 0] = False
        u_pos, i_pos = np.nonzero(observed)
        levels = np.clip(np.rint(values[u_pos, i_pos] - self.rating_low), 0,
                         self.num_levels - 1).astype(np.int64)
        node_i = len(users) + i_pos
        adjacency = np.zeros((self.num_levels, num_nodes, num_nodes))
        adjacency[levels, u_pos, node_i] = 1.0
        adjacency[levels, node_i, u_pos] = 1.0
        # Symmetric degree normalisation keeps message scales stable.
        degree = adjacency.sum(axis=(0, 2))
        scale = 1.0 / np.sqrt(np.maximum(degree, 1.0))
        return roles, list(scale[:, None] * adjacency * scale[None, :])

    def _score(self, user: int, item: int, exclude_target_edge: bool) -> nn.Tensor:
        roles, adjacency = self._subgraph(user, item, exclude_target_edge)
        return self.network(roles, adjacency).sigmoid() * self.alpha

    # ------------------------------------------------------------------ #
    # RatingModel interface
    # ------------------------------------------------------------------ #
    def fit(self, split: ColdStartSplit, tasks: list[EvalTask]) -> None:
        train = combine_support_ratings(split, tasks)
        if len(train) == 0:
            raise ValueError("no training ratings available")
        dataset = self.dataset
        self.graph = RatingGraph(train, dataset.num_users, dataset.num_items)
        self.network = _IGMCNetwork(self.hidden, self.layers, self.num_levels,
                                    np.random.default_rng(self.seed))
        optimizer = nn.Adam(self.network.parameters(), lr=self.lr)
        for _ in range(self.steps):
            batch = train[self.rng.integers(0, len(train),
                                            size=min(self.batch_size, len(train)))]
            optimizer.zero_grad()
            loss = None
            for user, item, value in batch:
                predicted = self._score(int(user), int(item), exclude_target_edge=True)
                diff = predicted.reshape(1) - nn.Tensor(np.array([value]))
                term = (diff * diff).sum()
                loss = term if loss is None else loss + term
            loss = loss * (1.0 / len(batch))
            loss.backward()
            optimizer.step()
            self.loss_history.append(loss.item())

    def predict_task(self, task: EvalTask) -> np.ndarray:
        if self.network is None:
            raise RuntimeError("IGMC: fit() must run before predict_task()")
        scores = np.empty(len(task.query_items))
        with nn.no_grad():
            for pos, item in enumerate(task.query_items):
                scores[pos] = self._score(task.user, int(item),
                                          exclude_target_edge=False).item()
        return scores
