"""GraphHINGE (Jin et al., KDD 2020) [21] — HIN neighbourhood interaction.

For a (user, item) pair, metapath-guided neighbourhoods are sampled from the
heterogeneous information network (rated items / attribute-similar items for
the user; raters / attribute-similar users for the item).  Source and target
neighbour embeddings, projected to a common space, interact through
element-wise products over all neighbour pairs; an attention softmax over
the pair scores aggregates them into an interaction vector that joins the
pair's own embeddings in the scoring MLP.

(The original computes the interaction with an FFT-accelerated convolution;
the all-pairs product + attention here is its direct O(|N_u|·|N_i|) form.)

Like the paper, this baseline runs on the MovieLens-like dataset, whose
attributes are rich enough to build a meaningful HIN.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..data.hin import HIN, build_hin, metapath_neighbors, node_id
from ..data.schema import RatingDataset
from ..data.splits import ColdStartSplit
from ..eval.tasks import EvalTask
from .base import PairEncoder, RatingModel, combine_support_ratings

__all__ = ["GraphHINGE"]

# Metapaths (node types after the start node).  Users end at items and
# vice versa, so both neighbourhoods live in entity space.
_USER_METAPATHS = (["item"], ["attr", "user", "item"])
_ITEM_METAPATHS = (["user"], ["attr", "item", "user"])


class _GraphHINGENetwork(nn.Module):
    def __init__(self, dataset: RatingDataset, attr_dim: int, common_dim: int,
                 hidden: int, rng: np.random.Generator):
        super().__init__()
        self.encoder = PairEncoder(dataset, attr_dim, rng)
        self.project_user = nn.Linear(self.encoder.user_dim, common_dim, rng)
        self.project_item = nn.Linear(self.encoder.item_dim, common_dim, rng)
        self.attention = nn.Linear(common_dim, 1, rng)
        self.scorer = nn.MLP(
            [self.encoder.user_dim + self.encoder.item_dim + common_dim, hidden, 1], rng
        )
        self.common_dim = common_dim


class GraphHINGE(RatingModel):
    """Neighbourhood-interaction model over a heterogeneous network."""

    name = "GraphHINGE"

    def __init__(self, dataset: RatingDataset, attr_dim: int = 8, common_dim: int = 16,
                 hidden: int = 32, max_neighbors: int = 6, steps: int = 200,
                 batch_size: int = 32, lr: float = 5e-3, seed: int = 0):
        self.dataset = dataset
        self.attr_dim = attr_dim
        self.common_dim = common_dim
        self.hidden = hidden
        self.max_neighbors = max_neighbors
        self.steps = steps
        self.batch_size = batch_size
        self.lr = lr
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.alpha = float(dataset.rating_range[1])
        self.network: _GraphHINGENetwork | None = None
        self.hin: HIN | None = None
        self.loss_history: list[float] = []

    # ------------------------------------------------------------------ #
    def _neighborhood(self, start: tuple[str, int], metapaths) -> tuple[np.ndarray, np.ndarray]:
        """(item ids, user ids) reached from ``start`` along the metapaths."""
        items: set[int] = set()
        users: set[int] = set()
        for path in metapaths:
            ends = metapath_neighbors(self.hin, start, path, self.rng,
                                      max_neighbors=self.max_neighbors)
            for ntype, index in ends:
                if ntype == "item":
                    items.add(index)
                elif ntype == "user":
                    users.add(index)
        return (np.fromiter(items, dtype=np.int64) if items else np.empty(0, np.int64),
                np.fromiter(users, dtype=np.int64) if users else np.empty(0, np.int64))

    def _project_neighbors(self, items: np.ndarray, users: np.ndarray) -> nn.Tensor | None:
        net = self.network
        parts = []
        if items.size:
            parts.append(net.project_item(net.encoder.encode_items(items)))
        if users.size:
            parts.append(net.project_user(net.encoder.encode_users(users)))
        if not parts:
            return None
        return parts[0] if len(parts) == 1 else nn.functional.concatenate(
            [p.reshape(-1, net.common_dim) for p in parts], axis=0
        )

    def _interaction(self, user: int, item: int) -> nn.Tensor:
        """Attention-aggregated element-wise products of neighbour pairs."""
        net = self.network
        src = self._project_neighbors(*self._neighborhood(node_id("user", user), _USER_METAPATHS))
        dst = self._project_neighbors(*self._neighborhood(node_id("item", item), _ITEM_METAPATHS))
        if src is None or dst is None:
            return nn.Tensor(np.zeros(net.common_dim))
        a, b = src.shape[0], dst.shape[0]
        products = src.reshape(a, 1, net.common_dim) * dst.reshape(1, b, net.common_dim)
        flat = products.reshape(a * b, net.common_dim)
        weights = nn.functional.softmax(net.attention(flat).reshape(-1), axis=-1)
        return (flat * weights.reshape(-1, 1)).sum(axis=0)

    def _predict_pairs(self, pairs: np.ndarray) -> nn.Tensor:
        net = self.network
        rows = []
        for user, item in pairs:
            user_vec = net.encoder.encode_users(np.array([int(user)])).reshape(-1)
            item_vec = net.encoder.encode_items(np.array([int(item)])).reshape(-1)
            inter = self._interaction(int(user), int(item))
            rows.append(nn.functional.concatenate([user_vec, item_vec, inter], axis=-1))
        stacked = nn.functional.stack(rows, axis=0)
        return net.scorer(stacked).sigmoid() * self.alpha

    # ------------------------------------------------------------------ #
    def fit(self, split: ColdStartSplit, tasks: list[EvalTask]) -> None:
        train = combine_support_ratings(split, tasks)
        self.hin = build_hin(self.dataset, ratings=train)
        self.network = _GraphHINGENetwork(self.dataset, self.attr_dim, self.common_dim,
                                          self.hidden, np.random.default_rng(self.seed))
        optimizer = nn.Adam(self.network.parameters(), lr=self.lr)
        for _ in range(self.steps):
            batch = train[self.rng.integers(0, len(train), size=min(self.batch_size, len(train)))]
            optimizer.zero_grad()
            predicted = self._predict_pairs(batch[:, :2].astype(np.int64))
            loss = nn.functional.mse_loss(predicted.reshape(-1), batch[:, 2])
            loss.backward()
            optimizer.step()
            self.loss_history.append(loss.item())

    def predict_task(self, task: EvalTask) -> np.ndarray:
        if self.network is None:
            raise RuntimeError("GraphHINGE: fit() must run before predict_task()")
        pairs = np.stack([
            np.full(len(task.query_items), task.user, dtype=np.int64),
            task.query_items,
        ], axis=1)
        with nn.no_grad():
            scores = self._predict_pairs(pairs).data
        return scores.reshape(-1)
