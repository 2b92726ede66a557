"""GraphRec (Fan et al., WWW 2019) [15] — GNN social recommendation.

Three aggregations feed the rating predictor:

* **item-space user modeling** — a user's latent vector aggregates the
  (item embedding ‖ rating embedding) of their rated items,
* **social-space user modeling** — aggregates the item-space vectors of the
  user's friends (the social graph; hence GraphRec runs only on the
  Douban-like dataset, as in the paper),
* **user aggregation for items** — an item's latent vector aggregates the
  (user embedding ‖ rating embedding) of its raters.

The original weights neighbours with attention MLPs; we use mean
aggregation over a bounded neighbour sample, which preserves the
architecture's information flow at numpy scale (noted in DESIGN.md).
Cold users are served through their support ratings, which enter the
aggregation graph at fit time.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..data.bipartite import RatingGraph
from ..data.schema import RatingDataset
from ..data.splits import ColdStartSplit
from ..eval.tasks import EvalTask
from .base import PairEncoder, RatingModel, combine_support_ratings

__all__ = ["GraphRec"]


class _GraphRecNetwork(nn.Module):
    def __init__(self, dataset: RatingDataset, attr_dim: int, hidden: int,
                 rng: np.random.Generator):
        super().__init__()
        self.encoder = PairEncoder(dataset, attr_dim, rng)
        low, high = dataset.rating_range
        self.num_levels = int(round(high - low)) + 1
        self.rating_low = low
        self.rating_embed = nn.Embedding(self.num_levels, attr_dim, rng)
        self.item_space = nn.Linear(self.encoder.item_dim + attr_dim, hidden, rng)
        self.user_space = nn.Linear(self.encoder.user_dim + attr_dim, hidden, rng)
        self.user_combine = nn.Linear(self.encoder.user_dim + 2 * hidden, hidden, rng)
        self.item_combine = nn.Linear(self.encoder.item_dim + hidden, hidden, rng)
        self.predictor = nn.MLP([2 * hidden, hidden, 1], rng)
        self.hidden = hidden


class GraphRec(RatingModel):
    """Social + rating graph aggregation for rating prediction."""

    name = "GraphRec"

    def __init__(self, dataset: RatingDataset, attr_dim: int = 8, hidden: int = 32,
                 max_neighbors: int = 8, steps: int = 200, batch_size: int = 32,
                 lr: float = 5e-3, seed: int = 0):
        if dataset.social_edges is None:
            raise ValueError("GraphRec requires a dataset with social edges (Douban)")
        self.dataset = dataset
        self.attr_dim = attr_dim
        self.hidden = hidden
        self.max_neighbors = max_neighbors
        self.steps = steps
        self.batch_size = batch_size
        self.lr = lr
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.alpha = float(dataset.rating_range[1])
        self.network: _GraphRecNetwork | None = None
        self.graph: RatingGraph | None = None
        self.friends: dict[int, np.ndarray] = {}
        self.loss_history: list[float] = []

    # ------------------------------------------------------------------ #
    # Aggregations
    # ------------------------------------------------------------------ #
    def _rating_levels(self, values: np.ndarray) -> np.ndarray:
        net = self.network
        levels = np.rint(values - net.rating_low).astype(np.int64)
        return np.clip(levels, 0, net.num_levels - 1)

    def _sample_neighbors(self, ids: np.ndarray) -> np.ndarray:
        if len(ids) > self.max_neighbors:
            picks = self.rng.choice(len(ids), size=self.max_neighbors, replace=False)
            ids = ids[picks]
        return ids

    def _item_space_user(self, user: int) -> nn.Tensor:
        """Aggregate a user's rated items: h_I of the original."""
        net = self.network
        items = self._sample_neighbors(self.graph.items_of_user(user))
        if items.size == 0:
            return nn.Tensor(np.zeros(net.hidden))
        values = self.graph.rating_matrix(np.array([user]), items)[0][0]
        features = nn.functional.concatenate(
            [net.encoder.encode_items(items), net.rating_embed(self._rating_levels(values))],
            axis=-1,
        )
        return net.item_space(features).relu().mean(axis=0)

    def _user_latent(self, user: int) -> nn.Tensor:
        net = self.network
        item_space = self._item_space_user(user)
        friends = self._sample_neighbors(self.friends.get(user, np.empty(0, np.int64)))
        if friends.size:
            social = [self._item_space_user(int(f)) for f in friends]
            social_space = nn.functional.stack(social, axis=0).mean(axis=0)
        else:
            social_space = nn.Tensor(np.zeros(net.hidden))
        profile = net.encoder.encode_users(np.array([user])).reshape(-1)
        combined = nn.functional.concatenate([profile, item_space, social_space], axis=-1)
        return net.user_combine(combined.reshape(1, -1)).relu().reshape(-1)

    def _item_latent(self, item: int) -> nn.Tensor:
        net = self.network
        users = self._sample_neighbors(self.graph.users_of_item(item))
        if users.size:
            values = self.graph.rating_matrix(users, np.array([item]))[0][:, 0]
            features = nn.functional.concatenate(
                [net.encoder.encode_users(users), net.rating_embed(self._rating_levels(values))],
                axis=-1,
            )
            aggregated = net.user_space(features).relu().mean(axis=0)
        else:
            aggregated = nn.Tensor(np.zeros(net.hidden))
        profile = net.encoder.encode_items(np.array([item])).reshape(-1)
        combined = nn.functional.concatenate([profile, aggregated], axis=-1)
        return net.item_combine(combined.reshape(1, -1)).relu().reshape(-1)

    def _predict_pairs(self, pairs: np.ndarray) -> nn.Tensor:
        latents = []
        for user, item in pairs:
            u_lat = self._user_latent(int(user))
            i_lat = self._item_latent(int(item))
            latents.append(nn.functional.concatenate([u_lat, i_lat], axis=-1))
        stacked = nn.functional.stack(latents, axis=0)
        return self.network.predictor(stacked).sigmoid() * self.alpha

    # ------------------------------------------------------------------ #
    # RatingModel interface
    # ------------------------------------------------------------------ #
    def fit(self, split: ColdStartSplit, tasks: list[EvalTask]) -> None:
        train = combine_support_ratings(split, tasks)
        dataset = self.dataset
        self.graph = RatingGraph(train, dataset.num_users, dataset.num_items)
        self.friends = {}
        for a, b in dataset.social_edges:
            self.friends.setdefault(int(a), []).append(int(b))
            self.friends.setdefault(int(b), []).append(int(a))
        self.friends = {u: np.asarray(v, dtype=np.int64) for u, v in self.friends.items()}

        self.network = _GraphRecNetwork(dataset, self.attr_dim, self.hidden,
                                        np.random.default_rng(self.seed))
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
            raise RuntimeError("GraphRec: fit() must run before predict_task()")
        pairs = np.stack([
            np.full(len(task.query_items), task.user, dtype=np.int64),
            task.query_items,
        ], axis=1)
        with nn.no_grad():
            scores = self._predict_pairs(pairs).data
        return scores.reshape(-1)
