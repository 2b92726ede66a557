"""HIN construction and metapath sampling."""

import numpy as np

from repro.data import build_hin, metapath_neighbors, node_id


def _rating_pairs(hin):
    """Every (user node, item node) pair joined by a rating edge."""
    return {(node, nb) for node, nbs in hin.items() if node[0] == "user"
            for nb in nbs if nb[0] == "item"}


class TestBuildHIN:
    def test_node_types_present(self, ml_dataset):
        types = {ntype for ntype, _ in build_hin(ml_dataset)}
        assert "user" in types and "item" in types
        assert any(t.startswith("user_attr_") for t in types)
        assert any(t.startswith("item_attr_") for t in types)

    def test_rating_edges_link_both_ways(self, ml_dataset):
        hin = build_hin(ml_dataset)
        for user, item, _ in ml_dataset.ratings:
            u, i = node_id("user", user), node_id("item", item)
            assert i in hin[u] and u in hin[i]

    def test_id_attributes_skipped(self, douban_dataset):
        """Douban's ID pseudo-attributes must not create attribute nodes."""
        types = {ntype for ntype, _ in build_hin(douban_dataset)}
        assert types == {"user", "item"}

    def test_restricted_ratings(self, ml_dataset, ml_split):
        """Only the given ratings become edges; every user and item is still a node."""
        train = ml_split.train_ratings()
        hin = build_hin(ml_dataset, ratings=train)
        assert _rating_pairs(hin) == {(node_id("user", u), node_id("item", i))
                                      for u, i, _ in train}
        assert _rating_pairs(hin) < _rating_pairs(build_hin(ml_dataset))
        assert all(node_id("item", i) in hin for i in range(ml_dataset.num_items))

    def test_every_user_linked_to_attr_nodes(self, ml_dataset):
        hin = build_hin(ml_dataset)
        for user in range(ml_dataset.num_users):
            assert any(nb[0].startswith("user_attr_") for nb in hin[node_id("user", user)])


class TestMetapaths:
    def test_user_item_path(self, ml_dataset):
        hin = build_hin(ml_dataset)
        rng = np.random.default_rng(0)
        user = int(ml_dataset.ratings[0][0])
        ends = metapath_neighbors(hin, node_id("user", user), ["item"], rng)
        assert ends
        assert all(n[0] == "item" for n in ends)

    def test_uiu_path_returns_users(self, ml_dataset):
        hin = build_hin(ml_dataset)
        rng = np.random.default_rng(1)
        user = int(ml_dataset.ratings[0][0])
        ends = metapath_neighbors(hin, node_id("user", user), ["item", "user"], rng)
        assert all(n[0] == "user" for n in ends)

    def test_attr_wildcard(self, ml_dataset):
        hin = build_hin(ml_dataset)
        rng = np.random.default_rng(2)
        ends = metapath_neighbors(hin, node_id("user", 0), ["attr"], rng)
        assert ends
        assert all(n[0].startswith("user_attr_") for n in ends)

    def test_max_neighbors_bounds_frontier(self, ml_dataset):
        hin = build_hin(ml_dataset)
        rng = np.random.default_rng(3)
        ends = metapath_neighbors(hin, node_id("user", 0), ["item", "user"],
                                  rng, max_neighbors=3)
        assert len(ends) <= 3

    def test_dead_end_returns_empty(self, ml_dataset):
        hin = build_hin(ml_dataset, ratings=np.empty((0, 3)))
        rng = np.random.default_rng(4)
        assert metapath_neighbors(hin, node_id("user", 0), ["item"], rng) == []

    def test_rating_order_does_not_change_samples(self, ml_dataset):
        """Adjacency order follows rating order; the samples must not."""
        ratings = ml_dataset.ratings
        shuffled = ratings[np.random.default_rng(5).permutation(len(ratings))]
        hins = [build_hin(ml_dataset, ratings=r) for r in (ratings, shuffled)]
        # Every start, so that set iteration order differs somewhere under any
        # string-hash seed.
        walks = [(node_id("user", u), path) for u in range(ml_dataset.num_users)
                 for path in (["item", "user"], ["attr", "user", "item"])]
        walks += [(node_id("item", i), ["user", "item"]) for i in range(ml_dataset.num_items)]
        subsampled = 0
        for start, path in walks:
            samples = [metapath_neighbors(hin, start, path, np.random.default_rng(6),
                                          max_neighbors=4) for hin in hins]
            assert samples[0] == samples[1], (start, path)
            subsampled += len(samples[0]) == 4
        assert subsampled > len(walks) // 2  # the draw ran, so it was tested
