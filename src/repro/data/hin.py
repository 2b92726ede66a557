"""Heterogeneous information network construction (for the HIN baselines).

GraphHINGE [21] and MetaHIN [33] consume a HIN whose node types extend past
users and items.  Following §VI-A of the paper, we build the network from
dataset attributes: every categorical attribute value becomes a typed node
(e.g. ``genre=3``), linked to the users/items that carry it, alongside
user-item rating edges.

The network is a plain adjacency dict, :data:`HIN`: each node key
``(ntype, index)`` maps to the set of its neighbours, so a node's type is
its key's first element.  Edges are undirected (each appears in both
endpoints' sets) and carry no attributes.  :func:`metapath_neighbors` walks
it along node-type metapaths (e.g. ``U-I-U``, ``I-U-I``, ``U-A-U``) for the
baselines' neighbourhood samplers.
"""

from __future__ import annotations

import numpy as np

from .schema import RatingDataset

__all__ = ["HIN", "build_hin", "metapath_neighbors", "node_id"]

HIN = dict[tuple[str, int], set[tuple[str, int]]]


def node_id(ntype: str, index: int) -> tuple[str, int]:
    """Canonical node key: ('user', 3), ('item', 7), ('user_attr_age', 2)…"""
    return (ntype, int(index))


def build_hin(dataset: RatingDataset, ratings: np.ndarray | None = None) -> HIN:
    """Build the HIN from a dataset and a set of visible rating triples.

    Every user and item is a node, rated or not.  Attribute columns whose
    cardinality equals the entity count (i.e. pure ID attributes) are
    skipped — they carry no shared semantics.
    """
    if ratings is None:
        ratings = dataset.ratings
    graph: HIN = {}
    for kind, count, names, cards, codes in (
        ("user", dataset.num_users, dataset.user_attribute_names,
         dataset.user_attribute_cards, dataset.user_attributes),
        ("item", dataset.num_items, dataset.item_attribute_names,
         dataset.item_attribute_cards, dataset.item_attributes),
    ):
        graph.update((node_id(kind, index), set()) for index in range(count))
        for col, (name, card) in enumerate(zip(names, cards)):
            if card >= count:  # ID attribute, no semantics
                continue
            for index in range(count):
                attr = node_id(f"{kind}_attr_{name}", codes[index, col])
                _link(graph, node_id(kind, index), attr)
    for user, item, _ in ratings:
        _link(graph, node_id("user", user), node_id("item", item))
    return graph


def _link(graph: HIN, a: tuple[str, int], b: tuple[str, int]) -> None:
    graph.setdefault(a, set()).add(b)
    graph.setdefault(b, set()).add(a)


def metapath_neighbors(graph: HIN, start: tuple[str, int], metapath: list[str],
                       rng: np.random.Generator, max_neighbors: int = 16) -> list[tuple[str, int]]:
    """Sample end-nodes reachable from ``start`` along a node-type metapath.

    ``metapath`` lists the node types after the start node, e.g.
    ``["item", "user"]`` walks user → item → user (the classic U-I-U path);
    ``"attr"`` matches any attribute node.  At each hop, neighbours not
    matching the next type are filtered; if more than ``max_neighbors``
    survive (sorted, so the draw never depends on adjacency order) a uniform
    subsample keeps the frontier bounded (mirroring GraphHINGE's
    neighbourhood sampling).
    """
    frontier = [start]
    for next_type in metapath:
        unique = sorted({nb for node in frontier for nb in graph[node]
                         if _matches_type(nb[0], next_type)})
        if not unique:
            return []
        if len(unique) > max_neighbors:
            picks = rng.choice(len(unique), size=max_neighbors, replace=False)
            unique = [unique[p] for p in sorted(picks)]
        frontier = unique
    return frontier


def _matches_type(ntype: str, wanted: str) -> bool:
    if wanted == "attr":
        return ntype.startswith(("user_attr_", "item_attr_"))
    return ntype == wanted
