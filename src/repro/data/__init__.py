"""``repro.data`` — datasets, cold-start splits and graph substrates.

* :mod:`repro.data.schema` — the :class:`RatingDataset` container.
* :mod:`repro.data.synthetic` — seeded latent-factor generators matching the
  Table II profiles of MovieLens-1M / Douban / Bookcrossing.
* :mod:`repro.data.movielens` — loader for a real ``ml-1m`` dump, if present.
* :mod:`repro.data.splits` — cold-start train/test partitions (UC / IC / U&IC).
* :mod:`repro.data.bipartite` — the user-item rating graph the context
  sampler walks.
* :mod:`repro.data.hin` — heterogeneous information network for the HIN
  baselines: a plain dict from each typed node ``(ntype, index)`` to the
  set of its neighbours.
"""

from .bipartite import RatingGraph
from .hin import build_hin, metapath_neighbors, node_id
from .io import load_dataset, save_dataset
from .loaders import load_bookcrossing, load_douban
from .movielens import load_movielens_1m
from .schema import ITEM_COLUMN, RATING_COLUMN, USER_COLUMN, RatingDataset
from .splits import SCENARIOS, ColdStartSplit, Scenario, make_cold_start_split
from .synthetic import (
    AttributeSpec,
    SyntheticConfig,
    bookcrossing_like,
    dataset_by_name,
    douban_like,
    generate,
    movielens_like,
)

__all__ = [
    "RatingDataset",
    "USER_COLUMN",
    "ITEM_COLUMN",
    "RATING_COLUMN",
    "RatingGraph",
    "build_hin",
    "metapath_neighbors",
    "node_id",
    "load_movielens_1m",
    "load_douban",
    "load_bookcrossing",
    "save_dataset",
    "load_dataset",
    "Scenario",
    "SCENARIOS",
    "ColdStartSplit",
    "make_cold_start_split",
    "AttributeSpec",
    "SyntheticConfig",
    "generate",
    "movielens_like",
    "bookcrossing_like",
    "douban_like",
    "dataset_by_name",
]
