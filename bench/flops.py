"""FLOP ledger: useful (unpadded) GEMM FLOPs of a HIRE forward, per layer.

The paper prices one context at ``O(K·nme(n+m+h))`` (§V): per HIM block,
MBU attends over the ``n`` users of each of the ``m`` item columns, MBI
over the ``m`` items of each user row, and MBA over the ``h`` attribute
tokens of each of the ``nm`` cells.  Each multi-head self-attention pass
over ``T`` tokens of width ``w`` costs its packed QKV and output
projections, ``8·T·w²`` FLOPs, plus the ``QKᵀ`` and ``AV`` products,
``4·T²·w``; the decoder is one ``e → 1`` projection per cell.  Layer
norms, softmax and embedding gathers are not counted.  FLOPs are counted
from the real context shape, so padding done by the packed engine path
never counts as useful work.
"""

from __future__ import annotations

import time

import numpy as np

GEMM_SIZE = 384           # square float64 GEMM of the peak reference
GEMM_REPEATS = 5


def attention_flops(batch: int, tokens: int, width: int) -> int:
    """GEMM FLOPs of one MHSA pass over ``batch`` sequences."""
    return batch * (8 * tokens * width * width + 4 * tokens * tokens * width)


def layer_flops(num_attributes: int, attr_dim: int, n: int, m: int) -> dict:
    """FLOPs of one HIM block's layers and of the decoder, for one context."""
    e = num_attributes * attr_dim
    return {
        "mbu": attention_flops(m, n, e),
        "mbi": attention_flops(n, m, e),
        "mba": attention_flops(n * m, num_attributes, attr_dim),
        "decoder": 2 * n * m * e,
    }


def forward_flops(model, n: int, m: int) -> int:
    """Useful FLOPs of one ``n × m`` context through ``model``."""
    per_layer = layer_flops(model.encoder.num_attributes,
                            model.config.attr_dim, n, m)
    total = per_layer["decoder"]
    for block in model.blocks:
        total += ((per_layer["mbu"] if block.use_user else 0)
                  + (per_layer["mbi"] if block.use_item else 0)
                  + (per_layer["mba"] if block.use_attr else 0))
    return total


def gemm_peak_gflops() -> float:
    """Best GFLOP/s of a square numpy GEMM in this process (the normaliser
    for the achieved-throughput metrics)."""
    size = GEMM_SIZE
    rng = np.random.default_rng(0)
    a = rng.standard_normal((size, size))
    b = rng.standard_normal((size, size))
    out = np.empty((size, size))
    calls = 8
    best = float("inf")
    for _ in range(GEMM_REPEATS):
        start = time.perf_counter()
        for _ in range(calls):
            np.matmul(a, b, out=out)
        best = min(best, (time.perf_counter() - start) / calls)
    return 2.0 * size ** 3 / best / 1e9
