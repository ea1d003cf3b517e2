"""Projected attention shared across modules.

`attend` is the one "project keys and values from a source, attend,
project out" path: the blocks here, CMAM, `fuse` and both branches of
the dual-branch attention (which share one query) run through it. A
one-row source takes `one_key`, which needs no query, so `query`
projects one only for a source of more rows. ILFM calls `mha` itself:
its keys join two projected sources with positions, it masks padded
boxes, and it has no output projection.
"""
from __future__ import annotations

import numpy as np

from .rng import Rng
from .tensor import Param, Tensor, concat, linear, mha, one_key


def _proj(name: str, rng: Rng, d_in: int, d_out: int, std: float | None = None) -> Param:
    std = std if std is not None else 1.0 / np.sqrt(d_in)
    return Param(name, rng.spawn(name).normal((d_in, d_out), std=std))


def query(x: Tensor, w_q: Param, *sources: Tensor):
    """The projected query x @ w_q for `attend` over `sources`, or, when
    every source is one row, only x's row count: `one_key` reads no query."""
    if any(s.shape[0] > 1 for s in sources):
        return linear(x, w_q.tensor)
    return x.shape[0]


def attend(q, source: Tensor, w_k: Param, w_v: Param, w_o: Param,
           heads: int, weights_out: dict | None = None) -> Tensor:
    """mha(q, source @ w_k, source @ w_v) @ w_o for a projected query `q`
    (from `query`); a one-row source takes `one_key` instead, bit-equal.
    The per-head weights go to `weights_out["weights"]`."""
    k = linear(source, w_k.tensor)
    v = linear(source, w_v.tensor)
    if source.shape[0] == 1:
        n_q = q if isinstance(q, int) else q.shape[0]
        att = one_key(k, v, n_q, heads, weights_out=weights_out)
    else:
        att = mha(q, k, v, heads, weights_out=weights_out)
    return linear(att, w_o.tensor)


class CrossAttention:
    """Multi-head cross attention: query from f1, key/value from f2.

    Softmax(Q1 K2^T / sqrt(d_k)) V2 per head, heads concatenated and
    passed through an output projection.
    """

    def __init__(self, name: str, rng: Rng, d_q_in: int, d_kv_in: int,
                 d_attn: int, d_out: int, heads: int):
        self.heads = heads
        self.w_q = _proj(f"{name}.w_q", rng, d_q_in, d_attn)
        self.w_k = _proj(f"{name}.w_k", rng, d_kv_in, d_attn)
        self.w_v = _proj(f"{name}.w_v", rng, d_kv_in, d_attn)
        self.w_o = _proj(f"{name}.w_o", rng, d_attn, d_out)

    def __call__(self, f1: Tensor, f2: Tensor) -> Tensor:
        return attend(query(f1, self.w_q, f2), f2, self.w_k, self.w_v,
                      self.w_o, self.heads)


class SelfAttention(CrossAttention):
    """Multi-head self attention (query, key, value all from one input)."""

    def __init__(self, name: str, rng: Rng, d_in: int, d_attn: int, heads: int):
        super().__init__(name, rng, d_in, d_in, d_attn, d_in, heads)

    def __call__(self, x: Tensor) -> Tensor:
        return super().__call__(x, x)


class AttentionPool(CrossAttention):
    """CLIP-style attention pooling over a token sequence.

    The mean token is prepended, learned positional embeddings added,
    and a single query (the mean position) attends over all positions.
    """

    def __init__(self, name: str, rng: Rng, n_tokens: int, d_in: int,
                 d_out: int, heads: int):
        self.pos = Param(f"{name}.pos",
                         rng.spawn(f"{name}.pos").normal((n_tokens + 1, d_in),
                                                         std=1.0 / np.sqrt(d_in)))
        super().__init__(name, rng, d_in, d_in, d_in, d_out, heads)

    def __call__(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=0, keepdims=True)
        tokens = concat([mean, x], axis=0) + self.pos.tensor
        return super().__call__(tokens[0:1], tokens).reshape(-1)
