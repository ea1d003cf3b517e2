"""Image-layout fusion: positional-augmented cross attention + pooling.

Patch tokens attend over themselves and over the layout embeddings,
with both sides carrying positional embeddings derived from the shared
box-embedding matrix, then the result is attention-pooled to a single
layout-aware feature with the CLS dimensionality.
"""
from __future__ import annotations

import numpy as np

from .attention import AttentionPool, _proj
from .layout import LayoutEmbedder, LayoutSet, patch_grid
from .tensor import Param, Tensor, concat, layer_norm, linear, mha


class IlfmParams:
    """Projections and pooling weights for the fusion block."""

    def __init__(self, d_i: int, d_l: int, n_patches: int, heads: int, rng):
        if (2 * d_i) % heads or d_i % heads:
            raise ValueError(f"heads={heads} must divide {d_i} and {2 * d_i}")
        self.heads = heads
        r = rng.spawn("ilfm")
        self.norm_gain = Param("ilfm.norm_gain", np.ones(d_i))
        self.norm_bias = Param("ilfm.norm_bias", np.zeros(d_i))
        # Pointwise (1x1) projections over token channels.
        self.w_qi = _proj("ilfm.w_qi", r, d_i, d_i)
        self.w_ki = _proj("ilfm.w_ki", r, d_i, d_i)
        self.w_vi = _proj("ilfm.w_vi", r, d_i, d_i)
        self.w_kl = _proj("ilfm.w_kl", r, d_l, d_i)
        self.w_vl = _proj("ilfm.w_vl", r, d_l, d_i)
        self.pool = AttentionPool("ilfm.pool", r, n_patches, d_i, d_i, heads)


def ilfm_forward(params: IlfmParams, patches: Tensor, grid: tuple,
                 layout: LayoutSet, embedder: LayoutEmbedder,
                 weights_out: dict | None = None) -> Tensor:
    """Fuse patch tokens with a layout, returning a single [d_i] feature.

    Padded layout slots are masked out of attention, so the output is
    independent of padding capacity and of real-box order.
    """
    h, w = grid
    if h * w != patches.shape[0]:
        raise ValueError(f"grid {grid} does not match {patches.shape[0]} patches")

    emb_layout = embedder.embed(layout)                       # [max_n+1, d_l]
    emb_grid = embedder.embed(patch_grid(h, w))               # [h*w, d_l]
    p_i = embedder.project_positions(emb_grid)                # [h*w, d_i]
    p_l = embedder.project_positions(emb_layout)              # [max_n+1, d_i]

    normed = layer_norm(patches, params.norm_gain.tensor, params.norm_bias.tensor)
    q_i = linear(normed, params.w_qi.tensor)
    k_i = linear(normed, params.w_ki.tensor)
    v_i = linear(normed, params.w_vi.tensor)
    k_l = linear(emb_layout, params.w_kl.tensor)
    v_l = linear(emb_layout, params.w_vl.tensor)

    q = concat([q_i, p_i], axis=1)
    k = concat([concat([k_i, p_i], axis=1), concat([k_l, p_l], axis=1)], axis=0)
    v = concat([v_i, v_l], axis=0)

    mask = np.concatenate([np.ones(h * w, dtype=bool), layout.mask])
    fused = mha(q, k, v, params.heads, mask=mask, weights_out=weights_out)
    return params.pool(fused)
