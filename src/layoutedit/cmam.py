"""Cross-modal augmentation: bidirectional text <-> image-CLS interaction.

Text tokens pass through self attention, attend to the image CLS vector
(a length-1 key/value sequence), and a fully connected layer yields the
enriched text features. The CLS vector then attends to those features to
produce the enriched image feature. No residuals or extra norms: the
pipeline is exactly MHSA -> MHCA -> FC -> MHCA.
"""
from __future__ import annotations

import numpy as np

from .attention import CrossAttention, SelfAttention
from .tensor import Param, Tensor, linear


class CmamParams:
    def __init__(self, d_t: int, d_i: int, heads: int, rng):
        r = rng.spawn("cmam")
        self.mhsa = SelfAttention("cmam.mhsa", r, d_t, d_t, heads)
        self.text_to_image = CrossAttention("cmam.t2i", r, d_t, d_i, d_t, d_t, heads)
        self.fc_w = Param("cmam.fc_w",
                          r.spawn("fc_w").normal((d_t, d_t), std=1.0 / np.sqrt(d_t)))
        self.fc_b = Param("cmam.fc_b", np.zeros(d_t))
        self.image_to_text = CrossAttention("cmam.i2t", r, d_i, d_t, d_i, d_i, heads)


def cmam_forward(params: CmamParams, text: Tensor, i_cls: Tensor):
    """Return (enriched text [n_t, d_t], enriched image feature [d_i])."""
    if i_cls.ndim != 1:
        raise ValueError(f"i_cls must be a vector, got shape {i_cls.shape}")
    s = params.mhsa(text)
    cls_seq = i_cls.reshape(1, -1)
    enriched = params.text_to_image(s, cls_seq)
    t_prime = linear(enriched, params.fc_w.tensor, params.fc_b.tensor)
    i_prime = params.image_to_text(cls_seq, t_prime)
    return t_prime, i_prime.reshape(-1)
