"""Conditioning head: residual fusion of the enriched features into a
single adapter token, plus the dual-branch attention injected into the
denoiser (frozen text branch + lambda-scaled trainable branch).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import CrossAttention, attend, query
from .rng import Rng
from .tensor import Param, Tensor, add, mul


@dataclass
class ConditionBundle:
    """Inputs to the denoiser: text tokens, fused adapter token, lambda."""

    f_t: Tensor          # [n_t, d_t]: empty token at train time, edit prompt at inference
    f: Tensor            # [1, d_i]: fused adapter token
    lam: float = 0.8

    def __post_init__(self):
        if self.f.ndim != 2 or self.f.shape[0] != 1:
            raise ValueError(f"adapter token must be [1, d], got {self.f.shape}")
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")


class FuseParams:
    """Two residual cross-attention stages."""

    def __init__(self, d_i: int, d_t: int, heads: int, rng):
        r = rng.spawn("fuse")
        self.layout_stage = CrossAttention("fuse.layout", r, d_i, d_i, d_i, d_i, heads)
        self.text_stage = CrossAttention("fuse.text", r, d_i, d_t, d_i, d_i, heads)


def fuse(params: FuseParams, i_cls_aug: Tensor, t_aug: Tensor,
         f_layout: Tensor) -> Tensor:
    """Residual fusion of layout then text cues into one [1, d_i] token."""
    i_row = i_cls_aug.reshape(1, -1)
    layout_row = f_layout.reshape(1, -1)
    stage1 = add(i_row, params.layout_stage(i_row, layout_row))
    return add(stage1, params.text_stage(stage1, t_aug))


class DualBranchAttention:
    """Cross attention from the noisy latent with two key/value branches.

    The text branch (key/value from the text tokens, plus the shared
    query and output projections) is frozen; the adapter branch
    (key/value/output from the fused token) is trainable and scaled by
    lambda. The adapter-branch output projection is zero-initialized so
    a fresh model ignores the adapter token; the value projection stays
    random (zeroing both would zero the gradient of their product).
    `adapter` gives the adapter branch's key/value streams: True, the
    block's own; a function from "w_kf"/"w_vf" to an Rng; or False for
    no adapter branch (its three weights are None), as off injection sites.
    """

    def __init__(self, name: str, d_z: int, d_t: int, d_i: int, heads: int,
                 rng: Rng, adapter=True):
        self.heads = heads
        r = rng.spawn(name)

        def p(sub, d_in, d_out, stream=r.spawn):
            return Param(f"{name}.{sub}", stream(sub).normal(
                (d_in, d_out), std=1.0 / np.sqrt(d_in)))

        self.w_q = p("w_q", d_z, d_z)
        self.w_kt = p("w_kt", d_t, d_z)
        self.w_vt = p("w_vt", d_t, d_z)
        self.w_ot = p("w_ot", d_z, d_z)
        self.w_kf = self.w_vf = self.w_of = None
        if adapter:
            stream = r.spawn if adapter is True else adapter
            self.w_kf = p("w_kf", d_i, d_z, stream)
            self.w_vf = p("w_vf", d_i, d_z, stream)
            self.w_of = Param(f"{name}.w_of", np.zeros((d_z, d_z)))

    def ip_params(self):
        return [] if self.w_kf is None else [self.w_kf, self.w_vf, self.w_of]


def dual_branch_attention(block: DualBranchAttention, z: Tensor,
                          f_t: Tensor, f: Tensor, lam: float,
                          weights_out: dict | None = None) -> Tensor:
    """Sum of the frozen text branch and lambda times the adapter branch.

    Both branches are `attend` calls from one shared query projection,
    IP-Adapter's decoupled cross attention: the text branch over `f_t`,
    the adapter branch over `f`. The query is projected only when some
    branch has more than one key (`query`). With lam == 0, or without an
    adapter branch, the result is bit-equal to the text branch alone, and
    the output is affine in lam.
    """
    q = query(z, block.w_q, f_t, *([] if block.w_kf is None else [f]))
    text_w = {} if weights_out is not None else None
    text = attend(q, f_t, block.w_kt, block.w_vt, block.w_ot, block.heads, text_w)
    if weights_out is not None:
        weights_out["text"] = text_w["weights"]
    if block.w_kf is None:
        return text

    ip_w = {} if weights_out is not None else None
    ip = attend(q, f, block.w_kf, block.w_vf, block.w_of, block.heads, ip_w)
    if weights_out is not None:
        weights_out["adapter"] = ip_w["weights"]
    if lam == 0.0:
        return text
    return add(text, mul(ip, float(lam)))
