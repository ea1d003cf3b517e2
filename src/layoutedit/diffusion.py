"""Toy denoising diffusion backbone with named blocks and the
dual-branch conditioning injection.

Images live at 32x32; the latent is an exact space-to-depth repack to a
16x16 grid of 12-channel tokens (no learned autoencoder). The denoiser
is a U-shaped stack of token blocks (down1..down4, mid, up1..up4), each
with a residual MLP, self attention, and cross attention; only the
injection sites have an adapter branch, and only its weights train.

Guidance needs a conditional and an unconditional prediction, which
differ only in the adapter token. `DenoiserState.forward` predicts for
several conditions in one call: they share one stream (embeddings, and
every block with no adapter branch or lambda 0) up to the first injection
site where lambda is above 0. That block runs its MLP and self attention
once, and from its cross attention on each condition runs its own
stream. With the default `down4` site, down1..down3 and down4's MLP and
self attention run once per DDIM step; with "all", only down1's. Each
output still comes from the same numpy ops on the same operands, so
the predictions are bit-equal to separate single-condition calls.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adapter import ConditionBundle, DualBranchAttention, dual_branch_attention
from .attention import SelfAttention, _proj
from .config import RunConfig
from .rng import Rng
from .tensor import (NumericsError, Param, Tensor, add, checked_once, linear,
                     params_of, silu)

BLOCK_NAMES = ("down1", "down2", "down3", "down4", "mid",
               "up1", "up2", "up3", "up4")
FACTOR = 2      # space-to-depth factor between image pixels and latent tokens
IP_SEED_OFFSET = 7  # the adapter branch draws from Rng(config.seed + this)


# ----------------------------------------------------------------------
class NoiseSchedule:
    """Linear-beta DDPM schedule (betas 1e-4 to 2e-2), cumulative products cached."""

    def __init__(self, t_train: int):
        self.t_train = t_train
        self.betas = np.linspace(1e-4, 2e-2, t_train)
        self.alpha_bars = np.cumprod(1.0 - self.betas)

    def alpha_bar(self, t: int) -> float:
        if not 0 <= t < self.t_train:
            raise ValueError(f"timestep {t} outside [0, {self.t_train})")
        return float(self.alpha_bars[t])


def forward_noise(x0: np.ndarray, t: int, eps: np.ndarray,
                  schedule: NoiseSchedule) -> np.ndarray:
    """Closed-form q-sample: sqrt(a_bar)*x0 + sqrt(1-a_bar)*eps.

    The result has x0's dtype: the float64 coefficients would otherwise
    promote a float32 latent, and with it the whole training tape."""
    ab = schedule.alpha_bar(t)
    if x0.shape != eps.shape:
        raise ValueError(f"eps shape {eps.shape} != x0 shape {x0.shape}")
    x_t = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
    return x_t.astype(x0.dtype, copy=False)


# ----------------------------------------------------------------------
def image_to_latent(image: np.ndarray) -> np.ndarray:
    """[3, H, W] -> [h*w, 3*FACTOR^2] exact space-to-depth repack."""
    c, hh, ww = image.shape
    h, w = hh // FACTOR, ww // FACTOR
    return (image.reshape(c, h, FACTOR, w, FACTOR)
            .transpose(1, 3, 0, 2, 4)
            .reshape(h * w, c * FACTOR * FACTOR))


def latent_to_image(latent: np.ndarray, image_size: int) -> np.ndarray:
    h = w = image_size // FACTOR
    c = latent.shape[1] // (FACTOR * FACTOR)
    return (latent.reshape(h, w, c, FACTOR, FACTOR)
            .transpose(2, 0, 3, 1, 4)
            .reshape(c, image_size, image_size))


def timestep_embedding(t: int, dim: int) -> np.ndarray:
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)
    ang = t * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)])


# ----------------------------------------------------------------------
class DenoiserBlock:
    """Residual MLP + self attention + dual-branch cross attention."""

    def __init__(self, name: str, d_model: int, d_t: int, d_i: int,
                 heads: int, rng: Rng, adapter):
        r = rng.spawn(name)
        self.name = name
        self.w1 = _proj(f"{name}.w1", r, d_model, d_model)
        self.b1 = Param(f"{name}.b1", np.zeros(d_model))
        self.w2 = _proj(f"{name}.w2", r, d_model, d_model, std=0.1 / np.sqrt(d_model))
        self.attn = SelfAttention(f"{name}.attn", r, d_model, d_model, heads)
        self.cross = DualBranchAttention(f"{name}.cross", d_model, d_t, d_i,
                                         heads, r, adapter)
        # damp the frozen residual branches so activations stay O(1)
        # across the nine-block stack
        self.attn.w_o.tensor.data *= 0.2
        self.cross.w_ot.tensor.data *= 0.2

    def forward(self, x: Tensor, conds: list,
                weights_out: dict | None = None) -> list:
        """One output per (bundle, lam) in `conds`; the MLP and self
        attention run once, the cross attention once per condition."""
        x = add(x, linear(silu(linear(x, self.w1.tensor, self.b1.tensor)),
                          self.w2.tensor))
        x = add(x, self.attn(x))
        return [add(x, dual_branch_attention(self.cross, x, bundle.f_t, bundle.f,
                                             lam, weights_out=weights_out))
                for bundle, lam in conds]


class DenoiserState:
    """Block parameters keyed by name plus the injection sites."""

    def __init__(self, config: RunConfig, rng: Rng, ip_rng=None):
        self.config = config
        self.schedule = NoiseSchedule(config.t_train)
        grid = config.image_size // FACTOR
        self.n_tokens = grid * grid
        self.d_latent = 3 * FACTOR * FACTOR
        # Adapter scale per injection site, in block order. Only these sites
        # have an adapter branch; the "all" ablation scales only down4.
        inj = config.injection
        self.site_scales = ({**dict.fromkeys(BLOCK_NAMES, 1.0), "down4": inj.ip_scale}
                            if inj.position == "all" else {inj.position: inj.ip_scale})
        d = config.d_model
        r = rng.spawn("denoiser")
        self.w_in = _proj("den.w_in", r, self.d_latent, d)
        self.pos = Param("den.pos", r.spawn("pos").normal((self.n_tokens, d), std=0.1))
        self.w_time = _proj("den.w_time", r, d, d)
        self.b_time = Param("den.b_time", np.zeros(d))
        # an adapter branch only at injection sites, from streams "<site>.w_kf"
        # etc. of `ip_rng`, by default Rng(config.seed + IP_SEED_OFFSET)
        if ip_rng is None:
            ip_rng = Rng(config.seed + IP_SEED_OFFSET)
        self.blocks = {name: DenoiserBlock(
            f"den.{name}", d, config.d_t, config.d_i, config.heads, r,
            name in self.site_scales and (lambda sub, s=name: ip_rng.spawn(f"{s}.{sub}")))
            for name in BLOCK_NAMES}
        self.w_out = _proj("den.w_out", r, d, self.d_latent, std=0.3 / np.sqrt(d))
        # Deliberate output bias: a fresh model predicts noise with a fixed
        # offset of magnitude 3 that the adapter branch can learn to cancel.
        signs = np.where(np.arange(self.d_latent) % 2 == 0, 1.0, -1.0)
        self.b_out = Param("den.b_out",
                           3.0 * signs
                           + r.spawn("b_out").normal((self.d_latent,), std=0.3))

    # ------------------------------------------------------------------
    def ip_params(self):
        """Every adapter-branch weight: all that trains."""
        return [p for blk in self.blocks.values() for p in blk.cross.ip_params()]

    def set_trainable(self):
        """Freeze everything except the adapter branch."""
        for p in params_of(self):
            p.tensor.requires_grad = False
        for p in self.ip_params():
            p.tensor.requires_grad = True
        return self.ip_params()

    # ------------------------------------------------------------------
    @checked_once(lambda pred: [p.data for p in
                                (pred if isinstance(pred, list) else [pred])])
    def forward(self, z, t: int, bundle, weights_out: dict | None = None):
        """Predict noise for latent tokens z at timestep t.

        `bundle` is one ConditionBundle, giving one prediction, or a list
        of bundles that share one `f_t` tensor, giving a list with one
        prediction per bundle. The conditions share one stream until the
        first block where some bundle's lambda times the site scale is
        not 0; that block splits it after its self attention (see the
        module docstring). With several bundles, `weights_out` holds the
        last one's attention maps.
        """
        single = not isinstance(bundle, list)
        bundles = [bundle] if single else bundle
        if any(b.f_t is not bundles[0].f_t for b in bundles[1:]):
            raise ValueError("the bundles of one forward call must share one "
                             "f_t tensor")
        z = z if isinstance(z, Tensor) else Tensor(z)
        dt = self.w_in.data.dtype
        temb = silu(linear(
            Tensor(timestep_embedding(t, self.config.d_model)[None, :].astype(dt)),
            self.w_time.tensor, self.b_time.tensor))
        xs = [add(add(linear(z, self.w_in.tensor), self.pos.tensor), temb)]
        for name in BLOCK_NAMES:
            scale = self.site_scales.get(name)
            conds = [(b, 0.0 if scale is None else b.lam * scale) for b in bundles]
            wo = None
            if weights_out is not None and name in weights_out:
                wo = weights_out[name]
            block = self.blocks[name]
            if len(xs) == 1 and any(lam for _, lam in conds):
                # the first block whose cross-attention inputs differ
                xs = block.forward(xs[0], conds, weights_out=wo)
            else:   # a stream per condition, or the shared one with the first
                xs = [block.forward(x, [c], weights_out=wo)[0]
                      for x, c in zip(xs, conds)]
        preds = [linear(x, self.w_out.tensor, self.b_out.tensor) for x in xs]
        if single:
            return preds[0]
        return preds if len(preds) == len(bundles) else preds * len(bundles)

    def drop_image_condition(self, bundle: ConditionBundle) -> ConditionBundle:
        """Replace the adapter token by a zero token (condition dropout)."""
        return ConditionBundle(f_t=bundle.f_t,
                               f=Tensor(np.zeros_like(bundle.f.data)),
                               lam=bundle.lam)


# ----------------------------------------------------------------------
@dataclass
class TrainStepResult:
    loss: float
    dropped: list        # per-sample condition-dropout flags


def training_step(state: DenoiserState, batch, bundle, rng: Rng,
                  eps_model=None) -> TrainStepResult:
    """One objective evaluation: sample t and noise, form x_t, drop the
    image condition at the configured rate, and backpropagate the mean
    squared noise-prediction error.

    `batch` is a list of clean latents [n_tokens, d_latent]; `bundle` is
    one ConditionBundle or a list matching the batch. `eps_model`
    overrides the denoiser (test hook).
    """
    bundles = bundle if isinstance(bundle, (list, tuple)) else [bundle] * len(batch)
    if len(bundles) != len(batch):
        raise ValueError(f"{len(bundles)} bundles for {len(batch)} samples")
    model = eps_model or state.forward
    total = None
    dropped = []
    for x0, b in zip(batch, bundles):
        x0 = np.asarray(x0)
        t = rng.randint(state.schedule.t_train)
        eps = rng.normal(x0.shape).astype(x0.dtype)
        drop = rng.uniform() < state.config.dropout_rate
        dropped.append(bool(drop))
        x_t = forward_noise(x0, t, eps, state.schedule)
        cond = state.drop_image_condition(b) if drop else b
        pred = model(x_t, t, cond)
        err = pred - Tensor(eps)
        term = (err * err).mean()
        total = term if total is None else total + term
    loss = total * (1.0 / len(batch))
    value = loss.item()
    if not np.isfinite(value):
        raise NumericsError(f"non-finite loss {value} (last t={t}, "
                            f"batch={len(batch)})")
    loss.backward()
    return TrainStepResult(loss=value, dropped=dropped)


# ----------------------------------------------------------------------
def guided_eps(state: DenoiserState, x_t, t: int, bundle: ConditionBundle,
               w: float) -> np.ndarray:
    """w * conditional prediction + (1 - w) * unconditional prediction.

    One `forward` call predicts both: the two conditions differ only in
    the adapter token, so they share the stream up to the first active
    injection site's cross attention."""
    cond, uncond = state.forward(x_t, t, [bundle, state.drop_image_condition(bundle)])
    return w * cond.data + (1.0 - w) * uncond.data


def sample(state: DenoiserState, bundle: ConditionBundle, w: float,
           steps: int, rng: Rng, trace: list | None = None) -> np.ndarray:
    """Deterministic DDIM loop over an evenly spaced timestep subset.

    Returns the final clean latent [n_tokens, d_latent]. When `trace` is
    given, (t, x_t) pairs are appended before each update.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if steps > state.schedule.t_train:
        # the rounded timesteps would repeat: more passes, no finer schedule
        raise ValueError(f"steps ({steps}) must not exceed t_train "
                         f"({state.schedule.t_train})")
    dt = state.w_in.data.dtype
    taus = np.linspace(state.schedule.t_train - 1, 0, steps).round().astype(int)
    x = rng.normal((state.n_tokens, state.d_latent)).astype(dt)
    for i, t in enumerate(taus):
        if trace is not None:
            trace.append((int(t), x.copy()))
        eps_hat = guided_eps(state, x, int(t), bundle, w)
        ab_t = state.schedule.alpha_bar(int(t))
        ab_prev = state.schedule.alpha_bar(int(taus[i + 1])) if i + 1 < steps else 1.0
        x0_pred = (x - np.sqrt(1.0 - ab_t) * eps_hat) / np.sqrt(ab_t)
        x = (np.sqrt(ab_prev) * x0_pred
             + np.sqrt(1.0 - ab_prev) * eps_hat).astype(dt)
    return x
