"""End-to-end wiring: encoders -> fusion modules -> denoiser.

Builds every component from a RunConfig with seed-derived parameters,
computes condition bundles, and handles checkpoints and training.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .adapter import ConditionBundle, FuseParams, fuse
from .cmam import CmamParams, cmam_forward
from .config import ConfigError, RunConfig, read_json_object
from .data import DatasetError, caption_for, read_ppm
from .diffusion import (DenoiserState, image_to_latent, latent_to_image,
                        sample, training_step)
from .encoders import ImageEncoder, TextEncoder
from .ilfm import IlfmParams, ilfm_forward
from .layout import LayoutEmbedder, LayoutError, build_layout, load_layout_json
from .qlt import QltError, load_checkpoint, load_qlt, save_checkpoint
from .rng import NoDraw, Rng
from .tensor import Tensor, adamw_step, checked_once, params_of


class Pipeline:
    def __init__(self, config: RunConfig, draw: bool = True):
        """Every component, its parameters drawn from `config.seed`; with
        `draw` False, zeros for a caller that loads every parameter (see
        `from_checkpoint`)."""
        config.validate()
        self.config = config
        rng = Rng(config.seed) if draw else NoDraw()
        grid = config.image_size // config.patch_size
        self.image_encoder = ImageEncoder(config.d_i, config.patch_size,
                                          config.image_size, config.heads, rng)
        self.text_encoder = TextEncoder(config.d_t, rng)
        self.embedder = LayoutEmbedder(config.d_l, config.d_i, rng)
        self.ilfm = IlfmParams(config.d_i, config.d_l, grid * grid,
                               config.heads, rng)
        self.cmam = CmamParams(config.d_t, config.d_i, config.heads, rng)
        self.fuse = FuseParams(config.d_i, config.d_t, config.heads, rng)
        self.denoiser = DenoiserState(config, rng, None if draw else rng)
        dtype = np.float32 if config.dtype == "float32" else np.float64
        for p in params_of(self):
            p.set_dtype(dtype)

    @classmethod
    def from_checkpoint(cls, config: RunConfig, directory) -> "Pipeline":
        """The pipeline whose every parameter `load` copies from the
        checkpoint in `directory`, built without the random draws that
        the load would replace."""
        pipe = cls(config, draw=False)
        pipe.load(directory)
        return pipe

    # ------------------------------------------------------------------
    def named_params(self) -> dict:
        out = {}
        for p in params_of(self):
            if p.name in out:
                raise ValueError(f"duplicate parameter name {p.name}")
            out[p.name] = p
        return out

    # ------------------------------------------------------------------
    @checked_once(lambda b: (b.f_t.data, b.f.data))
    def condition(self, image: np.ndarray, boxes, aux_caption: str,
                  prompt: str = "") -> ConditionBundle:
        """Build the denoiser conditioning from an image, its layout and
        the auxiliary caption. `prompt` feeds the text branch: empty at
        train time, the edit prompt at inference. The bundle carries a
        tape only through parameters flagged `requires_grad` (the
        gradient-check harness)."""
        dtype = self.denoiser.w_in.data.dtype
        enc = self.image_encoder.encode(Tensor(np.asarray(image, dtype=dtype)))
        layout = build_layout(boxes, self.config.max_n)
        f_layout = ilfm_forward(self.ilfm, enc.patches, enc.grid, layout,
                                self.embedder)
        aux = self.text_encoder.encode(self.text_encoder.tokenize(aux_caption))
        t_aug, i_aug = cmam_forward(self.cmam, aux.tokens, enc.cls)
        f = fuse(self.fuse, i_aug, t_aug, f_layout)
        f_t = self.text_encoder.encode(self.text_encoder.tokenize(prompt))
        return ConditionBundle(f_t=f_t.tokens, f=f, lam=self.config.lam)

    # ------------------------------------------------------------------
    def save(self, directory):
        named = {n: p.data for n, p in self.named_params().items()}
        save_checkpoint(directory, named, extra={"config": self.config.to_dict()})

    def load(self, directory):
        """Copy every parameter from a checkpoint; returns its manifest."""
        return self._copy_from(directory, self.named_params().values())

    def load_ip_weights(self, directory):
        """Copy only the adapter-branch weights from a checkpoint; returns
        its manifest."""
        return self._copy_from(directory, self.denoiser.ip_params())

    @staticmethod
    def _copy_from(directory, params) -> dict:
        """Copy checkpoint arrays into `params` by name, checking shapes."""
        arrays, manifest = load_checkpoint(directory)
        for p in params:
            if p.name not in arrays:
                raise QltError(f"{directory}: checkpoint missing parameter {p.name}")
            arr = arrays[p.name]
            if arr.shape != p.data.shape:
                raise QltError(f"{directory}: parameter {p.name}: checkpoint shape "
                               f"{arr.shape} != expected {p.data.shape}")
            p.tensor.data = arr.astype(p.data.dtype)
        return manifest

    # ------------------------------------------------------------------
    def load_scene(self, data_dir, name: str):
        """Return (image, latent, bundle-with-empty-prompt) for a scene.
        An image that is not (3, image_size, image_size) raises a
        ConfigError about `image_size` that names the image file."""
        data_dir = Path(data_dir)
        doc, caption = load_layout(data_dir / f"{name}.json", self.config.max_n)
        path = data_dir / doc["image"]
        image = load_qlt(path)
        size = self.config.image_size
        if image.shape != (3, size, size):
            raise ConfigError(f"{path}: shape {image.shape} does not match the "
                              f"expected {(3, size, size)} of image_size {size}",
                              "image_size")
        latent = image_to_latent(
            np.asarray(image, dtype=self.denoiser.w_in.data.dtype))
        bundle = self.condition(image, doc["boxes"], caption, prompt="")
        return image, latent, bundle

    def train(self, data_dir, steps: int | None = None, log_path=None,
              progress=None):
        """Train the adapter-branch weights on a scene directory.

        Only these weights are flagged trainable, and only while this
        runs. Returns the per-step loss list; writes a JSON-lines log
        when `log_path` is given.

        Each step frees its tape when backward returns; this first calls
        `_keep_freed_memory` so that the next step reuses those pages
        instead of faulting them in again. That setting is process-wide
        and stays set after `train` returns.
        """
        _keep_freed_memory()
        data_dir = Path(data_dir)
        index = data_dir / "index.json"
        names = read_json_object(index, DatasetError, "index").get("scenes")
        if not (isinstance(names, list) and names
                and all(isinstance(n, str) for n in names)):
            raise DatasetError(f"{index}: 'scenes' must be a non-empty list "
                               f"of scene names, got {names!r:.40}")
        scenes = [self.load_scene(data_dir, n) for n in names]
        steps = steps if steps is not None else self.config.train_steps
        rng = Rng(self.config.seed).spawn("train")
        losses = []
        log = open(log_path, "w") if log_path else None
        trainable = self.denoiser.set_trainable()
        try:
            for step in range(steps):
                _, latent, bundle = scenes[rng.randint(len(scenes))]
                for p in trainable:
                    p.zero_grad()
                res = training_step(self.denoiser, [latent], bundle, rng)
                adamw_step(trainable, lr=self.config.lr)
                losses.append(res.loss)
                if log:
                    log.write(json.dumps({"step": step, "loss": res.loss}) + "\n")
                if progress and (step + 1) % 100 == 0:
                    progress(step + 1, res.loss)
        finally:
            for p in trainable:
                p.tensor.requires_grad = False
            if log:
                log.close()
        return losses

    # ------------------------------------------------------------------
    def edit(self, image: np.ndarray, boxes, aux_caption: str, prompt: str,
             seed: int | None = None) -> np.ndarray:
        """Sample an edited image conditioned on the layout and prompt."""
        bundle = self.condition(image, boxes, aux_caption, prompt=prompt)
        rng = Rng(self.config.seed if seed is None else seed).spawn("sample")
        latent = sample(self.denoiser, bundle, self.config.cfg_w,
                        self.config.sample_steps, rng)
        return latent_to_image(latent, self.config.image_size)


def _keep_freed_memory():
    """Keep freed heap in this process instead of returning it to the OS.

    Raises glibc's mmap threshold to 64 MiB and its trim threshold to
    256 MiB (`mallopt`), process-wide. A no-op where libc has no `mallopt`.
    """
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 64 << 20)     # M_MMAP_THRESHOLD
    mallopt(-1, 256 << 20)    # M_TRIM_THRESHOLD


def load_layout(path, max_n: int):
    """Read a layout file of at most `max_n` boxes; return it and its
    auxiliary caption."""
    doc = load_layout_json(path)
    try:
        caption = caption_for(doc["count"], doc["category"])
    except DatasetError as e:
        raise DatasetError(f"{path}: {e}") from None
    if len(doc["boxes"]) > max_n:
        raise LayoutError(f"{path}: 'boxes' holds {len(doc['boxes'])} boxes, "
                          f"above the model's max_n of {max_n}")
    return doc, caption


def load_image(path) -> np.ndarray:
    path = Path(path)
    if path.suffix == ".ppm":
        return read_ppm(path)
    return load_qlt(path)
