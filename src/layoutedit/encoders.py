"""Toy frozen encoders standing in for a pretrained vision-language model.

The image encoder cuts the image into patches, projects each patch,
runs one self-attention block and pools a CLS vector. The text encoder
is an embedding lookup with learned positional offsets over a small
whitespace-token vocabulary. Both stay frozen during adapter training.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import AttentionPool, SelfAttention
from .rng import Rng
from .tensor import Param, Tensor, add, linear, silu

COUNT_WORDS = ["one", "two", "three", "four", "five",
               "six", "seven", "eight", "nine", "ten"]
EMPTY_TOKEN = "<empty>"

DEFAULT_VOCAB = ([EMPTY_TOKEN] + COUNT_WORDS +
                 ["circle", "circles", "square", "squares", "shape", "shapes"])


class VocabError(ValueError):
    """Raised on unknown token ids or words."""


@dataclass
class ImageEncoding:
    cls: Tensor          # [d_i]
    patches: Tensor      # [h*w, d_i]
    grid: tuple          # (h, w)


@dataclass
class TextEncoding:
    tokens: Tensor       # [n_t, d_t]


class ImageEncoder:
    """Patch projection + one self-attention block + attention-pooled CLS."""

    def __init__(self, d_i: int, patch_size: int, image_size: int,
                 heads: int, rng: Rng):
        self.d_i = d_i
        self.patch_size = patch_size
        self.grid = (image_size // patch_size, image_size // patch_size)
        h, w = self.grid
        d_patch = 3 * patch_size * patch_size
        r = rng.spawn("image_encoder")
        self.w_patch = Param("img.w_patch",
                             r.spawn("w_patch").normal((d_patch, d_i),
                                                       std=1.0 / np.sqrt(d_patch)))
        self.b_patch = Param("img.b_patch", np.zeros(d_i))
        self.pos = Param("img.pos", r.spawn("pos").normal((h * w, d_i), std=0.1))
        self.attn = SelfAttention("img.attn", r, d_i, d_i, heads)
        self.pool = AttentionPool("img.pool", r, h * w, d_i, d_i, heads)

    def encode(self, image: Tensor) -> ImageEncoding:
        c, hh, ww = image.shape
        p = self.patch_size
        if c != 3 or hh % p or ww % p:
            raise ValueError(f"image shape {image.shape} not divisible by patch {p}")
        h, w = hh // p, ww // p
        if (h, w) != self.grid:
            raise ValueError(f"grid {(h, w)} does not match encoder grid {self.grid}")
        blocks = (image.reshape(c, h, p, w, p)
                  .transpose(1, 3, 0, 2, 4)
                  .reshape(h * w, c * p * p))
        x = add(linear(blocks, self.w_patch.tensor, self.b_patch.tensor),
                self.pos.tensor)
        x = add(x, self.attn(silu(x)))
        cls = self.pool(x)
        return ImageEncoding(cls=cls, patches=x, grid=(h, w))


class TextEncoder:
    """Embedding lookup + learned positional offsets."""

    MAX_LEN = 16

    def __init__(self, d_t: int, rng: Rng):
        self.vocab = list(DEFAULT_VOCAB)
        self.index = {w: i for i, w in enumerate(self.vocab)}
        r = rng.spawn("text_encoder")
        # The empty token is a dedicated learned row, never all-zero.
        self.emb = Param("txt.emb", r.spawn("emb").normal((len(self.vocab), d_t), std=1.0))
        self.pos = Param("txt.pos", r.spawn("pos").normal((self.MAX_LEN, d_t), std=0.1))

    def tokenize(self, caption: str) -> list:
        """Whitespace tokenization; empty prompt -> the empty token."""
        words = caption.split()
        if not words:
            return [self.index[EMPTY_TOKEN]]
        try:
            return [self.index[w] for w in words]
        except KeyError as e:
            raise VocabError(f"unknown word {e.args[0]!r}") from None

    def encode(self, token_ids: list) -> TextEncoding:
        n = len(token_ids)
        if n > self.MAX_LEN:
            raise VocabError(f"{n} words exceed the limit of {self.MAX_LEN}")
        for t in token_ids:
            if not 0 <= t < len(self.vocab):
                raise VocabError(f"token id {t} outside vocabulary of {len(self.vocab)}")
        ids = np.asarray(token_ids, dtype=int)
        onehot = np.zeros((n, len(self.vocab)), dtype=self.emb.data.dtype)
        onehot[np.arange(n), ids] = 1.0
        rows = linear(Tensor(onehot), self.emb.tensor)
        return TextEncoding(tokens=add(rows, self.pos.tensor[0:n]))

