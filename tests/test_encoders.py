import numpy as np
import pytest

from conftest import assert_grad_matches
from layoutedit.encoders import (EMPTY_TOKEN, ImageEncoder,
                                 TextEncoder, VocabError)
from layoutedit.rng import Rng
from layoutedit.tensor import Tensor


@pytest.fixture
def img_enc():
    return ImageEncoder(d_i=16, patch_size=8, image_size=32, heads=2, rng=Rng(0))


class TestImageEncoder:
    def test_shapes(self, img_enc):
        enc = img_enc.encode(Tensor(Rng(1).uniform((3, 32, 32))))
        assert enc.grid == (4, 4)
        assert enc.patches.shape == (16, 16)
        assert enc.cls.shape == (16,)

    def test_deterministic(self, img_enc):
        img = Rng(2).uniform((3, 32, 32))
        a = img_enc.encode(Tensor(img))
        b = img_enc.encode(Tensor(img))
        np.testing.assert_array_equal(a.cls.data, b.cls.data)
        np.testing.assert_array_equal(a.patches.data, b.patches.data)

    def test_bad_divisibility(self, img_enc):
        with pytest.raises(ValueError):
            img_enc.encode(Tensor(np.zeros((3, 30, 30))))

    def test_grad_flows_to_params(self, img_enc):
        img = Rng(3).uniform((3, 32, 32))
        r = Rng(4).normal((16,))
        p = img_enc.w_patch
        p.tensor.requires_grad = True
        assert_grad_matches(
            lambda: (img_enc.encode(Tensor(img)).cls * Tensor(r)).sum(),
            p.tensor)


class TestTextEncoder:
    def test_caption_shape(self):
        enc = TextEncoder(d_t=8, rng=Rng(0))
        out = enc.encode(enc.tokenize("six circles"))
        assert out.tokens.shape == (2, 8)

    def test_empty_prompt_uses_learned_null_token(self):
        enc = TextEncoder(d_t=8, rng=Rng(0))
        out = enc.encode(enc.tokenize(""))
        assert out.tokens.shape == (1, 8)
        null_row = enc.emb.data[enc.index[EMPTY_TOKEN]] + enc.pos.data[0]
        np.testing.assert_array_equal(out.tokens.data[0], null_row)
        assert np.abs(enc.emb.data[enc.index[EMPTY_TOKEN]]).sum() > 0

    def test_repeatable(self):
        enc = TextEncoder(d_t=8, rng=Rng(0))
        ids = enc.tokenize("three squares")
        np.testing.assert_array_equal(enc.encode(ids).tokens.data,
                                      enc.encode(ids).tokens.data)

    def test_unknown_word(self):
        enc = TextEncoder(d_t=8, rng=Rng(0))
        with pytest.raises(VocabError, match="zebra"):
            enc.tokenize("three zebras zebra")

    def test_unknown_token_id(self):
        enc = TextEncoder(d_t=8, rng=Rng(0))
        with pytest.raises(VocabError):
            enc.encode([999])
