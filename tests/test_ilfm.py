import numpy as np
import pytest

from conftest import assert_grad_matches
from layoutedit.ilfm import IlfmParams, ilfm_forward
from layoutedit.layout import Box4, LayoutEmbedder, build_layout
from layoutedit.rng import Rng
from layoutedit.tensor import Tensor, params_of


D_I, D_L, HEADS = 16, 8, 2
GRID = (4, 4)
N_PATCH = 16


@pytest.fixture
def setup():
    rng = Rng(5)
    params = IlfmParams(D_I, D_L, N_PATCH, HEADS, rng)
    embedder = LayoutEmbedder(D_L, D_I, rng.spawn("emb"))
    patches = Tensor(rng.spawn("patches").normal((N_PATCH, D_I)))
    return params, embedder, patches


def fwd(setup, layout, weights_out=None):
    params, embedder, patches = setup
    return ilfm_forward(params, patches, GRID, layout, embedder,
                        weights_out=weights_out)


BOXES = [Box4(0.1, 0.1, 0.4, 0.5), Box4(0.5, 0.2, 0.9, 0.6),
         Box4(0.2, 0.6, 0.7, 0.95)]


class TestInvariances:
    def test_output_shape(self, setup):
        out = fwd(setup, build_layout(BOXES, max_n=8))
        assert out.shape == (D_I,)

    def test_padding_capacity_invariance(self, setup):
        a = fwd(setup, build_layout(BOXES, max_n=3)).data
        b = fwd(setup, build_layout(BOXES, max_n=16)).data
        np.testing.assert_allclose(a, b, atol=1e-6, rtol=0)

    def test_box_order_invariance(self, setup):
        a = fwd(setup, build_layout(BOXES, max_n=8)).data
        b = fwd(setup, build_layout(BOXES[::-1], max_n=8)).data
        np.testing.assert_allclose(a, b, atol=1e-6, rtol=0)

    def test_empty_layout_keeps_frame_slot(self, setup):
        out = fwd(setup, build_layout([], max_n=4))
        assert np.isfinite(out.data).all()

    def test_padded_slots_get_zero_weight(self, setup):
        captured = {}
        fwd(setup, build_layout(BOXES, max_n=8), weights_out=captured)
        w = captured["weights"]
        # keys: 16 patch tokens, then max_n+1 layout slots (4 valid, 5 padded)
        assert w.shape[-1] == N_PATCH + 9
        np.testing.assert_array_equal(w[..., N_PATCH + 4:], 0.0)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-6)

    def test_layout_changes_output(self, setup):
        a = fwd(setup, build_layout(BOXES, max_n=8)).data
        b = fwd(setup, build_layout(BOXES[:1], max_n=8)).data
        assert np.abs(a - b).max() > 1e-6


def test_grid_mismatch(setup):
    params, embedder, patches = setup
    with pytest.raises(ValueError, match="grid"):
        ilfm_forward(params, patches, (3, 4), build_layout([], 4), embedder)


def test_bad_head_count():
    with pytest.raises(ValueError, match="heads"):
        IlfmParams(6, 4, 16, 4, Rng(0))


def test_grads_through_all_params(setup):
    params, embedder, patches = setup
    layout = build_layout(BOXES[:2], max_n=4)
    r = Rng(9).normal((D_I,))

    def scalar():
        return (fwd(setup, layout) * Tensor(r)).sum()

    for p in params_of(params):
        p.tensor.requires_grad = True
        assert_grad_matches(scalar, p.tensor)
        p.tensor.requires_grad = False


def test_grads_through_patches(setup):
    params, embedder, patches = setup
    layout = build_layout(BOXES[:2], max_n=4)
    r = Rng(9).normal((D_I,))
    patches.requires_grad = True
    assert_grad_matches(lambda: (fwd(setup, layout) * Tensor(r)).sum(), patches)
