import numpy as np
import pytest

from conftest import assert_grad_matches
from layoutedit.adapter import (ConditionBundle, DualBranchAttention,
                                FuseParams, dual_branch_attention, fuse)
from layoutedit.rng import Rng
from layoutedit.tensor import Tensor, params_of

D_Z, D_T, D_I, HEADS = 16, 8, 16, 2


@pytest.fixture
def block():
    return DualBranchAttention("blk", D_Z, D_T, D_I, HEADS, Rng(1))


@pytest.fixture
def inputs():
    r = Rng(2)
    return (Tensor(r.spawn("z").normal((5, D_Z))),
            Tensor(r.spawn("ft").normal((3, D_T))),
            Tensor(r.spawn("f").normal((1, D_I))))


class TestConditionBundle:
    def test_defaults(self, inputs):
        _, f_t, f = inputs
        assert ConditionBundle(f_t, f).lam == 0.8

    def test_bad_token_shape(self, inputs):
        _, f_t, _ = inputs
        with pytest.raises(ValueError, match=r"\[1, d\]"):
            ConditionBundle(f_t, Tensor(np.zeros((2, D_I))))

    def test_negative_lambda(self, inputs):
        _, f_t, f = inputs
        with pytest.raises(ValueError, match="lambda"):
            ConditionBundle(f_t, f, lam=-0.1)


class TestDualBranch:
    def test_lambda_zero_bit_equal_to_text_branch(self, block, inputs):
        z, f_t, f = inputs
        base = dual_branch_attention(block, z, f_t, f, 0.0).data
        other_f = Tensor(Rng(3).normal((1, D_I)))
        again = dual_branch_attention(block, z, f_t, other_f, 0.0).data
        np.testing.assert_array_equal(base, again)

    def test_affine_in_lambda(self, block, inputs):
        z, f_t, f = inputs
        block.w_of.tensor.data = Rng(4).normal((D_Z, D_Z), std=0.25)
        z0 = dual_branch_attention(block, z, f_t, f, 0.0).data
        z1 = dual_branch_attention(block, z, f_t, f, 1.0).data
        z08 = dual_branch_attention(block, z, f_t, f, 0.8).data
        np.testing.assert_allclose(z08, z0 + 0.8 * (z1 - z0), atol=1e-6, rtol=0)

    def test_zero_init_output_projection_ignores_adapter(self, block, inputs):
        z, f_t, f = inputs
        np.testing.assert_array_equal(block.w_of.data, 0.0)
        full = dual_branch_attention(block, z, f_t, f, 0.8).data
        text = dual_branch_attention(block, z, f_t, f, 0.0).data
        np.testing.assert_array_equal(full, text)

    def test_captures_both_weight_maps(self, block, inputs):
        z, f_t, f = inputs
        maps = {}
        dual_branch_attention(block, z, f_t, f, 0.8, weights_out=maps)
        assert maps["text"].shape == (HEADS, 5, 3)
        assert maps["adapter"].shape == (HEADS, 5, 1)
        np.testing.assert_allclose(maps["adapter"], 1.0, atol=1e-12)

    def test_grads_through_ip_params(self, block, inputs):
        z, f_t, f = inputs
        block.w_of.tensor.data = Rng(5).normal((D_Z, D_Z), std=0.25)
        r = Rng(6).normal((5, D_Z))

        def scalar():
            out = dual_branch_attention(block, z, f_t, f, 0.8)
            return (out * Tensor(r)).sum()

        for p in params_of(block):
            p.tensor.requires_grad = True
            assert_grad_matches(scalar, p.tensor)
            p.tensor.requires_grad = False


class TestFuse:
    def test_shape_and_grads(self):
        params = FuseParams(D_I, D_T, HEADS, Rng(7))
        i_cls = Tensor(Rng(8).normal((D_I,)))
        t_aug = Tensor(Rng(9).normal((3, D_T)))
        f_layout = Tensor(Rng(10).normal((D_I,)))
        out = fuse(params, i_cls, t_aug, f_layout)
        assert out.shape == (1, D_I)
        r = Rng(11).normal((1, D_I))
        for p in params_of(params):
            p.tensor.requires_grad = True
            assert_grad_matches(
                lambda: (fuse(params, i_cls, t_aug, f_layout) * Tensor(r)).sum(),
                p.tensor)
            p.tensor.requires_grad = False

    def test_zeroed_stages_reduce_to_identity(self):
        # With both output projections zeroed the residual path passes
        # the image feature through unchanged.
        params = FuseParams(D_I, D_T, HEADS, Rng(12))
        params.layout_stage.w_o.tensor.data[:] = 0.0
        params.text_stage.w_o.tensor.data[:] = 0.0
        i_cls = Rng(13).normal((D_I,))
        out = fuse(params, Tensor(i_cls), Tensor(Rng(14).normal((2, D_T))),
                   Tensor(Rng(15).normal((D_I,))))
        np.testing.assert_array_equal(out.data[0], i_cls)

