import numpy as np
import pytest

from conftest import assert_grad_matches
from layoutedit.cmam import CmamParams, cmam_forward
from layoutedit.rng import Rng
from layoutedit.tensor import Tensor, params_of

D_T, D_I, HEADS = 8, 16, 2


@pytest.fixture
def params():
    return CmamParams(D_T, D_I, HEADS, Rng(3))


def test_shapes(params):
    text = Tensor(Rng(4).normal((5, D_T)))
    i_cls = Tensor(Rng(5).normal((D_I,)))
    t_prime, i_prime = cmam_forward(params, text, i_cls)
    assert t_prime.shape == (5, D_T)
    assert i_prime.shape == (D_I,)


def test_rejects_matrix_cls(params):
    with pytest.raises(ValueError, match="vector"):
        cmam_forward(params, Tensor(np.zeros((2, D_T))),
                     Tensor(np.zeros((1, D_I))))


def test_identical_tokens_stay_identical(params):
    # Every stage is permutation-equivariant over text tokens, so equal
    # input rows must produce equal output rows.
    row = Rng(6).normal((D_T,))
    text = Tensor(np.tile(row, (4, 1)))
    i_cls = Tensor(Rng(7).normal((D_I,)))
    t_prime, _ = cmam_forward(params, text, i_cls)
    for i in range(1, 4):
        np.testing.assert_allclose(t_prime.data[i], t_prime.data[0],
                                   atol=1e-12, rtol=0)


def test_token_permutation_equivariance(params):
    text = Rng(8).normal((4, D_T))
    i_cls = Tensor(Rng(9).normal((D_I,)))
    perm = [2, 0, 3, 1]
    a, ia = cmam_forward(params, Tensor(text), i_cls)
    b, ib = cmam_forward(params, Tensor(text[perm]), i_cls)
    np.testing.assert_allclose(a.data[perm], b.data, atol=1e-12, rtol=0)
    np.testing.assert_allclose(ia.data, ib.data, atol=1e-12, rtol=0)


def test_single_key_collapses_text_dependence(params):
    # MHCA over a length-1 key/value sequence returns that value vector
    # for every query, so with no residuals T' depends only on I_cls.
    i_cls = Tensor(Rng(10).normal((D_I,)))
    ta, a = cmam_forward(params, Tensor(Rng(11).normal((3, D_T))), i_cls)
    tb, b = cmam_forward(params, Tensor(Rng(12).normal((3, D_T))), i_cls)
    np.testing.assert_array_equal(ta.data, tb.data)
    np.testing.assert_array_equal(a.data, b.data)


def test_depends_on_image_feature(params):
    text = Tensor(Rng(11).normal((3, D_T)))
    ta, a = cmam_forward(params, text, Tensor(Rng(17).normal((D_I,))))
    tb, b = cmam_forward(params, text, Tensor(Rng(18).normal((D_I,))))
    assert np.abs(ta.data - tb.data).max() > 1e-8
    assert np.abs(a.data - b.data).max() > 1e-8


def test_grads_through_all_params(params):
    text = Rng(13).normal((3, D_T))
    i_cls = Rng(14).normal((D_I,))
    rt = Rng(15).normal((3, D_T))
    ri = Rng(16).normal((D_I,))

    def scalar():
        t_prime, i_prime = cmam_forward(params, Tensor(text), Tensor(i_cls))
        return ((t_prime * Tensor(rt)).sum() + (i_prime * Tensor(ri)).sum())

    for p in params_of(params):
        p.tensor.requires_grad = True
        assert_grad_matches(scalar, p.tensor)
        p.tensor.requires_grad = False
