import math
import os
import signal
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_grad_matches, fd_grad, rel_err
from layoutedit import tensor as T
from layoutedit.config import RunConfig
from layoutedit.pipeline import Pipeline
from layoutedit.rng import Rng
from layoutedit.tensor import (NumericsError, Param, ShapeError, Tensor, add,
                               adamw_step, checked_once, concat, layer_norm,
                               matmul, mha, mul, one_key, params_of)


def softmax(x, mask=True, axis=-1, floor=None):
    """Reference softmax as one tape node, max-subtracted. A boolean
    `mask` (broadcast to x) is applied additively, so False positions get
    exactly zero weight; each row needs one True. With a `floor`, every
    shifted logit below it is set to -inf. The fused `mha` is checked
    against it bit for bit."""
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
    shifted = x.data + np.where(mask, 0.0, -np.inf).astype(x.dtype)
    shifted = shifted - shifted.max(axis=axis, keepdims=True)
    if floor is not None:
        shifted = np.where(shifted < floor, -np.inf, shifted).astype(x.dtype)
    e = np.where(mask, np.exp(np.where(mask, shifted, 0.0)), 0.0)
    out = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        return ((g - (g * out).sum(axis=axis, keepdims=True)) * out,)

    return T._node(out, (x,), bw, "softmax")


class TestMatmul:
    def test_identity(self):
        a = np.arange(9, dtype=float).reshape(3, 3)
        out = matmul(Tensor(np.eye(3)), Tensor(a))
        np.testing.assert_array_equal(out.data, a)

    def test_hand_case(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_grad_vs_finite_differences(self, np_rng):
        a = Tensor(np_rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(np_rng.normal(size=(4, 2)), requires_grad=True)
        for leaf in (a, b):
            assert_grad_matches(lambda: matmul(a, b).sum(), leaf)

    def test_batched_grad(self, np_rng):
        a = Tensor(np_rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(np_rng.normal(size=(4, 5)), requires_grad=True)
        assert_grad_matches(lambda: matmul(a, b).sum(), b)


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])

    def test_large_logits_no_overflow(self):
        out = softmax(Tensor([1000.0, 0.0])).data
        np.testing.assert_allclose(out, [1.0, 0.0])

    def test_rows_sum_to_one(self, np_rng):
        out = softmax(Tensor(np_rng.normal(size=(5, 7)) * 50), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(5), atol=1e-6)

    def test_grad(self, np_rng):
        x = Tensor(np_rng.normal(size=(3, 4)), requires_grad=True)
        r = np_rng.normal(size=(3, 4))
        assert_grad_matches(lambda: (softmax(x, axis=-1) * Tensor(r)).sum(), x)

    def test_masked_zero_weight(self, np_rng):
        x = Tensor(np_rng.normal(size=(2, 4)))
        mask = np.array([True, False, True, False])
        out = softmax(x, mask[None, :]).data
        assert (out[:, ~mask] == 0.0).all()
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)


class TestLayerNorm:
    def test_constant_input_zero_output(self):
        x = Tensor(np.full((2, 4), 3.7))
        out = layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_standardization(self):
        out = layer_norm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)),
                         Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-5)

    def test_grads(self, np_rng):
        x = Tensor(np_rng.normal(size=(3, 5)), requires_grad=True)
        gain = Tensor(np_rng.normal(size=5), requires_grad=True)
        bias = Tensor(np_rng.normal(size=5), requires_grad=True)
        r = np_rng.normal(size=(3, 5))
        for leaf in (x, gain, bias):
            assert_grad_matches(
                lambda: (layer_norm(x, gain, bias) * Tensor(r)).sum(), leaf)


class TestConcat:
    def test_sequence_axis_shape(self):
        out = concat([Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 4)))], axis=0)
        assert out.shape == (5, 4)

    def test_channel_axis_shape(self):
        out = concat([Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 3)))], axis=1)
        assert out.shape == (2, 7)

    def test_extent_mismatch(self):
        with pytest.raises(ShapeError):
            concat([Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 3)))], axis=0)

    @given(n1=st.integers(1, 5), n2=st.integers(1, 5), d=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_bit_exact(self, n1, n2, d):
        rng = Rng(n1 * 100 + n2 * 10 + d)
        a, b = rng.normal((n1, d)), rng.normal((n2, d))
        out = concat([Tensor(a), Tensor(b)], axis=0).data
        assert (out[:n1] == a).all() and (out[n1:] == b).all()


class TestMha:
    def test_single_key_returns_value_row(self, np_rng):
        q = Tensor(np_rng.normal(size=(5, 8)))
        k = Tensor(np_rng.normal(size=(1, 8)))
        v = Tensor(np_rng.normal(size=(1, 8)))
        out = mha(q, k, v, heads=2)
        np.testing.assert_allclose(out.data, np.repeat(v.data, 5, axis=0),
                                   atol=1e-12)

    def test_key_permutation_invariance(self, np_rng):
        q = Tensor(np_rng.normal(size=(3, 8)))
        k = np_rng.normal(size=(6, 8))
        v = np_rng.normal(size=(6, 8))
        perm = np.array([4, 0, 5, 2, 1, 3])
        a = mha(q, Tensor(k), Tensor(v), heads=4).data
        b = mha(q, Tensor(k[perm]), Tensor(v[perm]), heads=4).data
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_divisibility_error(self):
        with pytest.raises(ShapeError):
            mha(Tensor(np.zeros((2, 6))), Tensor(np.zeros((2, 6))),
                Tensor(np.zeros((2, 6))), heads=4)

    def test_masked_keys_zero_weight(self, np_rng):
        q = Tensor(np_rng.normal(size=(2, 4)))
        k = Tensor(np_rng.normal(size=(5, 4)))
        v = Tensor(np_rng.normal(size=(5, 4)))
        mask = np.array([True, True, False, True, False])
        cap = {}
        mha(q, k, v, heads=2, mask=mask, weights_out=cap)
        assert (cap["weights"][:, :, ~mask] == 0.0).all()

    def test_grads_all_inputs(self, np_rng):
        q = Tensor(np_rng.normal(size=(3, 4)), requires_grad=True)
        k = Tensor(np_rng.normal(size=(5, 4)), requires_grad=True)
        v = Tensor(np_rng.normal(size=(5, 4)), requires_grad=True)
        r = np_rng.normal(size=(3, 4))
        for leaf in (q, k, v):
            assert_grad_matches(
                lambda: (mha(q, k, v, heads=2) * Tensor(r)).sum(), leaf)


def flush_floor(dtype, n_k):
    """The shifted logit below which `mha` gives weight exactly 0."""
    return np.dtype(dtype).type(math.log(np.finfo(dtype).tiny) + math.log(n_k) + 1)


def reference_mha(q, k, v, heads, mask=None, weights_out=None, flush=False):
    """The chain of tape nodes that the fused mha replaces; with `flush`,
    the flushed oracle: every shifted logit below `flush_floor` is -inf."""
    def split(x):
        n, d = x.shape
        return x.reshape(n, heads, d // heads).transpose(1, 0, 2)

    qh, kh, vh = split(q), split(k), split(v)
    logits = matmul(qh, kh.transpose(0, 2, 1)) * (1.0 / float(np.sqrt(q.shape[-1] // heads)))
    floor = flush_floor(logits.dtype, k.shape[0]) if flush else None
    attn = softmax(logits, True if mask is None else mask, floor=floor)
    if weights_out is not None:
        weights_out["weights"] = attn.data.copy()
    out = matmul(attn, vh)
    h, n, dh = out.shape
    return out.transpose(1, 0, 2).reshape(n, h * dh)


def assert_bit_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _spy_folds(monkeypatch) -> list:
    """Record whether each row reduction in `mha` folds over the keys."""
    taken, folds = [], T._folds
    monkeypatch.setattr(T, "_folds", lambda a: (taken.append(folds(a)), taken[-1])[1])
    return taken


class TestFusedMha:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("n_q,n_k,d,heads", [
        (1, 7, 16, 2), (5, 1, 16, 4), (256, 256, 64, 8),
        # a fold over the key columns: few keys, at least FOLD_ROWS rows
        (256, 1, 64, 8), (256, 2, 64, 8), (256, 7, 64, 8), (32, 7, 64, 8),
        # numpy's reductions: 8 keys, or too few rows
        (256, 8, 64, 8), (31, 2, 64, 8)])
    def test_bit_equal_to_unfused_chain(self, monkeypatch, dtype, masked, n_q,
                                        n_k, d, heads):
        rng = np.random.default_rng(n_q * 1000 + n_k)
        arrays = [rng.normal(size=s).astype(dtype) for s in ((n_q, d), (n_k, d), (n_k, d))]
        r = rng.normal(size=(n_q, d)).astype(dtype)
        mask = None
        if masked:
            mask = rng.uniform(size=n_k) < 0.6
            mask[rng.integers(n_k)] = True
        taken = _spy_folds(monkeypatch)
        results = []
        for fn in (mha, reference_mha):
            q, k, v = (Tensor(a, requires_grad=True) for a in arrays)
            cap = {}
            out = fn(q, k, v, heads, mask=mask, weights_out=cap)
            (out * Tensor(r)).sum().backward()
            results.append((out.data, cap["weights"], q.grad, k.grad, v.grad))
        for fused, ref in zip(*results):
            assert_bit_equal(fused, ref)
        # forward max and sum, backward sum, in each head group
        assert taken and set(taken) == {n_k < T.FOLD_KEYS and heads * n_q >= T.FOLD_ROWS}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_k", [2, 7])
    def test_folded_backward_with_negative_zero_terms(self, dtype, n_k):
        # the first key is masked, so its weight is +0 and da * a is -0.0
        # wherever da < 0: the fold's row sums start from +0.0, as numpy's
        rng = np.random.default_rng(n_k)
        arrays = [rng.normal(size=s).astype(dtype) for s in ((256, 64), (n_k, 64), (n_k, 64))]
        r = rng.normal(size=(256, 64)).astype(dtype)
        mask = np.arange(n_k) > 0
        results = []
        for fn in (mha, reference_mha):
            q, k, v = (Tensor(a, requires_grad=True) for a in arrays)
            cap = {}
            out = fn(q, k, v, 8, mask=mask, weights_out=cap)
            (out * Tensor(r)).sum().backward()
            results.append((out.data, cap["weights"], q.grad, k.grad, v.grad))
        for fused, ref in zip(*results):
            assert_bit_equal(fused, ref)
        split = lambda x: x.reshape(x.shape[0], 8, -1).transpose(1, 0, 2)
        da_a = (split(r) @ split(arrays[2]).transpose(0, 2, 1)) * results[0][1]
        first = da_a[..., 0]
        assert ((first == 0) & np.signbit(first)).any()

    def test_one_node_with_qkv_parents(self, np_rng):
        q, k, v = (Tensor(np_rng.normal(size=(3, 4)), requires_grad=True)
                   for _ in range(3))
        out = mha(q, k, v, heads=2)
        assert len(out._parents) == 3
        assert all(p is x for p, x in zip(out._parents, (q, k, v)))


_FOLD_ELEMENTS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, width=32),
    st.sampled_from([0.0, -0.0, 1e-45, -1e-45, 1.0, -1.0]))


@settings(max_examples=200, deadline=None)
@given(dtype=st.sampled_from([np.float32, np.float64]), n_k=st.integers(1, 7),
       seed=st.integers(0, 2**32 - 1), values=st.lists(_FOLD_ELEMENTS, min_size=1,
                                                       max_size=16))
@example(dtype=np.float32, n_k=3, seed=0, values=[-0.0])     # rows of -0.0 only
@example(dtype=np.float64, n_k=2, seed=0, values=[-0.0, 0.0])
def test_row_folds_are_numpys_reductions(dtype, n_k, seed, values):
    """The key-column folds give numpy's row sum bit for bit and its row
    max up to the sign of a zero, NaN and infinities included."""
    rows = T.FOLD_ROWS
    a = np.random.default_rng(seed).choice(np.array(values, dtype), size=(2, rows // 2, n_k))
    assert T._folds(a)
    with np.errstate(over="ignore", invalid="ignore"):    # inf + -inf, overflow
        assert_bit_equal(T._row_reduce(np.add, a), a.sum(axis=-1, keepdims=True))
    top = T._row_reduce(np.maximum, a)
    expected = a.max(axis=-1, keepdims=True)
    assert top.dtype == expected.dtype and top.shape == expected.shape
    np.testing.assert_array_equal(top, expected)


_FMAX_ELEMENTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.sampled_from([0.0, -0.0, -np.inf, 1e-45, -1e-45, 1.0, -1.0]))


@settings(max_examples=200, deadline=None)
@given(dtype=st.sampled_from([np.float32, np.float64]), n_k=st.integers(1, 24),
       rows=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
       values=st.lists(_FMAX_ELEMENTS, min_size=1, max_size=16))
@example(dtype=np.float32, n_k=8, rows=256, seed=0, values=[-0.0, 0.0])
@example(dtype=np.float64, n_k=1, rows=1, seed=0, values=[-0.0])
@example(dtype=np.float32, n_k=9, rows=3, seed=0, values=[-np.inf, -0.0])
def test_unfolded_row_max_is_numpys_up_to_the_sign_of_zero(dtype, n_k, rows, seed,
                                                           values):
    """Where `mha` does not fold, its row max (np.fmax's reduction) is
    np.maximum's on rows of finite values, +-0 and -inf (NaN cannot
    reach it), up to the sign of a zero, which the shift and exp erase."""
    a = np.random.default_rng(seed).choice(np.array(values, dtype), size=(2, rows, n_k))
    if T._folds(a):
        a = a[:, :1]
    assert not T._folds(a)
    top = T._row_reduce(np.maximum, a)
    expected = np.maximum.reduce(a, axis=-1, keepdims=True)
    assert top.dtype == expected.dtype and top.shape == expected.shape
    np.testing.assert_array_equal(top, expected)
    with np.errstate(invalid="ignore"):     # -inf - -inf in a row of -inf only
        assert_bit_equal(np.exp(a - top), np.exp(a - expected))


class TestOneKey:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_q", [1, 5, 256])
    @pytest.mark.parametrize("heads", [2, 4, 8])
    def test_bit_equal_to_mha_over_one_key(self, dtype, n_q, heads):
        rng = np.random.default_rng(n_q * 10 + heads)
        d = 32
        q, k, v = (rng.normal(size=s).astype(dtype) for s in ((n_q, d), (1, d), (1, d)))
        tiny = np.finfo(dtype).smallest_subnormal
        v[0, :4] = [-0.0, 0.0, 3 * tiny, -tiny]
        r = rng.normal(size=(n_q, d)).astype(dtype)
        r[0, :] = -0.0
        results = []
        for fused in (True, False):
            kt, vt = Tensor(k, requires_grad=True), Tensor(v, requires_grad=True)
            cap = {}
            if fused:
                out = one_key(kt, vt, n_q, heads, weights_out=cap)
            else:
                out = mha(Tensor(q), kt, vt, heads, weights_out=cap)
            (out * Tensor(r)).sum().backward()
            results.append((out.data, cap["weights"], kt.grad, vt.grad))
        for got, want in zip(*results):
            assert_bit_equal(got, want)
        assert np.signbit(v[0, 0]) and not np.signbit(results[0][0][:, 0]).any()
        assert _subnormal(results[0][0][:, 2:4]).all()

    def test_one_node_with_kv_parents_and_no_query(self, np_rng):
        k, v = (Tensor(np_rng.normal(size=(1, 4)), requires_grad=True) for _ in range(2))
        out = one_key(k, v, 3, heads=2)
        assert out.shape == (3, 4)
        assert len(out._parents) == 2 and out._parents[0] is k and out._parents[1] is v
        out.sum().backward()
        assert_bit_equal(k.grad, np.zeros((1, 4)))

    def test_gradient_only_for_the_parents_that_need_one(self, np_rng):
        k = Tensor(np_rng.normal(size=(1, 4)))
        v = Tensor(np_rng.normal(size=(1, 4)), requires_grad=True)
        out = one_key(k, v, 3, heads=2)
        dk, dv = out._backward(np.ones((3, 4)))
        assert dk is None and dv.shape == (1, 4)

    def test_shape_errors(self):
        with pytest.raises(ShapeError, match="one_key needs"):
            one_key(Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 4))), 3, heads=2)
        with pytest.raises(ShapeError, match="divisible"):
            one_key(Tensor(np.zeros((1, 6))), Tensor(np.zeros((1, 6))), 3, heads=4)

    def test_non_finite_key_fails_inside_a_boundary(self):
        # the output does not read k, so a NaN there would pass unseen
        k = Tensor(np.array([[np.nan, 1.0]]))
        probe = _boundary(lambda: one_key(mul(k, 2.0), Tensor(np.ones((1, 2))), 3, 1))
        with np.errstate(invalid="ignore"), \
                pytest.raises(NumericsError, match="produced by mul$"):
            probe()
        with pytest.raises(NumericsError, match="produced by one_key$"):
            one_key(k, Tensor(np.ones((1, 2))), 3, heads=1)


class TestMhaNonFinite:
    def test_logit_overflow_to_plus_inf(self):
        q = Tensor(np.full((2, 4), 1e20, dtype=np.float32))
        with np.errstate(over="ignore"), pytest.raises(NumericsError):
            mha(q, q, Tensor(np.ones((2, 4), dtype=np.float32)), heads=2)

    def test_logit_overflow_to_minus_inf_only(self):
        # softmax maps a -inf logit beside finite ones to a finite zero
        # weight, so the logits themselves must be checked
        q = Tensor(np.full((2, 4), 1e20, dtype=np.float32))
        k = Tensor(np.array([[-1e20] * 4, [1.0] * 4], dtype=np.float32))
        with np.errstate(over="ignore"), pytest.raises(NumericsError):
            mha(q, k, Tensor(np.ones((2, 4), dtype=np.float32)), heads=2)

    def test_nan_value(self, np_rng):
        v = np_rng.normal(size=(3, 4))
        v[1, 2] = np.nan
        with pytest.raises(NumericsError):
            mha(Tensor(np_rng.normal(size=(2, 4))), Tensor(np_rng.normal(size=(3, 4))),
                Tensor(v), heads=2)

    def test_finite_logits_beyond_the_bound_pass(self):
        # d_head * max|q| * max|k| overflows float32, but q and k are
        # orthogonal, so every logit is 0 and the full scan finds none bad
        q = Tensor(np.array([[1e20, 0.0]], dtype=np.float32))
        k = Tensor(np.array([[0.0, 1e20]], dtype=np.float32))
        out = mha(q, k, Tensor(np.ones((1, 2), dtype=np.float32)), heads=1)
        np.testing.assert_array_equal(out.data, [[1.0, 1.0]])


def _split_case(dtype, d):
    """q, k, v and an output weighting for a 256-token self attention."""
    rng = np.random.default_rng(0)
    return [rng.normal(size=(256, d)).astype(dtype) for _ in range(4)]


def _run_mha(arrays, heads, mask=None, fn=mha):
    q, k, v = (Tensor(a, requires_grad=True) for a in arrays[:3])
    cap = {}
    out = fn(q, k, v, heads, mask=mask, weights_out=cap)
    (out * Tensor(arrays[3])).sum().backward()
    return out.data, cap["weights"], q.grad, k.grad, v.grad


def _flushed_oracle(q, k, v, heads, mask=None, weights_out=None):
    return reference_mha(q, k, v, heads, mask, weights_out, flush=True)


def _subnormal(w):
    return (w != 0) & (np.abs(w) < np.finfo(w.dtype).tiny)


def _no_worker(jobs):
    raise AssertionError("the head worker was started")


class TestMhaHeadSplit:
    """A call of at least SPLIT_MIN logits splits its heads between the
    calling thread and the worker when two CPUs are usable; every bit of
    its results is the same as on one CPU."""

    @pytest.fixture(autouse=True)
    def fresh_worker(self, monkeypatch):
        monkeypatch.setattr(T, "_worker", None)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("heads,d", [(8, 64), (3, 48)])
    def test_two_cpus_bit_equal_to_one(self, monkeypatch, dtype, masked, heads, d):
        assert heads * 256 * 256 >= T.SPLIT_MIN
        arrays = _split_case(dtype, d)
        mask = np.random.default_rng(1).uniform(size=256) < 0.6 if masked else None
        results = []
        for cpus in (1, 2):
            monkeypatch.setattr(T, "_cpu_count", lambda cpus=cpus: cpus)
            results.append(_run_mha(arrays, heads, mask))
            assert (T._worker is not None) == (cpus == 2)
        for split, whole in zip(*results):
            assert_bit_equal(split, whole)

    def test_nan_in_the_workers_heads_names_mha_and_the_next_call_works(
            self, monkeypatch):
        monkeypatch.setattr(T, "_cpu_count", lambda: 2)
        q, k, v, _ = _split_case(np.float32, 64)
        expected = mha(Tensor(q), Tensor(k), Tensor(v), 8).data
        bad = q.copy()
        bad[3, -1] = np.nan     # the last head, so the worker's group
        # NaN in q fails the logit bound, so every group scans its logits
        with np.errstate(invalid="ignore"), \
                pytest.raises(NumericsError, match="produced by mha$") as info:
            mha(Tensor(bad), Tensor(k), Tensor(v), 8)
        assert "_serve" in {tb.name for tb in info.traceback}
        assert_bit_equal(mha(Tensor(q), Tensor(k), Tensor(v), 8).data, expected)

    def test_nan_in_the_callers_heads_names_mha_and_the_next_call_works(
            self, monkeypatch):
        monkeypatch.setattr(T, "_cpu_count", lambda: 2)
        q, k, v, _ = _split_case(np.float32, 64)
        expected = mha(Tensor(q), Tensor(k), Tensor(v), 8).data
        bad = q.copy()
        bad[3, 0] = np.nan      # head 0, so the calling thread's group
        with np.errstate(invalid="ignore"), \
                pytest.raises(NumericsError, match="produced by mha$") as info:
            mha(Tensor(bad), Tensor(k), Tensor(v), 8)
        assert "_serve" not in {tb.name for tb in info.traceback}
        assert_bit_equal(mha(Tensor(q), Tensor(k), Tensor(v), 8).data, expected)

    def test_worker_runs_under_the_callers_error_state(self, monkeypatch):
        monkeypatch.setattr(T, "_cpu_count", lambda: 2)
        q, k, v, _ = _split_case(np.float32, 64)
        q[:, -8:] = k[:, -8:] = 1e20    # logits overflow in the last head only
        with np.errstate(over="raise"), pytest.raises(FloatingPointError) as info:
            mha(Tensor(q), Tensor(k), Tensor(v), 8)
        assert "_serve" in {tb.name for tb in info.traceback}

    def test_condition_sized_calls_stay_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(T, "_cpu_count", lambda: 2)
        monkeypatch.setattr(T, "_start_worker", _no_worker)
        pipe = Pipeline(RunConfig())
        size = pipe.config.image_size
        image = np.random.default_rng(0).uniform(size=(3, size, size))
        pipe.condition(image, [(0.1, 0.1, 0.4, 0.5), (0.5, 0.6, 0.9, 0.9)],
                       "two squares", prompt="three circles")
        arrays = _split_case(np.float32, 64)
        _run_mha(arrays, 1)     # one head never splits
        assert T._worker is None

    def test_concurrent_callers_share_one_worker(self, monkeypatch):
        # more calling threads than CPUs: callers queue for the worker,
        # and every result stays exact
        monkeypatch.setattr(T, "_cpu_count", lambda: 2)
        q, k, v, _ = _split_case(np.float32, 64)
        expected = mha(Tensor(q), Tensor(k), Tensor(v), 8).data.tobytes()
        results = []

        def caller():
            for _ in range(5):
                results.append(mha(Tensor(q), Tensor(k), Tensor(v), 8).data.tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [expected] * 20

    def test_forked_child_starts_its_own_worker(self, monkeypatch):
        monkeypatch.setattr(T, "_cpu_count", lambda: 2)
        q, k, v, _ = _split_case(np.float32, 64)
        expected = mha(Tensor(q), Tensor(k), Tensor(v), 8).data.tobytes()
        assert T._worker is not None
        pid = os.fork()
        if pid == 0:    # child: exit 0 only if the large call finishes right
            try:
                signal.alarm(30)
                ok = mha(Tensor(q), Tensor(k), Tensor(v), 8).data.tobytes() == expected
                os._exit(0 if ok else 1)
            finally:
                os._exit(2)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0


# q/k scales of `_split_case` at which the plain softmax chain gives
# subnormal weights: most weights kept, or about one a row (the sparse
# branch of `_exp_flushed`)
FLUSH_SCALES = {np.float32: {"most": 6.0, "one_a_row": 60.0},
                np.float64: {"most": 20.0, "one_a_row": 100.0}}


def _flush_case(dtype, kept):
    arrays = _split_case(dtype, 64)
    for a in arrays[:2]:
        a *= FLUSH_SCALES[dtype][kept]
    return arrays


class TestMhaFlush:
    """A logit below the floor after the max subtraction gets weight
    exactly 0: `mha` is bit-equal to the flushed oracle, and none of its
    weights is subnormal."""

    @pytest.fixture(autouse=True)
    def fresh_worker(self, monkeypatch):
        monkeypatch.setattr(T, "_worker", None)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("kept", ["most", "one_a_row"])
    def test_bit_equal_to_the_flushed_oracle(self, monkeypatch, dtype, masked,
                                             cpus, kept):
        monkeypatch.setattr(T, "_cpu_count", lambda: cpus)
        arrays = _flush_case(dtype, kept)
        mask = np.random.default_rng(1).uniform(size=256) < 0.6 if masked else None
        fused = _run_mha(arrays, 8, mask)
        assert (T._worker is not None) == (cpus == 2)
        for a, b in zip(fused, _run_mha(arrays, 8, mask, _flushed_oracle)):
            assert_bit_equal(a, b)
        plain = _run_mha(arrays, 8, mask, reference_mha)[1]
        assert _subnormal(plain).any()      # so the case tests the flush
        weights = fused[1]
        assert not _subnormal(weights).any()
        if masked:
            assert (weights[:, :, ~mask] == 0).all()
        sparse = np.count_nonzero(weights) * T.SPARSE_KEEP <= weights.size
        assert sparse == (kept == "one_a_row")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("masked", [False, True])
    def test_a_logit_just_below_the_floor_gets_weight_zero(self, dtype, masked):
        # one head of one channel and q = 1: the logits are the keys
        n_k = 4 if masked else 3
        floor = float(flush_floor(dtype, n_k))
        keys = [0.0, floor - 0.5, floor + 0.5] + [0.0] * masked
        mask = np.array([True, True, True, False]) if masked else None
        arrays = [np.ones((1, 1), dtype), np.array(keys, dtype)[:, None],
                  np.arange(1.0, n_k + 1, dtype=dtype)[:, None], np.ones((1, 1), dtype)]
        fused = _run_mha(arrays, 1, mask)
        for a, b in zip(fused, _run_mha(arrays, 1, mask, _flushed_oracle)):
            assert_bit_equal(a, b)
        weights = fused[1][0, 0]
        assert weights[1] == 0 and weights[2] > 0
        assert _run_mha(arrays, 1, mask, reference_mha)[1][0, 0, 1] > 0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_spread_5_percent_past_the_floor_is_flushed(self, dtype):
        # q = c, k = (c, -c): the row spread 2c^2 is 5% beyond -floor,
        # so the second key must be flushed
        floor = float(flush_floor(dtype, 2))
        c = math.sqrt(1.05 * -floor / 2)
        arrays = [np.full((1, 1), c, dtype), np.array([[c], [-c]], dtype),
                  np.array([[1.0], [2.0]], dtype), np.ones((1, 1), dtype)]
        fused = _run_mha(arrays, 1)
        for a, b in zip(fused, _run_mha(arrays, 1, fn=_flushed_oracle)):
            assert_bit_equal(a, b)
        assert fused[1][0, 0, 1] == 0

    def test_nan_on_the_flush_path_names_mha(self, monkeypatch):
        flushed = []
        exp_flushed = T._exp_flushed
        monkeypatch.setattr(T, "_exp_flushed",
                            lambda a, floor: (flushed.append(1), exp_flushed(a, floor)))
        q, k, v, _ = _flush_case(np.float32, "most")
        v[5, 3] = np.nan
        with pytest.raises(NumericsError, match="produced by mha$"):
            mha(Tensor(q), Tensor(k), Tensor(v), 8)
        assert flushed

    def test_small_logits_skip_the_flush(self, monkeypatch):
        monkeypatch.setattr(T, "_exp_flushed", None)    # a call would raise
        arrays = _split_case(np.float32, 64)
        for a, b in zip(_run_mha(arrays, 8), _run_mha(arrays, 8, fn=reference_mha)):
            assert_bit_equal(a, b)


@settings(max_examples=200, deadline=None)
@given(dtype=st.sampled_from([np.float32, np.float64]),
       n_q=st.one_of(st.integers(1, 4), st.integers(100, 300)),
       n_k=st.one_of(st.integers(1, 9), st.integers(1, 300)), heads=st.sampled_from([1, 2]),
       q_log=st.floats(-3, 3), k_log=st.floats(-3, 3), masked=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(dtype=np.float32, n_q=4, n_k=300, heads=2, q_log=3, k_log=3,
         masked=False, seed=0)     # the sparse branch
@example(dtype=np.float64, n_q=4, n_k=50, heads=1, q_log=1.2, k_log=1.2,
         masked=True, seed=0)      # the dense branch
@example(dtype=np.float32, n_q=256, n_k=3, heads=1, q_log=2, k_log=2,
         masked=True, seed=0)      # a fold over the keys, flushed
@example(dtype=np.float64, n_q=128, n_k=7, heads=2, q_log=0, k_log=0,
         masked=False, seed=0)     # a fold over the keys at FOLD_ROWS
def test_mha_is_the_flushed_oracle_at_any_scale(dtype, n_q, n_k, heads, q_log,
                                                k_log, masked, seed):
    """The head group's smallest shifted logit, which decides whether
    `mha` flushes, never changes a result."""
    rng = np.random.default_rng(seed)
    d = 4 * heads
    arrays = [rng.normal(size=(n, d)).astype(dtype) for n in (n_q, n_k, n_k, n_q)]
    arrays[0] *= dtype(10.0 ** q_log)
    arrays[1] *= dtype(10.0 ** k_log)
    mask = None
    if masked:
        mask = rng.uniform(size=n_k) < 0.6
        mask[rng.integers(n_k)] = True
    fused = _run_mha(arrays, heads, mask)
    for a, b in zip(fused, _run_mha(arrays, heads, mask, _flushed_oracle)):
        assert_bit_equal(a, b)
    assert not _subnormal(fused[1]).any()


class TestBackward:
    def test_deep_chain_does_not_hit_the_recursion_limit(self):
        x = Tensor([0.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = add(y, 1.0)
        y.sum().backward()
        np.testing.assert_array_equal(x.grad, [1.0])
        np.testing.assert_array_equal(y.data, [3000.0])

    def test_diamond_sums_each_path_once_in_topological_order(self):
        # x reaches the loss through a, b and c. Its gradient terms arrive
        # in reverse topological order, c then b then a: (-1e16 + 1e16) + 1
        # is 1, while adding a's term before either other term gives 0,
        # and counting any path twice gives a value other than 1.
        x = Tensor([1.0], requires_grad=True)
        a, b, c = x * 1.0, x * 1e16, x * -1e16
        ((a + b) + c).sum().backward()
        np.testing.assert_array_equal(x.grad, [1.0])


class TestAdamW:
    def test_zero_grad_no_change(self):
        p = Param("p", np.ones(3))
        p.tensor.grad = np.zeros(3)
        adamw_step([p], lr=0.1)
        # zero grad means zero moments and zero update
        np.testing.assert_array_equal(p.data, np.ones(3))

    def test_descent_on_quadratic(self):
        p = Param("theta", np.array([1.0]))
        x = Tensor(p.data, requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        p.tensor.grad = x.grad
        adamw_step([p], lr=0.1)
        assert p.data[0] < 1.0

    def test_converges_to_minimizer(self):
        # f(x, y) = (x - 3)^2 + 2 (y + 1)^2, minimizer (3, -1)
        p = Param("xy", np.array([0.0, 0.0]))
        for _ in range(500):
            x, y = p.data
            p.tensor.grad = np.array([2 * (x - 3.0), 4 * (y + 1.0)])
            adamw_step([p], lr=0.05)
        np.testing.assert_allclose(p.data, [3.0, -1.0], atol=1e-3)


def test_params_of_walks_attributes_and_dict_values_in_order():
    a, b, c, d = (Param(n, np.zeros(1)) for n in "abcd")
    inner = SimpleNamespace(b=b, size=3, name="inner")
    outer = SimpleNamespace(a=a, blocks={"x": inner, "y": {"c": c}},
                            listed=[d], arr=np.zeros(2))
    assert params_of(outer) == [a, b, c]
    assert params_of(a) == [a] and params_of(3) == []


class TestNumerics:
    def test_non_finite_is_an_error(self):
        with np.errstate(over="ignore"), pytest.raises(NumericsError):
            mul(Tensor([1e308]), 10.0)


def _boundary(fn):
    return checked_once(lambda out: (out.data,))(fn)


def _overflow(x):
    return mul(x, 10.0)      # inf for |x| > 1.8e307


class TestCheckedOnce:
    def test_replay_names_the_op(self):
        probe = _boundary(lambda x: add(_overflow(x), 1.0))
        with np.errstate(over="ignore"), \
                pytest.raises(NumericsError, match="produced by mul$"):
            probe(Tensor([1e308]))

    def test_checks_are_restored_after_a_raise(self):
        big = Tensor([1e308])
        with np.errstate(over="ignore"):
            with pytest.raises(NumericsError):
                _boundary(_overflow)(big)
            with pytest.raises(ValueError):
                _boundary(lambda: _overflow(big) + int("x"))()
            with pytest.raises(NumericsError, match="produced by mul$"):
                _overflow(big)

    def test_output_no_op_produced_names_the_boundary(self):
        def probe():
            return Tensor([np.nan])

        with pytest.raises(NumericsError, match=r"produced by \S*\.probe$"):
            _boundary(probe)()

    def test_only_outputs_are_checked_and_nesting_keeps_them_deferred(self):
        # The inf made inside is sliced away before the output. A nested
        # boundary must not switch per-op checks back on.
        inner = _boundary(lambda x: add(x, 1.0))
        outer = _boundary(lambda x: _overflow(inner(x))[1:])
        with np.errstate(over="ignore"):
            out = outer(Tensor([1e308, 0.0]))
        np.testing.assert_array_equal(out.data, [10.0])


class TestRng:
    def test_determinism(self):
        a = Rng(42).normal((100,))
        b = Rng(42).normal((100,))
        np.testing.assert_array_equal(a, b)

    def test_streams_differ_by_seed(self):
        assert not np.array_equal(Rng(1).uniform((50,)), Rng(2).uniform((50,)))

    def test_spawn_independent_of_order(self):
        r = Rng(7)
        a = r.spawn("alpha").normal((10,))
        r2 = Rng(7)
        r2.spawn("beta")
        b = r2.spawn("alpha").normal((10,))
        np.testing.assert_array_equal(a, b)

    def test_uniform_range_and_moments(self):
        u = Rng(3).uniform((20000,))
        assert (u > 0).all() and (u <= 1).all()
        assert abs(u.mean() - 0.5) < 0.01

    def test_normal_moments(self):
        z = Rng(5).normal((40000,))
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02

    def test_randint_range_and_guard(self):
        r = Rng(6)
        draws = [r.randint(5) for _ in range(200)]
        assert set(draws) == {0, 1, 2, 3, 4}
        with pytest.raises(ValueError):
            r.randint(0)
