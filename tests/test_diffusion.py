import gc
import sys
import weakref

import numpy as np
import pytest

from layoutedit.adapter import ConditionBundle
from layoutedit.config import InjectionConfig, RunConfig
from layoutedit.diffusion import (BLOCK_NAMES, DenoiserState, NoiseSchedule,
                                  forward_noise, guided_eps, image_to_latent,
                                  latent_to_image, sample, timestep_embedding,
                                  training_step)
from layoutedit.rng import Rng
from layoutedit.tensor import NumericsError, Tensor, mha, one_key, params_of


def small_config(**kw):
    base = dict(d_i=16, d_t=8, d_l=8, d_model=32, heads=4, image_size=16,
                dtype="float64")
    base.update(kw)
    return RunConfig(**base)


def small_state(seed=0, **kw):
    return DenoiserState(small_config(**kw), Rng(seed))


def random_bundle(state, seed=1):
    r = Rng(seed)
    return ConditionBundle(
        f_t=Tensor(r.spawn("ft").normal((3, state.config.d_t))),
        f=Tensor(r.spawn("f").normal((1, state.config.d_i))),
        lam=state.config.lam)


# ---------------------------------------------------------------- schedule
class TestNoiseSchedule:
    def test_beta_endpoints(self):
        s = NoiseSchedule(1000)
        assert s.betas[0] == 1e-4
        assert s.betas[-1] == 2e-2

    def test_alpha_bar_monotone_decreasing(self):
        s = NoiseSchedule(1000)
        assert (np.diff(s.alpha_bars) < 0).all()
        assert 0 < s.alpha_bars[-1] < s.alpha_bars[0] < 1

    def test_alpha_bar_matches_product(self):
        s = NoiseSchedule(50)
        want = 1.0
        for b in s.betas[:10]:
            want *= 1.0 - b
        assert s.alpha_bar(9) == pytest.approx(want, rel=1e-12)

    def test_out_of_range(self):
        s = NoiseSchedule(10)
        with pytest.raises(ValueError):
            s.alpha_bar(10)
        with pytest.raises(ValueError):
            s.alpha_bar(-1)


class TestForwardNoise:
    def test_t0_is_nearly_clean(self):
        s = NoiseSchedule(1000)
        x0 = Rng(1).normal((4, 4))
        eps = Rng(2).normal((4, 4))
        out = forward_noise(x0, 0, eps, s)
        np.testing.assert_allclose(out, x0, atol=0.02)

    def test_final_t_is_nearly_pure_noise(self):
        s = NoiseSchedule(1000)
        x0 = Rng(1).normal((4, 4))
        eps = Rng(2).normal((4, 4))
        out = forward_noise(x0, 999, eps, s)
        # alpha_bar(999) is tiny, so the clean part nearly vanishes
        np.testing.assert_allclose(out, eps, atol=0.02)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keeps_the_latent_dtype(self, dtype):
        s = NoiseSchedule(1000)
        x0 = Rng(1).normal((4, 4)).astype(dtype)
        eps = Rng(2).normal((4, 4)).astype(dtype)
        assert forward_noise(x0, 500, eps, s).dtype == dtype

    def test_shape_mismatch(self):
        s = NoiseSchedule(10)
        with pytest.raises(ValueError, match="shape"):
            forward_noise(np.zeros((2, 2)), 0, np.zeros((3, 2)), s)

    def test_monte_carlo_moments(self):
        # Oracle: over many noise draws, x_t has mean sqrt(ab)*x0 and
        # per-element variance (1 - ab).
        s = NoiseSchedule(1000)
        t = 500
        ab = s.alpha_bar(t)
        x0 = Rng(3).normal((8,))
        draws = np.stack([forward_noise(x0, t, Rng(100 + i).normal((8,)), s)
                          for i in range(4000)])
        np.testing.assert_allclose(draws.mean(axis=0), np.sqrt(ab) * x0,
                                   atol=0.06)
        np.testing.assert_allclose(draws.var(axis=0), 1.0 - ab, atol=0.12)


# ------------------------------------------------------------------ latent
class TestLatentRepack:
    def test_roundtrip_exact(self):
        img = Rng(6).uniform((3, 32, 32))
        lat = image_to_latent(img)
        assert lat.shape == (256, 12)
        np.testing.assert_array_equal(latent_to_image(lat, 32), img)

    def test_block_layout(self):
        img = np.arange(3 * 4 * 4, dtype=float).reshape(3, 4, 4)
        lat = image_to_latent(img)
        # first token holds the top-left 2x2 patch of every channel
        np.testing.assert_array_equal(
            lat[0], np.concatenate([img[c, :2, :2].ravel() for c in range(3)]))


def test_timestep_embedding_shape_and_range():
    e = timestep_embedding(17, 32)
    assert e.shape == (32,)
    assert (np.abs(e) <= 1.0).all()
    assert not np.array_equal(e, timestep_embedding(18, 32))


# ---------------------------------------------------------------- denoiser
class TestDenoiserForward:
    def test_output_shape(self):
        st = small_state()
        out = st.forward(Rng(7).normal((st.n_tokens, st.d_latent)), 10,
                         random_bundle(st))
        assert out.shape == (st.n_tokens, st.d_latent)

    def test_active_sites_default_and_all(self):
        assert small_state().site_scales == {"down4": 1.0}
        st = small_state(injection=InjectionConfig(position="all", ip_scale=0.5))
        assert tuple(st.site_scales) == BLOCK_NAMES
        assert st.site_scales["mid"] == 1.0
        assert st.site_scales["down4"] == 0.5

    def test_drop_image_condition_keeps_text(self):
        st = small_state()
        b = random_bundle(st)
        d = st.drop_image_condition(b)
        np.testing.assert_array_equal(d.f.data, 0.0)
        assert d.f_t is b.f_t

    @pytest.mark.parametrize("position", ["down2", "down4", "mid", "all"])
    def test_adapter_branch_only_at_injection_sites(self, position):
        st = small_state(injection=InjectionConfig(position=position))
        sites = [n for n in BLOCK_NAMES if st.blocks[n].cross.w_kf is not None]
        assert sites == list(st.site_scales)
        assert [p.name for p in st.ip_params()] == [
            f"den.{n}.cross.{w}" for n in sites for w in ("w_kf", "w_vf", "w_of")]
        # per block: the MLP's 3, self attention's 4 and the text branch's 4
        assert len(params_of(st)) == 11 * len(BLOCK_NAMES) + 6 + 3 * len(sites)

    def test_set_trainable_marks_only_adapter_weights(self):
        st = small_state()
        trainable = st.set_trainable()
        names = sorted(p.name for p in trainable)
        assert names == ["den.down4.cross.w_kf", "den.down4.cross.w_of",
                         "den.down4.cross.w_vf"]
        for p in params_of(st):
            assert p.tensor.requires_grad == (p.name in names), p.name


# ---------------------------------------------------------------- training
class TestTrainingStep:
    def make_batch(self, st, n, seed=8):
        r = Rng(seed)
        return [r.spawn(f"x{i}").normal((st.n_tokens, st.d_latent))
                for i in range(n)]

    def test_perfect_model_gives_zero_loss(self):
        st = small_state()
        batch = self.make_batch(st, 3)
        # replay the per-sample draw order (t, eps, drop) from an
        # identical stream to hand the model the exact noise
        replay = Rng(99)
        eps_list = []
        for x0 in batch:
            replay.randint(st.schedule.t_train)
            eps_list.append(replay.normal(x0.shape))
            replay.uniform()
        it = iter(eps_list)

        def perfect(x_t, t, cond):
            return Tensor(next(it))

        out = training_step(st, batch, random_bundle(st), Rng(99),
                            eps_model=perfect)
        assert out.loss == 0.0

    def test_zero_model_loss_is_unit_variance(self):
        st = small_state()
        batch = self.make_batch(st, 8)         # 8 * 64 * 12 = 6144 elements
        zero = lambda x_t, t, cond: Tensor(np.zeros_like(np.asarray(x_t)))
        out = training_step(st, batch, random_bundle(st), Rng(5),
                            eps_model=zero)
        assert abs(out.loss - 1.0) < 0.08

    def test_dropout_rate_extremes(self):
        st = small_state()
        st.config.dropout_rate = 1.0
        batch = self.make_batch(st, 4)
        seen = []
        probe = lambda x_t, t, cond: (seen.append(cond.f.data.copy()),
                                      Tensor(np.zeros_like(np.asarray(x_t))))[1]
        out = training_step(st, batch, random_bundle(st), Rng(6),
                            eps_model=probe)
        assert out.dropped == [True] * 4
        for f in seen:
            np.testing.assert_array_equal(f, 0.0)
        st.config.dropout_rate = 0.0
        out = training_step(st, batch, random_bundle(st), Rng(6),
                            eps_model=probe)
        assert out.dropped == [False] * 4

    def test_bundle_count_mismatch(self):
        st = small_state()
        with pytest.raises(ValueError, match="bundles"):
            training_step(st, self.make_batch(st, 2),
                          [random_bundle(st)], Rng(0))

    def test_non_finite_loss_raises(self):
        st = small_state()
        bad = lambda x_t, t, cond: Tensor(np.full_like(np.asarray(x_t), np.nan))
        with pytest.raises(NumericsError):
            training_step(st, self.make_batch(st, 1), random_bundle(st),
                          Rng(0), eps_model=bad)

    def test_gradients_reach_adapter_weights(self):
        st = small_state()
        st.config.dropout_rate = 0.0
        trainable = st.set_trainable()
        batch = self.make_batch(st, 1)
        training_step(st, batch, random_bundle(st), Rng(7))
        by_name = {p.name.rsplit(".", 1)[-1]: p for p in trainable}
        # with w_of still zero only w_of itself sees gradient; w_kf never
        # does because softmax over the single adapter key is constant
        assert np.abs(by_name["w_of"].tensor.grad).sum() > 0
        np.testing.assert_array_equal(by_name["w_vf"].tensor.grad, 0.0)
        # once w_of is nonzero the value projection trains too
        by_name["w_of"].tensor.data = Rng(77).normal(
            by_name["w_of"].data.shape, std=0.1)
        for p in trainable:
            p.tensor.grad = None
        training_step(st, batch, random_bundle(st), Rng(7))
        assert np.abs(by_name["w_vf"].tensor.grad).sum() > 0

    def test_no_gradient_for_a_frozen_leaf_and_no_query_on_the_tape(self, monkeypatch):
        # At train time the prompt is the one empty token and the adapter
        # token is one row, so every cross attention is a `one_key` and no
        # block projects a query; backward computes a gradient only for a
        # parent that needs one.
        st = small_state()
        st.config.dropout_rate = 0.0
        trainable = st.set_trainable()
        r = Rng(3)
        bundle = ConditionBundle(f_t=Tensor(r.spawn("ft").normal((1, st.config.d_t))),
                                 f=Tensor(r.spawn("f").normal((1, st.config.d_i))),
                                 lam=st.config.lam)
        queries = {id(blk.cross.w_q.tensor) for blk in st.blocks.values()}
        frozen, parents = [], set()

        def spy(node, bw):
            def spied(g):
                grads = bw(g)
                frozen.extend(p for p, pg in zip(node._parents, grads)
                              if pg is not None and not (p.requires_grad or p._parents))
                return grads
            return spied

        backward = Tensor.backward

        def spied_backward(self, grad=None):
            stack, seen = [self], set()
            while stack:
                t = stack.pop()
                if id(t) in seen or t._backward is None:
                    continue
                seen.add(id(t))
                parents.update(id(p) for p in t._parents)
                t._backward = spy(t, t._backward)
                stack.extend(t._parents)
            return backward(self, grad)

        monkeypatch.setattr(Tensor, "backward", spied_backward)
        training_step(st, self.make_batch(st, 1), bundle, Rng(7))
        assert parents and not queries & parents
        assert frozen == []
        assert all(p.tensor.grad is not None for p in trainable)

    def test_tape_is_freed_without_the_cyclic_gc(self):
        st = small_state()
        st.set_trainable()
        refs = []

        def model(x_t, t, cond):
            pred = st.forward(x_t, t, cond)
            # an ndarray on the tape: Tensor's __slots__ have no __weakref__
            refs.append(weakref.ref(pred.data))
            return pred

        gc.disable()
        try:
            training_step(st, self.make_batch(st, 1), random_bundle(st), Rng(7),
                          eps_model=model)
            assert refs[0]() is None
        finally:
            gc.enable()


# ---------------------------------------------------------------- sampling
class TestGuidance:
    def test_affine_in_w(self):
        st = small_state()
        b = random_bundle(st)
        x = Rng(8).normal((st.n_tokens, st.d_latent))
        g0 = guided_eps(st, x, 100, b, 0.0)
        g1 = guided_eps(st, x, 100, b, 1.0)
        g5 = guided_eps(st, x, 100, b, 5.0)
        np.testing.assert_allclose(g5, g0 + 5.0 * (g1 - g0), atol=1e-5, rtol=0)

    def test_w1_is_pure_conditional(self):
        st = small_state()
        b = random_bundle(st)
        x = Rng(9).normal((st.n_tokens, st.d_latent))
        np.testing.assert_allclose(guided_eps(st, x, 50, b, 1.0),
                                   st.forward(x, 50, b).data, atol=1e-12)


def adapter_state(position, lam, dtype, ip_scale=0.7):
    """A state whose adapter branch is not zero, in `dtype`, and a bundle."""
    st = small_state(lam=lam, dtype=dtype,
                     injection=InjectionConfig(position=position, ip_scale=ip_scale))
    for p in params_of(st):
        p.set_dtype(np.dtype(dtype).type)
    for p in st.ip_params():
        p.tensor.data[...] = Rng(5).spawn(p.name).normal(p.data.shape, std=0.3)
    b = random_bundle(st)
    return st, ConditionBundle(f_t=Tensor(b.f_t.data.astype(dtype)),
                               f=Tensor(b.f.data.astype(dtype)), lam=lam)


def count_attention_calls(monkeypatch, fn):
    """Attention evaluations, calls of `mha` or `one_key` through every
    layoutedit module that binds them, while fn() runs."""
    calls = []
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("layoutedit."):
            continue
        for name, op in (("mha", mha), ("one_key", one_key)):
            if getattr(mod, name, None) is op:
                def counted(*args, _op=op, **kwargs):
                    calls.append(1)
                    return _op(*args, **kwargs)
                monkeypatch.setattr(mod, name, counted)
    fn()
    monkeypatch.undo()
    return len(calls)


class TestSharedGuidance:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("lam", [0.0, 0.8])
    @pytest.mark.parametrize("position", ["down2", "down4", "mid", "all"])
    def test_bit_equal_to_two_single_condition_passes(self, position, lam, dtype):
        st, b = adapter_state(position, lam, dtype)
        x = Rng(8).normal((st.n_tokens, st.d_latent)).astype(dtype)
        cond = st.forward(x, 100, b).data
        uncond = st.forward(x, 100, st.drop_image_condition(b)).data
        assert (lam == 0) == np.array_equal(cond, uncond)
        want = 5.0 * cond + (1.0 - 5.0) * uncond
        got = guided_eps(st, x, 100, b, 5.0)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("lam", [0.0, 0.8])
    @pytest.mark.parametrize("position", ["down2", "down4", "mid", "all"])
    def test_mha_calls_skip_the_shared_prefix(self, monkeypatch, position, lam):
        st, b = adapter_state(position, lam, "float64")
        x = Rng(8).normal((st.n_tokens, st.d_latent))
        # self attention and the text branch, plus the adapter branch where
        # the block has one
        per_block = [2 + bool(st.blocks[name].cross.ip_params())
                     for name in BLOCK_NAMES]
        per_pass = sum(per_block)
        assert count_attention_calls(monkeypatch, lambda: st.forward(x, 100, b)) == per_pass
        active = [i for i, name in enumerate(BLOCK_NAMES)
                  if lam * st.site_scales.get(name, 0.0) > 0]
        # blocks before the split whole, then the split block's self attention
        shared = per_pass if not active else sum(per_block[:active[0]]) + 1
        per_step = 2 * per_pass - shared
        assert count_attention_calls(monkeypatch, lambda: guided_eps(st, x, 100, b, 5.0)) \
            == per_step
        assert count_attention_calls(monkeypatch, lambda: sample(st, b, 5.0, 2, Rng(0))) \
            == 2 * per_step
        if (position, lam) == ("down4", 0.8):
            assert (per_pass, per_step) == (19, 31)

    def test_one_prediction_per_bundle(self):
        st, b = adapter_state("down4", 0.8, "float64")
        x = Rng(8).normal((st.n_tokens, st.d_latent))
        bundles = [b, st.drop_image_condition(b), b]
        preds = st.forward(x, 100, bundles)
        assert len(preds) == 3
        for pred, one in zip(preds, bundles):
            assert pred.data.tobytes() == st.forward(x, 100, one).data.tobytes()

    def test_bundles_must_share_f_t(self):
        st, b = adapter_state("down4", 0.8, "float64")
        x = Rng(8).normal((st.n_tokens, st.d_latent))
        other = ConditionBundle(f_t=Tensor(b.f_t.data + 1.0), f=b.f, lam=b.lam)
        with pytest.raises(ValueError, match="share one f_t"):
            st.forward(x, 100, [b, other])


class TestSample:
    def test_deterministic(self):
        st = small_state()
        b = random_bundle(st)
        a = sample(st, b, w=2.0, steps=5, rng=Rng(10))
        c = sample(st, b, w=2.0, steps=5, rng=Rng(10))
        np.testing.assert_array_equal(a, c)

    def test_trace_covers_descending_timesteps(self):
        st = small_state()
        trace = []
        sample(st, random_bundle(st), w=1.0, steps=4, rng=Rng(11),
               trace=trace)
        ts = [t for t, _ in trace]
        assert len(ts) == 4
        assert ts[0] == st.schedule.t_train - 1
        assert ts[-1] == 0
        assert ts == sorted(ts, reverse=True)

    def test_bad_step_count(self):
        st = small_state()
        with pytest.raises(ValueError):
            sample(st, random_bundle(st), w=1.0, steps=0, rng=Rng(0))

    def test_steps_above_t_train_rejected(self):
        st = small_state(t_train=4)
        assert sample(st, random_bundle(st), w=1.0, steps=4, rng=Rng(0)).shape \
            == (st.n_tokens, st.d_latent)
        with pytest.raises(ValueError, match="t_train"):
            sample(st, random_bundle(st), w=1.0, steps=5, rng=Rng(0))

    def test_output_dtype_follows_config(self):
        st = small_state(dtype="float32")
        for p in params_of(st):
            p.set_dtype(np.float32)
        out = sample(st, random_bundle(st), w=1.0, steps=2, rng=Rng(12))
        assert out.dtype == np.float32
