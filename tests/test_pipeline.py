import dataclasses
import hashlib

import numpy as np
import pytest

from layoutedit import pipeline, tensor
from layoutedit.adapter import fuse
from layoutedit.cli import main
from layoutedit.cmam import cmam_forward
from layoutedit.config import RunConfig
from layoutedit.data import generate_dataset
from layoutedit.ilfm import ilfm_forward
from layoutedit.layout import build_layout
from layoutedit.pipeline import Pipeline, load_image
from layoutedit.qlt import QltError, save_checkpoint
from layoutedit.rng import Rng
from layoutedit.tensor import NumericsError, Param, Tensor, params_of


def small_config(tmp_path, **kw):
    base = dict(seed=3, d_i=16, d_t=16, d_l=16, d_model=16, heads=2,
                max_n=8, image_size=16, patch_size=8, sample_steps=2,
                t_train=50, train_steps=4,
                data_dir=str(tmp_path / "data"),
                checkpoint_dir=str(tmp_path / "ckpt"))
    base.update(kw)
    return RunConfig(**base).validate()


BOXES = [(0.1, 0.1, 0.4, 0.5), (0.5, 0.6, 0.9, 0.9)]


@pytest.fixture
def pipe(tmp_path):
    return Pipeline(small_config(tmp_path))


def test_named_params_unique_and_typed(pipe):
    params = pipe.named_params()
    assert len(params) > 50
    for p in params.values():
        assert p.data.dtype == np.float32



# SHA-256 over the sorted parameter names and float32 bytes of a default
# Pipeline: renaming any RNG stream or changing any init moves it.
DEFAULT_PARAM_DIGEST = ("70202d2d3cc2c87e0b855ba17267d68c"
                        "aa93777e5396f615638ae268211ddad8")


def test_default_param_init_is_pinned():
    params = Pipeline(RunConfig()).named_params()
    # 182 with an adapter branch at all nine blocks; the default has one
    assert len(params) == 158
    h = hashlib.sha256()
    for name, p in sorted(params.items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(p.data, dtype=np.float32).tobytes())
    assert h.hexdigest() == DEFAULT_PARAM_DIGEST


def test_masked_attention_keeps_float32(pipe):
    # ILFM's masked attention feeds its pool and fuse; none may promote
    enc = pipe.image_encoder.encode(Tensor(Rng(1).uniform((3, 16, 16)).astype(np.float32)))
    f_layout = ilfm_forward(pipe.ilfm, enc.patches, enc.grid,
                            build_layout(BOXES, pipe.config.max_n), pipe.embedder)
    aux = pipe.text_encoder.encode(pipe.text_encoder.tokenize("two circles"))
    t_aug, i_aug = cmam_forward(pipe.cmam, aux.tokens, enc.cls)
    f = fuse(pipe.fuse, i_aug, t_aug, f_layout)
    assert f_layout.dtype == np.float32 and f.dtype == np.float32


ADAPTER_WEIGHTS = ["den.down4.cross.w_kf", "den.down4.cross.w_of",
                   "den.down4.cross.w_vf"]


def trained_pipe(tmp_path, monkeypatch, **kw):
    """Train a small pipeline, recording what each adamw_step was given
    and the dtypes it saw: of every op output, and of each updated
    weight's gradient and moments."""
    cfg = small_config(tmp_path, **kw)
    generate_dataset(cfg.data_dir, seed=cfg.seed, counts=[1, 2],
                     image_size=cfg.image_size)
    pipe = Pipeline(cfg)
    calls, dtypes = [], {"nodes": set(), "adamw": set()}
    real_adamw, real_node = pipeline.adamw_step, tensor._node

    def spy(params, **kwargs):
        calls.append([(p.name, p.tensor.requires_grad) for p in params])
        grads = [p.grad.dtype for p in params]
        real_adamw(params, **kwargs)
        dtypes["adamw"].update((p.name, g, p.m.dtype, p.v.dtype)
                               for p, g in zip(params, grads))

    def node_spy(*args):
        out = real_node(*args)
        dtypes["nodes"].add((args[-1], out.dtype))
        return out

    monkeypatch.setattr(pipeline, "adamw_step", spy)
    monkeypatch.setattr(tensor, "_node", node_spy)
    pipe.train(cfg.data_dir)
    return pipe, calls, dtypes


def test_fresh_pipeline_is_frozen_and_edit_records_no_tape(pipe, monkeypatch):
    assert [p.name for p in params_of(pipe) if p.tensor.requires_grad] == []
    assert all(p.m is None and p.v is None for p in params_of(pipe))
    tape, real_node = [], tensor._node

    def counting_node(*args):
        out = real_node(*args)
        if out._parents:
            tape.append(args[-1])
        return out

    monkeypatch.setattr(tensor, "_node", counting_node)
    pipe.edit(Rng(4).uniform((3, 16, 16)), BOXES, "two circles",
              "three circles")
    assert tape == []


def test_train_flags_only_adapter_weights_while_it_runs(tmp_path, monkeypatch):
    pipe, calls, _ = trained_pipe(tmp_path, monkeypatch)
    assert len(calls) == pipe.config.train_steps
    for seen in calls:
        assert sorted(seen) == [(name, True) for name in ADAPTER_WEIGHTS]
    assert [p.name for p in params_of(pipe) if p.tensor.requires_grad] == []


def test_only_trained_weights_hold_adamw_moments(tmp_path, monkeypatch):
    pipe, _, _ = trained_pipe(tmp_path, monkeypatch)
    held = sorted(p.name for p in params_of(pipe)
                  if p.m is not None or p.v is not None)
    assert held == ADAPTER_WEIGHTS


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_train_runs_in_the_config_dtype(tmp_path, monkeypatch, dtype):
    # from the q-sample to the AdamW update: every op output, gradient
    # and moment has the parameters' dtype
    _, _, seen = trained_pipe(tmp_path, monkeypatch, dtype=dtype)
    ops = {op for op, _ in seen["nodes"]}
    assert {"mha", "matmul", "silu", "sum"} <= ops
    assert {dt for _, dt in seen["nodes"]} == {np.dtype(dtype)}
    assert sorted(name for name, *_ in seen["adamw"]) == ADAPTER_WEIGHTS
    for name, *arrays in seen["adamw"]:
        assert arrays == [np.dtype(dtype)] * 3, name


def test_condition_shapes_and_detached(pipe):
    img = Rng(1).uniform((3, 16, 16))
    b = pipe.condition(img, BOXES, "two squares", prompt="three circles")
    assert b.f.shape == (1, 16)
    assert b.f_t.shape == (2, 16)
    assert b.lam == 0.8
    assert not b.f.requires_grad and b.f._parents == ()


def test_condition_keeps_tape_through_flagged_param(pipe):
    img = Rng(1).uniform((3, 16, 16))
    p = pipe.ilfm.w_qi
    p.tensor.requires_grad = True
    b = pipe.condition(img, BOXES, "two squares")
    b.f.sum().backward()
    assert p.tensor.grad is not None
    assert np.abs(p.tensor.grad).sum() > 0


class TestNonFiniteWeights:
    """A NaN weight inside `condition` or a denoiser pass is reported by
    the op that first produces a non-finite value."""

    def plant(self, pipe, name):
        pipe.named_params()[name].data.reshape(-1)[0] = np.nan

    def condition(self, pipe):
        img = np.random.default_rng(0).uniform(size=(3, 16, 16))
        return pipe.condition(img, BOXES, "two squares", prompt="two circles")

    @pytest.mark.parametrize("name,op", [
        ("ilfm.w_qi", "matmul"), ("ilfm.norm_gain", "layer_norm"),
        ("txt.pos", "getitem"), ("cmam.fc_b", "add")])
    def test_in_condition(self, pipe, name, op):
        self.plant(pipe, name)
        with np.errstate(invalid="ignore"), \
                pytest.raises(NumericsError, match=f"produced by {op}$"):
            self.condition(pipe)

    @pytest.mark.parametrize("name,op", [
        ("den.mid.w1", "matmul"), ("den.pos", "add"),
        ("den.down4.cross.w_of", "matmul"), ("den.down4.cross.w_kf", "matmul")])
    def test_in_a_denoiser_pass(self, pipe, name, op):
        bundle = self.condition(pipe)
        self.plant(pipe, name)
        z = np.zeros((pipe.denoiser.n_tokens, pipe.denoiser.d_latent), np.float32)
        with np.errstate(invalid="ignore"), \
                pytest.raises(NumericsError, match=f"produced by {op}$"):
            pipe.denoiser.forward(z, 7, bundle)

    @pytest.mark.parametrize("name", ["den.down4.cross.w_vf", "den.down4.cross.w_of"])
    def test_in_a_discarded_adapter_branch(self, pipe, name):
        # With lam 0 the adapter branch's output never reaches the
        # prediction, which stays bit-equal to the clean one.
        bundle = dataclasses.replace(self.condition(pipe), lam=0.0)
        z = np.zeros((pipe.denoiser.n_tokens, pipe.denoiser.d_latent), np.float32)
        clean = pipe.denoiser.forward(z, 7, bundle).data
        self.plant(pipe, name)
        with np.errstate(invalid="ignore"):
            np.testing.assert_array_equal(pipe.denoiser.forward(z, 7, bundle).data,
                                          clean)


def test_condition_deterministic(pipe):
    img = Rng(2).uniform((3, 16, 16))
    a = pipe.condition(img, BOXES, "two squares")
    b = pipe.condition(img, BOXES, "two squares")
    np.testing.assert_array_equal(a.f.data, b.f.data)


def test_save_load_roundtrip(pipe, tmp_path):
    pipe.save(tmp_path / "ckpt")
    other = Pipeline(small_config(tmp_path, seed=99))
    other.load(tmp_path / "ckpt")
    mine = pipe.named_params()
    for name, p in other.named_params().items():
        np.testing.assert_array_equal(p.data, mine[name].data)


def test_param_attached_later_is_found_saved_and_loaded(pipe, tmp_path):
    # no hand-kept list has to learn about a new weight
    extra = Rng(8).normal((2, 3)).astype(np.float32)
    pipe.cmam.extra = Param("cmam.extra", extra)
    assert pipe.named_params()["cmam.extra"] is pipe.cmam.extra
    pipe.save(tmp_path / "ckpt")
    other = Pipeline(small_config(tmp_path, seed=99))
    other.cmam.extra = Param("cmam.extra", np.zeros((2, 3)))
    other.load(tmp_path / "ckpt")
    np.testing.assert_array_equal(other.cmam.extra.data, extra)


def test_load_missing_param(pipe, tmp_path):
    from layoutedit.qlt import save_checkpoint
    save_checkpoint(tmp_path / "bad", {"only": np.zeros(1, dtype=np.float32)})
    with pytest.raises(ValueError, match="missing parameter"):
        pipe.load(tmp_path / "bad")


class TestFromCheckpoint:
    """`Pipeline.from_checkpoint` allocates every parameter without drawing
    it, then loads: the same model as `Pipeline(cfg)` plus `load`."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("injection", ["down4", "all"])
    def test_equals_a_drawn_build_plus_load(self, tmp_path, monkeypatch, dtype,
                                            injection):
        cfg = small_config(tmp_path, dtype=dtype)
        cfg.injection.position = injection
        # a checkpoint whose every weight differs from the seed's draw
        Pipeline(dataclasses.replace(cfg, seed=41)).save(tmp_path / "ckpt")
        drawn = Pipeline(cfg)
        drawn.load(tmp_path / "ckpt")
        draws = []
        normal = Rng.normal
        monkeypatch.setattr(Rng, "normal",
                            lambda *a, **kw: (draws.append(1), normal(*a, **kw))[1])
        built = Pipeline.from_checkpoint(cfg, tmp_path / "ckpt")
        assert draws == []
        mine = drawn.named_params()
        assert list(built.named_params()) == list(mine)
        for name, p in built.named_params().items():
            assert p.data.dtype == mine[name].data.dtype == np.dtype(dtype)
            assert p.data.tobytes() == mine[name].data.tobytes(), name

    def test_missing_parameter_names_it(self, tmp_path):
        cfg = small_config(tmp_path)
        named = {n: p.data for n, p in Pipeline(cfg).named_params().items()
                 if n != "den.mid.w1"}
        save_checkpoint(tmp_path / "ckpt", named)
        with pytest.raises(QltError, match="missing parameter den.mid.w1"):
            Pipeline.from_checkpoint(cfg, tmp_path / "ckpt")


class TestInitIpWeights:
    @staticmethod
    def cross(pipe):
        return pipe.denoiser.blocks["down4"].cross

    def test_library_train_matches_cli_train(self, tmp_path):
        # the model is built with its adapter branch initialised, so no
        # caller has to initialise it before training
        cfg = small_config(tmp_path)
        generate_dataset(cfg.data_dir, seed=cfg.seed, counts=[1, 2],
                         image_size=cfg.image_size)
        cfg.save(tmp_path / "config.json")
        assert main(["train", "--config", str(tmp_path / "config.json")]) == 0
        pipe = Pipeline(cfg)
        np.testing.assert_array_equal(self.cross(pipe).w_of.data, 0.0)
        pipe.train(cfg.data_dir, log_path=tmp_path / "loss_log.jsonl")
        assert ((tmp_path / "loss_log.jsonl").read_bytes()
                == (tmp_path / "ckpt" / "loss_log.jsonl").read_bytes())

    def test_checkpoint_roundtrip(self, tmp_path):
        pipe = Pipeline(small_config(tmp_path))
        named = {p.name: Rng(3).spawn(p.name).normal(p.data.shape).astype(np.float32)
                 for p in self.cross(pipe).ip_params()}
        save_checkpoint(tmp_path / "ip", named)
        fresh = Pipeline(small_config(tmp_path))
        fresh.load_ip_weights(tmp_path / "ip")
        blk = self.cross(fresh)
        for name in ("w_kf", "w_vf", "w_of"):
            np.testing.assert_array_equal(
                getattr(blk, name).data,
                named[f"den.down4.cross.{name}"].astype(blk.w_kf.data.dtype))

    def test_missing_weight(self, tmp_path):
        save_checkpoint(tmp_path / "ip", {})
        with pytest.raises(QltError, match="missing"):
            Pipeline(small_config(tmp_path)).load_ip_weights(tmp_path / "ip")

    def test_shape_mismatch_names_weight(self, tmp_path):
        pipe = Pipeline(small_config(tmp_path))
        named = {p.name: np.zeros((2, 2), dtype=np.float32)
                 for p in self.cross(pipe).ip_params()}
        save_checkpoint(tmp_path / "ip", named)
        with pytest.raises(QltError, match="den.down4.cross.w_kf"):
            pipe.load_ip_weights(tmp_path / "ip")


def test_train_logs_and_updates_only_adapter(tmp_path):
    cfg = small_config(tmp_path)
    generate_dataset(cfg.data_dir, seed=cfg.seed, counts=[1, 2],
                     image_size=cfg.image_size)
    pipe = Pipeline(cfg)
    before = {n: p.data.copy() for n, p in pipe.named_params().items()}
    log = tmp_path / "loss.jsonl"
    losses = pipe.train(cfg.data_dir, log_path=log)
    assert len(losses) == cfg.train_steps
    assert len(log.read_text().splitlines()) == cfg.train_steps
    changed = {n for n, p in pipe.named_params().items()
               if not np.array_equal(p.data, before[n])}
    assert changed <= {"den.down4.cross.w_kf", "den.down4.cross.w_vf",
                       "den.down4.cross.w_of"}
    assert "den.down4.cross.w_of" in changed


def test_edit_shape_and_determinism(pipe):
    img = Rng(4).uniform((3, 16, 16))
    a = pipe.edit(img, BOXES, "two circles", "three circles")
    b = pipe.edit(img, BOXES, "two circles", "three circles")
    assert a.shape == (3, 16, 16)
    np.testing.assert_array_equal(a, b)
    c = pipe.edit(img, BOXES, "two circles", "three circles", seed=123)
    assert not np.array_equal(a, c)


def test_load_image_both_formats(tmp_path):
    from layoutedit.data import write_ppm
    from layoutedit.qlt import save_qlt
    img = Rng(5).uniform((3, 8, 8)).astype(np.float32)
    save_qlt(tmp_path / "a.qlt", img)
    write_ppm(tmp_path / "a.ppm", img)
    np.testing.assert_array_equal(load_image(tmp_path / "a.qlt"), img)
    np.testing.assert_allclose(load_image(tmp_path / "a.ppm"), img,
                               atol=0.5 / 255 + 1e-12)
