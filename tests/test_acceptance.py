"""Release acceptance suite: one test per ship criterion.

These are end-to-end checks with explicit tolerances; the training smoke
test runs a full 2100-step adapter fit and dominates the runtime.
"""
import inspect
import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from layoutedit import tensor
from layoutedit.adapter import (ConditionBundle, DualBranchAttention,
                                FuseParams, dual_branch_attention, fuse)
from layoutedit.cli import main
from layoutedit.cmam import CmamParams, cmam_forward
from layoutedit.config import RunConfig
from layoutedit.data import generate_dataset
from layoutedit.diffusion import DenoiserState, guided_eps, training_step
from layoutedit.gradcheck import REL_TOL, audit, projection_head
from layoutedit.ilfm import IlfmParams, ilfm_forward
from layoutedit.layout import (Box4, LayoutEmbedder, build_layout, patch_grid)
from layoutedit.metrics import (Detection, DetectionSet, average_precision,
                                iou, object_accuracy)
from layoutedit.pipeline import Pipeline
from layoutedit.qlt import load_qlt
from layoutedit.rng import Rng
from layoutedit.tensor import (Param, Tensor, add, concat, layer_norm, linear,
                               matmul, mha, mul, one_key, params_of, silu,
                               tsum)

from test_metrics import OA_CASES, oracle_ap, random_sets


# ======================================================================
# 1. Gradient suite: every differentiable op and every module forward,
#    central finite differences, relative error < 1e-4 in float64,
#    across 5 seeds, in under 2 minutes.
# ======================================================================
def _op_cases(r):
    """(name, param, scalar-fn) triples covering each differentiable op."""
    def P(name, shape, std=1.0):
        return Param(name, r.spawn(name).normal(shape, std=std))

    x = P("x", (3, 4))
    y = P("y", (3, 4))
    w = P("w", (4, 5))
    g = P("g", (4,))
    b = P("b", (4,))
    q = P("q", (5, 8))
    k = P("k", (3, 8))
    v = P("v", (3, 8))
    k1 = P("k1", (1, 8))
    v1 = P("v1", (1, 8))
    mask = np.array([True, False, True])
    builders = [
        ("add", x, lambda: add(x.tensor, y.tensor)),
        ("mul", y, lambda: mul(x.tensor, y.tensor)),
        ("silu", x, lambda: silu(x.tensor)),
        ("tsum", x, lambda: tsum(mul(x.tensor, x.tensor))),
        ("matmul", w, lambda: matmul(x.tensor, w.tensor)),
        ("linear", w, lambda: linear(x.tensor, w.tensor)),
        ("layer_norm", g, lambda: layer_norm(x.tensor, g.tensor, b.tensor)),
        ("concat", y, lambda: concat([x.tensor, y.tensor], axis=0)),
        ("mha", v, lambda: mha(q.tensor, k.tensor, v.tensor, 2)),
        ("mha_masked", q, lambda: mha(q.tensor, k.tensor, v.tensor, 2,
                                      mask=mask)),
        ("one_key", v1, lambda: one_key(k1.tensor, v1.tensor, 5, 2)),
    ]
    cases = []
    for name, param, build in builders:
        if name == "tsum":          # already a scalar
            cases.append((name, param, build))
            continue
        head = projection_head(r, f"head-{name}")
        cases.append((name, param,
                      lambda build=build, head=head: head(build())))
    return cases


def _module_cases(seed):
    """(tag, params-list, scalar-fn) per module forward."""
    r = Rng(seed).spawn("modules")
    cases = []

    ilfm = IlfmParams(8, 4, 4, 2, r.spawn("ilfm"))
    emb = LayoutEmbedder(4, 8, r.spawn("emb"))
    patches = Tensor(r.spawn("patches").normal((4, 8)))
    layout = build_layout([Box4(0.1, 0.1, 0.5, 0.6)], max_n=2)
    h1 = projection_head(r, "h1")
    cases.append(("ilfm", params_of(ilfm) + params_of(emb),
                  lambda: h1(ilfm_forward(ilfm, patches, (2, 2), layout,
                                          emb))))

    cmam = CmamParams(4, 8, 2, r.spawn("cmam"))
    text = Tensor(r.spawn("text").normal((3, 4)))
    cls = Tensor(r.spawn("cls").normal((8,)))
    h2 = projection_head(r, "h2")
    h3 = projection_head(r, "h3")

    def cmam_scalar():
        tp, ip = cmam_forward(cmam, text, cls)
        return h2(tp) + h3(ip)

    cases.append(("cmam", params_of(cmam), cmam_scalar))

    fp = FuseParams(8, 4, 2, r.spawn("fuse"))
    f_layout = Tensor(r.spawn("fl").normal((8,)))
    h4 = projection_head(r, "h4")
    cases.append(("fuse", params_of(fp),
                  lambda: h4(fuse(fp, cls, text, f_layout))))

    blk = DualBranchAttention("dba", 8, 4, 8, 2, r.spawn("dba"))
    blk.w_of.tensor.data = r.spawn("w_of").normal((8, 8), std=0.3)
    z = Tensor(r.spawn("z").normal((4, 8)))
    f_tok = Tensor(r.spawn("f").normal((1, 8)))
    h5 = projection_head(r, "h5")
    cases.append(("dual_branch", params_of(blk),
                  lambda: h5(dual_branch_attention(blk, z, text, f_tok, 0.8))))

    cfg = RunConfig(seed=seed, d_i=8, d_t=4, d_l=4, d_model=8, heads=2,
                    max_n=2, image_size=8, patch_size=8, t_train=10,
                    dtype="float64").validate()
    den = DenoiserState(cfg, r.spawn("den"))
    for p in den.ip_params():
        p.tensor.data = r.spawn(p.name).normal(p.data.shape, std=0.2)
    latent = Tensor(r.spawn("latent").normal((den.n_tokens, den.d_latent)))
    bundle = ConditionBundle(f_t=text, f=f_tok, lam=0.8)
    h6 = projection_head(r, "h6")
    cases.append(("denoiser", params_of(den),
                  lambda: h6(den.forward(latent, 3, bundle))))
    return cases


def test_criterion_1_gradient_suite():
    start = time.time()
    failures = []
    for seed in range(5):
        labels, groups = [], []
        for name, param, fn in _op_cases(Rng(seed).spawn("ops")):
            labels.append(name)
            groups.append((param, fn))
        for tag, params, fn in _module_cases(seed):
            labels += [f"{tag}:{p.name}" for p in params]
            groups += [(p, fn) for p in params]
        reports = audit(groups, Rng(seed).spawn("entries"), max_entries=2)
        failures += [(seed, label, rep.max_rel_err)
                     for label, rep in zip(labels, reports) if not rep.passed]
    elapsed = time.time() - start
    assert failures == [], f"gradient failures (tol {REL_TOL}): {failures}"
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"


def test_criterion_1_has_a_case_for_every_engine_op():
    # an op is a public function of `tensor` that makes a tape node
    ops = {name for name, fn in vars(tensor).items()
           if inspect.isfunction(fn) and fn.__module__ == tensor.__name__
           and not name.startswith("_") and "_node" in fn.__code__.co_names}
    cases = {name for name, _, _ in _op_cases(Rng(0).spawn("ops"))}
    assert "mha" in ops and ops <= cases, \
        f"ops without a gradient case: {sorted(ops - cases)}"


# ======================================================================
# 2. Attention-fusion properties: lambda=0 bit-equality with the text
#    branch, affinity in lambda within 1e-6, and guidance affinity in w
#    within 1e-5 at every checked timestep.
# ======================================================================
def test_criterion_2_fusion_and_guidance_affinity():
    r = Rng(21)
    blk = DualBranchAttention("acc2", 16, 8, 16, 2, r)
    blk.w_of.tensor.data = r.spawn("w_of").normal((16, 16), std=0.3)
    z = Tensor(r.spawn("z").normal((5, 16)))
    f_t = Tensor(r.spawn("ft").normal((3, 8)))
    f = Tensor(r.spawn("f").normal((1, 16)))

    text_only = linear(mha(linear(z, blk.w_q.tensor),
                           linear(f_t, blk.w_kt.tensor),
                           linear(f_t, blk.w_vt.tensor), blk.heads),
                       blk.w_ot.tensor).data
    np.testing.assert_array_equal(
        dual_branch_attention(blk, z, f_t, f, 0.0).data, text_only)

    z0 = dual_branch_attention(blk, z, f_t, f, 0.0).data
    z1 = dual_branch_attention(blk, z, f_t, f, 1.0).data
    z08 = dual_branch_attention(blk, z, f_t, f, 0.8).data
    np.testing.assert_allclose(z08, z0 + 0.8 * (z1 - z0), atol=1e-6, rtol=0)

    cfg = RunConfig(d_i=16, d_t=8, d_l=8, d_model=16, heads=2, image_size=16,
                    dtype="float64").validate()
    st = DenoiserState(cfg, Rng(22))
    bundle = ConditionBundle(f_t=Tensor(Rng(23).normal((3, 8))),
                             f=Tensor(Rng(24).normal((1, 16))), lam=0.8)
    x = Rng(25).normal((st.n_tokens, st.d_latent))
    for t in (0, 250, 500, 999):
        g0 = guided_eps(st, x, t, bundle, 0.0)
        g1 = guided_eps(st, x, t, bundle, 1.0)
        g5 = guided_eps(st, x, t, bundle, 5.0)
        np.testing.assert_allclose(g5, g0 + 5.0 * (g1 - g0), atol=1e-5,
                                   rtol=0)


# ======================================================================
# 3. ILFM structural invariants over 100 random layouts within 1e-6,
#    plus exact patch-grid tiling of the unit square.
# ======================================================================
def test_criterion_3_ilfm_invariants():
    rng = Rng(31)
    params = IlfmParams(16, 8, 16, 2, rng)
    emb = LayoutEmbedder(8, 16, rng.spawn("emb"))
    patches = Tensor(rng.spawn("patches").normal((16, 16)))

    def run(layout):
        return ilfm_forward(params, patches, (4, 4), layout, emb).data

    box_rng = rng.spawn("boxes")
    for trial in range(100):
        n = 1 + box_rng.randint(8)
        boxes = []
        for _ in range(n):
            x0 = box_rng.uniform() * 0.6
            y0 = box_rng.uniform() * 0.6
            boxes.append(Box4(x0, y0, x0 + 0.05 + box_rng.uniform() * 0.3,
                              y0 + 0.05 + box_rng.uniform() * 0.3))
        base = run(build_layout(boxes, max_n=n))
        padded = run(build_layout(boxes, max_n=16))
        np.testing.assert_allclose(padded, base, atol=1e-6, rtol=0,
                                   err_msg=f"padding, trial {trial}")
        perm = list(range(n))
        for i in range(n):
            j = i + box_rng.randint(n - i)
            perm[i], perm[j] = perm[j], perm[i]
        shuffled = run(build_layout([boxes[i] for i in perm], max_n=16))
        np.testing.assert_allclose(shuffled, padded, atol=1e-6, rtol=0,
                                   err_msg=f"permutation, trial {trial}")

    for h, w in ((4, 4), (2, 8), (3, 5)):
        grid = [Box4(*row) for row in patch_grid(h, w)]
        for idx, b in enumerate(grid):
            u, v = divmod(idx, w)
            assert b.as_tuple() == (u / h, v / w, (u + 1) / h, (v + 1) / w)
        assert sum(b.area() for b in grid) == pytest.approx(1.0, abs=1e-12)
        for i, a in enumerate(grid):
            for b in grid[i + 1:]:
                assert iou(a, b) == 0.0


# ======================================================================
# 4. Metrics vs brute-force oracles: AP within 1e-9 on 50 randomized
#    sets, the OA hand-case table, and exact IoU unit cases.
# ======================================================================
def test_criterion_4_metrics_oracle_equivalence():
    rng = Rng(41)
    checked = 0
    for trial in range(50):
        sets = random_sets(rng.spawn(f"t{trial}"), n_sets=3)
        if not any(s.detections for s in sets):
            continue
        got = average_precision(sets)
        want = oracle_ap(sets)
        assert abs(got - want) < 1e-9, f"trial {trial}: {got} vs {want}"
        checked += 1
    assert checked >= 45

    assert len(OA_CASES) >= 6
    for name, dets, gts, expected in OA_CASES:
        s = DetectionSet([Detection(b, sc) for b, sc in dets], gts)
        assert object_accuracy([s]) == (1.0 if expected else 0.0), name

    full = Box4(0, 0, 1, 1)
    assert iou(full, full) == 1.0
    assert iou(Box4(0, 0, 0.4, 0.4), Box4(0.5, 0.5, 1, 1)) == 0.0
    assert iou(full, Box4(0, 0, 0.5, 1)) == 0.5


# ======================================================================
# 5. Training smoke test: 2100 steps on 8 scenes halves the loss,
#    mutates only the adapter-branch weights, dropout frequency in
#    [0.04, 0.06] over 1e4 steps, total under 10 minutes.
# ======================================================================
@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("smoke")
    data_dir = root / "data"
    ckpt_dir = root / "ckpt"
    cfg = RunConfig(seed=11, data_dir=str(data_dir),
                    checkpoint_dir=str(ckpt_dir))
    generate_dataset(data_dir, seed=cfg.seed, counts=range(1, 9))
    pipe = Pipeline(cfg)
    before = {n: p.data.copy() for n, p in pipe.named_params().items()}
    start = time.time()
    losses = pipe.train(data_dir)
    elapsed = time.time() - start
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    pipe.save(ckpt_dir)
    return SimpleNamespace(cfg=cfg, pipe=pipe, before=before, losses=losses,
                           elapsed=elapsed, data_dir=data_dir,
                           ckpt_dir=ckpt_dir)


@pytest.mark.slow
def test_criterion_5_training_smoke(smoke_run):
    losses = smoke_run.losses
    assert len(losses) == 2100
    first = float(np.mean(losses[:100]))
    last = float(np.mean(losses[-100:]))
    assert last < 0.5 * first, f"no halving: first100={first} last100={last}"
    assert smoke_run.elapsed < 600.0, f"training took {smoke_run.elapsed:.0f}s"

    # w_kf stays put: softmax over the single adapter key is constant,
    # so the key projection never receives gradient
    updated = {"den.down4.cross.w_vf", "den.down4.cross.w_of"}
    ip_names = updated | {"den.down4.cross.w_kf"}
    for name, p in smoke_run.pipe.named_params().items():
        if name in updated:
            assert not np.array_equal(p.data, smoke_run.before[name]), name
        elif name not in ip_names:
            np.testing.assert_array_equal(p.data, smoke_run.before[name],
                                          err_msg=f"frozen {name} mutated")


def test_criterion_5_dropout_frequency():
    cfg = RunConfig(d_i=16, d_t=8, d_l=8, d_model=16, heads=2, image_size=16,
                    dtype="float64").validate()
    st = DenoiserState(cfg, Rng(51))
    bundle = ConditionBundle(f_t=Tensor(Rng(52).normal((1, 8))),
                             f=Tensor(Rng(53).normal((1, 16))), lam=0.8)
    zero = lambda x_t, t, cond: Tensor(np.zeros_like(np.asarray(x_t)))
    x0 = Rng(54).normal((st.n_tokens, st.d_latent))
    rng = Rng(55)
    dropped = 0
    for _ in range(10_000):
        res = training_step(st, [x0], bundle, rng, eps_model=zero)
        dropped += sum(res.dropped)
    freq = dropped / 10_000
    assert 0.04 <= freq <= 0.06, f"dropout frequency {freq}"


# ======================================================================
# 6. Conditioning sensitivity after the smoke run: 2-box vs 6-box
#    layouts differ by more than the frozen golden-run margin, and
#    lambda=0 severs layout dependence bit-exactly.
# ======================================================================
# one tenth of the mean absolute pixel difference observed on the
# golden run (seed 11, scenes 1-8, 2100 steps: 375.33)
SENSITIVITY_MARGIN = 37.5

BOXES_2 = [(0.1, 0.1, 0.35, 0.35), (0.6, 0.6, 0.9, 0.9)]
BOXES_6 = [(0.05, 0.05, 0.25, 0.25), (0.4, 0.05, 0.6, 0.25),
           (0.75, 0.05, 0.95, 0.25), (0.05, 0.55, 0.25, 0.75),
           (0.4, 0.55, 0.6, 0.75), (0.75, 0.55, 0.95, 0.75)]


@pytest.mark.slow
def test_criterion_6_conditioning_sensitivity(smoke_run):
    img = load_qlt(smoke_run.data_dir / "scene_003.qlt")
    out2 = smoke_run.pipe.edit(img, BOXES_2, "two circles", "two circles")
    out6 = smoke_run.pipe.edit(img, BOXES_6, "six circles", "six circles")
    diff = float(np.abs(out2 - out6).mean())
    assert diff > SENSITIVITY_MARGIN, f"mean abs diff {diff}"

    severed_cfg = RunConfig(seed=smoke_run.cfg.seed, lam=0.0,
                            data_dir=str(smoke_run.data_dir),
                            checkpoint_dir=str(smoke_run.ckpt_dir))
    severed = Pipeline(severed_cfg)
    severed.load(smoke_run.ckpt_dir)
    s2 = severed.edit(img, BOXES_2, "two circles", "shapes")
    s6 = severed.edit(img, BOXES_6, "six circles", "shapes")
    np.testing.assert_array_equal(s2, s6)


# ======================================================================
# 7. Determinism: repeated synth/train/edit runs with identical seeds
#    produce byte-identical artifacts.
# ======================================================================
def _dir_bytes(d):
    out = {}
    for f in sorted(d.iterdir()):
        if f.name == "manifest.json":
            # the manifest embeds the run's own output paths; those are
            # location-dependent, everything else must match
            doc = json.loads(f.read_text())
            for key in ("data_dir", "checkpoint_dir", "report_dir"):
                doc.get("config", {}).pop(key, None)
            out[f.name] = json.dumps(doc, sort_keys=True)
        else:
            out[f.name] = f.read_bytes()
    return out


def test_criterion_7_determinism(tmp_path):
    def cfg_file(tag):
        path = tmp_path / f"cfg_{tag}.json"
        RunConfig(seed=3, d_i=16, d_t=16, d_l=16, d_model=16, heads=2,
                  max_n=8, image_size=16, patch_size=8, sample_steps=3,
                  t_train=50, train_steps=25,
                  data_dir=str(tmp_path / tag / "data"),
                  checkpoint_dir=str(tmp_path / tag / "ckpt")).save(path)
        return str(path)

    for tag in ("a", "b"):
        cfg = cfg_file(tag)
        assert main(["synth", "--config", cfg, "--counts", "1-3"]) == 0
        assert main(["train", "--config", cfg]) == 0
        assert main(["edit", "--config", cfg,
                     "--image", str(tmp_path / tag / "data" / "scene_001.ppm"),
                     "--layout", str(tmp_path / tag / "data" / "scene_001.json"),
                     "--prompt", "two circles",
                     "--out", str(tmp_path / tag / "out" / "edit")]) == 0

    assert _dir_bytes(tmp_path / "a" / "data") == _dir_bytes(tmp_path / "b" / "data")
    assert _dir_bytes(tmp_path / "a" / "ckpt") == _dir_bytes(tmp_path / "b" / "ckpt")
    assert _dir_bytes(tmp_path / "a" / "out") == _dir_bytes(tmp_path / "b" / "out")


# ======================================================================
# 8. Golden forwards: frozen double-precision reference outputs
#    reproduce bit-exactly; single precision stays within 1e-6.
# ======================================================================
GOLDEN_ILFM = [
    "-0x1.817aad6954e46p-5", "-0x1.43745360e03a1p-2",
    "0x1.9cbf975aa65bcp-2", "-0x1.1da69716543afp-4",
    "0x1.0731920db6c11p-3", "-0x1.3d549a5e721f2p-3",
    "0x1.23966c33e39b3p-3", "-0x1.14eb29a5494eep-3",
    "-0x1.496686500afb5p-2", "0x1.0826ecdd9e35fp-5",
    "0x1.7610776771577p-3", "0x1.7e49e6518c51cp-4",
    "-0x1.2b251f7989cd3p-4", "-0x1.84f32d838857cp-4",
    "-0x1.62e8cbe043829p-3", "0x1.63c6c105c7498p-3",
]
# every enriched text row is identical (single image key), so one row
# is stored
GOLDEN_CMAM_T_ROW = [
    "-0x1.4a5a899a749a7p-4", "0x1.fd55fa97d0d3cp+0",
    "-0x1.4e3d0c2c6e1ccp-1", "-0x1.a1c9966fc7c2cp-1",
    "-0x1.a12c291d0cf88p-4", "-0x1.4319832c577fep-2",
    "0x1.38ae8bb6a7c27p-1", "-0x1.1309f79f80352p-2",
]
GOLDEN_CMAM_I = [
    "-0x1.1b8434315cc33p-3", "0x1.5189dacb45833p-2",
    "0x1.4af8dc2a53935p-2", "-0x1.19d7e26d21d6fp+0",
    "0x1.5383da02012e2p-5", "-0x1.c779033ade2aep-2",
    "-0x1.cf300dbfd034ep-4", "-0x1.bb8abc739fb15p-3",
    "0x1.62994fd4cfea4p+0", "0x1.1963a65b7ac20p-1",
    "-0x1.3d8448ed1e3ffp+0", "-0x1.c4f8f620170c3p-3",
    "0x1.717beb752b083p+0", "0x1.8711188865916p-1",
    "0x1.289fb12b8628cp+0", "0x1.7c25ccb9cef78p+0",
]
GOLDEN_BOXES = [Box4(0.1, 0.1, 0.4, 0.5), Box4(0.5, 0.2, 0.9, 0.6),
                Box4(0.2, 0.6, 0.7, 0.95)]


def _golden_ilfm(dtype):
    rng = Rng(5)
    params = IlfmParams(16, 8, 16, 2, rng)
    emb = LayoutEmbedder(8, 16, rng.spawn("emb"))
    patches = rng.spawn("patches").normal((16, 16))
    if dtype == np.float32:
        for p in params_of(params) + params_of(emb):
            p.set_dtype(np.float32)
        patches = patches.astype(np.float32)
    return ilfm_forward(params, Tensor(patches), (4, 4),
                        build_layout(GOLDEN_BOXES, 8), emb).data


def _golden_cmam(dtype):
    params = CmamParams(8, 16, 2, Rng(3))
    text = Rng(4).normal((5, 8))
    cls = Rng(5).normal((16,))
    if dtype == np.float32:
        for p in params_of(params):
            p.set_dtype(np.float32)
        text = text.astype(np.float32)
        cls = cls.astype(np.float32)
    t_prime, i_prime = cmam_forward(params, Tensor(text), Tensor(cls))
    return t_prime.data, i_prime.data


def test_criterion_8_golden_forwards():
    want_ilfm = np.array([float.fromhex(h) for h in GOLDEN_ILFM])
    want_t = np.array([float.fromhex(h) for h in GOLDEN_CMAM_T_ROW])
    want_i = np.array([float.fromhex(h) for h in GOLDEN_CMAM_I])

    np.testing.assert_array_equal(_golden_ilfm(np.float64), want_ilfm)
    t64, i64 = _golden_cmam(np.float64)
    np.testing.assert_array_equal(t64, np.tile(want_t, (5, 1)))
    np.testing.assert_array_equal(i64, want_i)

    np.testing.assert_allclose(_golden_ilfm(np.float32), want_ilfm,
                               atol=1e-6, rtol=0)
    t32, i32 = _golden_cmam(np.float32)
    np.testing.assert_allclose(t32, np.tile(want_t, (5, 1)), atol=1e-6,
                               rtol=0)
    np.testing.assert_allclose(i32, want_i, atol=1e-6, rtol=0)
