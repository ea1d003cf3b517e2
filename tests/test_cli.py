import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from layoutedit import tensor
from layoutedit.cli import main
from layoutedit.config import RunConfig
from layoutedit.data import caption_for, write_ppm
from layoutedit.diffusion import BLOCK_NAMES
from layoutedit.layout import load_layout_json
from layoutedit.pipeline import Pipeline, load_image
from layoutedit.qlt import load_checkpoint, load_qlt, save_checkpoint, save_qlt
from layoutedit.rng import Rng


def small_config_file(tmp_path, **kw):
    base = dict(seed=3, d_i=16, d_t=16, d_l=16, d_model=16, heads=2,
                max_n=8, image_size=16, patch_size=8, sample_steps=2,
                t_train=50, train_steps=4,
                data_dir=str(tmp_path / "data"),
                checkpoint_dir=str(tmp_path / "ckpt"))
    base.update(kw)
    path = tmp_path / "config.json"
    RunConfig(**base).save(path)
    return str(path)


def run_synth(tmp_path, cfg=None):
    cfg = cfg or small_config_file(tmp_path)
    assert main(["synth", "--config", cfg, "--counts", "1-3"]) == 0
    return cfg


class TestSynth:
    def test_writes_scenes(self, tmp_path, capsys):
        run_synth(tmp_path)
        assert (tmp_path / "data" / "scene_002.qlt").exists()
        assert "3 scenes" in capsys.readouterr().out

    def test_bad_count_exit_code(self, tmp_path, capsys):
        cfg = small_config_file(tmp_path)
        assert main(["synth", "--config", cfg, "--counts", "11"]) == 1
        assert "count" in capsys.readouterr().err

    def test_count_list_spec(self, tmp_path):
        cfg = small_config_file(tmp_path)
        assert main(["synth", "--config", cfg, "--counts", "2,5"]) == 0
        index = json.loads((tmp_path / "data" / "index.json").read_text())
        assert len(index["scenes"]) == 2

    @pytest.mark.parametrize("spec", ["5-2", "x", "", "1-x", "3,,4", "11",
                                      "0-3", "2,9-12"])
    def test_bad_counts_name_the_flag(self, tmp_path, capsys, spec):
        cfg = small_config_file(tmp_path)
        assert main(["synth", "--config", cfg, "--counts", spec]) == 1
        assert "--counts" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    def test_count_out_of_range_names_part_and_range(self, tmp_path, capsys):
        cfg = small_config_file(tmp_path)
        assert main(["synth", "--config", cfg, "--counts", "1-3,11"]) == 1
        err = capsys.readouterr().err
        assert "--counts: '11'" in err and "1..10" in err

    def test_bad_ql_seed_names_the_variable(self, tmp_path, capsys, monkeypatch):
        cfg = small_config_file(tmp_path)
        monkeypatch.setenv("QL_SEED", "abc")
        assert main(["synth", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "QL_SEED" in err and "'abc'" in err

    @pytest.mark.parametrize("text,field", [
        ("[1]", "JSON object"), ("null", "JSON object"),
        ('"x"', "JSON object"), ("{not json", "invalid JSON"),
        ('{"bogus": 1}', "bogus"), ('{"heads": "8"}', "heads must be int"),
        ('{"injection": {"ip_scale": "1"}}', "injection.ip_scale"),
    ])
    def test_bad_config_file_names_it(self, tmp_path, capsys, text, field):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert main(["synth", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and field in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["lam", "cfg_w", "lr", "ip_scale"])
    def test_non_finite_float_names_the_field(self, tmp_path, capsys, field,
                                              value):
        command = "edit" if field == "cfg_w" else "train"
        flag = "--" + field.replace("_", "-")
        argv = [command, "--config", small_config_file(tmp_path), f"{flag}={value}"]
        if command == "edit":
            argv += ["--image", "i.ppm", "--layout", "l.json"]
        assert main(argv) == 1
        assert f"{field} must be finite, got {value}" in capsys.readouterr().err

        # the same value read from a --config file (json writes NaN, Infinity)
        doc = {field: float(value)}
        if field == "ip_scale":
            doc = {"injection": doc}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["synth", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and f"{field} must be finite" in err

    @pytest.mark.parametrize("doc,message", [
        ({"d_model": 9, "heads": 3, "d_i": 9, "d_t": 9, "d_l": 9},
         "d_model must be even, got 9"),
        ({"image_size": 21, "patch_size": 7}, "image_size must be even, got 21"),
        ({"t_train": 0}, "t_train must be positive"),
    ])
    def test_bad_extent_in_config_file_names_it(self, tmp_path, capsys, doc,
                                                 message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["train", "--config", str(path)]) == 1
        assert f"error: {path}: {message}" in capsys.readouterr().err

    def test_bad_flag_value_does_not_blame_the_config_file(self, tmp_path, capsys):
        cfg = small_config_file(tmp_path)
        assert main(["train", "--config", cfg, "--train-steps", "0"]) == 1
        assert "error: train_steps must be positive" in capsys.readouterr().err

    def test_synth_below_16_px_names_image_size(self, tmp_path, capsys):
        cfg = small_config_file(tmp_path, image_size=8)
        assert main(["synth", "--config", cfg]) == 1
        assert ("image_size must be at least 16 px" in capsys.readouterr().err)

    @pytest.mark.parametrize("argv,flag", [
        (["synth", "--heads", "4"], "--heads"),
        (["train", "--injection", "down9"], "--injection"),
        (["edit", "--layout", "l.json"], "--image"),
        (["edit", "--image", "i.ppm", "--layout", "l.json", "--heads", "4"],
         "--heads"),
        (["dump-attn", "--image", "i.ppm", "--layout", "l.json", "--site",
          "down4", "--injection", "mid"], "--injection"),
    ])
    def test_usage_error_exits_1(self, capsys, argv, flag):
        assert main(argv) == 1
        assert flag in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["edit", "--help"])
        assert info.value.code == 0
        assert "--checkpoint-dir" in capsys.readouterr().out

    def test_ql_seed_env_changes_output(self, tmp_path, monkeypatch):
        cfg = small_config_file(tmp_path)
        run_synth(tmp_path, cfg)
        base = (tmp_path / "data" / "scene_000.qlt").read_bytes()
        monkeypatch.setenv("QL_SEED", "99")
        run_synth(tmp_path, cfg)
        assert (tmp_path / "data" / "scene_000.qlt").read_bytes() != base


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    cfg = run_synth(root)
    assert main(["train", "--config", cfg]) == 0
    return root, cfg


class TestTrainAndEdit:
    def test_train_then_edit(self, tmp_path, capsys):
        cfg = run_synth(tmp_path)
        assert main(["train", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "ip init: random" in out
        assert (tmp_path / "ckpt" / "manifest.json").exists()
        assert (tmp_path / "ckpt" / "loss_log.jsonl").exists()

        out_base = tmp_path / "edited" / "result"
        rc = main(["edit", "--config", cfg,
                   "--image", str(tmp_path / "data" / "scene_001.ppm"),
                   "--layout", str(tmp_path / "data" / "scene_001.json"),
                   "--prompt", "two circles",
                   "--out", str(out_base)])
        assert rc == 0
        img = load_qlt(out_base.with_suffix(".qlt"))
        assert img.shape == (3, 16, 16)
        assert out_base.with_suffix(".ppm").exists()

    @pytest.mark.parametrize("text,field", [
        ("[]", "JSON object"), ('{"scenes": 3}', "'scenes'"),
        ("{}", "'scenes'"), ('{"scenes": []}', "'scenes'"),
        ('{"scenes": [1]}', "'scenes'"), ("{not json", "invalid JSON"),
    ])
    def test_bad_index_names_it(self, tmp_path, capsys, text, field):
        cfg = run_synth(tmp_path)
        index = tmp_path / "data" / "index.json"
        index.write_text(text)
        assert main(["train", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert str(index) in err and field in err

    def test_train_scene_category_names_the_file(self, tmp_path, capsys):
        cfg = run_synth(tmp_path)
        scene = tmp_path / "data" / "scene_001.json"
        doc = json.loads(scene.read_text())
        scene.write_text(json.dumps({**doc, "category": "triangle"}))
        assert main(["train", "--config", cfg]) == 1
        assert (f"{scene}: category 'triangle' is not in the vocabulary"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("name,blob,field", [
        ("short.qlt", b"QLT1", "header"),
        ("short.ppm", b"P6\n16 16\n255\n" + bytes(10), "payload"),
        ("deep.ppm", b"P6\n16 16\n65535\n" + bytes(16 * 16 * 6), "maxval"),
    ])
    def test_edit_bad_image_names_file(self, trained, tmp_path, capsys,
                                       name, blob, field):
        root, cfg = trained
        (tmp_path / name).write_bytes(blob)
        rc = main(["edit", "--config", cfg, "--image", str(tmp_path / name),
                   "--layout", str(root / "data" / "scene_000.json"),
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert name in err and field in err

    @pytest.mark.parametrize("command", ["edit", "dump-attn"])
    @pytest.mark.parametrize("name,image", [("big.ppm", np.zeros((3, 64, 64))),
                                            ("gray.qlt", np.zeros((16, 16)))])
    def test_image_of_the_wrong_shape_names_the_flag(self, trained, tmp_path,
                                                     capsys, command, name,
                                                     image):
        root, cfg = trained
        path = tmp_path / name
        (write_ppm if name.endswith(".ppm") else save_qlt)(path, image)
        argv = [command, "--config", cfg, "--image", str(path),
                "--layout", str(root / "data" / "scene_000.json"),
                "--out", str(tmp_path / "x")]
        assert main(argv + (["--site", "down4"] if command == "dump-attn"
                            else [])) == 1
        assert (f"--image {path}: shape {image.shape} does not match the "
                f"expected (3, 16, 16)") in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("doc,field", [
        ([], "object"),
        ({"count": 1, "category": "circle"}, "'boxes'"),
        ({"boxes": [[0.1, 0.1, 0.2]], "count": 1, "category": "circle"},
         "boxes[0]"),
        ({"boxes": [[0.1, 0.1, 0.5, 0.5]], "category": "circle"}, "'count'"),
        ({"boxes": [[0.1, 0.1, 0.5, 0.5]], "count": 1}, "'category'"),
        ({"boxes": [], "count": 0, "category": "circle"}, "count"),
        ({"boxes": [[0.08 * i, 0.1, 0.08 * i + 0.05, 0.2] for i in range(11)],
          "count": 11, "category": "circle"}, "count"),
        ({"boxes": [[0.1, 0.1, 0.5, 0.5]], "count": True, "category": "circle"},
         "'count' must be an integer, got True"),
        ({"boxes": [[0.1, 0.1, 0.5, 0.5]], "count": 1, "category": 5},
         "category 5"),
    ])
    def test_edit_bad_layout_names_file(self, trained, tmp_path, capsys,
                                        doc, field):
        root, cfg = trained
        (tmp_path / "layout.json").write_text(json.dumps(doc))
        rc = main(["edit", "--config", cfg,
                   "--image", str(root / "data" / "scene_000.ppm"),
                   "--layout", str(tmp_path / "layout.json"),
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "layout.json" in err and field in err

    @pytest.mark.parametrize("command", ["edit", "dump-attn"])
    @pytest.mark.parametrize("prompt,category,message", [
        pytest.param("three cats", "circle", "--prompt: unknown word 'cats'",
                     id="unknown-word"),
        pytest.param(" ".join(["circle"] * 17), "circle",
                     "--prompt: 17 words exceed the limit of 16", id="17-words"),
        pytest.param("", "triangle",
                     "layout.json: category 'triangle' is not in the vocabulary",
                     id="category"),
    ])
    def test_vocabulary_errors_name_their_source(self, trained, tmp_path, capsys,
                                                 command, prompt, category,
                                                 message):
        root, cfg = trained
        layout = tmp_path / "layout.json"
        layout.write_text(json.dumps({"boxes": [[0.1, 0.1, 0.5, 0.5]],
                                      "count": 1, "category": category}))
        argv = [command, "--config", cfg, "--prompt", prompt,
                "--image", str(root / "data" / "scene_000.ppm"),
                "--layout", str(layout), "--out", str(tmp_path / "x")]
        assert main(argv + (["--site", "down4"] if command == "dump-attn"
                            else [])) == 1
        err = capsys.readouterr().err
        assert message in err and '"' not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flag", ["--image", "--layout"])
    def test_edit_directory_path_names_it(self, trained, tmp_path, capsys, flag):
        root, cfg = trained
        paths = {"--image": str(root / "data" / "scene_000.ppm"),
                 "--layout": str(root / "data" / "scene_000.json")}
        paths[flag] = str(tmp_path)
        rc = main(["edit", "--config", cfg, "--image", paths["--image"],
                   "--layout", paths["--layout"], "--out", str(tmp_path / "x")])
        assert rc == 1
        assert str(tmp_path) in capsys.readouterr().err

    def test_edit_builds_the_model_from_the_checkpoint(self, tmp_path):
        cfg = run_synth(tmp_path)
        assert main(["train", "--config", cfg,
                     "--heads", "4", "--injection", "mid"]) == 0
        scene = tmp_path / "data" / "scene_001"
        out_base = tmp_path / "edited"
        # No model flags: heads, injection and widths come from the manifest.
        assert main(["edit", "--checkpoint-dir", str(tmp_path / "ckpt"),
                     "--seed", "3", "--steps", "2",
                     "--image", str(scene.with_suffix(".ppm")),
                     "--layout", str(scene.with_suffix(".json")),
                     "--prompt", "two circles", "--out", str(out_base)]) == 0

        trained_cfg = RunConfig.load(cfg)
        trained_cfg.heads = 4
        trained_cfg.injection.position = "mid"
        pipe = Pipeline(trained_cfg)
        pipe.load(tmp_path / "ckpt")
        doc = load_layout_json(scene.with_suffix(".json"))
        want = pipe.edit(load_image(scene.with_suffix(".ppm")), doc["boxes"],
                         caption_for(doc["count"], doc["category"]),
                         "two circles")
        np.testing.assert_array_equal(load_qlt(out_base.with_suffix(".qlt")),
                                      want.astype(np.float32))

    def test_one_cpu_and_two_write_the_same_bytes(self, tmp_path, monkeypatch):
        # default sizes: the 256-token self attentions split their heads
        data = str(tmp_path / "data")
        assert main(["synth", "--data-dir", data, "--counts", "1-3"]) == 0
        scene = tmp_path / "data" / "scene_001"
        outputs = []
        for cpus in (1, 2):
            monkeypatch.setattr(tensor, "_worker", None)
            monkeypatch.setattr(tensor, "_cpu_count", lambda cpus=cpus: cpus)
            run = tmp_path / "run"      # the manifest records the paths
            shutil.rmtree(run, ignore_errors=True)
            assert main(["train", "--data-dir", data, "--train-steps", "3",
                         "--checkpoint-dir", str(run / "ckpt")]) == 0
            assert main(["edit", "--checkpoint-dir", str(run / "ckpt"),
                         "--steps", "3", "--image", str(scene.with_suffix(".ppm")),
                         "--layout", str(scene.with_suffix(".json")),
                         "--prompt", "two circles", "--out", str(run / "out")]) == 0
            assert (tensor._worker is not None) == (cpus == 2)
            outputs.append({p.relative_to(run): p.read_bytes()
                            for p in sorted(run.rglob("*")) if p.is_file()})
        assert len(outputs[0]) > 3 and outputs[0] == outputs[1]

    def test_edit_ignores_adapter_arrays_at_other_sites(self, trained, tmp_path):
        # A checkpoint written when every block carried an adapter branch
        # has 24 more arrays; they are not read, and the edit is the same.
        root, _ = trained
        arrays, manifest = load_checkpoint(root / "ckpt")
        extra = {f"den.{site}.cross.{w}": Rng(6).spawn(f"{site}.{w}").normal(
                     arrays[f"den.down4.cross.{w}"].shape)
                 for site in BLOCK_NAMES if site != "down4"
                 for w in ("w_kf", "w_vf", "w_of")}
        assert len(extra) == 24
        save_checkpoint(tmp_path / "old", {**arrays, **extra},
                        extra={"config": manifest["config"]})
        outs = []
        for ckpt in (root / "ckpt", tmp_path / "old"):
            out = tmp_path / ckpt.name / "edit"
            assert main(["edit", "--checkpoint-dir", str(ckpt), "--steps", "3",
                         "--image", str(root / "data" / "scene_001.ppm"),
                         "--layout", str(root / "data" / "scene_001.json"),
                         "--prompt", "two circles", "--out", str(out)]) == 0
            outs.append([out.with_suffix(s).read_bytes() for s in (".qlt", ".ppm")])
        assert outs[0] == outs[1]

    def test_edit_manifest_site_without_adapter_arrays(self, trained, tmp_path,
                                                       capsys):
        root, _ = trained
        ckpt = tmp_path / "ckpt"
        shutil.copytree(root / "ckpt", ckpt)
        mpath = ckpt / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["config"]["injection"]["position"] = "mid"
        mpath.write_text(json.dumps(manifest))
        rc = main(["edit", "--checkpoint-dir", str(ckpt),
                   "--image", str(root / "data" / "scene_000.ppm"),
                   "--layout", str(root / "data" / "scene_000.json"),
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        assert ("checkpoint missing parameter den.mid.cross.w_kf"
                in capsys.readouterr().err)
        assert not (tmp_path / "x.qlt").exists()

    def test_edit_config_conflicting_with_checkpoint_names_field(
            self, trained, tmp_path, capsys):
        root, _ = trained
        other = small_config_file(tmp_path, heads=4,
                                  checkpoint_dir=str(root / "ckpt"))
        rc = main(["edit", "--config", other,
                   "--image", str(root / "data" / "scene_000.ppm"),
                   "--layout", str(root / "data" / "scene_000.json"),
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "heads" in err and "manifest.json" in err and "config.json" in err

    def test_edit_manifest_without_config_names_manifest(self, trained, tmp_path,
                                                         capsys):
        root, cfg = trained
        ckpt = tmp_path / "ckpt"
        shutil.copytree(root / "ckpt", ckpt)
        mpath = ckpt / "manifest.json"
        manifest = json.loads(mpath.read_text())
        del manifest["config"]
        mpath.write_text(json.dumps(manifest))
        rc = main(["edit", "--checkpoint-dir", str(ckpt),
                   "--image", str(root / "data" / "scene_000.ppm"),
                   "--layout", str(root / "data" / "scene_000.json"),
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "manifest.json" in err and "'config'" in err

    def test_edit_manifest_non_finite_float_names_manifest(self, trained,
                                                           tmp_path, capsys):
        root, _ = trained
        ckpt = tmp_path / "ckpt"
        shutil.copytree(root / "ckpt", ckpt)
        mpath = ckpt / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["config"]["lam"] = float("nan")
        mpath.write_text(json.dumps(manifest))
        rc = main(["edit", "--checkpoint-dir", str(ckpt),
                   "--image", str(root / "data" / "scene_000.ppm"),
                   "--layout", str(root / "data" / "scene_000.json"),
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "manifest.json" in err and "lam must be finite, got nan" in err

    def test_edit_manifest_outside_directory_names_manifest(self, trained, tmp_path,
                                                           capsys):
        root, cfg = trained
        ckpt = tmp_path / "ckpt"
        shutil.copytree(root / "ckpt", ckpt)
        mpath = ckpt / "manifest.json"
        manifest = json.loads(mpath.read_text())
        entry = next(iter(manifest["tensors"].values()))
        entry["file"] = "../" + entry["file"]
        mpath.write_text(json.dumps(manifest))
        rc = main(["edit", "--config", cfg, "--checkpoint-dir", str(ckpt),
                   "--image", str(root / "data" / "scene_000.ppm"),
                   "--layout", str(root / "data" / "scene_000.json"),
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "manifest.json" in err and "outside" in err

    @pytest.mark.parametrize("param", ["den.mid.w1", "ilfm.w_qi"])
    def test_edit_non_finite_weight_exits_2_naming_the_op(self, trained, tmp_path,
                                                          capsys, param):
        root, _ = trained
        ckpt = tmp_path / "ckpt"
        shutil.copytree(root / "ckpt", ckpt)
        qlt = ckpt / json.loads((ckpt / "manifest.json").read_text())[
            "tensors"][param]["file"]
        arr = load_qlt(qlt)
        arr.reshape(-1)[0] = np.nan
        save_qlt(qlt, arr)
        with np.errstate(invalid="ignore"):
            rc = main(["edit", "--checkpoint-dir", str(ckpt),
                       "--image", str(root / "data" / "scene_000.ppm"),
                       "--layout", str(root / "data" / "scene_000.json"),
                       "--out", str(tmp_path / "x")])
        assert rc == 2
        assert ("numerical failure: non-finite values produced by matmul"
                in capsys.readouterr().err)
        assert not (tmp_path / "x.qlt").exists()

    def test_edit_steps_above_t_train_names_both(self, trained, tmp_path, capsys):
        root, cfg = trained
        rc = main(["edit", "--config", cfg, "--steps", "51",
                   "--image", str(root / "data" / "scene_000.ppm"),
                   "--layout", str(root / "data" / "scene_000.json"),
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--steps/sample_steps is 51" in err and "t_train of 50" in err
        assert not (tmp_path / "x.qlt").exists()

    def test_edit_without_checkpoint_fails(self, tmp_path, capsys):
        cfg = run_synth(tmp_path)
        rc = main(["edit", "--config", cfg,
                   "--image", str(tmp_path / "data" / "scene_000.ppm"),
                   "--layout", str(tmp_path / "data" / "scene_000.json"),
                   "--out", str(tmp_path / "x")])
        assert rc == 1


class TestEval:
    def write_gt(self, gt_dir, name, boxes):
        gt_dir.mkdir(parents=True, exist_ok=True)
        doc = {"image": f"{name}.qlt", "width": 16, "height": 16,
               "category": "circle", "count": len(boxes),
               "boxes": [list(b) for b in boxes]}
        (gt_dir / f"{name}.json").write_text(json.dumps(doc))

    def write_pred(self, pred_dir, name, boxes, scores):
        pred_dir.mkdir(parents=True, exist_ok=True)
        doc = {"image": f"{name}.qlt",
               "detections": [{"box": list(b), "score": s}
                              for b, s in zip(boxes, scores)]}
        (pred_dir / f"{name}.json").write_text(json.dumps(doc))

    def test_oracle_predictions_score_perfectly(self, tmp_path, capsys):
        boxes = [(0.1, 0.1, 0.4, 0.4), (0.5, 0.5, 0.9, 0.9)]
        self.write_gt(tmp_path / "gt", "a", boxes)
        self.write_pred(tmp_path / "pred", "a", boxes, [0.9, 0.8])
        out = tmp_path / "report.json"
        rc = main(["eval", "--pred-dir", str(tmp_path / "pred"),
                   "--gt-dir", str(tmp_path / "gt"), "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["OA"] == 1.0 and rep["AP"] == 1.0

    def test_missing_prediction_counts_as_empty(self, tmp_path):
        self.write_gt(tmp_path / "gt", "a", [(0.1, 0.1, 0.4, 0.4)])
        (tmp_path / "pred").mkdir()
        out = tmp_path / "report.json"
        rc = main(["eval", "--pred-dir", str(tmp_path / "pred"),
                   "--gt-dir", str(tmp_path / "gt"), "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["OA"] == 0.0 and rep["AP"] == 0.0
        assert rep["per_image"][0]["fn"] == 1

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_pred_dir_that_is_not_a_directory_names_it(self, tmp_path, capsys,
                                                       kind):
        self.write_gt(tmp_path / "gt", "a", [(0.1, 0.1, 0.4, 0.4)])
        pred = tmp_path / "pred"
        if kind == "file":
            pred.write_text("{}")
        out = tmp_path / "report.json"
        rc = main(["eval", "--pred-dir", str(pred),
                   "--gt-dir", str(tmp_path / "gt"), "--out", str(out)])
        assert rc == 1
        assert f"--pred-dir: {pred} is not" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_gt_dir_that_is_not_a_directory_names_it(self, tmp_path, capsys,
                                                     kind):
        (tmp_path / "pred").mkdir()
        gt = tmp_path / "gt"
        if kind == "file":
            gt.write_text("{}")
        out = tmp_path / "report.json"
        rc = main(["eval", "--pred-dir", str(tmp_path / "pred"),
                   "--gt-dir", str(gt), "--out", str(out)])
        assert rc == 1
        assert f"--gt-dir: {gt} is not" in capsys.readouterr().err
        assert not out.exists()

    def test_stray_prediction_rejected(self, tmp_path, capsys):
        self.write_gt(tmp_path / "gt", "a", [(0.1, 0.1, 0.4, 0.4)])
        self.write_pred(tmp_path / "pred", "b", [(0.1, 0.1, 0.4, 0.4)], [0.9])
        rc = main(["eval", "--pred-dir", str(tmp_path / "pred"),
                   "--gt-dir", str(tmp_path / "gt")])
        assert rc == 1
        assert "b.json" in capsys.readouterr().err

    @pytest.mark.parametrize("score", [float("nan"), float("inf")])
    def test_non_finite_score_rejected(self, tmp_path, capsys, score):
        self.write_gt(tmp_path / "gt", "a", [(0.1, 0.1, 0.4, 0.4)])
        self.write_pred(tmp_path / "pred", "a", [(0.1, 0.1, 0.4, 0.4)], [score])
        rc = main(["eval", "--pred-dir", str(tmp_path / "pred"),
                   "--gt-dir", str(tmp_path / "gt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "a.json" in err and "score" in err

    GOOD_GT = {"image": "a.qlt", "category": "circle", "count": 1,
               "boxes": [[0.1, 0.1, 0.4, 0.4]]}
    GOOD_PRED = {"detections": [{"box": [0.1, 0.1, 0.4, 0.4], "score": 0.9}]}

    @pytest.mark.parametrize("gt,pred,bad,field", [
        (dict(GOOD_GT, boxes=[[0.1, 0.1, 0.4]]), GOOD_PRED, "gt", "boxes[0]"),
        ([], GOOD_PRED, "gt", "object"),
        (GOOD_GT, {"detections": [{"box": [0.1, 0.1], "score": 0.9}]},
         "pred", "detections[0]"),
        (GOOD_GT, [1], "pred", "object"),
    ])
    def test_malformed_input_names_file(self, tmp_path, capsys, gt, pred,
                                        bad, field):
        for sub, doc in (("gt", gt), ("pred", pred)):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "a.json").write_text(json.dumps(doc))
        rc = main(["eval", "--pred-dir", str(tmp_path / "pred"),
                   "--gt-dir", str(tmp_path / "gt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(tmp_path / bad / "a.json") in err and field in err

    @pytest.mark.parametrize("bad", ["gt", "pred"])
    def test_invalid_json_names_file(self, tmp_path, capsys, bad):
        self.write_gt(tmp_path / "gt", "a", [(0.1, 0.1, 0.4, 0.4)])
        self.write_pred(tmp_path / "pred", "a", [(0.1, 0.1, 0.4, 0.4)], [0.9])
        (tmp_path / bad / "a.json").write_text("{not json")
        rc = main(["eval", "--pred-dir", str(tmp_path / "pred"),
                   "--gt-dir", str(tmp_path / "gt")])
        assert rc == 1
        assert f"{tmp_path / bad / 'a.json'}: invalid JSON" in capsys.readouterr().err

    def test_dataset_index_is_not_an_image(self, tmp_path, capsys):
        cfg = small_config_file(tmp_path)
        assert main(["synth", "--config", cfg, "--counts", "1-10"]) == 0
        (tmp_path / "pred").mkdir()
        out = tmp_path / "report.json"
        rc = main(["eval", "--pred-dir", str(tmp_path / "pred"),
                   "--gt-dir", str(tmp_path / "data"), "--out", str(out)])
        assert rc == 0
        assert "OA=0.0000 AP=0.0000 (10 images)" in capsys.readouterr().out
        images = [r["image"] for r in json.loads(out.read_text())["per_image"]]
        assert "index" not in images and len(images) == 10

    def test_empty_gt_dir_rejected(self, tmp_path):
        (tmp_path / "gt").mkdir()
        (tmp_path / "pred").mkdir()
        rc = main(["eval", "--pred-dir", str(tmp_path / "pred"),
                   "--gt-dir", str(tmp_path / "gt")])
        assert rc == 1


class TestGradcheck:
    def test_passes(self, capsys):
        assert main(["gradcheck", "--entries", "2"]) == 0
        *table, summary = capsys.readouterr().out.splitlines()
        rows = {line.split()[0]: line.split()[-1] for line in table[1:]}
        assert len(rows) == 158 and "FAIL" not in rows.values()
        assert summary.startswith(
            "158 groups checked, 0 failed, 32 with an all-zero gradient")
        assert sum(r == "zero" for r in rows.values()) == 32
        # only the injection site has an adapter branch; there w_of starts
        # at zero, so only w_of gets a gradient
        assert [r for r in rows if r.endswith(("w_kf", "w_vf", "w_of"))] == [
            "den.down4.cross.w_kf", "den.down4.cross.w_vf", "den.down4.cross.w_of"]
        assert rows["den.down4.cross.w_vf"] == "zero"
        assert rows["den.down4.cross.w_of"] == "pass"
        # only the prompt's rows get a gradient, but the group is not zero
        assert rows["txt.pos"] == "pass"

    @pytest.mark.parametrize("entries", ["0", "-1"])
    def test_entries_below_one_rejected(self, capsys, entries):
        assert main(["gradcheck", "--entries", entries]) == 1
        assert (f"--entries must be at least 1, got {entries}"
                in capsys.readouterr().err)

    def test_corrupt_hook_fails(self, capsys):
        rc = main(["gradcheck", "--entries", "2",
                   "--corrupt", "ilfm.w_qi"])
        assert rc == 2
        assert "FAIL" in capsys.readouterr().out


class TestDumpAttention:
    def test_exports_both_branches(self, tmp_path, capsys):
        cfg = run_synth(tmp_path)
        out_dir = tmp_path / "attn"
        rc = main(["dump-attn", "--config", cfg,
                   "--image", str(tmp_path / "data" / "scene_000.ppm"),
                   "--layout", str(tmp_path / "data" / "scene_000.json"),
                   "--site", "down4", "--out", str(out_dir)])
        assert rc == 0
        text = load_qlt(out_dir / "down4_text.qlt")
        adapter = load_qlt(out_dir / "down4_adapter.qlt")
        # 2 heads, 64 latent tokens; 1 prompt token and 1 adapter token
        assert text.shape == (2, 64, 1)
        assert adapter.shape == (2, 64, 1)
        np.testing.assert_allclose(text.sum(axis=-1), 1.0, atol=1e-6)
        np.testing.assert_allclose(adapter.sum(axis=-1), 1.0, atol=1e-6)

    def test_site_without_adapter_writes_the_text_map_only(self, trained,
                                                          tmp_path, capsys):
        root, _ = trained
        out_dir = tmp_path / "attn"
        rc = main(["dump-attn", "--checkpoint-dir", str(root / "ckpt"),
                   "--image", str(root / "data" / "scene_000.ppm"),
                   "--layout", str(root / "data" / "scene_000.json"),
                   "--site", "down1", "--out", str(out_dir)])
        assert rc == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["down1_text.qlt"]
        assert capsys.readouterr().out.count("wrote") == 1
        assert load_qlt(out_dir / "down1_text.qlt").shape == (2, 64, 1)

    def test_builds_the_model_from_a_checkpoint(self, trained, tmp_path):
        root, _ = trained
        out_dir = tmp_path / "attn"
        rc = main(["dump-attn", "--checkpoint-dir", str(root / "ckpt"),
                   "--image", str(root / "data" / "scene_000.ppm"),
                   "--layout", str(root / "data" / "scene_000.json"),
                   "--site", "down4", "--out", str(out_dir)])
        assert rc == 0
        # the checkpoint's 2 heads, not the default 8
        assert load_qlt(out_dir / "down4_text.qlt").shape == (2, 64, 1)

    @pytest.mark.parametrize("t", ["50", "99999", "-5"])
    def test_timestep_outside_the_checkpoint_range(self, trained, tmp_path,
                                                   capsys, t):
        root, _ = trained
        rc = main(["dump-attn", "--checkpoint-dir", str(root / "ckpt"),
                   "--image", str(root / "data" / "scene_000.ppm"),
                   "--layout", str(root / "data" / "scene_000.json"),
                   "--site", "down4", "--t", t, "--out", str(tmp_path / "attn")])
        assert rc == 1
        assert (f"--t must be in [0, 50), the checkpoint's timesteps, got {t}"
                in capsys.readouterr().err)
        assert not (tmp_path / "attn").exists()

    def test_unknown_site(self, tmp_path, capsys):
        cfg = run_synth(tmp_path)
        rc = main(["dump-attn", "--config", cfg,
                   "--image", str(tmp_path / "data" / "scene_000.ppm"),
                   "--layout", str(tmp_path / "data" / "scene_000.json"),
                   "--site", "down9", "--out", str(tmp_path / "attn")])
        assert rc == 1
        assert "down9" in capsys.readouterr().err
