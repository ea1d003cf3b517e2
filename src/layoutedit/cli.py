"""Command-line surface: synth, train, edit, eval, gradcheck, dump-attn.

Exit codes: 0 success, 1 validation error, 2 numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .config import (INJECTION_SITES, MODEL_FIELDS, ConfigError, RunConfig,
                     read_json_object)
from .data import DatasetError, generate_dataset, write_ppm
from .diffusion import BLOCK_NAMES, IP_SEED_OFFSET
from .encoders import VocabError
from .gradcheck import REL_TOL, audit, projection_head
from .layout import LayoutError, load_layout_json
from .metrics import DetectionSet, load_detection_json, report
from .qlt import QltError, read_manifest, save_qlt
from .rng import Rng
from .tensor import NumericsError, Tensor, params_of

VALIDATION_ERRORS = (ConfigError, DatasetError, LayoutError, VocabError,
                     QltError, OSError, ValueError, KeyError)


# Every settable config flag. build_config sets the RunConfig field named by
# each flag's dest; each subcommand takes only the flags it reads.
CONFIG_FLAGS = {
    "--config": dict(help="JSON config file; flags override it"),
    "--seed": dict(type=int),
    "--lam": dict(type=float),
    "--cfg-w": dict(type=float),
    "--steps": dict(type=int, dest="sample_steps"),
    "--train-steps": dict(type=int),
    "--lr": dict(type=float),
    "--dropout-rate": dict(type=float),
    "--heads": dict(type=int),
    "--max-n": dict(type=int),
    "--injection": dict(choices=INJECTION_SITES),
    "--ip-scale": dict(type=float),
    "--data-dir": {},
    "--checkpoint-dir": {},
}


def _add_config_flags(p: argparse.ArgumentParser, names: str):
    for name in names.split():
        p.add_argument(name, **CONFIG_FLAGS[name])


def _flags(args) -> dict:
    """Config field name -> value, for each config flag given."""
    out = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(RunConfig)
           if f.name != "injection"}
    out["injection.position"] = getattr(args, "injection", None)
    out["injection.ip_scale"] = getattr(args, "ip_scale", None)
    return {name: val for name, val in out.items() if val is not None}


def _set_in(path) -> set:
    """Names of the fields that the config file at `path` sets, to any
    value (a default one included)."""
    doc = read_json_object(path, ConfigError, "config")
    inj = doc.get("injection")
    return set(doc) | {f"injection.{k}" for k in (inj if isinstance(inj, dict) else ())}


def _blame_config(args, e: ConfigError) -> ConfigError:
    """`e`, naming the --config file when a field it is about was set there
    and not overridden by a flag."""
    if args.config and set(e.fields) & (_set_in(args.config) - _flags(args).keys()):
        return ConfigError(f"{args.config}: {e}", *e.fields)
    return e


def build_config(args) -> RunConfig:
    cfg = RunConfig.load(args.config) if args.config else RunConfig()
    for name, val in _flags(args).items():
        owner = cfg.injection if name.startswith("injection.") else cfg
        setattr(owner, name.rpartition(".")[2], val)
    try:
        return cfg.apply_env().validate()
    except ConfigError as e:
        raise _blame_config(args, e) from None


def _checkpoint_config(cfg: RunConfig, config_file) -> RunConfig:
    """Set `cfg`'s MODEL_FIELDS to those stored in its checkpoint's manifest.

    The weights fit only the model they were trained as, so a config file
    that names a different model is an error, not an override.
    """
    mpath = Path(cfg.checkpoint_dir) / "manifest.json"
    stored = read_manifest(cfg.checkpoint_dir).get("config")
    if not isinstance(stored, dict):
        raise QltError(f"{mpath}: 'config' must be an object")
    try:
        stored = RunConfig.from_dict(stored).validate()
    except ConfigError as e:
        raise ConfigError(f"{mpath}: config: {e}") from None
    if stored.dtype != "float32":     # save_qlt writes every array as <f4
        raise ConfigError(f"{mpath}: config: dtype is {stored.dtype!r}, but a "
                          f"checkpoint stores float32", "dtype")
    for name in MODEL_FIELDS:
        mine, theirs = getattr(cfg, name), getattr(stored, name)
        if config_file and mine != theirs:
            raise ConfigError(f"{config_file}: {name}={mine!r} but the "
                              f"checkpoint {mpath} has {name}={theirs!r}")
        setattr(cfg, name, theirs)
    return cfg


def _parse_counts(spec: str) -> list:
    """'1-10', '2,4,6' or a mix of both: the listed counts, in order."""
    out = []
    for part in spec.split(","):
        a, dash, b = part.partition("-")
        try:
            lo = int(a)
            hi = int(b) if dash else lo
        except ValueError:
            raise ConfigError(f"--counts: {part!r} is neither an integer nor "
                              f"a range a-b") from None
        if hi < lo:
            raise ConfigError(f"--counts: range {part!r} is empty")
        if lo < 1 or hi > 10:
            raise ConfigError(f"--counts: {part!r} is outside the allowed "
                              f"range 1..10")
        out.extend(range(lo, hi + 1))
    return out


def _load_inputs(args, cfg: RunConfig):
    """The --layout document, which may hold at most max_n boxes, its
    auxiliary caption and the --image array, which must be
    (3, image_size, image_size)."""
    from .pipeline import load_image, load_layout

    doc, aux = load_layout(args.layout, cfg.max_n)
    image = load_image(args.image)
    expected = (3, cfg.image_size, cfg.image_size)
    if image.shape != expected:
        raise ValueError(f"--image {args.image}: shape {image.shape} does not "
                         f"match the expected {expected}")
    return doc, aux, image


# ----------------------------------------------------------------------
def cmd_synth(args) -> int:
    cfg = build_config(args)
    counts = _parse_counts(args.counts)
    names = generate_dataset(cfg.data_dir, cfg.seed, counts=counts,
                             image_size=cfg.image_size)
    print(f"wrote {len(names)} scenes to {cfg.data_dir}")
    return 0


def cmd_train(args) -> int:
    from .pipeline import Pipeline

    cfg = build_config(args)
    if cfg.dtype != "float32":   # its checkpoint would load as another model
        raise _blame_config(args, ConfigError(
            f"dtype is {cfg.dtype!r}, but a checkpoint stores float32", "dtype"))
    pipe = Pipeline(cfg)
    if args.ip_checkpoint:
        pipe.load_ip_weights(args.ip_checkpoint)
    source = "checkpoint" if args.ip_checkpoint else f"random({cfg.seed + IP_SEED_OFFSET})"
    ckpt = Path(cfg.checkpoint_dir)
    ckpt.mkdir(parents=True, exist_ok=True)
    try:
        losses = pipe.train(cfg.data_dir, log_path=ckpt / "loss_log.jsonl",
                            progress=lambda s, l: print(f"step {s}: loss {l:.4f}"))
    except ConfigError as e:    # a scene image of another size than image_size
        raise _blame_config(args, e) from None
    pipe.save(ckpt)
    print(f"trained {len(losses)} steps (ip init: {source}); "
          f"checkpoint at {ckpt}")
    return 0


def cmd_edit(args) -> int:
    from .pipeline import Pipeline

    cfg = _checkpoint_config(build_config(args), args.config)
    if cfg.sample_steps > cfg.t_train:
        raise _blame_config(args, ConfigError(
            f"--steps/sample_steps is {cfg.sample_steps}, above the "
            f"checkpoint's t_train of {cfg.t_train} "
            f"({Path(cfg.checkpoint_dir) / 'manifest.json'}): a DDIM run "
            f"takes each timestep at most once", "sample_steps"))
    pipe = Pipeline.from_checkpoint(cfg, cfg.checkpoint_dir)
    doc, aux, image = _load_inputs(args, cfg)
    # load_layout checked the caption's words, so a VocabError is the prompt's
    try:
        out = pipe.edit(image, doc["boxes"], aux, args.prompt)
    except VocabError as e:
        raise VocabError(f"--prompt: {e}") from None
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    save_qlt(out_path.with_suffix(".qlt"), out)
    write_ppm(out_path.with_suffix(".ppm"), np.clip(out, 0.0, 1.0))
    print(f"wrote {out_path.with_suffix('.qlt')} and .ppm")
    return 0


def cmd_eval(args) -> int:
    pred_dir, gt_dir = Path(args.pred_dir), Path(args.gt_dir)
    if not pred_dir.is_dir():
        raise ConfigError(f"--pred-dir: {pred_dir} is not an existing directory")
    if not gt_dir.is_dir():
        raise ConfigError(f"--gt-dir: {gt_dir} is not an existing directory")
    gt_docs = {g: read_json_object(g, LayoutError, "ground truth")
               for g in sorted(gt_dir.glob("*.json"))}
    # a file with no key of either schema, such as a dataset's index.json,
    # describes no image
    gt_files = [g for g, doc in gt_docs.items()
                if {"boxes", "detections", "ground_truth"} & doc.keys()]
    if not gt_files:
        raise FileNotFoundError(f"no ground-truth JSON files in {gt_dir}")
    stray = {p.name for p in pred_dir.glob("*.json")} - {g.name for g in gt_files}
    if stray:
        raise ValueError(f"prediction files without ground truth: {sorted(stray)}")
    sets, names = [], []
    for g in gt_files:
        if "boxes" in gt_docs[g]:
            ground_truth = load_layout_json(g)["boxes"]     # layout schema
        else:    # detection schema; without ground_truth, as oracle truth
            gt = load_detection_json(g)
            ground_truth = gt.ground_truth or [d.box for d in gt.detections]
        pred_path = pred_dir / g.name
        dets = load_detection_json(pred_path).detections if pred_path.exists() else []
        sets.append(DetectionSet(detections=dets, ground_truth=ground_truth))
        names.append(g.stem)
    rep = report(sets, names)
    out = Path(args.out) if args.out else Path("report.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        json.dump(rep, f, indent=1)
    print(f"OA={rep['OA']:.4f} AP={rep['AP']:.4f} ({len(sets)} images) -> {out}")
    return 0


def cmd_gradcheck(args) -> int:
    from .pipeline import Pipeline

    if args.entries < 1:
        raise ConfigError(f"--entries must be at least 1, got {args.entries}")
    cfg = RunConfig(seed=args.seed if args.seed is not None else 0,
                    d_i=16, d_t=16, d_l=16, d_model=16, heads=2, max_n=4,
                    image_size=16, patch_size=8, dtype="float64",
                    t_train=50).validate()
    pipe = Pipeline(cfg)
    rng = Rng(cfg.seed).spawn("gradcheck-harness")
    img = rng.normal((3, 16, 16))
    latent = rng.normal((pipe.denoiser.n_tokens, pipe.denoiser.d_latent))
    boxes = [(0.1, 0.1, 0.4, 0.5), (0.5, 0.6, 0.9, 0.9)]

    head_f = projection_head(rng, "head_f")
    head_t = projection_head(rng, "head_t")
    head_d = projection_head(rng, "head_d")
    bundle = pipe.condition(img, boxes, "two squares")

    def head_scalar():
        b = pipe.condition(img, boxes, "two squares")
        return head_f(b.f) + head_t(b.f_t)

    def denoiser_scalar():
        return head_d(pipe.denoiser.forward(Tensor(latent), 7, bundle))

    denoiser = params_of(pipe.denoiser)
    groups = [(p, head_scalar) for p in params_of(pipe) if p not in denoiser]
    groups += [(p, denoiser_scalar) for p in denoiser]

    reports = audit(groups, Rng(cfg.seed).spawn("entries"), args.entries,
                    corrupt=args.corrupt)
    print(f"{'parameter group':40s} {'max rel err':>12s}  result")
    for rep in reports:
        print(f"{rep.name:40s} {rep.max_rel_err:12.3e}  {rep.result}")
    failed = sum(not rep.passed for rep in reports)
    print(f"{len(reports)} groups checked, {failed} failed, "
          f"{sum(rep.zero for rep in reports)} with an all-zero gradient "
          f"(tol {REL_TOL})")
    return 0 if failed == 0 else 2


def cmd_dump_attention(args) -> int:
    from .pipeline import Pipeline

    cfg = build_config(args)
    if args.site not in BLOCK_NAMES:
        raise ConfigError(f"unknown site {args.site!r}; valid sites: "
                          f"{', '.join(BLOCK_NAMES)}")
    has_checkpoint = Path(cfg.checkpoint_dir, "manifest.json").exists()
    if has_checkpoint:
        cfg = _checkpoint_config(cfg, args.config)
    t = cfg.t_train // 2 if args.t is None else args.t
    if not 0 <= t < cfg.t_train:
        source = "checkpoint" if has_checkpoint else "config"
        raise ConfigError(f"--t must be in [0, {cfg.t_train}), the {source}'s "
                          f"timesteps, got {t}")
    pipe = (Pipeline.from_checkpoint(cfg, cfg.checkpoint_dir) if has_checkpoint
            else Pipeline(cfg))
    doc, aux, image = _load_inputs(args, cfg)
    try:
        bundle = pipe.condition(image, doc["boxes"], aux, prompt=args.prompt)
    except VocabError as e:
        raise VocabError(f"--prompt: {e}") from None
    latent = Rng(cfg.seed).spawn("dump").normal(
        (pipe.denoiser.n_tokens, pipe.denoiser.d_latent))
    capture = {args.site: {}}
    pipe.denoiser.forward(Tensor(latent.astype(pipe.denoiser.w_in.data.dtype)),
                          t, bundle, weights_out=capture)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for branch, weights in capture[args.site].items():   # text, then any adapter
        path = out_dir / f"{args.site}_{branch}.qlt"
        save_qlt(path, weights)
        print(f"wrote {path}")
    return 0


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="layoutedit",
        description="Layout- and count-conditioned toy diffusion editing")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic shape scenes")
    _add_config_flags(p, "--config --seed --data-dir")
    p.add_argument("--counts", default="1-10",
                   help="object counts, e.g. '1-10' or '2,4,6'")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the adapter branch")
    _add_config_flags(p, "--config --seed --lam --train-steps --lr --dropout-rate "
                      "--heads --max-n --injection --ip-scale "
                      "--data-dir --checkpoint-dir")
    p.add_argument("--ip-checkpoint", help="prior checkpoint for adapter init")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("edit", help="sample an edited image")
    _add_config_flags(p, "--config --seed --lam --cfg-w --steps --checkpoint-dir")
    p.add_argument("--image", required=True)
    p.add_argument("--layout", required=True)
    p.add_argument("--prompt", default="")
    p.add_argument("--out", default="edited")
    p.set_defaults(func=cmd_edit)

    p = sub.add_parser("eval", help="score detections against ground truth")
    p.add_argument("--pred-dir", required=True)
    p.add_argument("--gt-dir", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--seed", type=int)
    p.add_argument("--entries", type=int, default=4,
                   help="sampled entries per parameter group")
    p.add_argument("--corrupt", help="test hook: corrupt this group's gradient")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("dump-attn", help="export attention maps at a block")
    _add_config_flags(p, "--config --seed --lam --checkpoint-dir")
    p.add_argument("--image", required=True)
    p.add_argument("--layout", required=True)
    p.add_argument("--prompt", default="")
    p.add_argument("--site", required=True)
    p.add_argument("--t", type=int, help="timestep (default: t_train // 2)")
    p.add_argument("--out", default="attention")
    p.set_defaults(func=cmd_dump_attention)

    try:
        args = parser.parse_args(argv)
    except SystemExit as e:    # usage errors exit 1, like any bad input
        if e.code:
            return 1
        raise
    try:
        return args.func(args)
    except NumericsError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2
    except VALIDATION_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
