"""layoutedit benchmark workloads: set-up, closed-loop requests, output
checks and the result record.

`run.py` starts this file in a process of its own, with the BLAS thread
count pinned and QL_SEED cleared; run it through `run.py`. The program
is imported from the `src/` directory next to this one, never from an
installed copy.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import layoutedit  # noqa: E402
from layoutedit import cli  # noqa: E402
from layoutedit.config import RunConfig  # noqa: E402
from layoutedit.data import caption_for  # noqa: E402
from layoutedit.encoders import DEFAULT_VOCAB, EMPTY_TOKEN  # noqa: E402
from layoutedit.pipeline import Pipeline  # noqa: E402

import tracing  # noqa: E402

PERF = time.perf_counter

if Path(layoutedit.__file__).resolve().parent != SRC / "layoutedit":
    raise ImportError(f"layoutedit was imported from {layoutedit.__file__}, "
                      f"not from {SRC}")

WORK_ROOT = ROOT / ".perfbench_work"

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB",
                    "throughput_per_s": "1/s", "request_ms.p50": "ms"}


def per_layer_names() -> list:
    """Every metric a traced run emits, in BENCHMARK.json order."""
    return (tracing.SELF_METRICS + tracing.BLOCK_METRICS
            + sorted(tracing.CALL_COUNT.values())
            + ["tensor.op_calls", "tensor.op_bytes"]
            + [f"{m}.{q}" for m in sorted(tracing.PER_CALL.values())
               for q in ("p50", "p90")]
            + ["setup.ms", "setup.pipeline.construct_ms", "setup.rng.ms",
               "request_ms", "trace.overhead_ms", "trace.overhead_pct"])


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_calls"):
        return "count"
    if name == "tensor.op_bytes":
        return "bytes"
    if name.endswith("_pct"):
        return "%"
    return "ms"


# ----------------------------------------------------------------------
# helpers that stay outside the program under test
def run_cli(args) -> tuple[int, str]:
    """Call `layoutedit <args>` in-process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([str(a) for a in args])
    return code, buf.getvalue()


def read_qlt(blob: bytes) -> np.ndarray:
    """Independent QLT reader: magic, u32 LE rank and extents, f32 LE payload."""
    if blob[:4] != b"QLT1":
        raise ValueError(f"bad QLT magic {blob[:4]!r}")
    rank = int.from_bytes(blob[4:8], "little")
    shape = tuple(int.from_bytes(blob[8 + 4 * i:12 + 4 * i], "little")
                  for i in range(rank))
    payload = blob[8 + 4 * rank:]
    if len(payload) != 4 * int(np.prod(shape)):
        raise ValueError(f"QLT payload of {len(payload)} bytes for shape {shape}")
    return np.frombuffer(payload, dtype="<f4").reshape(shape)


def f32_bytes(arr) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f4").tobytes()


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


# ----------------------------------------------------------------------
# workloads. Each has: setup(dir), key(k) -> input key, prepare(key)
# (untimed), call(key) (the timed request), collect(key, result) and
# check(key, output) -> list of problems (both untimed).
class Train:
    """`layoutedit train` for a fixed number of steps on a synth dataset.

    The dataset comes from the workload seed; training uses the default
    config, seed included. Each backward pass leaves its tape in a
    reference cycle that only the cyclic GC frees, so the peak RSS moves
    with the training seed (280 vs 322 MB seen); a fixed training seed
    keeps that metric comparable between runs.
    """

    name = "train"
    setup_reps = 5

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.steps = self.units_per_request = 2 if quick else 20
        self.config = RunConfig(train_steps=self.steps)
        self.first = None

    def setup(self, d: Path):
        code, _ = run_cli(["synth", "--data-dir", d / "data", "--seed", self.seed])
        if code != 0:
            raise RuntimeError(f"synth exited with {code}")
        fresh = Pipeline(RunConfig())
        self.trainable = {p.name for p in fresh.denoiser.ip_params()}
        self.reference = {n: f32_bytes(p.data)
                          for n, p in fresh.named_params().items()}
        self.data_dir, self.ckpt = d / "data", d / "ckpt"

    def key(self, k: int) -> int:
        return 0

    def prepare(self, key):
        shutil.rmtree(self.ckpt, ignore_errors=True)

    def call(self, key):
        return run_cli(["train", "--data-dir", self.data_dir, "--checkpoint-dir",
                        self.ckpt, "--train-steps", self.steps])

    def collect(self, key, result):
        with open(self.ckpt / "manifest.json") as f:
            manifest = json.load(f)
        params = {}
        for name, entry in manifest["tensors"].items():
            params[name] = (self.ckpt / entry["file"]).read_bytes()
        return {"code": result[0],
                "log": (self.ckpt / "loss_log.jsonl").read_bytes(),
                "params": params}

    def check(self, key, out) -> list:
        if out["code"] != 0:
            return [f"train exited with {out['code']}"]
        problems = []
        losses = [json.loads(line)["loss"] for line in out["log"].splitlines()]
        if len(losses) != self.steps:
            problems.append(f"{len(losses)} logged losses for {self.steps} steps")
        if not all(np.isfinite(losses)):
            problems.append("non-finite loss in the log")
        if set(out["params"]) != set(self.reference):
            problems.append("checkpoint parameter names differ from a fresh Pipeline's")
        for name, blob in out["params"].items():
            if name in self.trainable or name not in self.reference:
                continue
            if read_qlt(blob).tobytes() != self.reference[name]:
                problems.append(f"frozen parameter {name} changed")
        digest = self.digest(out)
        self.first = self.first or digest
        if digest != self.first:
            problems.append("a repeated training request gave a different result")
        return problems

    def digest(self, out) -> str:
        blob = out["log"] + b"".join(out["params"][n] for n in sorted(self.trainable)
                                     if n in out["params"])
        return sha256(blob)

    def diagnostics(self, out) -> dict:
        return {"loss_log_sha256": sha256(out["log"])}


class Edit:
    """`layoutedit edit` against a checkpoint written in set-up."""

    name = "edit"
    setup_reps = 3
    units_per_request = 1

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.setup_steps = 1 if quick else 4
        self.sample_steps = ["--steps", 2] if quick else []
        self.config = RunConfig(seed=seed, sample_steps=2 if quick else 30)
        self.first = {}

    def setup(self, d: Path):
        data, self.ckpt = d / "data", d / "ckpt"
        code, _ = run_cli(["synth", "--data-dir", data, "--seed", self.seed])
        if code != 0:
            raise RuntimeError(f"synth exited with {code}")
        # A separate process, as a user would train, so that the training
        # tape does not set this process's peak RSS.
        env = dict(os.environ, PYTHONPATH=str(SRC))
        subprocess.run([sys.executable, "-m", "layoutedit.cli", "train",
                        "--data-dir", str(data), "--checkpoint-dir", str(self.ckpt),
                        "--seed", str(self.seed), "--train-steps", str(self.setup_steps)],
                       cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
                       timeout=120)
        with open(data / "index.json") as f:
            names = json.load(f)["scenes"]
        rng = np.random.default_rng(self.seed)
        self.inputs = []
        for name in names:
            with open(data / f"{name}.json") as f:
                category = json.load(f)["category"]
            prompt = caption_for(int(rng.integers(1, 11)), category)
            self.inputs.append((data / f"{name}.ppm", data / f"{name}.json", prompt))
        self.out = d / "edit" / "out"

    def key(self, k: int) -> int:
        return k % len(self.inputs)

    def prepare(self, key):
        for suffix in (".qlt", ".ppm"):
            self.out.with_suffix(suffix).unlink(missing_ok=True)

    def call(self, key):
        image, layout, prompt = self.inputs[key]
        return run_cli(["edit", "--checkpoint-dir", self.ckpt, "--image", image,
                        "--layout", layout, "--prompt", prompt, "--out", self.out,
                        "--seed", self.seed] + self.sample_steps)

    def collect(self, key, result):
        qlt, ppm = self.out.with_suffix(".qlt"), self.out.with_suffix(".ppm")
        return {"code": result[0],
                "qlt": qlt.read_bytes() if qlt.exists() else None,
                "ppm": ppm.read_bytes() if ppm.exists() else None}

    def check(self, key, out) -> list:
        if out["code"] != 0:
            return [f"edit exited with {out['code']}"]
        if out["qlt"] is None or out["ppm"] is None:
            return ["edit did not write both .qlt and .ppm"]
        problems = []
        img = read_qlt(out["qlt"])
        if img.shape != (3, 32, 32):
            problems.append(f"edit output shape {img.shape}, expected (3, 32, 32)")
        if not np.isfinite(img).all():
            problems.append("non-finite edit output")
        if not out["ppm"].startswith(b"P6\n32 32\n255\n"):
            problems.append("edit .ppm header is not a 32x32 P6 image")
        digest = sha256(out["qlt"])
        self.first.setdefault(key, digest)
        if digest != self.first[key]:
            problems.append(f"repeated edit of input {key} gave a different .qlt")
        return problems

    def diagnostics(self, out) -> dict:
        return {"edit_qlt_sha256": sha256(out["qlt"] or b"")}


class Condition:
    """One `Pipeline.condition` call on in-memory inputs."""

    name = "condition"
    setup_reps = 5
    units_per_request = 1

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.pool = 8 if quick else 64
        self.config = RunConfig(seed=seed)
        self.first = {}

    def setup(self, d: Path):
        self.pipe = Pipeline(self.config)
        self.inputs = condition_inputs(self.seed, self.pool, self.config.max_n)

    def key(self, k: int) -> int:
        return k % len(self.inputs)

    def prepare(self, key):
        pass

    def call(self, key):
        return self.pipe.condition(*self.inputs[key])

    def collect(self, key, result):
        return {"f": result.f.data, "f_t": result.f_t.data}

    def check(self, key, out) -> list:
        problems = []
        n_words = len(self.inputs[key][3].split())
        want = {"f": (1, self.config.d_i), "f_t": (n_words, self.config.d_t)}
        for name, shape in want.items():
            if out[name].shape != shape:
                problems.append(f"{name} shape {out[name].shape}, expected {shape}")
            if not np.isfinite(out[name]).all():
                problems.append(f"non-finite {name}")
        digest = sha256(out["f"].tobytes())
        self.first.setdefault(key, digest)
        if digest != self.first[key]:
            problems.append(f"repeated condition of input {key} gave a different f")
        return problems

    def diagnostics(self, out) -> dict:
        return {"first_f_sha256": sha256(out["f"].tobytes())}


def condition_inputs(seed: int, count: int, max_n: int) -> list:
    """(image, boxes, aux caption, prompt) tuples: 0..max_n boxes and
    captions of 1..16 vocabulary words."""
    rng = np.random.default_rng(seed)
    words = [w for w in DEFAULT_VOCAB if w != EMPTY_TOKEN]

    def caption():
        return " ".join(words[i] for i in rng.integers(0, len(words), rng.integers(1, 17)))

    out = []
    for _ in range(count):
        image = rng.uniform(0.0, 1.0, (3, 32, 32))
        boxes = []
        for _ in range(int(rng.integers(0, max_n + 1))):
            x0, x1 = sorted(rng.uniform(0.0, 1.0, 2))
            y0, y1 = sorted(rng.uniform(0.0, 1.0, 2))
            boxes.append((float(x0), float(y0), float(x1), float(y1)))
        out.append((image, boxes, caption(), caption()))
    return out


WORKLOADS = {w.name: w for w in (Train, Edit, Condition)}


# ----------------------------------------------------------------------
class Requests:
    """Outcome of every request in a run."""

    def __init__(self):
        self.times = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.diagnostics = None


def one_request(wl, key, stats: Requests, tracer=None, unit=None) -> float:
    """Run, time and check one request; returns its wall time in seconds."""
    wl.prepare(key)
    error = None
    if tracer:
        tracer.begin(unit, "request")
    t0 = PERF()
    try:
        result = wl.call(key)
    except Exception:
        error = traceback.format_exc(limit=3)
    t1 = PERF()
    if tracer:
        tracer.end(t0, t1)
    stats.attempted += 1
    stats.times.append(t1 - t0)
    if error is None:
        try:
            out = wl.collect(key, result)
            problems = wl.check(key, out)
            if stats.diagnostics is None:
                stats.diagnostics = wl.diagnostics(out)
        except Exception:
            problems = [traceback.format_exc(limit=3)]
    else:
        problems = [error]
    if problems:
        stats.failed += 1
        stats.errors.extend(problems[:3])
    return t1 - t0


def restore(patch) -> list:
    patch.restore()
    return [f"wrapper not restored: {name}"
            for name in patch.not_restored() + tracing.leftover_wrappers()]


def run(workload: str, seed: int, seconds: float, trace: bool,
        quick: bool = False, work_root: Path = WORK_ROOT) -> dict:
    """Set up, run the closed loop for `seconds`, check outputs, and return
    the result record (see `result_line` for the contract's last line)."""
    if "QL_SEED" in os.environ:
        raise RuntimeError("QL_SEED is set; it would override the workload seed")
    wl = WORKLOADS[workload](seed, quick)
    workdir = work_root / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = tracing.Tracer() if trace else None
    problems, unwrapped = [], []
    try:
        reps = 1 if quick else wl.setup_reps
        import_times = [] if trace else [import_seconds() for _ in range(reps)]
        setup_times = []
        for rep in range(reps):
            patch = tracing.install(tracer) if trace else None
            if trace:
                unwrapped = patch.missing
                tracer.begin(f"setup.{rep}", "setup")
            t0 = PERF()
            try:
                wl.setup(workdir / f"setup{rep}")
            finally:
                t1 = PERF()
                if trace:
                    tracer.end(t0, t1)
                    problems += restore(patch)
            setup_times.append(t1 - t0)
        stats = Requests()
        if trace:
            pairs, untraced = traced_loop(wl, stats, tracer, seconds, problems)
        else:
            plain_loop(wl, stats, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "quick": quick,
              "provenance": provenance(seed, wl.config),
              "requests": {"attempted": stats.attempted,
                           "succeeded": stats.attempted - stats.failed,
                           "failed": stats.failed},
              "errors": stats.errors[:10],
              "diagnostics": dict(stats.diagnostics or {},
                                  request_samples=len(stats.times),
                                  request_ms=[round(t * 1e3, 3)
                                              for t in stats.times[:50]])}
    if trace:
        metrics, checks = traced_metrics(tracer, pairs, untraced)
        problems += checks
        record["unwrapped_targets"] = unwrapped
        write_spans(tracer, work_root / "spans" / f"{workload}-seed{seed}.jsonl")
    else:
        metrics = end_to_end_metrics(wl, stats, import_times, setup_times)
        record["named_metrics"] = named_metrics(wl, stats, metrics)
    record["problems"] = problems
    record["correct"] = stats.failed == 0 and not problems
    record["metrics"] = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
    return record


def plain_loop(wl, stats: Requests, seconds: float):
    # the first input runs twice so every run checks a repeated request
    keys = itertools.chain([wl.key(0)], (wl.key(k) for k in itertools.count()))
    start = PERF()
    for k, key in enumerate(keys):
        if k >= 2 and PERF() - start + tracing.median(stats.times) > seconds:
            break
        one_request(wl, key, stats)


def traced_loop(wl, stats: Requests, tracer, seconds: float, problems: list):
    """Each input runs once untraced and once traced, in alternating order,
    so the difference is the tracing overhead on identical work."""
    block = 32 if wl.name == "condition" else 1
    pairs, untraced = [], []
    start = PERF()
    for b in itertools.count():
        if b >= 1 and PERF() - start + 2 * block * tracing.median(stats.times) > seconds:
            break
        keys = [wl.key(b * block + i) for i in range(block)]
        walls = {}
        for traced in ((False, True) if b % 2 == 0 else (True, False)):
            patch = tracing.install(tracer) if traced else None
            try:
                for i, key in enumerate(keys):
                    walls[traced, i] = one_request(
                        wl, key, stats, tracer if traced else None,
                        unit=f"request.{b * block + i}")
            finally:
                if traced:
                    problems += restore(patch)
        pairs += [walls[True, i] - walls[False, i] for i in range(block)]
        untraced += [walls[False, i] for i in range(block)]
    return pairs, untraced


def import_seconds() -> float:
    """Time to import numpy and the program in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import numpy, layoutedit.cli, "
            "layoutedit.pipeline; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC)),
                         stdout=subprocess.PIPE, text=True, timeout=60)
    return float(out.stdout)


def end_to_end_metrics(wl, stats: Requests, import_times: list,
                       setup_times: list) -> dict:
    return {
        "setup_s": tracing.median(import_times) + tracing.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "throughput_per_s": wl.units_per_request * len(stats.times) / sum(stats.times),
        "request_ms.p50": tracing.median(stats.times) * 1e3,
    }


def named_metrics(wl, stats: Requests, m: dict) -> dict:
    """The same figures under the per-workload names used in the docs."""
    ms = [t * 1e3 for t in stats.times]
    out = {"setup_s": (m["setup_s"], "s"), "peak_rss_mb": (m["peak_rss_mb"], "MB")}
    if wl.name == "train":
        out["train_steps_per_s"] = (m["throughput_per_s"], "1/s")
    elif wl.name == "edit":
        out["edit_s.p50"] = (m["request_ms.p50"] / 1e3, "s")
    else:
        out["conditions_per_s"] = (m["throughput_per_s"], "1/s")
        out["condition_ms.p50"] = (m["request_ms.p50"], "ms")
        out["condition_ms.p99"] = (tracing.percentile(ms, 99), "ms")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def traced_metrics(tracer, pairs: list, untraced: list) -> tuple[dict, list]:
    per_unit = tracing.unit_metrics(tracer)
    problems = tracing.accounting_errors(per_unit)
    requests = [u for u in per_unit if u.startswith("request.")]
    setups = [u for u in per_unit if u.startswith("setup.")]

    def med(name, units):
        return tracing.median([per_unit[u][name] for u in units])

    metrics = {}
    for name in per_layer_names():
        if name in per_unit[requests[0]]:
            metrics[name] = med(name, requests)
    # synth runs only while setting up
    metrics["data.synth_ms"] = med("data.synth_ms", setups)
    metrics["setup.ms"] = med("wall_ms", setups)
    metrics["setup.pipeline.construct_ms"] = med("pipeline.construct_ms", setups)
    metrics["setup.rng.ms"] = med("rng.ms", setups)
    metrics["request_ms"] = med("wall_ms", requests)
    for span, values in tracing.call_durations_ms(tracer, requests).items():
        metrics[tracing.PER_CALL[span] + ".p50"] = tracing.percentile(values, 50)
        metrics[tracing.PER_CALL[span] + ".p90"] = tracing.percentile(values, 90)
    overhead = tracing.median(pairs)
    metrics["trace.overhead_ms"] = overhead * 1e3
    metrics["trace.overhead_pct"] = 100.0 * overhead / tracing.median(untraced)
    missing = set(per_layer_names()) - set(metrics)
    if missing:
        problems.append(f"per-layer metrics not computed: {sorted(missing)}")
    return {k: metrics[k] for k in per_layer_names()}, problems


def write_spans(tracer, path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    t0 = min((s[4] for s in tracer.spans), default=0.0)
    with open(path, "w") as f:
        for span_id, parent, unit, name, start, end, _ in tracer.spans:
            f.write(json.dumps({"id": span_id, "parent": parent, "request": unit,
                                "name": name, "start_s": start - t0,
                                "end_s": end - t0}) + "\n")


# ----------------------------------------------------------------------
def blas_threads_in_effect():
    """Ask the loaded OpenBLAS how many threads it uses (None if unknown)."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def git_commit():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "layoutedit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(seed: int, config) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {"requested": os.environ.get("OPENBLAS_NUM_THREADS"),
                         "in_effect": blas_threads_in_effect()},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "seed": seed,
        "run_config": config.to_dict(),
    }


def result_line(record: dict) -> str:
    """The last stdout line: exactly correct, attempted, failed, metrics."""
    req = record["requests"]
    return json.dumps({"correct": record["correct"], "attempted": req["attempted"],
                       "failed": req["failed"], "metrics": record["metrics"]})


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="tiny sizes, for the benchmark's own tests")
    args = p.parse_args(argv)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    path = WORK_ROOT / "results" / (f"{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
