"""Span tracing from outside the program.

`install` replaces the public functions and methods of each layoutedit
layer with wrappers that record one span per call (name, start, end,
parent span, unit id) into a `Tracer`. A function imported by name into
other modules is wrapped at every module that binds it, so calls made
through those bindings stay inside their spans. The returned `Patch`
puts every original object back; `leftover_wrappers` confirms it did.

Primitive tensor ops are not spans: their wrappers only count calls and
the bytes of the arrays they return, so that the per-op cost does not
swamp the layers being timed.
"""
from __future__ import annotations

import functools
import statistics
import sys
import time

PERF = time.perf_counter
MARK = "__perfbench_original__"

BLOCKS = ("down1", "down2", "down3", "down4", "mid", "up1", "up2", "up3", "up4")


def _dual_branch_name(args, kwargs):
    lam = args[4] if len(args) > 4 else kwargs["lam"]
    return "adapter.dual_branch_active" if lam > 0 else "adapter.dual_branch_inactive"


def _block_name(args, kwargs):
    return "diffusion.block." + args[0].name.rsplit(".", 1)[-1]


def _self_attn_name(args, kwargs):
    # SelfAttention also serves the image encoder and CMAM; only the
    # denoiser's instances (parameters named "den.*") are their own span.
    return "diffusion.self_attn" if args[0].w_q.name.startswith("den.") else None


# (module, attribute, span name or name function). Every binding of the
# object, in any layoutedit module, is wrapped.
FUNCTION_SPANS = (
    ("tensor", "adamw_step", "tensor.adamw"),
    ("tensor", "mha", "tensor.mha"),
    ("layout", "build_layout", "layout"),
    ("layout", "patch_grid", "layout"),
    ("ilfm", "ilfm_forward", "ilfm.forward"),
    ("cmam", "cmam_forward", "cmam.forward"),
    ("adapter", "fuse", "adapter.fuse"),
    ("adapter", "dual_branch_attention", _dual_branch_name),
    ("diffusion", "guided_eps", "diffusion.guided_eps"),
    ("diffusion", "sample", "diffusion.sample"),
    ("diffusion", "training_step", "diffusion.training_step"),
    ("qlt", "load_qlt", "qlt.load"),
    ("qlt", "load_checkpoint", "qlt.load"),
    ("qlt", "save_qlt", "qlt.save"),
    ("qlt", "save_checkpoint", "qlt.save"),
    ("data", "read_ppm", "data.ppm"),
    ("data", "write_ppm", "data.ppm"),
    ("data", "generate_dataset", "data.synth"),
)

# (module, class, method, span name or name function)
METHOD_SPANS = (
    ("tensor", "Tensor", "backward", "tensor.backward"),
    ("rng", "Rng", "uniform", "rng"),
    ("rng", "Rng", "normal", "rng"),
    ("rng", "Rng", "randint", "rng"),
    ("rng", "Rng", "spawn", "rng"),
    ("layout", "LayoutEmbedder", "embed", "layout"),
    ("layout", "LayoutEmbedder", "project_positions", "layout"),
    ("encoders", "ImageEncoder", "encode", "encoders.image"),
    ("encoders", "TextEncoder", "encode", "encoders.text"),
    ("encoders", "TextEncoder", "tokenize", "encoders.text"),
    ("diffusion", "DenoiserState", "forward", "diffusion.forward"),
    ("diffusion", "DenoiserBlock", "forward", _block_name),
    ("attention", "SelfAttention", "__call__", _self_attn_name),
    ("pipeline", "Pipeline", "__init__", "pipeline.construct"),
    ("pipeline", "Pipeline", "load", "pipeline.load"),
    ("pipeline", "Pipeline", "condition", "pipeline.condition"),
)

# Functions and methods that create a tape node themselves; composites
# such as linear, mha or Tensor.mean reach them through these.
OP_FUNCTIONS = ("add", "mul", "power", "exp", "log", "silu", "tsum", "matmul",
                "softmax", "masked_softmax", "layer_norm", "concat")
OP_METHODS = ("__getitem__", "reshape", "transpose")

# Span name -> the per-layer metric its self time is added to. Root
# spans ("request", "setup") carry the time no layer span covers.
SELF_METRIC = {
    "request": "other_ms",
    "setup": "other_ms",
    "tensor.backward": "tensor.backward_ms",
    "tensor.adamw": "tensor.adamw_ms",
    "tensor.mha": "tensor.mha_ms",
    "rng": "rng.ms",
    "layout": "layout.ms",
    "encoders.image": "encoders.image_ms",
    "encoders.text": "encoders.text_ms",
    "ilfm.forward": "ilfm.forward_ms",
    "cmam.forward": "cmam.forward_ms",
    "adapter.fuse": "adapter.fuse_ms",
    "adapter.dual_branch_active": "adapter.dual_branch_active_ms",
    "adapter.dual_branch_inactive": "adapter.dual_branch_inactive_ms",
    "diffusion.forward": "diffusion.forward_ms",
    "diffusion.self_attn": "diffusion.self_attn_ms",
    "diffusion.guided_eps": "diffusion.sample_ms",
    "diffusion.sample": "diffusion.sample_ms",
    "diffusion.training_step": "diffusion.objective_ms",
    "pipeline.construct": "pipeline.construct_ms",
    "pipeline.load": "pipeline.load_ms",
    "pipeline.condition": "pipeline.condition_ms",
    "qlt.load": "qlt.load_ms",
    "qlt.save": "qlt.save_ms",
    "data.ppm": "data.ppm_ms",
    "data.synth": "data.synth_ms",
}
SELF_METRIC.update({f"diffusion.block.{b}": "diffusion.mlp_ms" for b in BLOCKS})

# Per-call durations whose distribution is reported (p50, p90).
PER_CALL = {"diffusion.guided_eps": "diffusion.guided_eps_ms",
            "diffusion.training_step": "diffusion.training_step_ms"}
# Span name -> metric that counts its calls.
CALL_COUNT = {"tensor.mha": "tensor.mha_calls",
              "diffusion.forward": "diffusion.forward_calls"}

SELF_METRICS = sorted(set(SELF_METRIC.values()))
BLOCK_METRICS = [f"diffusion.block_ms.{b}" for b in BLOCKS]


class Tracer:
    """Collects spans in memory, one unit (request or set-up) at a time."""

    def __init__(self):
        self.spans = []     # (id, parent, unit, name, start, end, self_s)
        self.units = []     # dicts: unit, kind, wall_s, op_calls, op_bytes
        self.unit = None
        self._kind = None
        self._stack = []    # [span id, child seconds]
        self._next_id = 0
        self._ops = [0, 0]

    def begin(self, unit, kind: str):
        if self.unit is not None:
            raise RuntimeError(f"unit {self.unit} is still open")
        self.unit, self._kind = unit, kind
        self._ops = [0, 0]
        self._stack.append([self._new_id(), 0.0])

    def end(self, start: float, end: float):
        """Close the unit's root span, timed by the caller as [start, end]."""
        span_id, child_s = self._stack.pop()
        if self._stack:
            raise RuntimeError("spans left open at the end of a unit")
        self.spans.append((span_id, None, self.unit, self._kind, start, end,
                           end - start - child_s))
        self.units.append({"unit": self.unit, "kind": self._kind,
                           "wall_s": end - start, "op_calls": self._ops[0],
                           "op_bytes": self._ops[1]})
        self.unit = None

    def _new_id(self):
        self._next_id += 1
        return self._next_id

    def call(self, name, fn, args, kwargs):
        if name is None or self.unit is None:
            return fn(*args, **kwargs)
        frame = [self._new_id(), 0.0]
        parent = self._stack[-1][0]
        self._stack.append(frame)
        t0 = PERF()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = PERF()
            self._stack.pop()
            self._stack[-1][1] += t1 - t0
            self.spans.append((frame[0], parent, self.unit, name, t0, t1,
                               t1 - t0 - frame[1]))

    def count_op(self, out):
        if self.unit is not None:
            self._ops[0] += 1
            self._ops[1] += out.data.nbytes


# ----------------------------------------------------------------------
def _span_wrapper(tracer, fn, name):
    pick = name if callable(name) else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(pick(args, kwargs) if pick else name, fn, args, kwargs)

    return wrapper


def _op_wrapper(tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        tracer.count_op(out)
        return out

    return wrapper


def program_modules(package: str = "layoutedit"):
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))]


class Patch:
    """The wrapped attributes and how to put the originals back."""

    def __init__(self):
        self.patched = []   # (owner, attribute, original)
        self.missing = []   # targets not found in this version of the program

    def set(self, owner, attr, original, wrapper):
        setattr(wrapper, MARK, original)
        setattr(owner, attr, wrapper)
        self.patched.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)

    def not_restored(self) -> list:
        """Names of wrapped attributes that are not the original object."""
        return [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self.patched
                if vars(o).get(a) is not orig]


def install(tracer: Tracer, package: str = "layoutedit") -> Patch:
    modules = program_modules(package)
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    patch = Patch()

    def wrap_bindings(module_name, attr, make):
        target = getattr(by_name.get(module_name), attr, None)
        if target is None:
            patch.missing.append(f"{module_name}.{attr}")
            return
        wrapper = make(target)
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is target:
                    patch.set(m, key, target, wrapper)

    def wrap_method(module_name, cls_name, attr, make):
        cls = getattr(by_name.get(module_name), cls_name, None)
        target = vars(cls).get(attr) if cls is not None else None
        if target is None:
            patch.missing.append(f"{module_name}.{cls_name}.{attr}")
            return
        patch.set(cls, attr, target, make(target))

    for mod, attr, name in FUNCTION_SPANS:
        wrap_bindings(mod, attr, lambda f, n=name: _span_wrapper(tracer, f, n))
    for mod, cls, attr, name in METHOD_SPANS:
        wrap_method(mod, cls, attr, lambda f, n=name: _span_wrapper(tracer, f, n))
    for attr in OP_FUNCTIONS:
        wrap_bindings("tensor", attr, lambda f: _op_wrapper(tracer, f))
    for attr in OP_METHODS:
        wrap_method("tensor", "Tensor", attr, lambda f: _op_wrapper(tracer, f))
    return patch


def leftover_wrappers(package: str = "layoutedit") -> list:
    """Every module attribute or class attribute that is still a wrapper."""
    found = []
    for m in program_modules(package):
        for key, val in vars(m).items():
            if hasattr(val, MARK):
                found.append(f"{m.__name__}.{key}")
            if isinstance(val, type) and val.__module__ == m.__name__:
                found += [f"{m.__name__}.{key}.{a}" for a, v in vars(val).items()
                          if hasattr(v, MARK)]
    return found


# ----------------------------------------------------------------------
def unit_metrics(tracer: Tracer) -> dict:
    """Per-unit metric values: {unit: {metric: value}}."""
    out = {}
    for u in tracer.units:
        m = {name: 0.0 for name in SELF_METRICS + BLOCK_METRICS}
        m.update({name: 0 for name in CALL_COUNT.values()})
        m["tensor.op_calls"] = u["op_calls"]
        m["tensor.op_bytes"] = u["op_bytes"]
        m["wall_ms"] = u["wall_s"] * 1e3
        out[u["unit"]] = m
    for _id, _parent, unit, name, start, end, self_s in tracer.spans:
        m = out[unit]
        m[SELF_METRIC[name]] += self_s * 1e3
        if name.startswith("diffusion.block."):
            m["diffusion.block_ms." + name.rsplit(".", 1)[-1]] += (end - start) * 1e3
        if name in CALL_COUNT:
            m[CALL_COUNT[name]] += 1
    return out


def accounting_errors(per_unit: dict, tol_ms: float = 1e-6) -> list:
    """Units whose self times (with `other_ms`) do not add up to their wall time."""
    bad = []
    for unit, m in per_unit.items():
        total = sum(m[name] for name in SELF_METRICS)
        if abs(total - m["wall_ms"]) > tol_ms * max(1.0, m["wall_ms"]):
            bad.append(f"{unit}: self times sum to {total:.6f} ms, "
                       f"wall is {m['wall_ms']:.6f} ms")
    return bad


def call_durations_ms(tracer: Tracer, units) -> dict:
    """{span name: [inclusive ms per call]} for PER_CALL spans in `units`."""
    units = set(units)
    out = {name: [] for name in PER_CALL}
    for _id, _parent, unit, name, start, end, _self in tracer.spans:
        if name in PER_CALL and unit in units:
            out[name].append((end - start) * 1e3)
    return out


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100]); 0.0 for no values."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(values) if values else 0.0
