"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Tensors wrap numpy arrays and record a tape of backward closures. Every
op validates shapes up front and checks the result for NaN/Inf: a
non-finite value is an error state, never silent.

A function decorated with `checked_once` is a boundary (a condition
build, a denoiser pass): while it runs, its ops skip their result
checks, and its outputs are checked once when it returns. On a
non-finite output, or a `NumericsError` raised inside, the call is run
again with every op's check on. Runs are deterministic, so the replay
raises the error naming the op that first produced the value, as it
would without the boundary. A boundary reached inside another runs as
a plain call. `mha` checks its logits inside a boundary too.

A large `mha` call runs half its heads on one worker thread, when the
process may use two CPUs (`_over_heads`); its results are bit-identical.
"""
from __future__ import annotations

import functools
import os
import threading

import numpy as np


class NumericsError(RuntimeError):
    """Raised when an op produces NaN or Inf."""


class ShapeError(ValueError):
    """Raised on incompatible operand shapes."""


def _check(arr: np.ndarray, op: str) -> np.ndarray:
    # single-reduction check: NaN/Inf anywhere poisons the sum
    if not np.isfinite(np.sum(arr)):
        if np.all(np.isfinite(arr)):
            return arr  # benign overflow of the sum itself
        raise NumericsError(f"non-finite values produced by {op}")
    return arr


_deferred = False     # True while a `checked_once` call runs: _node skips _check


def checked_once(outputs):
    """Decorator that makes a function a finiteness boundary (see the
    module docstring). `outputs(result)` gives the arrays to check; an
    error the replay does not reproduce names the function."""
    def wrap(fn):
        name = fn.__qualname__

        @functools.wraps(fn)
        def call(*args, **kwargs):
            global _deferred
            if _deferred:
                return fn(*args, **kwargs)
            _deferred = True
            try:
                result = fn(*args, **kwargs)
                for arr in outputs(result):
                    _check(arr, name)
                return result
            except NumericsError:
                pass
            finally:
                _deferred = False
            fn(*args, **kwargs)
            raise NumericsError(f"non-finite values produced by {name}")
        return call
    return wrap


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcasted gradient back to the operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and grad.shape[i] != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad


class Tensor:
    """Dense rank-N array participating in a reverse-mode tape."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False,
                 _parents=(), _backward=None):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = _parents
        self._backward = _backward

    # ------------------------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    # ------------------------------------------------------------------
    def backward(self, grad=None):
        """Accumulate gradients into every reachable requires_grad leaf.

        The walk is iterative, so tape depth is not bounded by Python's
        recursion limit, and it holds no reference cycle: the tape is
        freed as soon as the caller drops the output.
        """
        if grad is None:
            if self.data.size != 1:
                raise ShapeError("backward() without grad requires a scalar output")
            grad = np.ones_like(self.data)
        # Post-order over an explicit stack. Parents are pushed in reverse
        # so that they are expanded first-to-last, giving the same
        # topological order (and so the same gradient sums) as a
        # recursive depth-first walk.
        topo, seen, stack = [], set(), [(self, False)]
        while stack:
            t, expanded = stack.pop()
            if expanded:
                topo.append(t)
            elif id(t) not in seen:
                seen.add(id(t))
                stack.append((t, True))
                stack.extend((p, False) for p in reversed(t._parents))
        grads = {id(self): np.asarray(grad, dtype=self.data.dtype)}
        for t in reversed(topo):
            g = grads.pop(id(t), None)
            if g is None:
                continue
            if t.requires_grad and not t._parents:
                t.grad = g if t.grad is None else t.grad + g
            if t._backward is not None:
                for parent, pg in zip(t._parents, t._backward(g)):
                    if pg is None:
                        continue
                    pid = id(parent)
                    grads[pid] = pg if pid not in grads else grads[pid] + pg

    # ------------------------------------------------------------------
    # arithmetic
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(other, -1.0) if isinstance(other, Tensor) else -other)

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return mul(self, 1.0 / other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        out_data = self.data[key]

        def bw(g):
            full = np.zeros_like(self.data)
            full[key] = g
            return (full,)

        return _node(out_data, (self,), bw, "getitem")

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.data.shape
        return _node(self.data.reshape(shape), (self,),
                     lambda g: (g.reshape(old),), "reshape")

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        inv = tuple(np.argsort(axes))
        return _node(self.data.transpose(axes), (self,),
                     lambda g: (g.transpose(inv),), "transpose")

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else np.prod(
            [self.data.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))])
        return tsum(self, axis=axis, keepdims=keepdims) * (1.0 / float(n))


def _needs_grad(*ts) -> bool:
    return any(isinstance(t, Tensor) and (t.requires_grad or t._parents) for t in ts)


def _node(data, parents, backward, op) -> Tensor:
    if not _deferred:
        _check(data, op)
    if _needs_grad(*parents):
        return Tensor(data, _parents=tuple(parents), _backward=backward)
    return Tensor(data)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ----------------------------------------------------------------------
# primitive ops
def add(a, b) -> Tensor:
    # scalar operands stay python floats so float32 data is not promoted
    if isinstance(a, (int, float)) and isinstance(b, Tensor):
        a, b = b, a
    if isinstance(b, (int, float)):
        a = as_tensor(a)
        c = float(b)
        return _node(a.data + c, (a,), lambda g: (g,), "add")
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def bw(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _node(out, (a, b), bw, "add")


def mul(a, b) -> Tensor:
    if isinstance(a, (int, float)) and isinstance(b, Tensor):
        a, b = b, a
    if isinstance(b, (int, float)):
        a = as_tensor(a)
        c = float(b)
        return _node(a.data * c, (a,), lambda g: (g * c,), "mul")
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def bw(g):
        return (_unbroadcast(g * b.data, a.data.shape),
                _unbroadcast(g * a.data, b.data.shape))

    return _node(out, (a, b), bw, "mul")


def silu(a) -> Tensor:
    """x * sigmoid(x); smooth, so finite-difference checks stay tight."""
    a = as_tensor(a)
    # exp(-x) overflows to inf for very negative x; the quotient is
    # still the correct 0, so the warning is suppressed
    with np.errstate(over="ignore"):
        sig = 1.0 / (1.0 + np.exp(-a.data))
    out = a.data * sig

    def bw(g):
        return (g * (sig + a.data * sig * (1.0 - sig)),)

    return _node(out, (a,), bw, "silu")


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return _node(out, (a,), bw, "sum")


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents disagree: {a.shape} x {b.shape}")
    out = a.data @ b.data

    def bw(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
        return ga, gb

    return _node(out, (a, b), bw, "matmul")


def layer_norm(x, gain, bias) -> Tensor:
    """Layer normalization over the last (channel) axis, eps 1e-5."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    c = x.shape[-1]
    if gain.shape != (c,) or bias.shape != (c,):
        raise ShapeError(f"layer_norm affine shapes {gain.shape}/{bias.shape} "
                         f"do not match channel extent {c}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    ivar = 1.0 / np.sqrt(var + 1e-5)
    xhat = xc * ivar
    out = xhat * gain.data + bias.data

    def bw(g):
        lead = tuple(range(g.ndim - 1))
        dgain = (g * xhat).sum(axis=lead)
        dbias = g.sum(axis=lead)
        dxhat = g * gain.data
        dx = ivar * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                     - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        return dx, dgain, dbias

    return _node(out, (x, gain, bias), bw, "layer_norm")


def concat(xs, axis: int = 0) -> Tensor:
    """Order-preserving concatenation; slicing back recovers inputs exactly."""
    xs = [as_tensor(x) for x in xs]
    ref = list(xs[0].shape)
    for i, x in enumerate(xs[1:], 1):
        s = list(x.shape)
        s[axis] = ref[axis]
        if s != ref:
            raise ShapeError(f"concat operand {i} has shape {x.shape}, "
                             f"incompatible with {xs[0].shape} on axis {axis}")
    out = np.concatenate([x.data for x in xs], axis=axis)
    sizes = [x.shape[axis] for x in xs]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.split(g, splits, axis=axis))

    return _node(out, tuple(xs), bw, "concat")


def linear(x, w, b=None) -> Tensor:
    """x @ w (+ b)."""
    out = matmul(x, w)
    return out if b is None else add(out, b)


# ----------------------------------------------------------------------
# head groups on two threads
# heads * n_q * n_k from which an mha call splits; below it the hand-over
# to the worker costs about what the second CPU saves
SPLIT_MIN = 1 << 16


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity API on this platform
        return os.cpu_count() or 1


class _HeadWorker:
    """A daemon thread that runs one head group of an `mha` call while
    the calling thread runs the other. numpy releases the GIL inside
    matmul and ufunc loops, so the two groups run at the same time."""

    def __init__(self):
        self.busy = threading.Lock()    # held by the thread using the worker
        self._go, self._done = threading.Lock(), threading.Lock()
        self._go.acquire()
        self._done.acquire()
        self._job = self._error = None
        threading.Thread(target=self._loop, name="mha-heads", daemon=True).start()

    def _loop(self):
        while True:
            self._go.acquire()
            try:    # in a frame of its own, so the loop keeps no arrays
                _call_under(*self._job)
            except BaseException as e:      # re-raised on the calling thread
                self._error = e
            self._job = None
            self._done.release()

    def start(self, fn, heads, args):
        self._job = (np.geterr(), fn, heads, args)
        self._go.release()

    def wait(self):
        """Block until the group finishes; return its exception, if any."""
        self._done.acquire()
        error, self._error = self._error, None
        return error


def _call_under(err, fn, heads, args):
    with np.errstate(**err):
        fn(heads, *args)


_worker = None      # started by the first call large enough to split


def _forget_worker():
    global _worker
    _worker = None


if hasattr(os, "register_at_fork"):     # a forked child has no worker thread
    os.register_at_fork(after_in_child=_forget_worker)


def _over_heads(fn, heads: int, size: int, *args):
    """Run fn(head_slice, *args) over every head: once over all of them,
    or, when the call has at least two heads, `size` reaches SPLIT_MIN
    and the process may use two CPUs, as two groups, the first on the
    calling thread and the second on the worker. Each head's result is
    the same either way. The caller always waits for the worker."""
    global _worker
    if heads < 2 or size < SPLIT_MIN or _cpu_count() < 2:
        fn(slice(None), *args)
        return
    if _worker is None:
        _worker = _HeadWorker()
    worker = _worker
    if not worker.busy.acquire(blocking=False):     # another thread has it
        fn(slice(None), *args)
        return
    cut = heads // 2
    worker.start(fn, slice(cut, None), args)
    try:
        fn(slice(0, cut), *args)
    finally:
        # A signal that interrupts the wait skips the release: the worker
        # may still be writing this call's buffers, so later calls run whole.
        error = worker.wait()
        worker.busy.release()
    if error is not None:
        raise error


# ----------------------------------------------------------------------
# multi-head attention kernel
def _attend_heads(hs, qh, kt, vh, scale, bias, scan, attn, out):
    """Forward of heads `hs`: logits into attn[hs], then softmax in
    place, then the weighted values into out[hs]."""
    a = np.matmul(qh[hs], kt[hs], out=attn[hs])
    # Checked even inside a boundary: softmax turns a lone -inf logit
    # into a finite zero weight.
    if scan:
        _check(a, "mha")
    a *= scale
    if bias is not None:
        a += bias
    a -= a.max(axis=-1, keepdims=True)
    np.exp(a, out=a)
    a /= a.sum(axis=-1, keepdims=True)
    np.matmul(a, vh[hs], out=out[hs])


def _attend_heads_backward(hs, gh, qh, kh, vh, attn, scale, dq, dk, dv):
    """Backward of heads `hs` into dq[hs], dk[hs] and dv[hs]."""
    a, g = attn[hs], gh[hs]
    da = g @ np.swapaxes(vh[hs], -1, -2)
    np.matmul(np.swapaxes(a, -1, -2), g, out=dv[hs])
    dl = (da - (da * a).sum(axis=-1, keepdims=True)) * a
    dl *= scale
    np.matmul(dl, kh[hs], out=dq[hs])
    np.matmul(np.swapaxes(qh[hs], -1, -2), dl, out=dk[hs])


def mha(q: Tensor, k: Tensor, v: Tensor, heads: int, mask=None,
        weights_out: dict | None = None) -> Tensor:
    """Multi-head scaled dot-product attention as one tape node.

    q: [n_q, d_q], k: [n_k, d_q], v: [n_k, d_v]. `mask` is an optional
    boolean [n_k]; masked keys get exactly zero attention weight. When
    `weights_out` is given, the per-head weight matrices [heads, n_q, n_k]
    are stored under key "weights".

    Forward and backward run the numpy ops of the equivalent chain of
    reshape, transpose, matmul, scale, softmax and matmul nodes in the
    same order on the same strided head views, so outputs and gradients
    are bit-equal to that chain. The heads stay views: contiguous copies
    change float32 results when n_q or n_k is 1. Every reduction stays
    within one head's rows, so a large call splits its heads across two
    threads (`_over_heads`) without changing a bit.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise ShapeError(f"mha needs [n, d] operands, got {q.shape}, {k.shape}, {v.shape}")
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"q/k channel extents disagree: {q.shape} vs {k.shape}")
    if k.shape[0] != v.shape[0]:
        raise ShapeError(f"k/v sequence extents disagree: {k.shape} vs {v.shape}")
    for d in (q.shape[-1], v.shape[-1]):
        if d % heads != 0:
            raise ShapeError(f"channel extent {d} not divisible by {heads} heads")
    n_q, n_k = q.shape[0], k.shape[0]
    bias = None
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (n_k,):
            raise ShapeError(f"mask length {mask.shape} does not match "
                             f"key count {n_k}")
        if not mask.any():
            raise ShapeError("mha: every key is masked")
        bias = np.where(mask, 0.0, -np.inf)    # added in place: float32 stays float32
    # [n, d] -> [heads, n, d/heads]
    qh, kh, vh = (x.data.reshape(x.shape[0], heads, -1).transpose(1, 0, 2)
                  for x in (q, k, v))
    kt = kh.transpose(0, 2, 1)
    scale = 1.0 / float(np.sqrt(q.shape[-1] // heads))
    # the logits buffer becomes the attention weights in place
    attn = np.empty((heads, n_q, n_k), np.result_type(qh, kt))
    # Each logit is at most d_head * max|q| * max|k| in magnitude; below
    # half the dtype's max none can overflow, so the logits scan is
    # skipped (a NaN or inf in q or k fails the comparison).
    q_max, k_max = (float(np.abs(x.data).max(initial=0.0)) for x in (q, k))
    scan = not qh.shape[-1] * q_max * k_max < float(np.finfo(attn.dtype).max) / 2
    # heads are written straight into the [n_q, heads, d_v/heads] layout
    out = np.empty((n_q, heads, vh.shape[-1]), np.result_type(attn, vh))
    size = heads * n_q * n_k
    _over_heads(_attend_heads, heads, size, qh, kt, vh, scale, bias, scan,
                attn, out.transpose(1, 0, 2))
    if weights_out is not None:
        weights_out["weights"] = attn.copy()

    def bw(g):
        gh = g.reshape(n_q, heads, -1).transpose(1, 0, 2)
        dl_type = np.result_type(g, vh, attn)
        dq = np.empty((n_q, heads, qh.shape[-1]), np.result_type(dl_type, kh))
        # dk stays [heads, d_head, n_k]: in k's layout each head would be
        # column-major, and numpy would compute it as the transposed product
        dk = np.empty((heads, kh.shape[-1], n_k), np.result_type(qh, dl_type))
        dv = np.empty((n_k, heads, vh.shape[-1]), np.result_type(attn, g))
        _over_heads(_attend_heads_backward, heads, size, gh, qh, kh, vh, attn,
                    scale, dq.transpose(1, 0, 2), dk, dv.transpose(1, 0, 2))
        return (dq.reshape(q.shape), dk.transpose(2, 0, 1).reshape(k.shape),
                dv.reshape(v.shape))

    return _node(out.reshape(n_q, -1), (q, k, v), bw, "mha")


# ----------------------------------------------------------------------
# parameters and optimizer
class Param:
    """Named tensor, frozen until a trainer flags it `requires_grad`.

    AdamW moments (`m`, `v`) exist only once `adamw_step` has updated it.
    """

    def __init__(self, name: str, data):
        self.name = name
        self.tensor = Tensor(np.asarray(data, dtype=np.float64))
        self.m = self.v = None
        self.step = 0

    @property
    def data(self) -> np.ndarray:
        return self.tensor.data

    @property
    def grad(self):
        return self.tensor.grad

    def zero_grad(self):
        self.tensor.grad = None

    def set_dtype(self, dtype):
        self.tensor.data = self.tensor.data.astype(dtype)


def params_of(obj) -> list:
    """Every Param reachable from `obj` through dict values and instance
    attributes, in attribute order. Lists and tuples are not searched:
    no module keeps its Params in one."""
    if isinstance(obj, Param):
        return [obj]
    if isinstance(obj, dict):
        children = obj.values()
    elif hasattr(obj, "__dict__"):
        children = vars(obj).values()
    else:
        return []
    return [p for child in children for p in params_of(child)]


def adamw_step(params, lr: float):
    """AdamW update with zero weight decay (so Adam): bias-corrected
    moments, betas (0.9, 0.999), eps 1e-8."""
    b1, b2 = 0.9, 0.999
    for p in params:
        g = p.tensor.grad
        if g is None:
            continue
        if g.shape != p.tensor.data.shape:
            raise ShapeError(f"grad shape {g.shape} does not match param "
                             f"{p.name} shape {p.tensor.data.shape}")
        p.step += 1
        if p.m is None:
            p.m = np.zeros_like(p.tensor.data)
            p.v = np.zeros_like(p.tensor.data)
        p.m = b1 * p.m + (1.0 - b1) * g
        p.v = b2 * p.v + (1.0 - b2) * g * g
        mhat = p.m / (1.0 - b1 ** p.step)
        vhat = p.v / (1.0 - b2 ** p.step)
        p.tensor.data -= lr * mhat / (np.sqrt(vhat) + 1e-8)
