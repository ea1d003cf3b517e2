"""Finite-difference verification of reverse-mode gradients.

Central differences at step 1e-3 in double precision against a scalar
head (fixed random projection of the module output). Large parameter
groups are subsampled entry-wise; every checked entry must agree within
the relative tolerance. A group whose tape gradient is exactly zero passes
trivially and is reported as such.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import Rng
from .tensor import Param, Tensor

FD_STEP = 1e-3
REL_TOL = 1e-4


def relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def finite_diff(fn, arr: np.ndarray, idx) -> float:
    old = arr[idx]
    arr[idx] = old + FD_STEP
    hi = fn()
    arr[idx] = old - FD_STEP
    lo = fn()
    arr[idx] = old
    return (hi - lo) / (2.0 * FD_STEP)


@dataclass
class GroupReport:
    name: str
    max_rel_err: float
    entries: int
    zero: bool          # the tape gradient is exactly zero everywhere

    @property
    def passed(self) -> bool:
        return self.max_rel_err < REL_TOL

    @property
    def result(self) -> str:
        return "FAIL" if not self.passed else "zero" if self.zero else "pass"


def check_param_group(fn, param: Param, rng: Rng, max_entries: int,
                      corrupt: bool = False) -> GroupReport:
    """Compare the tape gradient of `fn()` (a fresh scalar Tensor per
    call) against central differences on sampled entries of `param`."""
    was = param.tensor.requires_grad
    param.tensor.requires_grad = True
    param.zero_grad()
    out = fn()
    out.backward()
    grad = param.tensor.grad
    if grad is None:
        grad = np.zeros_like(param.data)
    zero = not grad.any()
    if corrupt:
        grad = grad + 1.0
    flat = param.data.reshape(-1)
    n = flat.size
    picks = (range(n) if n <= max_entries
             else sorted({rng.randint(n) for _ in range(max_entries)}))
    worst = 0.0
    scalar = lambda: fn().item()
    for i in picks:
        fd = finite_diff(scalar, flat, i)
        worst = max(worst, relative_error(float(grad.reshape(-1)[i]), fd))
    param.tensor.requires_grad = was
    param.zero_grad()
    return GroupReport(name=param.name, max_rel_err=worst, entries=len(picks),
                       zero=zero)


def audit(groups, rng: Rng, max_entries: int, corrupt: str | None = None) -> list:
    """Check each (param, scalar_fn) group in order, sampling entries from
    one `rng`; the group named `corrupt` gets a wrong gradient (test hook)."""
    return [check_param_group(fn, p, rng, max_entries, corrupt=(p.name == corrupt))
            for p, fn in groups]


def projection_head(rng: Rng, key: str):
    """Return a closure turning a Tensor output into a fixed scalar: the
    sum of the output times a frozen random array."""
    r = rng.spawn(key)
    cache = {}

    def head(out: Tensor) -> Tensor:
        if "R" not in cache:
            cache["R"] = r.normal(out.shape)
        return (out * Tensor(cache["R"].astype(out.dtype))).sum()

    return head
