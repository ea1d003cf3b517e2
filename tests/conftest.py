import numpy as np
import pytest
from hypothesis import strategies as st

from layoutedit.tensor import Tensor


def fd_grad(fn, arr: np.ndarray, step: float = 1e-3) -> np.ndarray:
    """Central finite differences of scalar fn w.r.t. every entry of arr."""
    out = np.zeros_like(arr, dtype=np.float64)
    flat, gflat = arr.reshape(-1), out.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + step
        hi = fn()
        flat[i] = old - step
        lo = fn()
        flat[i] = old
        gflat[i] = (hi - lo) / (2.0 * step)
    return out


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b) / denom))


def assert_grad_matches(build_scalar, leaf: Tensor, tol: float = 1e-4):
    """build_scalar() must recompute the scalar Tensor from leaf.data."""
    leaf.grad = None
    out = build_scalar()
    out.backward()
    analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
    numeric = fd_grad(lambda: build_scalar().item(), leaf.data)
    assert rel_err(analytic, numeric) < tol


@pytest.fixture
def np_rng():
    return np.random.default_rng(0)


_PPM_NUMBERS = st.one_of(
    st.integers(0, 20).map(lambda n: str(n).encode()),
    st.sampled_from([b"16", b"255", b"65535", b"0000000016", b"-1", b"x",
                     b"1" * 10, b"9" * 5000]))
_PPM_SEPARATORS = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"# c\n",
                                   b" #c\r", b""])


@st.composite
def ppm_blobs(draw):
    """P6-like files: a magic, three header numbers between separators
    and comments, then a payload of the size they give, or not."""
    parts = [draw(st.sampled_from([b"P6", b"P5", b"P3", b"", b"6P"]))]
    numbers = []
    for _ in range(3):
        numbers.append(draw(_PPM_NUMBERS))
        parts += [draw(_PPM_SEPARATORS), numbers[-1]]
    parts.append(draw(st.sampled_from([b"\n", b" ", b"", b"\n\n"])))
    size = 0
    if all(n.isdigit() and len(n) < 6 for n in numbers[:2]):
        size = int(numbers[0]) * int(numbers[1]) * 3
    size = draw(st.sampled_from([size, max(size - 1, 0), size + 3, 0]))
    parts.append(draw(st.binary(min_size=min(size, 1500), max_size=min(size, 1500))))
    return b"".join(parts)
