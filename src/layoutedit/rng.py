"""Counter-based deterministic random number generator.

Uses the splitmix64 mixing function on a (seed, counter) pair so that
identical seeds and call sequences reproduce the same stream on any
platform, independent of numpy's global state.
"""
from __future__ import annotations

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_FNV_PRIME = np.uint64(0x100000001B3)


def _mix(x: np.ndarray) -> np.ndarray:
    x = (x ^ (x >> np.uint64(30))) * _M1
    x = (x ^ (x >> np.uint64(27))) * _M2
    return x ^ (x >> np.uint64(31))


class Rng:
    """Deterministic counter-based RNG (splitmix64)."""

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._counter = 0

    def _raw(self, n: int) -> np.ndarray:
        with np.errstate(over="ignore"):
            idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
            self._counter += n
            return _mix(np.uint64(self.seed) + idx * _GAMMA)

    def uniform(self, shape=()) -> np.ndarray:
        """Uniform draws in (0, 1], float64, given shape."""
        n = int(np.prod(shape)) if shape else 1
        u = ((self._raw(n) >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
        return u.reshape(shape) if shape else float(u[0])

    def normal(self, shape=(), std: float = 1.0) -> np.ndarray:
        """Standard-normal draws via Box-Muller."""
        n = int(np.prod(shape)) if shape else 1
        m = (n + 1) // 2
        u1 = ((self._raw(m) >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
        u2 = ((self._raw(m) >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
        r = np.sqrt(-2.0 * np.log(u1))
        z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])[:n]
        z = z * std
        return z.reshape(shape) if shape else float(z[0])

    def randint(self, n: int) -> int:
        """Integer in [0, n) with negligible modulo bias for small n."""
        if n < 1:
            raise ValueError(f"randint needs n >= 1, got {n}")
        return int(self._raw(1)[0] % np.uint64(n))

    def spawn(self, key: str) -> "Rng":
        """Independent child stream derived from a string key.

        Lets parameter init draw from named streams so the result does
        not depend on construction order.
        """
        h = np.uint64(0xCBF29CE484222325)
        with np.errstate(over="ignore"):
            for b in key.encode("utf-8"):
                h = (h ^ np.uint64(b)) * _FNV_PRIME
            return Rng(int(_mix(np.uint64(self.seed) ^ h)))


class NoDraw:
    """Stands in for an `Rng` where a checkpoint load replaces every draw:
    its streams are itself and `normal` gives zeros, so parameter init
    only allocates each array at its shape."""

    def spawn(self, key: str) -> "NoDraw":
        return self

    def normal(self, shape=(), std: float = 1.0) -> np.ndarray:
        return np.zeros(shape)
