"""Action and observation spaces (gym-compatible subset)."""

from __future__ import annotations

import numpy as np

from repro.rl.running_stat import _clip_ufunc

__all__ = ["Box", "Discrete", "Space"]


class Space:
    """Base class for spaces."""

    def sample(self, rng: np.random.Generator):
        raise NotImplementedError

    def contains(self, x) -> bool:
        raise NotImplementedError


class Discrete(Space):
    """A finite set of actions ``{0, ..., n-1}``."""

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError(f"Discrete space needs n > 0, got {n}")
        self.n = int(n)

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.n))

    def contains(self, x) -> bool:
        try:
            xi = int(x)
        except (TypeError, ValueError):
            return False
        return 0 <= xi < self.n and float(x) == xi

    def __repr__(self) -> str:
        return f"Discrete({self.n})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Discrete) and other.n == self.n


class Box(Space):
    """A box in R^d with per-dimension bounds.

    The paper's adversary action spaces are boxes -- e.g. the congestion
    control adversary acts in bandwidth x latency x loss (Table 1).  PPO
    samples unbounded Gaussian actions; :meth:`clip` maps them back into the
    box ("exploration and clipping done by PPO will return the actions to
    the acceptable range", section 4).
    """

    def __init__(self, low, high) -> None:
        self.low = np.asarray(low, dtype=float).ravel()
        self.high = np.asarray(high, dtype=float).ravel()
        if self.low.shape != self.high.shape:
            raise ValueError("low and high must have the same shape")
        if np.any(self.low >= self.high):
            raise ValueError("each low bound must be strictly below its high bound")

    @property
    def dim(self) -> int:
        return self.low.shape[0]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.low.shape

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.low, self.high)

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float).ravel()
        if x.shape != self.low.shape:
            return False
        return bool(np.all(x >= self.low) and np.all(x <= self.high))

    def clip(self, x) -> np.ndarray:
        """Clip a point (or batch) into the box."""
        return np.clip(np.asarray(x, dtype=float), self.low, self.high)

    def scale_from_unit(self, u) -> np.ndarray:
        """Map ``u`` in [-1, 1]^d affinely onto the box."""
        u = _clip_ufunc(np.asarray(u, dtype=float), -1.0, 1.0)
        return self.low + (u + 1.0) * 0.5 * (self.high - self.low)

    def to_unit(self, x) -> np.ndarray:
        """Map a box point to [-1, 1]^d (inverse of :meth:`scale_from_unit`)."""
        x = np.asarray(x, dtype=float)
        return 2.0 * (x - self.low) / (self.high - self.low) - 1.0

    def __repr__(self) -> str:
        return f"Box(low={self.low.tolist()}, high={self.high.tolist()})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Box)
            and np.array_equal(other.low, self.low)
            and np.array_equal(other.high, self.high)
        )
