"""Online mean/variance tracking for observation normalization."""

from __future__ import annotations

import numpy as np

try:
    # np.clip and ndarray.clip both reach this ufunc through a Python
    # wrapper (numpy._core._methods._clip); calling it directly is bitwise
    # identical minus the wrapper's frames.
    from numpy._core.umath import clip as _clip_ufunc
except ImportError:  # pragma: no cover - numpy < 2 names the module numpy.core
    from numpy.core.umath import clip as _clip_ufunc

__all__ = ["RunningMeanStd"]


class RunningMeanStd:
    """Tracks mean and variance with Chan et al.'s parallel-update formula.

    Used to normalize observations before they reach the policy network,
    which materially stabilizes PPO on environments whose features span
    several orders of magnitude (e.g. chunk sizes in bytes vs. buffer
    seconds in the ABR adversary environment).

    :meth:`normalize` divides by ``sqrt(var + 1e-8)``, which is computed
    when ``var`` is assigned (by :meth:`update`, :meth:`load_state` or a
    caller) rather than on every call.  ``var`` is therefore replaced,
    never written in place: ``rms.var = new`` refreshes the scale,
    ``rms.var[i] = x`` would not.
    """

    def __init__(self, shape: tuple[int, ...] = ()) -> None:
        self.mean = np.zeros(shape)
        self.var = np.ones(shape)
        self.count = 1e-4

    @property
    def var(self) -> np.ndarray:
        return self._var

    @var.setter
    def var(self, value: np.ndarray) -> None:
        self._var = value
        self._scale = np.sqrt(value + 1e-8)

    def update(self, batch: np.ndarray) -> None:
        batch = np.atleast_2d(np.asarray(batch, dtype=float))
        batch_mean = batch.mean(axis=0)
        batch_var = batch.var(axis=0)
        batch_count = batch.shape[0]

        delta = batch_mean - self.mean
        total = self.count + batch_count
        new_mean = self.mean + delta * batch_count / total
        m_a = self.var * self.count
        m_b = batch_var * batch_count
        m2 = m_a + m_b + delta**2 * self.count * batch_count / total
        self.mean = new_mean
        self.var = m2 / total
        self.count = total

    def normalize(self, x: np.ndarray, clip: float = 10.0) -> np.ndarray:
        """Return ``(x - mean) / sqrt(var + 1e-8)`` clipped to ``[-clip, clip]``."""
        return _clip_ufunc((np.asarray(x, dtype=float) - self.mean) / self._scale, -clip, clip)

    def state(self) -> dict:
        return {"mean": self.mean.copy(), "var": self.var.copy(), "count": self.count}

    def load_state(self, state: dict) -> None:
        self.mean = np.asarray(state["mean"], dtype=float).copy()
        self.var = np.asarray(state["var"], dtype=float).copy()
        self.count = float(state["count"])
