"""The :class:`Trace` data structure.

A trace is "a time-ordered list of network conditions like bandwidth,
latency and loss rate" (section 2.1).  Segments are piecewise constant:
segment ``i`` spans ``[timestamps[i], timestamps[i+1])`` (the final segment
extends to :attr:`duration`).  Latency and loss are optional -- ABR traces
only vary bandwidth, congestion-control traces vary all three.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["Trace"]


def _samples(label: str, values) -> np.ndarray:
    """``values`` as a finite 1-D float array, or a ``ValueError`` naming it."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"{label} must be a 1-D array")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{label} must be finite")
    return values


@dataclass
class Trace:
    """A piecewise-constant network-condition schedule.

    Construction rejects malformed samples with a ``ValueError`` that names
    them: arrays that are not 1-D or not finite, unordered timestamps,
    negative bandwidths or latencies, loss rates outside [0, 1], and a
    duration that is not finite or ends before the last timestamp.
    """

    timestamps: np.ndarray
    bandwidths_mbps: np.ndarray
    latencies_ms: np.ndarray | None = None
    loss_rates: np.ndarray | None = None
    name: str = "trace"
    duration: float | None = None

    def __post_init__(self) -> None:
        self.timestamps = _samples("timestamps", self.timestamps)
        self.bandwidths_mbps = _samples("bandwidths", self.bandwidths_mbps)
        if len(self.timestamps) == 0:
            raise ValueError("timestamps must be non-empty")
        if len(self.timestamps) != len(self.bandwidths_mbps):
            raise ValueError("timestamps and bandwidths must have equal length")
        if np.any(np.diff(self.timestamps) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        if np.any(self.bandwidths_mbps < 0):
            raise ValueError("bandwidths must be non-negative")
        for attr, label in (("latencies_ms", "latencies"), ("loss_rates", "loss rates")):
            val = getattr(self, attr)
            if val is not None:
                val = _samples(label, val)
                if len(val) != len(self.timestamps):
                    raise ValueError(f"{attr} length must match timestamps")
                setattr(self, attr, val)
        if self.latencies_ms is not None and np.any(self.latencies_ms < 0):
            raise ValueError("latencies must be non-negative")
        if self.loss_rates is not None and (
            np.any(self.loss_rates < 0) or np.any(self.loss_rates > 1)
        ):
            raise ValueError("loss rates must be in [0, 1]")
        # Segment starts relative to the first timestamp, built once: every
        # lookup searches this array.
        self._starts = self.timestamps - self.timestamps[0]
        if self.duration is None:
            # Assume the last segment lasts as long as the median step.
            if len(self.timestamps) > 1:
                step = float(np.median(np.diff(self.timestamps)))
            else:
                step = 1.0
            self.duration = float(self.timestamps[-1]) + step - float(self.timestamps[0])
        if not math.isfinite(self.duration):
            raise ValueError("duration must be finite")
        if self.duration <= self._starts[-1]:
            raise ValueError("duration must extend past the last timestamp")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def constant(
        cls,
        bandwidth_mbps: float,
        duration: float,
        latency_ms: float | None = None,
        loss_rate: float | None = None,
        name: str = "constant",
    ) -> "Trace":
        """A single-segment trace with fixed conditions."""
        return cls(
            timestamps=np.array([0.0]),
            bandwidths_mbps=np.array([float(bandwidth_mbps)]),
            latencies_ms=None if latency_ms is None else np.array([float(latency_ms)]),
            loss_rates=None if loss_rate is None else np.array([float(loss_rate)]),
            name=name,
            duration=float(duration),
        )

    @classmethod
    def from_steps(
        cls,
        bandwidths_mbps,
        step_seconds: float,
        latencies_ms=None,
        loss_rates=None,
        name: str = "steps",
    ) -> "Trace":
        """Build a trace from equally spaced segments of ``step_seconds``."""
        bw = np.asarray(bandwidths_mbps, dtype=float)
        ts = np.arange(len(bw)) * float(step_seconds)
        return cls(
            timestamps=ts,
            bandwidths_mbps=bw,
            latencies_ms=latencies_ms,
            loss_rates=loss_rates,
            name=name,
            duration=len(bw) * float(step_seconds),
        )

    # -- lookup ----------------------------------------------------------------

    def _segment_at(self, t: float, loop: bool) -> int:
        rel = t - self.timestamps[0]
        if loop:
            rel = rel % self.duration
        elif rel < 0 or rel >= self.duration:
            raise ValueError(f"time {t} outside trace duration {self.duration}")
        return int(np.searchsorted(self._starts, rel, side="right") - 1)

    def bandwidth_at(self, t: float, loop: bool = True) -> float:
        """Bandwidth (Mbps) at absolute time ``t`` (looping by default)."""
        return float(self.bandwidths_mbps[self._segment_at(t, loop)])

    def latency_at(self, t: float, loop: bool = True) -> float:
        if self.latencies_ms is None:
            raise ValueError("trace has no latency schedule")
        return float(self.latencies_ms[self._segment_at(t, loop)])

    def loss_at(self, t: float, loop: bool = True) -> float:
        if self.loss_rates is None:
            raise ValueError("trace has no loss schedule")
        return float(self.loss_rates[self._segment_at(t, loop)])

    def segment_end(self, index: int) -> float:
        """End time (relative to trace start) of segment ``index``."""
        if index < len(self._starts) - 1:
            return float(self._starts[index + 1])
        return float(self.duration)

    # -- statistics --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.timestamps)

    def mean_bandwidth(self) -> float:
        """Time-weighted mean bandwidth over the trace (Mbps)."""
        widths = np.diff(np.append(self._starts, self.duration))
        return float(np.sum(self.bandwidths_mbps * widths) / self.duration)

    def smoothness(self) -> float:
        """Mean absolute step-to-step bandwidth change (Mbps).

        This is the quantity the adversary's ``p_smoothing`` term penalizes;
        lower means a more explainable trace (section 2.1).
        """
        if len(self.bandwidths_mbps) < 2:
            return 0.0
        return float(np.mean(np.abs(np.diff(self.bandwidths_mbps))))

    # -- transforms -----------------------------------------------------------------

    def slice(self, t_start: float, t_end: float, name: str | None = None) -> "Trace":
        """Return the sub-trace covering ``[t_start, t_end)`` (no looping)."""
        if not 0.0 <= t_start < t_end <= self.duration:
            raise ValueError("invalid slice bounds")
        first = int(np.searchsorted(self._starts, t_start, side="right") - 1)
        last = int(np.searchsorted(self._starts, t_end, side="left"))
        ts = self._starts[first:last].copy()
        ts[0] = t_start
        pick = slice(first, last)
        return Trace(
            timestamps=ts - t_start,
            bandwidths_mbps=self.bandwidths_mbps[pick].copy(),
            latencies_ms=None if self.latencies_ms is None else self.latencies_ms[pick].copy(),
            loss_rates=None if self.loss_rates is None else self.loss_rates[pick].copy(),
            name=name if name is not None else f"{self.name}[{t_start:.1f}:{t_end:.1f}]",
            duration=t_end - t_start,
        )

    def scaled(self, factor: float, name: str | None = None) -> "Trace":
        """Return a copy with all bandwidths multiplied by ``factor``."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return Trace(
            timestamps=self.timestamps.copy(),
            bandwidths_mbps=self.bandwidths_mbps * factor,
            latencies_ms=None if self.latencies_ms is None else self.latencies_ms.copy(),
            loss_rates=None if self.loss_rates is None else self.loss_rates.copy(),
            name=name if name is not None else f"{self.name}x{factor:g}",
            duration=self.duration,
        )

    # -- caching ----------------------------------------------------------------------

    def __cache_state__(self) -> dict:
        """Content identity for :mod:`repro.exec.cache`: the samples only.

        ``name`` is a display label -- renaming a trace must not change
        what any session replayed over it computes, so it is excluded
        from cache keys.
        """
        return {
            "timestamps": self.timestamps,
            "bandwidths_mbps": self.bandwidths_mbps,
            "latencies_ms": self.latencies_ms,
            "loss_rates": self.loss_rates,
            "duration": self.duration,
        }

    # -- persistence -------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "duration": self.duration,
            "timestamps": self.timestamps.tolist(),
            "bandwidths_mbps": self.bandwidths_mbps.tolist(),
            "latencies_ms": None if self.latencies_ms is None else self.latencies_ms.tolist(),
            "loss_rates": None if self.loss_rates is None else self.loss_rates.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Trace":
        return cls(
            timestamps=np.asarray(data["timestamps"], dtype=float),
            bandwidths_mbps=np.asarray(data["bandwidths_mbps"], dtype=float),
            latencies_ms=data.get("latencies_ms"),
            loss_rates=data.get("loss_rates"),
            name=data.get("name", "trace"),
            duration=data.get("duration"),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        return cls.from_dict(json.loads(Path(path).read_text()))
