"""Copa (Arun & Balakrishnan, NSDI '18) -- simplified default mode.

The paper lists Copa among the recently proposed protocols that "do not
have as clear weaknesses" as loss-based TCP (section 4); implementing it
lets the adversarial framework be pointed at a delay-based target.

Model: Copa steers its sending rate toward ``1 / (delta * dq)`` packets
per RTT-second, where ``dq`` is the measured queuing delay (RTTstanding
minus RTTmin).  The window moves toward the target by ``v / (delta *
cwnd)`` per ack, with the velocity ``v`` doubling each RTT the direction
is stable and resetting on reversal.
"""

from __future__ import annotations

from collections import deque

from repro.cc.packet import AckInfo
from repro.cc.protocols.base import Sender

__all__ = ["CopaSender"]


class CopaSender(Sender):
    """Delay-based congestion control targeting low standing queues."""

    name = "copa"

    def __init__(
        self,
        delta: float = 0.5,
        initial_cwnd: float = 10.0,
        rtt_min_window_s: float = 10.0,
        standing_window_factor: float = 0.5,
    ) -> None:
        super().__init__()
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.delta = delta
        self.cwnd = float(initial_cwnd)
        self.rtt_min_window_s = rtt_min_window_s
        self.standing_window_factor = standing_window_factor
        # Windowed-min filters as monotonic deques of (time, rtt).
        self._rtt_min: deque[tuple[float, float]] = deque()
        self._rtt_standing: deque[tuple[float, float]] = deque()
        self.velocity = 1.0
        self._direction = 0  # +1 growing, -1 shrinking
        self._direction_since = 0.0
        self._last_rtt_update = 0.0

    # -- filters --------------------------------------------------------------

    @property
    def rtt_min_s(self) -> float | None:
        return self._rtt_min[0][1] if self._rtt_min else None

    @property
    def rtt_standing_s(self) -> float | None:
        return self._rtt_standing[0][1] if self._rtt_standing else None

    def queuing_delay_s(self) -> float:
        if self.rtt_min_s is None or self.rtt_standing_s is None:
            return 0.0
        return max(self.rtt_standing_s - self.rtt_min_s, 0.0)

    # -- hooks -----------------------------------------------------------------

    def on_ack(self, ack: AckInfo) -> None:
        # Hot path (one call per delivered packet): both windowed-min
        # filters are pushed inline and each head is read once, and
        # comparisons stand in for ``max``/``min`` (same floats, NaN
        # included; the CC goldens pin them).
        now = ack.now
        rtt = ack.rtt_s
        srtt = self.srtt_s if self.srtt_s is not None else rtt
        # Each filter is a monotonic deque of (time, rtt): drop the
        # samples the new one dominates, then the ones aged out.
        mins = self._rtt_min
        while mins and mins[-1][1] >= rtt:
            mins.pop()
        mins.append((now, rtt))
        while mins and mins[0][0] < now - self.rtt_min_window_s:
            mins.popleft()
        window = self.standing_window_factor * srtt
        if window < 0.01:
            window = 0.01
        standing = self._rtt_standing
        while standing and standing[-1][1] >= rtt:
            standing.pop()
        standing.append((now, rtt))
        while standing and standing[0][0] < now - window:
            standing.popleft()
        rtt_min = mins[0][1] if mins else None
        rtt_standing = standing[0][1] if standing else None

        if rtt_min is None or rtt_standing is None:
            dq = 0.0
        else:
            dq = rtt_standing - rtt_min
            if dq < 0.0:
                dq = 0.0
        if dq <= 1e-6:
            target_rate = float("inf")
        else:
            target_rate = 1.0 / (self.delta * dq)  # packets per second
        rtt_now = rtt_standing or srtt
        if rtt_now < 1e-6:
            rtt_now = 1e-6
        current_rate = self.cwnd / rtt_now

        direction = 1 if current_rate < target_rate else -1
        if direction != self._direction:
            self._direction = direction
            self._direction_since = now
            self.velocity = 1.0
        elif now - self._direction_since > 2.0 * srtt:
            # Stable direction for a couple of RTTs: accelerate.
            velocity = self.velocity * 2.0
            self.velocity = self.cwnd if self.cwnd < velocity else velocity
            self._direction_since = now
        cwnd = self.cwnd + direction * self.velocity / (self.delta * self.cwnd)
        self.cwnd = 2.0 if cwnd < 2.0 else cwnd

    def on_packet_lost(self, seq: int, now: float) -> None:
        # Default-mode Copa reacts to loss only through the delay signal.
        return

    def on_timeout(self, now: float) -> None:
        self.cwnd = 2.0
        self.velocity = 1.0
        self._direction = 0

    # -- controls ------------------------------------------------------------------

    @property
    def cwnd_packets(self) -> int:
        cwnd = int(self.cwnd)
        return cwnd if cwnd > 2 else 2

    def pacing_rate_bps(self, now: float) -> float:
        rtt = self.rtt_standing_s or self.srtt_s or 0.1
        return 2.0 * self.cwnd * self.mss * 8.0 / rtt
