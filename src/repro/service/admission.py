"""Bounded admission queue with deterministic watermark load shedding.

Serving millions of users means arrival rate routinely exceeds service
rate; an unbounded queue converts that mismatch into unbounded latency,
which is worse than honest rejection.  :class:`AdmissionQueue` keeps a
hard depth bound and sheds *at admission time* once depth reaches a
shed watermark — deterministically (a depth comparison, never a coin
flip), so the same arrival sequence always sheds the same requests and
chaos tests can assert exact counts.

The shed decision and its reason travel back to the caller in an
:class:`AdmissionDecision`, which doubles as the backpressure signal:
callers see the queue depth on every offer and can slow down before the
watermark is hit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

__all__ = ["AdmissionDecision", "AdmissionQueue"]


@dataclass(frozen=True)
class AdmissionDecision:
    """Admission outcome of one item in :meth:`AdmissionQueue.offer_many`.

    Attributes
    ----------
    admitted:
        Whether the item was enqueued.
    reason:
        Shed reason (``"queue-watermark"`` or ``"queue-full"``) when
        rejected, else ``None``.
    depth:
        Queue depth *after* the decision — the backpressure signal.
    """

    admitted: bool
    reason: str | None
    depth: int


class AdmissionQueue:
    """FIFO queue bounded by ``max_depth``, shedding at ``shed_watermark``.

    Parameters
    ----------
    max_depth:
        Hard bound on queued items; ``None`` means unbounded (the
        pass-through configuration used for bit-identity checks).
    shed_watermark:
        Depth at which arrivals start being shed; defaults to
        ``max_depth``.  Setting it below ``max_depth`` leaves headroom
        so that bursts arriving while shedding never hit the hard bound.
    """

    def __init__(
        self,
        *,
        max_depth: int | None = None,
        shed_watermark: int | None = None,
    ) -> None:
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be >= 1 (or None for unbounded)")
        if shed_watermark is not None:
            if shed_watermark < 1:
                raise ValueError("shed_watermark must be >= 1")
            if max_depth is not None and shed_watermark > max_depth:
                raise ValueError("shed_watermark must be <= max_depth")
        self.max_depth = max_depth
        self.shed_watermark = (
            shed_watermark if shed_watermark is not None else max_depth
        )
        self.peak_depth = 0
        self._items: deque = deque()

    def __len__(self) -> int:
        return len(self._items)

    def admissible(self, n: int) -> int:
        """How many of ``n`` arrivals the watermark rule admits now.

        An arrival is admitted while depth is below both bounds;
        admission only grows depth, so a burst splits into an admitted
        prefix of this length and a shed suffix.
        """
        bounds = [b for b in (self.max_depth, self.shed_watermark) if b is not None]
        if not bounds:
            return n
        return max(0, min(n, min(bounds) - len(self)))

    def offer_many(self, items) -> list[AdmissionDecision]:
        """Admit a burst or shed it, deterministically by current depth.

        The burst's :meth:`admissible` prefix is enqueued.  Rejections do
        not change depth, so every shed decision in one burst is the
        same decision: ``queue-full`` at ``max_depth``, else
        ``queue-watermark``.
        """
        items = list(items)
        capacity = self.admissible(len(items))
        depth = len(self._items)
        decisions: list[AdmissionDecision] = []
        for position in range(capacity):
            self._items.append(items[position])
            depth += 1
            decisions.append(AdmissionDecision(True, None, depth))
        self.peak_depth = max(self.peak_depth, depth)
        if capacity < len(items):
            if self.max_depth is not None and depth >= self.max_depth:
                reason = "queue-full"
            else:
                reason = "queue-watermark"
            shed = AdmissionDecision(False, reason, depth)
            decisions.extend([shed] * (len(items) - capacity))
        return decisions

    def pop(self):
        """Dequeue the oldest item, or ``None`` when empty."""
        if not self._items:
            return None
        return self._items.popleft()
