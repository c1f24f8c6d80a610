"""Bounded admission queue with deterministic watermark load shedding.

Serving millions of users means arrival rate routinely exceeds service
rate; an unbounded queue converts that mismatch into unbounded latency,
which is worse than honest rejection.  :class:`AdmissionQueue` keeps a
hard depth bound and sheds *at admission time* once depth reaches a
shed watermark — deterministically (a depth comparison, never a coin
flip), so the same arrival sequence always sheds the same requests and
chaos tests can assert exact counts.

Items arrive in bursts and stay in them: the queue holds the admitted
prefix of each burst as one slice and pops FIFO slices, so admission and
dequeueing cost per burst, not per item.  ``len(queue)`` is the
backpressure signal.
"""

from __future__ import annotations

from collections import deque

__all__ = ["AdmissionQueue"]


class AdmissionQueue:
    """FIFO queue bounded by ``max_depth``, shedding at ``shed_watermark``.

    A burst is anything with ``len`` and slicing (a list, a range, a
    :class:`~repro.communities.PostTable`); depth counts its items.

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
        self._depth = 0
        self._bursts: deque = deque()

    def __len__(self) -> int:
        return self._depth

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

    def offer_many(self, items) -> tuple[int, str | None]:
        """Enqueue a burst's :meth:`admissible` prefix and shed the rest.

        Returns ``(admitted, reason)``: the prefix length and the one
        reason for the shed rest (``None`` if nothing was shed).
        Rejections do not change depth, so every shed decision in one
        burst is the same: ``queue-full`` at ``max_depth``, else
        ``queue-watermark``.
        """
        admitted = self.admissible(len(items))
        if admitted:
            self._bursts.append(
                items if admitted == len(items) else items[:admitted]
            )
            self._depth += admitted
            self.peak_depth = max(self.peak_depth, self._depth)
        if admitted == len(items):
            return admitted, None
        if self.max_depth is not None and self._depth >= self.max_depth:
            return admitted, "queue-full"
        return admitted, "queue-watermark"

    def pop(self, limit: int) -> list:
        """Dequeue up to ``limit`` of the oldest items.

        Returns them FIFO as slices of the bursts that brought them.
        """
        parts = []
        while limit > 0 and self._bursts:
            head = self._bursts[0]
            size = len(head)
            if size > limit:
                self._bursts[0] = head[limit:]
                head, size = head[:limit], limit
            else:
                self._bursts.popleft()
            parts.append(head)
            limit -= size
            self._depth -= size
        return parts
