"""Resumable event sources over a world's materialised post stream.

The synthetic world generates its posts from per-entry Hawkes
simulations and sorts them into a single deterministic timeline
(``(timestamp, community, image_id)``; see
:meth:`repro.communities.world.SyntheticWorld.generate`).  The
streaming layer treats that timeline as an unbounded feed:
:class:`EventSource` exposes it through a *cursor* — an event count —
so a recovered ingester resumes exactly where its durable state ends,
and events shed by backpressure are simply re-read.

:class:`PrefixWorld` is the verification counterpart: a read-only view
of the same world truncated to the first ``n`` events, so a cold batch
:func:`repro.core.run_pipeline` over it defines the ground truth the
streamed state must equal bit-for-bit.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.communities.models import PostTable

__all__ = ["EventSource", "PrefixWorld"]


class EventSource:
    """Cursor-based reader over an ordered post timeline.

    Reads are stateless (the caller owns the cursor): ``read(cursor,
    k)`` returns up to ``k`` posts starting at event ``cursor``, as a
    :class:`~repro.communities.models.PostTable` slice.  A
    recovered ingester passes its durable event count as the cursor and
    the stream continues with no gaps or duplicates — the replay
    contract that makes at-least-once delivery from the source
    exactly-once in the durable state.
    """

    def __init__(self, posts: PostTable) -> None:
        self._posts = posts

    @property
    def n_events(self) -> int:
        """Total events currently materialised in the timeline."""
        return len(self._posts)

    def read(self, cursor: int, max_events: int) -> PostTable:
        """Up to ``max_events`` posts starting at event index ``cursor``."""
        if cursor < 0:
            raise ValueError("cursor must be non-negative")
        if max_events < 1:
            raise ValueError("max_events must be >= 1")
        return self._posts[cursor : cursor + max_events]

    def batches(self, cursor: int, batch_size: int) -> Iterator[PostTable]:
        """Iterate the remaining stream in ``batch_size`` chunks."""
        while cursor < self.n_events:
            batch = self.read(cursor, batch_size)
            cursor += len(batch)
            yield batch


class PrefixWorld:
    """A world truncated to its first ``n_events`` posts (read-only view).

    Everything except ``posts`` (KYM site, template library, config,
    catalog) delegates to the base world, so the batch pipeline runs
    against exactly the context the ingester saw — the comparison
    baseline for the streamed-equals-batch invariant.
    """

    def __init__(self, world, n_events: int) -> None:
        if n_events < 0 or n_events > len(world.posts):
            raise ValueError(
                f"n_events must be in [0, {len(world.posts)}], got {n_events}"
            )
        self._world = world
        self.posts = world.posts[:n_events]

    def __getattr__(self, name: str):
        return getattr(self._world, name)
