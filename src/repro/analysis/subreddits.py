"""Subreddit analysis: Table 6.

Reddit is the only studied community with sub-communities; the paper
ranks subreddits by their share of meme posts for all memes, racist memes
and politics-related memes.  The_Donald tops all three lists.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.core.results import PipelineResult

__all__ = ["SubredditRow", "top_subreddits"]


@dataclass(frozen=True)
class SubredditRow:
    """One row of Table 6."""

    subreddit: str
    posts: int
    percent: float


def top_subreddits(
    result: PipelineResult,
    *,
    group: str = "all",
    n: int = 10,
) -> list[SubredditRow]:
    """Table 6: top subreddits by share of Reddit's meme posts.

    Parameters
    ----------
    group:
        ``"all"``, ``"racist"`` or ``"politics"``.
    n:
        Rows to return.

    Percentages are over Reddit's meme posts *of that group* (The_Donald
    included), matching the paper's Table 6 where e.g. The_Donald holds
    26.4% of the politics-meme posts but 12.5% of all meme posts.
    """
    if group == "racist":
        member = result.occurrences.is_racist
    elif group == "politics":
        member = result.occurrences.is_politics
    elif group == "all":
        member = np.ones(len(result.occurrences), dtype=bool)
    else:
        raise ValueError(f"unknown group {group!r}")
    subreddits = result.occurrences.posts.subreddit
    counter = Counter(subreddits[member & np.not_equal(subreddits, None)].tolist())
    total = max(counter.total(), 1)
    return [
        SubredditRow(subreddit=name, posts=count, percent=100.0 * count / total)
        for name, count in counter.most_common(n)
    ]
