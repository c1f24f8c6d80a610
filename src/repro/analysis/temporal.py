"""Temporal analysis: the daily meme-share series of Fig. 8.

The paper plots, per community, the percentage of each day's posts that
contain memes — for all memes, racist memes and politics-related memes.
The denominator (total posts per day) is taken as the community's overall
posting volume spread over the horizon, which matches the flat crawls of
Table 1 and keeps the numerator's structure (election spikes, Gab's ramp)
visible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.communities.models import COMMUNITIES
from repro.core.results import PipelineResult

__all__ = ["DailySeries", "daily_meme_share"]


@dataclass(frozen=True)
class DailySeries:
    """Per-community daily percentages over a common day grid."""

    days: np.ndarray
    percent_by_community: dict[str, np.ndarray]

    def peak_day(self, community: str) -> float:
        """Day index with the highest share for ``community``."""
        series = self.percent_by_community[community]
        return float(self.days[int(np.argmax(series))])

    def mean_share(self, community: str, start: float, stop: float) -> float:
        """Average share within the day window ``[start, stop)``."""
        mask = (self.days >= start) & (self.days < stop)
        series = self.percent_by_community[community]
        return float(series[mask].mean()) if np.any(mask) else 0.0


def daily_meme_share(
    world,
    result: PipelineResult,
    *,
    group: str = "all",
    communities: tuple[str, ...] = COMMUNITIES,
) -> DailySeries:
    """Fig. 8: percent of posts per day containing memes of ``group``.

    Parameters
    ----------
    world:
        The generated world (for total post volumes and the horizon).
    result:
        Pipeline output whose occurrences are the numerator.
    group:
        ``"all"``, ``"racist"`` or ``"politics"``.
    """
    if group not in ("all", "racist", "politics"):
        raise ValueError(f"unknown group {group!r}")
    horizon = world.config.horizon_days
    n_days = int(np.ceil(horizon))
    days = np.arange(n_days, dtype=np.float64)

    if group == "racist":
        keep = result.occurrences.is_racist
    elif group == "politics":
        keep = result.occurrences.is_politics
    else:
        keep = np.ones(len(result.occurrences), dtype=bool)

    # Total posts per day per community (text posts included), assumed
    # uniform over the crawl as in Table 1.
    totals = {}
    for community in communities:
        image_posts = len(world.posts_of(community))
        multiplier = 1.0 + world.profiles[community].text_post_multiplier
        totals[community] = max(image_posts * multiplier / n_days, 1e-9)

    posts = result.occurrences.posts
    days_of = np.minimum(posts.timestamp.astype(np.int64), n_days - 1)
    percent = {}
    for community in communities:
        hits = days_of[keep & posts.in_community(community)]
        counts = np.bincount(hits, minlength=n_days).astype(np.float64)
        percent[community] = 100.0 * counts / totals[community]
    return DailySeries(days=days, percent_by_community=percent)
