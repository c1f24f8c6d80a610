"""Vote-score analysis: Fig. 9.

Reddit and Gab rank content by up/down-votes; the paper compares the
score distributions of posts containing politics vs non-politics and
racist vs non-racist memes.  Headline findings the synthetic world is
calibrated to reproduce: on Reddit, politics memes score *above* other
memes and racist memes *below*; on Gab, politics ~ non-politics while
racist memes score less than half of non-racist ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.results import PipelineResult

__all__ = ["ScoreSplit", "scores_by_group", "score_summary"]


@dataclass(frozen=True)
class ScoreSplit:
    """Scores of posts inside and outside one meme group."""

    community: str
    group: str
    in_group: np.ndarray
    out_group: np.ndarray

    def mean_ratio(self) -> float:
        """Mean(in) / mean(out); > 1 means the group scores higher."""
        if self.in_group.size == 0 or self.out_group.size == 0:
            return float("nan")
        return float(self.in_group.mean() / self.out_group.mean())


def scores_by_group(
    result: PipelineResult,
    community: str,
    group: str,
    *,
    merge_the_donald: bool = True,
) -> ScoreSplit:
    """Scores of matched posts split by membership of ``group``.

    Parameters
    ----------
    community:
        ``"reddit"`` or ``"gab"`` (the score-bearing platforms).
    group:
        ``"racist"`` or ``"politics"``.
    merge_the_donald:
        Count The_Donald posts as Reddit (as the paper's Fig. 9a does).
    """
    if group == "racist":
        member = result.occurrences.is_racist
    elif group == "politics":
        member = result.occurrences.is_politics
    else:
        raise ValueError(f"unknown group {group!r}")
    posts = result.occurrences.posts
    scored = posts.in_community(
        community, merge_the_donald=merge_the_donald
    ) & posts.has_score()
    return ScoreSplit(
        community=community,
        group=group,
        in_group=posts.score[scored & member].astype(np.float64),
        out_group=posts.score[scored & ~member].astype(np.float64),
    )


def score_summary(values: np.ndarray) -> dict[str, float]:
    """Mean/median summary used in the paper's Fig. 9 discussion."""
    if values.size == 0:
        return {"mean": float("nan"), "median": float("nan"), "n": 0.0}
    return {
        "mean": float(values.mean()),
        "median": float(np.median(values)),
        "n": float(values.size),
    }
