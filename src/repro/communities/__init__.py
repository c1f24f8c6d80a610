"""Synthetic Web communities: posts, platform profiles, world generation.

The paper's inputs are 2.6B posts crawled from Twitter, Reddit, 4chan's
/pol/ and Gab over 13 months.  The synthetic substitute generates
laptop-scale event streams with the same structure the pipeline consumes
— (timestamp, community, image/pHash, score, subreddit) — where meme
adoption is driven by a *ground-truth multivariate Hawkes process*, so the
influence estimation of Section 5 can be validated against known truth.
"""

from repro.communities.models import (
    COMMUNITIES,
    DISPLAY_NAMES,
    FRINGE_COMMUNITIES,
    CommunityStats,
    Post,
    PostTable,
)
from repro.communities.profiles import (
    CommunityProfile,
    default_profiles,
    ground_truth_weights,
)
from repro.communities.world import SyntheticWorld, WorldConfig

__all__ = [
    "Post",
    "PostTable",
    "CommunityStats",
    "COMMUNITIES",
    "FRINGE_COMMUNITIES",
    "DISPLAY_NAMES",
    "CommunityProfile",
    "default_profiles",
    "ground_truth_weights",
    "SyntheticWorld",
    "WorldConfig",
]
