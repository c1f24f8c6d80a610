"""Pipeline configuration: the constants of the paper's Section 2."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MetricWeights", "PipelineConfig"]


@dataclass(frozen=True)
class MetricWeights:
    """Feature weights of the custom distance metric (Eq. 1).

    The paper's full-mode choice: perceptual and meme name carry equal,
    dominant weight; people and culture are informative but
    non-discriminant.  Weights must sum to 1.
    """

    perceptual: float = 0.4
    meme: float = 0.4
    people: float = 0.1
    culture: float = 0.1

    def __post_init__(self) -> None:
        total = self.perceptual + self.meme + self.people + self.culture
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"metric weights must sum to 1, got {total}")
        if min(self.perceptual, self.meme, self.people, self.culture) < 0:
            raise ValueError("metric weights must be non-negative")

    @classmethod
    def partial_mode(cls) -> "MetricWeights":
        """Partial mode: perceptual similarity only (Section 2.3)."""
        return cls(perceptual=1.0, meme=0.0, people=0.0, culture=0.0)


@dataclass(frozen=True)
class PipelineConfig:
    """All knobs of the Step 1-7 pipeline.

    Attributes
    ----------
    clustering_eps:
        DBSCAN distance threshold (Appendix A selects 8).
    clustering_min_samples:
        DBSCAN density threshold (5 images).
    theta:
        Medoid-matching threshold for annotation and association (8).
    tau:
        Smoother of the perceptual-similarity decay (25).
    metric_weights:
        Full-mode weights of the custom metric.
    graph_kappa:
        Edge threshold of the cluster visualisation graph (Fig. 7: 0.45).
    screenshot_filter:
        How Step 4 removes screenshots from KYM galleries:
        ``"oracle"`` uses the generator's ground-truth flags (default;
        equivalent to a perfect classifier), ``"classifier"`` trains and
        applies the CNN (requires galleries generated with
        ``keep_images=True``), ``"none"`` skips filtering.
    """

    clustering_eps: int = 8
    clustering_min_samples: int = 5
    theta: int = 8
    tau: float = 25.0
    metric_weights: MetricWeights = MetricWeights()
    graph_kappa: float = 0.45
    screenshot_filter: str = "oracle"

    def __post_init__(self) -> None:
        if self.clustering_eps < 0 or self.theta < 0:
            raise ValueError("distance thresholds must be non-negative")
        if self.clustering_min_samples < 1:
            raise ValueError("clustering_min_samples must be >= 1")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.screenshot_filter not in ("oracle", "classifier", "none"):
            raise ValueError(
                f"unknown screenshot_filter {self.screenshot_filter!r}"
            )

    def screenshot_ladder(self) -> tuple[str, ...]:
        """The Step 4 degradation ladder starting at the configured mode.

        ``classifier`` degrades to ``oracle`` then ``none``; ``oracle``
        degrades to ``none``; ``none`` has nowhere to fall.  The runner
        walks this ladder when a rung fails permanently.
        """
        ladder = ("classifier", "oracle", "none")
        return ladder[ladder.index(self.screenshot_filter) :]
