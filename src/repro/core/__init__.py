"""The paper's primary contribution: the meme-tracking pipeline.

* :mod:`repro.core.metric` — the custom inter-cluster distance metric
  (Section 2.3, Eq. 1-2) with full and partial modes.
* :mod:`repro.core.config` — pipeline configuration (eps, θ, τ, weights).
* :mod:`repro.core.results` — typed results of each pipeline stage.
* :mod:`repro.core.pipeline` — the Step 1-7 orchestration over a data
  source (the synthetic world, or any object with the same interface).
* :mod:`repro.core.runner` — the staged, fault-tolerant execution engine
  behind :func:`~repro.core.pipeline.run_pipeline` (retry with
  backoff, degradation ladder, quarantine, cache-backed restart).
* :mod:`repro.core.faults` — deterministic fault injection for testing
  the runner's failure handling.
* :mod:`repro.core.cache` — content-addressed two-tier memoization for
  warm re-runs, restarts after a crash, and incremental (+N images)
  delta work.
"""

from repro.core.cache import CacheStats, ContentCache, fingerprint
from repro.core.config import MetricWeights, PipelineConfig
from repro.core.faults import Fault, FaultInjector, corrupt_file
from repro.core.metric import (
    ClusterFeatures,
    cluster_distance,
    jaccard,
    pairwise_cluster_distances,
    perceptual_similarity,
)
from repro.core.monitor import MemeMonitor, MonitorVerdict
from repro.core.pipeline import run_pipeline
from repro.core.results import (
    ClusterKey,
    CommunityClustering,
    OccurrenceTable,
    PipelineResult,
    StageReport,
)
from repro.core.runner import PipelineRunner, RunnerOptions, StageFailure

__all__ = [
    "PipelineConfig",
    "MetricWeights",
    "PipelineRunner",
    "RunnerOptions",
    "StageFailure",
    "StageReport",
    "Fault",
    "FaultInjector",
    "corrupt_file",
    "CacheStats",
    "ContentCache",
    "fingerprint",
    "ClusterFeatures",
    "cluster_distance",
    "pairwise_cluster_distances",
    "perceptual_similarity",
    "jaccard",
    "run_pipeline",
    "MemeMonitor",
    "MonitorVerdict",
    "PipelineResult",
    "CommunityClustering",
    "OccurrenceTable",
    "ClusterKey",
]
