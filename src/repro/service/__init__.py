"""The resilient real-time serving layer around :class:`MemeMonitor`.

* :mod:`repro.service.service` — :class:`MemeMatchService`: deadlines,
  admission + load shedding, circuit breaking, poison-input dead
  letters, hot index reload, and a reconciling
  :class:`ServiceStats` snapshot.  Every drain serves windows of up
  to ``ServiceConfig.coalesce_window`` requests through one
  ``classify_batch`` call; per-request serving is a window of one.
* :mod:`repro.service.admission` — the bounded admission queue with
  deterministic watermark shedding.
* :mod:`repro.service.breaker` — the closed/open/half-open circuit
  breaker with scheduled probes.
* :mod:`repro.service.reload` — serving-index checkpoints: save,
  validate, and hot-load :class:`~repro.core.results.PipelineResult`
  snapshots with rollback on corruption.
"""

from repro.service.admission import AdmissionQueue
from repro.service.breaker import BreakerConfig, CircuitBreaker
from repro.service.reload import (
    INDEX_FINGERPRINT,
    IndexValidationError,
    load_index,
    save_index,
    validate_result,
)
from repro.service.service import (
    DEAD_LETTERED,
    OK,
    SHED,
    TIMED_OUT,
    DeadLetter,
    MemeMatchService,
    ReloadReport,
    ServiceConfig,
    ServiceResponse,
    ServiceStats,
    VirtualClock,
)

__all__ = [
    "AdmissionQueue",
    "BreakerConfig",
    "CircuitBreaker",
    "INDEX_FINGERPRINT",
    "IndexValidationError",
    "load_index",
    "save_index",
    "validate_result",
    "DeadLetter",
    "MemeMatchService",
    "ReloadReport",
    "ServiceConfig",
    "ServiceResponse",
    "ServiceStats",
    "VirtualClock",
    "OK",
    "SHED",
    "TIMED_OUT",
    "DEAD_LETTERED",
]
