"""The multivariate Hawkes model and event sequences.

Conventions: ``K`` processes (communities); ``background`` is the vector
of immigrant rates; ``weights[i, j]`` is the expected number of events
directly caused on process ``j`` by one event on process ``i``; the
kernel distributes those offspring over time.  Time is measured in days.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hawkes.kernels import ExponentialKernel
from repro.hawkes.terms import SequenceTerms

__all__ = ["EventSequence", "HawkesModel"]


@dataclass(frozen=True)
class EventSequence:
    """A realisation: sorted event times with their process indices.

    Attributes
    ----------
    times:
        Float64 timestamps, non-decreasing.
    processes:
        Int64 process index per event, aligned with ``times``.
    horizon:
        Observation window length ``T`` (events live in ``[0, T]``).
    """

    times: np.ndarray
    processes: np.ndarray
    horizon: float

    def __post_init__(self) -> None:
        times = np.ascontiguousarray(self.times, dtype=np.float64)
        processes = np.ascontiguousarray(self.processes, dtype=np.int64)
        if times.shape != processes.shape or times.ndim != 1:
            raise ValueError("times and processes must be aligned 1-D arrays")
        if times.size and np.any(np.diff(times) < 0):
            raise ValueError("times must be sorted non-decreasing")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if times.size and (times[0] < 0 or times[-1] > self.horizon):
            raise ValueError("event times must lie within [0, horizon]")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "processes", processes)

    def __len__(self) -> int:
        return int(self.times.size)

    def counts(self, n_processes: int) -> np.ndarray:
        """Events per process."""
        return np.bincount(self.processes, minlength=n_processes).astype(np.int64)

    @classmethod
    def from_unsorted(
        cls, times: np.ndarray, processes: np.ndarray, horizon: float
    ) -> "EventSequence":
        """Build a sequence from unsorted event data."""
        times = np.asarray(times, dtype=np.float64)
        processes = np.asarray(processes, dtype=np.int64)
        order = np.argsort(times, kind="stable")
        return cls(times=times[order], processes=processes[order], horizon=horizon)


@dataclass(frozen=True)
class HawkesModel:
    """A multivariate Hawkes process with a shared excitation kernel."""

    background: np.ndarray
    weights: np.ndarray
    kernel: ExponentialKernel = field(default_factory=ExponentialKernel)

    def __post_init__(self) -> None:
        background = np.ascontiguousarray(self.background, dtype=np.float64)
        weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        if background.ndim != 1:
            raise ValueError("background must be a vector")
        k = background.size
        if weights.shape != (k, k):
            raise ValueError(f"weights must be ({k}, {k}), got {weights.shape}")
        if np.any(background < 0) or np.any(weights < 0):
            raise ValueError("rates and weights must be non-negative")
        object.__setattr__(self, "background", background)
        object.__setattr__(self, "weights", weights)

    @property
    def n_processes(self) -> int:
        return int(self.background.size)

    def spectral_radius(self) -> float:
        """Largest |eigenvalue| of the branching matrix.

        The process is stationary (sub-critical) iff this is < 1; the
        simulator refuses super-critical models.
        """
        return float(np.max(np.abs(np.linalg.eigvals(self.weights))))

    def intensity(self, sequence: EventSequence, t: float) -> np.ndarray:
        """Conditional intensity vector at time ``t`` given past events."""
        past = sequence.times < t
        contributions = np.zeros(self.n_processes)
        if np.any(past):
            dts = t - sequence.times[past]
            density = np.asarray(self.kernel.density(dts))
            sources = sequence.processes[past]
            # lambda_j(t) = mu_j + sum_n W[k_n, j] * phi(t - t_n)
            for j in range(self.n_processes):
                contributions[j] = np.sum(self.weights[sources, j] * density)
        return self.background + contributions

    def log_likelihood(self, sequence: EventSequence) -> float:
        """Exact log-likelihood of ``sequence`` under this model."""
        terms = SequenceTerms(sequence, self.kernel, self.n_processes)
        return terms.log_likelihood(self.background, self.weights)
