"""Excitation kernels for Hawkes processes.

A kernel is a probability density over positive delays; an event on
process ``i`` raises the intensity of process ``j`` by
``W[i, j] * kernel.density(dt)``, so ``W[i, j]`` is the expected number of
direct offspring (the paper's "weight from community to community").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ExponentialKernel", "PowerLawKernel"]


@dataclass(frozen=True)
class ExponentialKernel:
    """Exponential decay kernel ``beta * exp(-beta * dt)``.

    Parameters
    ----------
    beta:
        Decay rate; ``1 / beta`` is the mean reaction delay, in the same
        time unit as event timestamps (days throughout this repo).
    """

    beta: float = 1.0

    def __post_init__(self) -> None:
        if self.beta <= 0:
            raise ValueError("beta must be positive")

    def density(self, dt: np.ndarray | float) -> np.ndarray | float:
        """Density at delay ``dt`` (0 for negative delays)."""
        dt = np.asarray(dt, dtype=np.float64)
        safe = np.maximum(dt, 0.0)  # exp of a large negative delay overflows
        out = np.where(dt >= 0, self.beta * np.exp(-self.beta * safe), 0.0)
        return float(out) if out.ndim == 0 else out

    def integral(self, dt: np.ndarray | float) -> np.ndarray | float:
        """CDF at ``dt``: mass of the kernel within ``[0, dt]``."""
        dt = np.asarray(dt, dtype=np.float64)
        safe = np.maximum(dt, 0.0)
        out = np.where(dt >= 0, 1.0 - np.exp(-self.beta * safe), 0.0)
        return float(out) if out.ndim == 0 else out

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw delay(s) from the kernel."""
        return rng.exponential(1.0 / self.beta, size=size)

    def support_window(self, mass: float = 0.999) -> float:
        """Delay beyond which less than ``1 - mass`` of the kernel remains.

        Used to truncate pairwise computations in the EM fit.
        """
        if not 0 < mass < 1:
            raise ValueError("mass must be in (0, 1)")
        return float(-np.log(1.0 - mass) / self.beta)


@dataclass(frozen=True)
class PowerLawKernel:
    """Heavy-tailed (Pareto-type) kernel, as used in aftershock models.

    ``density(dt) = alpha * c^alpha / (dt + c)^(alpha + 1)`` — a proper
    density over positive delays for ``alpha > 0``.  Empirical resharing
    delays on social platforms are often heavier-tailed than exponential;
    this kernel lets both simulation and fitting explore that regime
    (the likelihood falls back to the generic O(n^2) path since the
    exponential recursion does not apply).

    Parameters
    ----------
    alpha:
        Tail exponent; smaller is heavier-tailed.
    c:
        Delay scale (the "knee"), in days.
    """

    alpha: float = 1.5
    c: float = 0.5

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.c <= 0:
            raise ValueError("alpha and c must be positive")

    def density(self, dt: np.ndarray | float) -> np.ndarray | float:
        dt = np.asarray(dt, dtype=np.float64)
        safe = np.maximum(dt, 0.0)  # avoid (dt + c) <= 0 for negative dt
        out = np.where(
            dt >= 0,
            self.alpha * self.c**self.alpha / (safe + self.c) ** (self.alpha + 1),
            0.0,
        )
        return float(out) if out.ndim == 0 else out

    def integral(self, dt: np.ndarray | float) -> np.ndarray | float:
        dt = np.asarray(dt, dtype=np.float64)
        safe = np.maximum(dt, 0.0)
        out = np.where(dt >= 0, 1.0 - (self.c / (safe + self.c)) ** self.alpha, 0.0)
        return float(out) if out.ndim == 0 else out

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Inverse-CDF sampling: ``dt = c * (U^{-1/alpha} - 1)``."""
        u = rng.random(size)
        return self.c * (u ** (-1.0 / self.alpha) - 1.0)

    def support_window(self, mass: float = 0.999) -> float:
        if not 0 < mass < 1:
            raise ValueError("mass must be in (0, 1)")
        return float(self.c * ((1.0 - mass) ** (-1.0 / self.alpha) - 1.0))
