"""Excitation kernels for Hawkes processes.

A kernel is a probability density over positive delays; an event on
process ``i`` raises the intensity of process ``j`` by
``W[i, j] * kernel.density(dt)``, so ``W[i, j]`` is the expected number of
direct offspring (the paper's "weight from community to community").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ExponentialKernel"]


@dataclass(frozen=True)
class ExponentialKernel:
    """Exponential decay kernel ``beta * exp(-beta * dt)``.

    Parameters
    ----------
    beta:
        Decay rate; ``1 / beta`` is the mean reaction delay, in the same
        time unit as event timestamps (days throughout this repo).  An
        array holds one rate per item, evaluated elementwise against the
        delays: the stacked terms give each model its own rate that way.
    """

    beta: float | np.ndarray = 1.0

    def __post_init__(self) -> None:
        if np.any(np.asarray(self.beta) <= 0):
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
        out = -np.log(1.0 - mass) / np.asarray(self.beta, dtype=np.float64)
        return float(out) if out.ndim == 0 else out
