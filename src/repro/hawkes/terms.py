"""Weight-free terms of the Hawkes E-step and log-likelihood.

For a fixed sequence and kernel, everything the EM fit needs except the
background rates ``mu`` and the weight matrix ``W`` stays fixed:

* the candidate parent pairs — every earlier event within the support
  window of each event — with the kernel density at each pair's delay;
* each event's censored kernel mass ``integral(T - t)``;
* the excitation ``X[n, i]`` that event ``n`` receives from all strictly
  earlier events on process ``i``, summed over the kernel.

:class:`SequenceTerms` builds them once per (sequence, kernel), and its
:meth:`~SequenceTerms.responsibilities` and
:meth:`~SequenceTerms.log_likelihood` then evaluate the E-step and the
exact log-likelihood for any ``(mu, W)`` as whole-array numpy, in
O(pairs + n * K) per call.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro.hawkes.kernels import ExponentialKernel

if TYPE_CHECKING:
    from repro.hawkes.model import EventSequence

__all__ = ["SequenceTerms"]

# Entries of the pairwise delay block built per pass of the generic
# (non-exponential) excitation sum.
_DENSE_BLOCK = 1 << 20


class SequenceTerms:
    """The parts of one sequence's E-step and likelihood that do not
    depend on ``mu`` or ``W``.

    Parameters
    ----------
    sequence:
        The event sequence.
    kernel:
        Excitation kernel (anything with ``density``, ``integral`` and
        ``support_window``).
    n_processes:
        Number of processes ``K``.
    window:
        Largest parent-to-child delay considered by the E-step; defaults
        to ``kernel.support_window()``.  The log-likelihood is exact and
        ignores it.

    Each term is built on first use, so a likelihood-only caller never
    builds the candidate pairs.
    """

    def __init__(
        self,
        sequence: EventSequence,
        kernel,
        n_processes: int,
        window: float | None = None,
    ) -> None:
        self.sequence = sequence
        self.kernel = kernel
        self.n_processes = n_processes
        self.window = kernel.support_window() if window is None else window

    @cached_property
    def _pairs(self) -> tuple[np.ndarray, np.ndarray]:
        # Candidates of event n: indices [lo, hi), those at most `window`
        # earlier (the window edge included) and strictly earlier in time
        # (simultaneous events cannot cause each other).
        times = self.sequence.times
        lo = np.searchsorted(times, times - self.window, "left")
        hi = np.searchsorted(times, times, "left")
        counts = np.maximum(hi - lo, 0)
        child = np.repeat(np.arange(times.size), counts)
        offsets = np.repeat(lo - (np.cumsum(counts) - counts), counts)
        parent = np.arange(child.size) + offsets
        return child, parent

    @property
    def child(self) -> np.ndarray:
        """Child event of each candidate pair, ascending."""
        return self._pairs[0]

    @property
    def parent(self) -> np.ndarray:
        """Candidate parent of each pair, ascending within a child."""
        return self._pairs[1]

    @cached_property
    def delays(self) -> np.ndarray:
        """Parent-to-child delay of each pair."""
        times = self.sequence.times
        return times[self.child] - times[self.parent]

    @cached_property
    def density(self) -> np.ndarray:
        """Kernel density at each pair's delay."""
        return np.asarray(self.kernel.density(self.delays))

    @cached_property
    def flat(self) -> np.ndarray:
        """Flat index of each pair's ``(parent process, child process)`` cell."""
        processes = self.sequence.processes
        return processes[self.parent] * self.n_processes + processes[self.child]

    @cached_property
    def remaining(self) -> np.ndarray:
        """Kernel mass each event emits before the horizon."""
        sequence = self.sequence
        return np.asarray(self.kernel.integral(sequence.horizon - sequence.times))

    @cached_property
    def excitation(self) -> np.ndarray:
        """``X[n, i]``: summed kernel density at event ``n`` of every
        strictly earlier event on process ``i``, over the whole past."""
        times = self.sequence.times
        processes = self.sequence.processes
        if isinstance(self.kernel, ExponentialKernel):
            return _exponential_excitation(
                times, processes, self.kernel.beta, self.n_processes
            )
        return _dense_excitation(times, processes, self.kernel, self.n_processes)

    def responsibilities(
        self, background: np.ndarray, weights: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """E-step under ``(background, weights)``.

        Returns ``(background_prob, parent_prob)``: per event, the
        probability that it is an immigrant, and per candidate pair the
        probability that the parent caused the child.  An event with no
        candidate, or whose total rate is not positive, is an immigrant
        with probability 1 and gives its candidates probability 0.
        """
        rates = weights.ravel()[self.flat] * self.density
        mu = background[self.sequence.processes]
        total = mu + np.bincount(self.child, rates, minlength=mu.size)
        # An event without candidates has total == mu, so mu / total is
        # exactly 1 unless mu is 0.
        valid = total > 0
        background_prob = np.ones(mu.size)
        np.divide(mu, total, out=background_prob, where=valid)
        parent_prob = np.zeros(rates.size)
        np.divide(rates, total[self.child], out=parent_prob, where=valid[self.child])
        return background_prob, parent_prob

    def causes(
        self, background: np.ndarray, weights: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The E-step as per-event parent lists, in flat form.

        Returns ``(background_prob, bounds, parents, probs)``: event
        ``n``'s parents with a positive probability are
        ``parents[bounds[n]:bounds[n + 1]]``, with probabilities
        ``probs[bounds[n]:bounds[n + 1]]``.
        """
        background_prob, parent_prob = self.responsibilities(background, weights)
        keep = parent_prob > 0
        bounds = np.zeros(background_prob.size + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(self.child[keep], minlength=background_prob.size),
            out=bounds[1:],
        )
        return background_prob, bounds, self.parent[keep], parent_prob[keep]

    def log_likelihood(self, background: np.ndarray, weights: np.ndarray) -> float:
        """Exact log-likelihood of the sequence under ``(background, weights)``.

        ``sum_n log(mu[k_n] + sum_i X[n, i] W[i, k_n])`` minus the
        compensator ``T * sum(mu) + sum_n W[k_n, :].sum() * integral(T - t_n)``.
        """
        sequence = self.sequence
        processes = sequence.processes
        log_term = 0.0
        compensator = float(background.sum() * sequence.horizon)
        if len(sequence):
            lambdas = background[processes] + (
                self.excitation * weights.T[processes]
            ).sum(axis=1)
            log_term = float(np.log(np.maximum(lambdas, 1e-300)).sum())
            compensator += float(
                (weights.sum(axis=1)[processes] * self.remaining).sum()
            )
        return log_term - compensator


def _exponential_excitation(
    times: np.ndarray, processes: np.ndarray, beta: float, n_processes: int
) -> np.ndarray:
    # The excitation decays multiplicatively between distinct timestamps;
    # events sharing a timestamp join it only once time moves on.  One
    # O(n * K) pass, run once per (sequence, kernel).
    gaps = np.diff(times, prepend=0.0)
    decays = np.exp(-beta * gaps).tolist()
    advances = (gaps > 0).tolist()
    out = np.empty((times.size, n_processes))
    state = np.zeros(n_processes)
    pending = np.zeros(n_processes)
    for event, process in enumerate(processes.tolist()):
        if advances[event]:
            state = (state + pending) * decays[event]
            pending = np.zeros(n_processes)
        out[event] = state
        pending[process] += beta
    return out


def _dense_excitation(
    times: np.ndarray, processes: np.ndarray, kernel, n_processes: int
) -> np.ndarray:
    # Generic kernels have no recursion: sum the density over every
    # strictly earlier event, a block of rows of the delay matrix at a time.
    n = times.size
    onehot = np.zeros((n, n_processes))
    onehot[np.arange(n), processes] = 1.0
    out = np.empty((n, n_processes))
    rows = max(1, _DENSE_BLOCK // max(n, 1))
    for start in range(0, n, rows):
        delays = times[start:start + rows, None] - times[None, :]
        phi = np.where(delays > 0, kernel.density(delays), 0.0)
        out[start:start + rows] = phi @ onehot
    return out
