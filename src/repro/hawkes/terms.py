"""Weight-free terms of the Hawkes E-step and log-likelihood, stacked.

For fixed sequences and kernels, everything the EM fit needs except the
background rates ``mu`` and the weights ``W`` stays fixed: the candidate
parent pairs (every earlier event of the same sequence within the
support window) with the kernel density at each pair's delay, each
event's censored kernel mass ``integral(T - t)``, and the excitation
``X[i, n]`` that event ``n`` receives from all strictly earlier events
of its sequence on process ``i``.

:class:`SequenceTerms` builds them once over a stack of sequences (one
group per sequence; a single sequence is a stack of one), with a group
index on every event and pair and a model index per group.  The E-step,
the log-likelihood and root-cause propagation then run for every model
at once as whole-array numpy.  Every reduction is a ``bincount`` or an
unbuffered ``add.at`` over an index that never mixes groups, and the
recursions sweep within-group rank, so a group's values are the same
bits whatever else is in the stack.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro.hawkes.kernels import ExponentialKernel

if TYPE_CHECKING:
    from repro.hawkes.model import EventSequence

__all__ = ["SequenceTerms"]


class SequenceTerms:
    """The ``mu``- and ``W``-free parts of a stack of sequences' E-steps
    and likelihoods, each built on first use.

    ``kernel`` is an :class:`ExponentialKernel` shared by every model;
    one whose ``beta`` is an array holds one decay rate per model.
    ``window`` is the E-step's largest parent-to-child delay, one value
    or one per model (default ``kernel.support_window()``); the
    log-likelihood is exact and ignores it.  ``models`` is each group's
    model index (default: one model per group; pooled sequences share
    one).  Stacked parameters
    are ``background`` ``(M, K)`` and ``weights`` ``(M, K, K)``.
    """

    def __init__(
        self,
        sequences: list[EventSequence],
        kernel,
        n_processes: int,
        window: float | np.ndarray | None = None,
        *,
        models: np.ndarray | None = None,
    ) -> None:
        self.sequences = list(sequences)
        self.kernel = kernel
        self.n_processes = n_processes
        self.window = kernel.support_window() if window is None else window
        sizes = [len(s) for s in self.sequences]
        self.models = (
            np.arange(len(sizes))
            if models is None
            else np.asarray(models, dtype=np.int64)
        )
        self.offsets = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
        self.group = np.repeat(np.arange(len(sizes)), sizes)
        self.times = np.concatenate([np.empty(0)] + [s.times for s in self.sequences])
        self.processes = np.concatenate(
            [np.empty(0, dtype=np.int64)] + [s.processes for s in self.sequences]
        )
        self.horizons = np.array([s.horizon for s in self.sequences], dtype=float)
        # Model of each event, and its (model, process) cell.
        self.event_model = self.models[self.group]
        self.event_cell = self.event_model * n_processes + self.processes

    def __len__(self) -> int:
        return int(self.times.size)

    def _kernel_of(self, model: np.ndarray):
        # The shared kernel, or an exponential with each item's own rate.
        if np.ndim(getattr(self.kernel, "beta", None)):
            return ExponentialKernel(self.kernel.beta[model])
        return self.kernel

    @cached_property
    def _keys(self) -> np.ndarray:
        # (group, time) as complex numbers, which numpy orders
        # lexicographically: one searchsorted stays inside each group.
        return self.group + 1j * self.times

    @cached_property
    def _first_tie(self) -> np.ndarray:
        # Per event, the first event of its group at the same time: the
        # events before it are the strictly earlier ones.
        return np.searchsorted(self._keys, self._keys, "left")

    @cached_property
    def _pairs(self) -> tuple[np.ndarray, np.ndarray]:
        # Candidates of event n: the events of its group at most the
        # window earlier (the edge included) and strictly earlier in time
        # (simultaneous events cannot cause each other).
        window = np.asarray(self.window, dtype=np.float64)
        if window.ndim:
            window = window[self.event_model]
        lo = np.searchsorted(
            self._keys, self.group + 1j * (self.times - window), "left"
        )
        return _ranges(lo, self._first_tie)

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
        return self.times[self.child] - self.times[self.parent]

    @cached_property
    def pair_model(self) -> np.ndarray:
        """Model index of each pair."""
        return self.event_model[self.child]

    @cached_property
    def density(self) -> np.ndarray:
        """Kernel density at each pair's delay."""
        kernel = self._kernel_of(self.pair_model)
        return np.asarray(kernel.density(self.delays))

    @cached_property
    def pair_cell(self) -> np.ndarray:
        """Flat index of each pair's (model, parent process, child
        process) cell of the stacked weights."""
        k, processes = self.n_processes, self.processes
        parent_cell = self.pair_model * k + processes[self.parent]
        return parent_cell * k + processes[self.child]

    @cached_property
    def remaining(self) -> np.ndarray:
        """Kernel mass each event emits before its sequence's horizon."""
        kernel = self._kernel_of(self.event_model)
        return np.asarray(
            kernel.integral(self.horizons[self.group] - self.times)
        )

    @cached_property
    def rank(self) -> np.ndarray:
        """Position of each event within its sequence."""
        return np.arange(len(self)) - self.offsets[self.group]

    @cached_property
    def excitation(self) -> np.ndarray:
        """``X[i, n]``, shape ``(K, n)``: summed kernel density at event
        ``n`` of every strictly earlier event of its sequence on process
        ``i``, over the whole past."""
        # The excitation decays multiplicatively between distinct
        # timestamps, and events sharing a timestamp join it only once
        # time moves on: state = (state + pending) * decay, pending = 0 on
        # a step in time; both unchanged on a tie (exactly: the decay is
        # exp(0) = 1 and the pending added is 0).  One sweep over
        # within-group rank: step r advances the r-th event of every group
        # longer than r, the groups longest first so that they are a
        # prefix of the state rows.
        k, times = self.n_processes, self.times
        sizes = np.diff(self.offsets)
        slot = np.empty(sizes.size, dtype=np.int64)
        slot[np.argsort(-sizes, kind="stable")] = np.arange(sizes.size)
        order = np.lexsort((slot[self.group], self.rank))
        ends = np.cumsum(np.bincount(self.rank)).tolist()
        beta = np.asarray(self.kernel.beta, dtype=np.float64)
        if beta.ndim:
            beta = beta[self.event_model]
        gaps = times - np.where(self.rank > 0, np.roll(times, 1), 0.0)
        decays = np.exp(-beta * gaps)[order, None]
        joins = (gaps > 0)[order, None].astype(np.float64)
        stays = 1.0 - joins
        processes = self.processes[order]
        added = np.broadcast_to(beta, times.shape)[order]
        out = np.empty((len(self), k))
        state = np.zeros((np.count_nonzero(sizes), k))
        pending = np.zeros_like(state)
        lanes = np.arange(len(state))
        for start, stop in zip([0] + ends[:-1], ends):
            live, queued = state[: stop - start], pending[: stop - start]
            live += queued * joins[start:stop]
            live *= decays[start:stop]
            queued *= stays[start:stop]
            out[start:stop] = live
            queued[lanes[: stop - start], processes[start:stop]] += added[start:stop]
        excitation = np.empty((k, len(self)))
        excitation[:, order] = out.T
        return excitation

    @cached_property
    def _source_cells(self) -> np.ndarray:
        # Flat index of W[model, i, k_n] for every source process i and
        # event n, shape (K, n).
        k = self.n_processes
        base = self.event_model * (k * k) + self.processes
        return base + (np.arange(k) * k)[:, None]

    def responsibilities(
        self, background: np.ndarray, weights: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """E-step: ``(background_prob, parent_prob)``, per event the
        probability that it is an immigrant and per candidate pair that
        the parent caused the child.  An event with no candidate, or whose
        total rate is not positive, is an immigrant with probability 1 and
        gives its candidates probability 0."""
        rates = weights.reshape(-1)[self.pair_cell] * self.density
        mu = background.reshape(-1)[self.event_cell]
        total = mu + np.bincount(self.child, rates, minlength=mu.size)
        # An event without candidates has total == mu, so mu / total is
        # exactly 1 unless mu is 0.
        valid = total > 0
        background_prob = np.ones(mu.size)
        np.divide(mu, total, out=background_prob, where=valid)
        parent_prob = np.zeros(rates.size)
        np.divide(rates, total[self.child], out=parent_prob, where=valid[self.child])
        return background_prob, parent_prob

    def propagate(
        self,
        background_prob: np.ndarray,
        child: np.ndarray,
        parent: np.ndarray,
        probs: np.ndarray,
    ) -> np.ndarray:
        """Root-cause rows ``R[n] = background_prob[n] * onehot(k_n) +
        sum probs * R[parent]`` over the pairs ``(child, parent, probs)``
        of ``n``, given in ascending child order.  Step ``r`` of one rank
        sweep finishes the ``r``-th event of every group at once: its
        parents rank lower, so their rows are final."""
        roots = np.zeros((len(self), self.n_processes))
        roots[np.arange(len(self)), self.processes] = background_prob
        rank = self.rank[child]
        order = np.argsort(rank, kind="stable")
        ends = np.cumsum(np.bincount(rank)).tolist()
        child, parent, probs = child[order], parent[order], probs[order, None]
        for start, stop in zip([0] + ends[:-1], ends):
            rows = probs[start:stop] * roots[parent[start:stop]]
            np.add.at(roots, child[start:stop], rows)
        return roots

    def log_likelihood(
        self, background: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        """Exact log-likelihood per model (length ``M``), summed over its
        groups, each ``sum_n log(mu[k_n] + sum_i X[i, n] W[i, k_n])`` minus
        ``T * sum(mu) + sum_n W[k_n, :].sum() * integral(T - t_n)``."""
        n_groups = len(self.sequences)
        lambdas = background.reshape(-1)[self.event_cell]
        for term in self.excitation * weights.reshape(-1)[self._source_cells]:
            lambdas = lambdas + term
        log_term = np.bincount(
            self.group, np.log(np.maximum(lambdas, 1e-300)), minlength=n_groups
        )
        emitted = weights.sum(axis=2).reshape(-1)[self.event_cell]
        compensator = background.sum(axis=1)[self.models] * self.horizons
        compensator += np.bincount(
            self.group, emitted * self.remaining, minlength=n_groups
        )
        return np.bincount(
            self.models, log_term - compensator, minlength=background.shape[0]
        )


def _ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (child, parent) for every parent in [lo[child], hi[child]).
    counts = np.maximum(hi - lo, 0)
    child = np.repeat(np.arange(lo.size), counts)
    offsets = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return child, np.arange(child.size) + offsets
