"""Root-cause influence estimation — the paper's Section 5.1 improvement.

For each event, the fitted model yields probabilities over its possible
causes: the community's background rate or any sufficiently recent earlier
event.  The *root cause* distribution of an event propagates those
probabilities through the cascade:

    R(n) = P(background | n) * onehot(community(n))
           + sum_m P(parent = m | n) * R(m)

Influence from community A to community B is then the expected number of
B's events whose root cause lies in A.  Reported two ways, as in the
paper: as a percentage of the destination community's events (Fig. 11)
and normalised by the source community's event count — the source's
"efficiency" (Fig. 12).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hawkes.fit import FitConfig, fit_hawkes_em
from repro.hawkes.model import EventSequence, HawkesModel
from repro.hawkes.terms import SequenceTerms

__all__ = [
    "InfluenceMatrices",
    "attribute_root_causes",
    "influence_from_sequences",
    "root_cause_influence",
]


@dataclass(frozen=True)
class InfluenceMatrices:
    """Aggregated root-cause influence between communities.

    Attributes
    ----------
    expected_events:
        ``(K, K)`` matrix; ``[src, dst]`` is the expected number of events
        on ``dst`` whose root cause is ``src``.  Rows/columns follow the
        community indexing of the fitted sequences.
    event_counts:
        Events per community across the analysed sequences.
    """

    expected_events: np.ndarray
    event_counts: np.ndarray

    @property
    def n_processes(self) -> int:
        return int(self.event_counts.size)

    def percent_of_destination(self) -> np.ndarray:
        """Fig. 11: influence as % of the destination community's events."""
        destination = np.maximum(self.event_counts[None, :], 1)
        return 100.0 * self.expected_events / destination

    def normalized_by_source(self) -> np.ndarray:
        """Fig. 12: influence normalised by the source's event count (%)."""
        source = np.maximum(self.event_counts[:, None], 1)
        return 100.0 * self.expected_events / source

    def external_influence(self) -> np.ndarray:
        """Per source: expected events caused on *other* communities."""
        off_diagonal = self.expected_events.copy()
        np.fill_diagonal(off_diagonal, 0.0)
        return off_diagonal.sum(axis=1)

    def total_external_normalized(self) -> np.ndarray:
        """Fig. 12's "Total Ext" column: external influence per source event (%)."""
        source = np.maximum(self.event_counts, 1)
        return 100.0 * self.external_influence() / source

    def __add__(self, other: "InfluenceMatrices") -> "InfluenceMatrices":
        if self.n_processes != other.n_processes:
            raise ValueError("cannot add influence over different process counts")
        return InfluenceMatrices(
            expected_events=self.expected_events + other.expected_events,
            event_counts=self.event_counts + other.event_counts,
        )

    @classmethod
    def zeros(cls, n_processes: int) -> "InfluenceMatrices":
        return cls(
            expected_events=np.zeros((n_processes, n_processes)),
            event_counts=np.zeros(n_processes, dtype=np.int64),
        )


def attribute_root_causes(
    model: HawkesModel,
    sequence: EventSequence,
) -> np.ndarray:
    """Per-event root-cause distributions under ``model``.

    Returns
    -------
    numpy.ndarray
        ``(n_events, K)`` matrix; row ``n`` is the probability that event
        ``n``'s cascade originated on each community.  Rows sum to 1.
    """
    k = model.n_processes
    n = len(sequence)
    roots = np.zeros((n, k))
    if n == 0:
        return roots
    terms = SequenceTerms(sequence, model.kernel, k)
    background_prob, bounds, parents, probs = terms.causes(
        model.background, model.weights
    )
    processes = sequence.processes
    for event in range(n):
        roots[event, processes[event]] += background_prob[event]
        start, end = bounds[event], bounds[event + 1]
        if end > start:
            # Parents precede the event, so their rows are final.
            roots[event] += probs[start:end] @ roots[parents[start:end]]
    return roots


def root_cause_influence(
    sequence: EventSequence, roots: np.ndarray, n_processes: int
) -> InfluenceMatrices:
    """Aggregate one sequence's root-cause rows by destination community.

    ``roots`` is :func:`attribute_root_causes`'s output for ``sequence``;
    column ``dst`` of the result sums the rows of the events on ``dst``.
    """
    expected = np.zeros((n_processes, n_processes))
    for destination in range(n_processes):
        mask = sequence.processes == destination
        if np.any(mask):
            expected[:, destination] = roots[mask].sum(axis=0)
    return InfluenceMatrices(
        expected_events=expected, event_counts=sequence.counts(n_processes)
    )


def influence_from_sequences(
    sequences: list[EventSequence],
    n_processes: int,
    *,
    config: FitConfig | None = None,
    pooled: bool = False,
) -> InfluenceMatrices:
    """Fit Hawkes models and aggregate root-cause influence.

    Parameters
    ----------
    sequences:
        One event sequence per meme cluster (the paper fits a separate
        model per cluster and sums the attributed causes).
    n_processes:
        Number of communities.
    pooled:
        Fit a single model over all sequences instead of one per cluster
        (cheaper; used for quick looks and tests).
    """
    if not sequences:
        return InfluenceMatrices.zeros(n_processes)
    totals = InfluenceMatrices.zeros(n_processes)
    if pooled:
        result = fit_hawkes_em(sequences, n_processes, config)
        models = [result.model] * len(sequences)
    else:
        models = [
            fit_hawkes_em([sequence], n_processes, config).model
            for sequence in sequences
        ]
    for model, sequence in zip(models, sequences):
        roots = attribute_root_causes(model, sequence)
        totals = totals + root_cause_influence(sequence, roots, n_processes)
    return totals
