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

from repro.hawkes.kernels import ExponentialKernel
from repro.hawkes.model import EventSequence, HawkesModel
from repro.hawkes.terms import SequenceTerms

__all__ = [
    "InfluenceMatrices",
    "attribute_root_causes",
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
    models: HawkesModel | list[HawkesModel],
    sequences: EventSequence | list[EventSequence],
) -> np.ndarray:
    """Per-event root-cause distributions, over a stack of sequences.

    ``models`` is one model for every sequence, or one model per
    sequence; ``sequences`` is one sequence or a list of them.

    Returns
    -------
    numpy.ndarray
        ``(n_events, K)`` matrix over the sequences' events in order; row
        ``n`` is the probability that event ``n``'s cascade originated on
        each community.  Rows sum to 1.
    """
    if isinstance(sequences, EventSequence):
        sequences = [sequences]
    if isinstance(models, HawkesModel):
        models, group_models = [models], np.zeros(len(sequences), dtype=np.int64)
    else:
        group_models = None
    kernel = models[0].kernel
    if any(model.kernel != kernel for model in models):
        # Models differ only in a learned exponential decay rate.
        kernel = ExponentialKernel(np.array([model.kernel.beta for model in models]))
    terms = SequenceTerms(
        sequences, kernel, models[0].n_processes, models=group_models
    )
    background_prob, parent_prob = terms.responsibilities(
        np.stack([model.background for model in models]),
        np.stack([model.weights for model in models]),
    )
    keep = parent_prob > 0
    return terms.propagate(
        background_prob, terms.child[keep], terms.parent[keep], parent_prob[keep]
    )


def root_cause_influence(
    sequences: list[EventSequence], roots: np.ndarray, n_processes: int
) -> list[InfluenceMatrices]:
    """Aggregate each sequence's root-cause rows by destination community.

    ``roots`` is :func:`attribute_root_causes`'s output for ``sequences``;
    column ``dst`` of a sequence's matrix sums the rows of its events on
    ``dst``.  One ``bincount`` over (sequence, destination, source).
    """
    k = n_processes
    sizes = [len(sequence) for sequence in sequences]
    cells = np.repeat(np.arange(len(sequences)) * k, sizes)
    if sequences:
        cells += np.concatenate([sequence.processes for sequence in sequences])
    expected = np.bincount(
        (cells[:, None] * k + np.arange(k)).ravel(),
        roots.ravel(),
        minlength=len(sequences) * k * k,
    ).reshape(-1, k, k)
    counts = np.bincount(cells, minlength=len(sequences) * k).reshape(-1, k)
    return [
        InfluenceMatrices(
            expected_events=np.ascontiguousarray(matrix.T), event_counts=count
        )
        for matrix, count in zip(expected, counts)
    ]
