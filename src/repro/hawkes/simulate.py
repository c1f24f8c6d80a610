"""Hawkes simulation: the exact branching sampler.

The branching (cluster) representation of a Hawkes process is exact:
immigrants arrive as a Poisson process at the background rates; each event
on process ``i`` independently spawns ``Poisson(W[i, j])`` children on
each process ``j`` at kernel-distributed delays.  The sampler therefore
returns *ground-truth parents and root communities* — exactly the latent
structure the paper's influence estimation infers — which lets the test
suite validate fitting and attribution against truth.

Ogata's thinning algorithm, an independent cross-check of the sampler's
marginal law, lives with the test oracles in ``tests/hawkes_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hawkes.model import EventSequence, HawkesModel

__all__ = ["SimulationResult", "simulate_branching"]


@dataclass(frozen=True)
class SimulationResult:
    """A simulated sequence plus its latent branching structure.

    Attributes
    ----------
    sequence:
        The observable events.
    parents:
        Per event, the index of its parent event, or ``-1`` for
        immigrants (background events).
    roots:
        Per event, the process index of the *root ancestor*'s community —
        the ground truth for root-cause attribution.
    """

    sequence: EventSequence
    parents: np.ndarray
    roots: np.ndarray


def simulate_branching(
    model: HawkesModel,
    horizon: float,
    rng: np.random.Generator,
    *,
    max_events: int = 1_000_000,
    background_modulation=None,
    modulation_max: float = 1.0,
) -> SimulationResult:
    """Exact simulation via the branching representation.

    Parameters
    ----------
    background_modulation:
        Optional callable ``m(times) -> multipliers`` — or a sequence of
        one callable per process — making the immigrant (background) rate
        inhomogeneous: the rate at time ``t`` is ``background * m(t)``.
        Sampled by thinning against ``modulation_max``, which must
        upper-bound every ``m``.  Offspring dynamics are unaffected.
        Used by the synthetic world to inject real-world-event spikes
        (e.g. the election window of Fig. 8) and per-community activity
        ramps (Gab's growth).

    Raises
    ------
    ValueError
        If the model is super-critical (spectral radius >= 1) or the
        realisation exceeds ``max_events``.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if modulation_max <= 0:
        raise ValueError("modulation_max must be positive")
    if model.spectral_radius() >= 1.0:
        raise ValueError(
            "model is super-critical (spectral radius >= 1); "
            "the branching simulation would not terminate"
        )
    k = model.n_processes
    times: list[float] = []
    processes: list[int] = []
    parent_of: list[int] = []
    root_of: list[int] = []

    # Immigrants (thinned against modulation_max when inhomogeneous).
    pending: list[int] = []  # indices whose offspring are not yet drawn
    for process in range(k):
        rate = model.background[process]
        if rate <= 0:
            continue
        if background_modulation is None or callable(background_modulation):
            modulation = background_modulation
        else:
            modulation = background_modulation[process]
        count = rng.poisson(rate * modulation_max * horizon)
        candidate_times = np.sort(rng.uniform(0.0, horizon, size=count))
        if modulation is not None and count:
            accept_probability = (
                np.asarray(modulation(candidate_times), dtype=np.float64)
                / modulation_max
            )
            if np.any(accept_probability > 1.0 + 1e-9):
                raise ValueError("modulation exceeds modulation_max")
            accept_probability = np.clip(accept_probability, 0.0, 1.0)
            keep = rng.random(count) < accept_probability
            candidate_times = candidate_times[keep]
        for t in candidate_times:
            times.append(float(t))
            processes.append(process)
            parent_of.append(-1)
            root_of.append(process)
            pending.append(len(times) - 1)

    # Offspring cascade.
    cursor = 0
    while cursor < len(pending):
        event_index = pending[cursor]
        cursor += 1
        t_parent = times[event_index]
        source = processes[event_index]
        root = root_of[event_index]
        for target in range(k):
            expected = model.weights[source, target]
            if expected <= 0:
                continue
            n_children = rng.poisson(expected)
            if n_children == 0:
                continue
            delays = model.kernel.sample(rng, size=n_children)
            for delay in np.atleast_1d(delays):
                t_child = t_parent + float(delay)
                if t_child > horizon:
                    continue
                times.append(t_child)
                processes.append(target)
                parent_of.append(event_index)
                root_of.append(root)
                pending.append(len(times) - 1)
        if len(times) > max_events:
            raise ValueError(f"simulation exceeded max_events={max_events}")

    order = np.argsort(np.array(times), kind="stable")
    remap = np.empty(len(times), dtype=np.int64)
    remap[order] = np.arange(len(times))
    sorted_parents = np.array(
        [-1 if parent_of[i] == -1 else int(remap[parent_of[i]]) for i in order],
        dtype=np.int64,
    )
    sequence = EventSequence(
        times=np.array(times)[order],
        processes=np.array(processes, dtype=np.int64)[order],
        horizon=horizon,
    )
    return SimulationResult(
        sequence=sequence,
        parents=sorted_parents,
        roots=np.array(root_of, dtype=np.int64)[order],
    )
