"""Statistical validation of multiphoton sampling experiments.

Events are validated on the collision-free outcomes, as threshold
detectors see them (Spagnolo et al., Nat. Photon. 8, 615 (2014)), and
this module alone restricts to them: one cached mask over
``enumerate_basis(m, n)`` zeroes the bunched rows and renormalizes the
rest.  One :class:`CollisionFreeReference` per experiment holds the two
vectors every draw and counter step reads, so restricted: the ideal
(coherent) probabilities from one ``strong_simulate``, and the
distinguishable (classical routing) ones from one ``noisy_simulate``
with a fully distinguishable (m = 0) source.

An event is an occupation row, and a stream of K events one int8
``(K, m)`` array; no event is a :class:`~lopsim.fock.FockState`.
:func:`sample_outcomes` draws that array from either vector or uniformly
over the C(m, n) collision-free patterns of the same mask.
:func:`run_validation` checks the array as a whole, ranks each row once
and steps two likelihood-ratio counters by +1 or -1: the uniform-sampler
counter (Aaronson and Arkhipov) steps up when the event's ideal
probability is at least 1/C(m, n), the distinguishable-sampler counter
(Spagnolo et al.) when it is at least the distinguishable one; an event
both hypotheses rule out is logged and counted against.  A positive
long-run slope favors genuine multiphoton interference.

The module also provides a distribution-level comparison (fidelity,
total variation distance, residuals).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import comb

import numpy as np

from .fock import FockState, ModeUnitary, _shot_count, enumerate_basis, strong_simulate
from .sources import SourceModel, build_input, noisy_simulate

__all__ = [
    "CounterState",
    "DistributionComparison",
    "CollisionFreeReference",
    "collision_free_reference",
    "sample_outcomes",
    "run_validation",
    "counter_trajectory_csv",
    "compare_distributions",
]

_LOGGER = logging.getLogger(__name__)

HYPOTHESES = ("ideal", "uniform", "distinguishable")


@dataclass(frozen=True)
class CounterState:
    """Running +/-1 counter with periodic checkpoints.

    Attributes:
        value: current counter value.
        samples: number of events consumed.
        checkpoint_every: cadence, in events, at which (samples, value)
            pairs are appended to the history.
        checkpoints: recorded (sample index, value) pairs.
    """

    value: int = 0
    samples: int = 0
    checkpoint_every: int = 20
    checkpoints: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint cadence must be at least 1 event")


@dataclass(frozen=True)
class DistributionComparison:
    """Fidelity, total variation distance, and per-outcome residuals.

    ``residuals`` is experimental minus ideal, outcome by outcome.
    """

    fidelity: float
    tvd: float
    residuals: np.ndarray

    def __post_init__(self) -> None:
        if not 0.0 <= self.fidelity <= 1.0 + 1e-12:
            raise ValueError("fidelity must lie in [0, 1]")
        if not 0.0 <= self.tvd <= 1.0 + 1e-12:
            raise ValueError("total variation distance must lie in [0, 1]")
        self.residuals.setflags(write=False)


@dataclass(frozen=True, eq=False)
class CollisionFreeReference:
    """The two collision-free distributions of one m-mode, n-photon experiment.

    ``ideal`` (coherent) and ``distinguishable`` (classical routing) are
    read-only probability vectors over ``enumerate_basis(m, n)``, zero on
    the bunched rows and renormalized over the collision-free ones;
    ``ideal_mass`` and ``classical_mass`` are the collision-free mass of
    each before renormalization.
    """

    m: int
    n: int
    ideal: np.ndarray
    distinguishable: np.ndarray
    ideal_mass: float
    classical_mass: float

    def __post_init__(self) -> None:
        if self.n_outcomes < 1:
            raise ValueError("need at least one collision-free outcome")
        size = len(enumerate_basis(self.m, self.n))
        if np.shape(self.ideal) != (size,) or np.shape(self.distinguishable) != (size,):
            raise ValueError(f"reference vectors must cover the ({self.m}, {self.n}) basis")
        if not 0.0 < self.ideal_mass <= 1.0 + 1e-9:
            raise ValueError("ideal collision-free mass must lie in (0, 1]")
        if not 0.0 < self.classical_mass <= 1.0 + 1e-9:
            raise ValueError("classical collision-free mass must lie in (0, 1]")
        self.ideal.setflags(write=False)
        self.distinguishable.setflags(write=False)

    @property
    def n_outcomes(self) -> int:
        """Number of collision-free patterns, C(m, n)."""
        return comb(self.m, self.n)


@lru_cache(maxsize=None)
def _collision_free_rows(m: int, n: int) -> np.ndarray:
    """Read-only mask of the collision-free rows of ``enumerate_basis(m, n)``."""
    free = np.all(enumerate_basis(m, n).occupations <= 1, axis=1)
    free.setflags(write=False)
    return free


def _restrict_collision_free(probs: np.ndarray, m: int, n: int) -> tuple[np.ndarray, float]:
    """``probs`` zeroed on the bunched rows and renormalized, and the mass it kept."""
    free = _collision_free_rows(m, n)
    mass = probs[free].sum()
    if not mass > 0.0:  # refused before the division, which would warn
        raise ValueError("no probability mass in the collision-free subspace")
    return np.where(free, probs / mass, 0.0), float(mass)


def collision_free_reference(
    unitary: ModeUnitary, input_state: FockState
) -> CollisionFreeReference:
    """Both collision-free distributions, from one coherent and one classical pass."""
    if not input_state.is_collision_free():
        raise ValueError("reference requires a collision-free input state")
    m, n = unitary.m, input_state.n
    coherent = strong_simulate(unitary, input_state).sectors[n]
    ideal, ideal_mass = _restrict_collision_free(coherent, m, n)
    labeled = build_input(n, SourceModel(indistinguishability=0.0), modes=input_state.modes())
    classical = noisy_simulate(unitary, labeled).sectors[n]
    distinguishable, classical_mass = _restrict_collision_free(classical, m, n)
    return CollisionFreeReference(m, n, ideal, distinguishable, ideal_mass, classical_mass)


def sample_outcomes(
    reference: CollisionFreeReference,
    n_events: int,
    rng: np.random.Generator,
    hypothesis: str = "ideal",
) -> np.ndarray:
    """Draw collision-free detection events from a chosen sampler.

    Returns the events as an int8 ``(n_events, m)`` array of occupation
    rows, one ``choice`` draw over the rows of ``enumerate_basis(m, n)``.

    Args:
        reference: the experiment's collision-free distributions.
        n_events: number of events to draw.
        rng: random generator.
        hypothesis: "ideal" (coherent interference), "uniform", or
            "distinguishable" (classical routing), each renormalized
            over collision-free patterns.
    """
    n_events = _shot_count(n_events, rng, "n_events", required=True)
    if hypothesis not in HYPOTHESES:
        raise ValueError(f"unknown hypothesis {hypothesis!r}; expected {HYPOTHESES}")
    rows = enumerate_basis(reference.m, reference.n).occupations
    if hypothesis == "uniform":
        free = _collision_free_rows(reference.m, reference.n)
        weights = np.where(free, 1.0 / reference.n_outcomes, 0.0)
    else:
        weights = reference.ideal if hypothesis == "ideal" else reference.distinguishable
    picks = rng.choice(len(rows), size=n_events, p=weights)
    return rows[picks]


def _counter(steps: np.ndarray, checkpoint_every: int) -> CounterState:
    """Counter state after a +/-1 step per event, from one cumulative sum."""
    state = CounterState(int(steps.sum()), len(steps), checkpoint_every)
    values = np.cumsum(steps)
    marks = np.arange(checkpoint_every, len(steps) + 1, checkpoint_every)
    return replace(state, checkpoints=tuple(zip(marks.tolist(), values[marks - 1].tolist())))


def _row_text(row: np.ndarray) -> str:
    """An occupation row as one digit per mode, such as ``0011``."""
    return "".join(str(o) for o in row.tolist())


def run_validation(
    reference: CollisionFreeReference,
    events: np.ndarray,
    checkpoint_every: int = 20,
) -> tuple[CounterState, CounterState]:
    """Run both counters over an event stream.

    ``events`` is a ``(K, m)`` array of occupation rows, as
    :func:`sample_outcomes` draws them: whole numbers, at most 1 per mode
    and n per row.  Each event is ranked once in ``enumerate_basis(m, n)``
    and both counters' steps are read from the reference's vectors.
    Returns the (uniform-sampler, distinguishable-sampler) counter states
    after all events; replaying the same stream reproduces them bit-exactly.
    """
    m, n = reference.m, reference.n
    events = np.asarray(events)
    if events.ndim != 2 or events.shape[1] != m:
        raise ValueError(f"events of shape {events.shape} have modes out of range for m={m}")
    whole = np.all((events >= 0) & (events == np.floor(events)), axis=1)
    if not whole.all():
        bad = events[np.argmin(whole)].tolist()
        raise ValueError(f"event {bad} has an occupation that is not a whole number >= 0")
    bunched = np.any(events > 1, axis=1)
    if bunched.any():
        bad = _row_text(events[np.argmax(bunched)].astype(int))
        raise ValueError(f"event {bad} is not collision-free: modes must be distinct")
    rows = events.astype(np.int8)
    detected = rows.sum(axis=1)
    if np.any(detected != n):
        raise ValueError(f"{detected[detected != n][0]} detected modes for {n} input photons")
    index = enumerate_basis(m, n).rank(rows)
    ideal = reference.ideal[index]
    distinguishable = reference.distinguishable[index]
    unreachable = (ideal <= 0.0) & (distinguishable <= 0.0)
    for i in np.flatnonzero(unreachable):
        _LOGGER.warning(
            "outcome %s unreachable under both hypotheses; counting it against", _row_text(rows[i])
        )
    aa = np.where(ideal * reference.n_outcomes >= 1.0, 1, -1)
    lr = np.where((ideal >= distinguishable) & ~unreachable, 1, -1)
    return _counter(aa, checkpoint_every), _counter(lr, checkpoint_every)


def counter_trajectory_csv(aa: CounterState, lr: CounterState) -> str:
    """Merge two counter histories into CSV rows (sample_index, A, C).

    The counters must have been advanced in lockstep (same cadence and
    event count).  A leading zero row and, when the stream did not end
    on a checkpoint boundary, a final row are included.
    """
    if aa.checkpoint_every != lr.checkpoint_every or aa.samples != lr.samples:
        raise ValueError("counters were not advanced in lockstep")
    rows = ["sample_index,A,C", "0,0,0"]
    for (idx_a, val_a), (idx_c, val_c) in zip(aa.checkpoints, lr.checkpoints):
        if idx_a != idx_c:
            raise ValueError("checkpoint histories are not aligned")
        rows.append(f"{idx_a},{val_a},{val_c}")
    if aa.samples % aa.checkpoint_every != 0:
        rows.append(f"{aa.samples},{aa.value},{lr.value}")
    return "\n".join(rows) + "\n"


def compare_distributions(
    ideal: np.ndarray, experimental: np.ndarray
) -> DistributionComparison:
    """Fidelity and total variation distance between aligned distributions.

    Fidelity is the Bhattacharyya overlap sum(sqrt(p*q)); the distance
    is half the L1 norm of the difference.  Both inputs must be finite
    probability vectors over the same outcome ordering.
    """
    p = np.asarray(ideal, dtype=float)
    q = np.asarray(experimental, dtype=float)
    if p.shape != q.shape or p.ndim != 1 or p.size == 0:
        raise ValueError("distributions must be equal-length 1-d vectors")
    for name, vec in (("ideal", p), ("experimental", q)):
        if not np.all(np.isfinite(vec)):
            raise ValueError(f"{name} distribution has NaN or infinite entries")
        if np.any(vec < -1e-12):
            raise ValueError(f"{name} distribution has negative entries")
        if abs(vec.sum() - 1.0) > 1e-6:
            raise ValueError(f"{name} distribution must sum to 1")
    fidelity = float(np.sqrt(np.clip(p, 0.0, None) * np.clip(q, 0.0, None)).sum())
    tvd = float(0.5 * np.abs(p - q).sum())
    return DistributionComparison(
        fidelity=min(fidelity, 1.0), tvd=min(tvd, 1.0), residuals=q - p
    )
