"""Statistical validation of multiphoton sampling experiments.

Two running counters discriminate a stream of collision-free detection
events against rival samplers, stepping by +1 or -1 per event:

* the uniform-sampler counter compares the ideal interference
  probability of each outcome against the uniform distribution over
  collision-free patterns;
* the distinguishable-sampler counter compares the ideal (permanent
  squared) probability against the classical routing probability
  (permanent of the squared moduli).

Both are likelihood-ratio tests conditioned on the collision-free
sector: an event increments its counter when the outcome is at least as
likely under coherent interference as under the rival hypothesis, so a
positive long-run slope favors genuine multiphoton interference.

The module also provides a distribution-level comparison (fidelity,
total variation distance, residuals).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .fock import FockState, ModeUnitary, enumerate_basis, permanent, strong_simulate
from .sources import SourceModel, build_input, noisy_simulate

__all__ = [
    "CounterState",
    "DistributionComparison",
    "CollisionFreeReference",
    "collision_free_reference",
    "aa_counter_update",
    "lr_counter_update",
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

    def advanced(self, step: int) -> "CounterState":
        """State after one event moving the counter by ``step``."""
        if step not in (1, -1):
            raise ValueError(f"counter steps must be +1 or -1, got {step}")
        samples = self.samples + 1
        value = self.value + step
        checkpoints = self.checkpoints
        if samples % self.checkpoint_every == 0:
            checkpoints = checkpoints + ((samples, value),)
        return replace(self, value=value, samples=samples, checkpoints=checkpoints)


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


@dataclass(frozen=True)
class CollisionFreeReference:
    """Collision-free sector constants of one sampling experiment.

    Attributes:
        ideal_mass: total ideal probability of collision-free outcomes.
        classical_mass: same total under classical (distinguishable)
            routing.
        n_outcomes: number of collision-free patterns, C(m, n).
    """

    ideal_mass: float
    classical_mass: float
    n_outcomes: int

    def __post_init__(self) -> None:
        if not 0.0 < self.ideal_mass <= 1.0 + 1e-9:
            raise ValueError("ideal collision-free mass must lie in (0, 1]")
        if not 0.0 < self.classical_mass <= 1.0 + 1e-9:
            raise ValueError("classical collision-free mass must lie in (0, 1]")
        if self.n_outcomes < 1:
            raise ValueError("need at least one collision-free outcome")


def _check_modes(unitary: ModeUnitary, detected: Sequence[int], inputs: Sequence[int]):
    detected = tuple(int(i) for i in detected)
    inputs = tuple(int(j) for j in inputs)
    if len(detected) != len(inputs):
        raise ValueError(
            f"{len(detected)} detected modes for {len(inputs)} input photons"
        )
    for group, name in ((detected, "detected"), (inputs, "input")):
        if len(set(group)) != len(group):
            raise ValueError(f"{name} modes must be distinct")
        if any(not 0 <= mode < unitary.m for mode in group):
            raise ValueError(f"{name} modes out of range for m={unitary.m}")
    return detected, inputs


def _collision_free_mask(m: int, n: int) -> np.ndarray:
    """Mask of the collision-free rows of ``enumerate_basis(m, n)``.

    Every collision-free row, weight and draw is taken through this one
    mask, so they all list the outcomes in basis order.
    """
    return np.all(enumerate_basis(m, n).occupations <= 1, axis=1)


def _collision_free_probabilities(
    unitary: ModeUnitary, input_state: FockState
) -> tuple[np.ndarray, np.ndarray]:
    """Ideal and classical probabilities of the collision-free outcomes.

    One coherent and one classical pass over the full basis, restricted
    to the collision-free rows and not renormalized.
    """
    n = input_state.n
    distinguishable = build_input(
        n, SourceModel(indistinguishability=0.0), modes=input_state.modes()
    )
    free = _collision_free_mask(unitary.m, n)
    ideal = strong_simulate(unitary, input_state).sectors[n][free]
    classical = noisy_simulate(unitary, distinguishable).sectors[n][free]
    return ideal, classical


def collision_free_reference(
    unitary: ModeUnitary, input_state: FockState
) -> CollisionFreeReference:
    """Precompute the sector constants the counters normalize by."""
    if not input_state.is_collision_free():
        raise ValueError("reference requires a collision-free input state")
    ideal, classical = _collision_free_probabilities(unitary, input_state)
    return CollisionFreeReference(
        ideal_mass=float(ideal.sum()),
        classical_mass=float(classical.sum()),
        n_outcomes=len(ideal),
    )


def aa_counter_update(
    state: CounterState,
    unitary: ModeUnitary,
    detected: Sequence[int],
    inputs: Sequence[int],
    reference: CollisionFreeReference | None = None,
) -> CounterState:
    """Advance the counter that discriminates against uniform sampling.

    The statistic is the event's ideal probability, conditioned on the
    collision-free sector, times the number of collision-free patterns;
    values >= 1 mean the outcome is at least as likely under coherent
    interference as under uniform sampling and increment the counter.

    Args:
        state: counter to advance.
        unitary: interferometer under test.
        detected: modes that clicked (one photon each).
        inputs: occupied input modes.
        reference: precomputed sector constants; computed on the fly
            when omitted (costly, prefer :func:`collision_free_reference`
            once per experiment).
    """
    detected, inputs = _check_modes(unitary, detected, inputs)
    if reference is None:
        reference = collision_free_reference(
            unitary, FockState.from_modes(unitary.m, inputs)
        )
    sub = unitary.matrix[np.ix_(detected, inputs)]
    ideal = abs(permanent(sub)) ** 2 / reference.ideal_mass
    return state.advanced(1 if ideal * reference.n_outcomes >= 1.0 else -1)


def lr_counter_update(
    state: CounterState,
    unitary: ModeUnitary,
    detected: Sequence[int],
    inputs: Sequence[int],
    reference: CollisionFreeReference | None = None,
) -> CounterState:
    """Advance the counter that discriminates against classical routing.

    The statistic is the ratio of the ideal outcome probability
    |Perm(U_sub)|^2 to the classical routing probability
    Perm(|U_sub|^2), each conditioned on the collision-free sector;
    ratios >= 1 increment the counter.  A doubly vanishing ratio (both
    permanents zero, possible only for block-structured unitaries) is
    logged and counted as a decrement.
    """
    detected, inputs = _check_modes(unitary, detected, inputs)
    if reference is None:
        reference = collision_free_reference(
            unitary, FockState.from_modes(unitary.m, inputs)
        )
    sub = unitary.matrix[np.ix_(detected, inputs)]
    q = abs(permanent(sub)) ** 2
    p = float(np.real(permanent(np.abs(sub) ** 2)))
    if p <= 0.0:
        if q <= 0.0:
            _LOGGER.warning(
                "outcome %s unreachable under both hypotheses; counting it against",
                detected,
            )
            return state.advanced(-1)
        return state.advanced(1)
    ratio = (q / reference.ideal_mass) / (p / reference.classical_mass)
    return state.advanced(1 if ratio >= 1.0 else -1)


def _collision_free_weights(
    unitary: ModeUnitary, input_state: FockState, hypothesis: str
) -> np.ndarray:
    if hypothesis not in HYPOTHESES:
        raise ValueError(f"unknown hypothesis {hypothesis!r}; expected {HYPOTHESES}")
    if hypothesis == "uniform":
        size = np.count_nonzero(_collision_free_mask(unitary.m, input_state.n))
        return np.full(size, 1.0 / size)
    ideal, classical = _collision_free_probabilities(unitary, input_state)
    weights = ideal if hypothesis == "ideal" else classical
    return weights / weights.sum()


def sample_outcomes(
    unitary: ModeUnitary,
    input_state: FockState,
    n_events: int,
    rng: np.random.Generator,
    hypothesis: str = "ideal",
) -> tuple[FockState, ...]:
    """Draw collision-free detection events from a chosen sampler.

    Args:
        unitary: interferometer.
        input_state: collision-free multi-photon input.
        n_events: number of events to draw.
        rng: random generator.
        hypothesis: "ideal" (coherent interference), "uniform", or
            "distinguishable" (classical routing), each renormalized
            over collision-free patterns.
    """
    if n_events < 1:
        raise ValueError("n_events must be positive")
    if not input_state.is_collision_free():
        raise ValueError("sampling requires a collision-free input state")
    weights = _collision_free_weights(unitary, input_state, hypothesis)
    occupations = enumerate_basis(unitary.m, input_state.n).occupations
    rows = occupations[_collision_free_mask(unitary.m, input_state.n)]
    picks = rng.choice(len(rows), size=n_events, p=weights)
    return tuple(FockState(tuple(rows[i].tolist())) for i in picks)


def run_validation(
    unitary: ModeUnitary,
    input_state: FockState,
    events: Iterable[FockState],
    checkpoint_every: int = 20,
) -> tuple[CounterState, CounterState]:
    """Run both counters over an event stream.

    Returns the (uniform-sampler, distinguishable-sampler) counter
    states after all events.  Replaying the same stream reproduces the
    trajectories bit-exactly.
    """
    reference = collision_free_reference(unitary, input_state)
    inputs = input_state.modes()
    aa = CounterState(checkpoint_every=checkpoint_every)
    lr = CounterState(checkpoint_every=checkpoint_every)
    for event in events:
        if not event.is_collision_free():
            raise ValueError(f"event {event} is not collision-free")
        detected = event.modes()
        aa = aa_counter_update(aa, unitary, detected, inputs, reference)
        lr = lr_counter_update(lr, unitary, detected, inputs, reference)
    return aa, lr


def counter_trajectory_csv(aa: CounterState, lr: CounterState) -> str:
    """Merge two counter histories into CSV rows (sample_index, A, C).

    The counters must have been advanced in lockstep (same cadence and
    event count).  A leading zero row and, when the stream did not end
    on a checkpoint boundary, a final row are included.
    """
    if aa.checkpoint_every != lr.checkpoint_every or aa.samples != lr.samples:
        raise ValueError("counters were not advanced in lockstep")
    rows = ["sample_index,A,C"]
    rows.append("0,0,0")
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
    is half the L1 norm of the difference.  Both inputs must be
    probability vectors over the same outcome ordering.
    """
    p = np.asarray(ideal, dtype=float)
    q = np.asarray(experimental, dtype=float)
    if p.shape != q.shape or p.ndim != 1 or p.size == 0:
        raise ValueError("distributions must be equal-length 1-d vectors")
    for name, vec in (("ideal", p), ("experimental", q)):
        if np.any(vec < -1e-12):
            raise ValueError(f"{name} distribution has negative entries")
        if abs(vec.sum() - 1.0) > 1e-6:
            raise ValueError(f"{name} distribution must sum to 1")
    fidelity = float(np.sqrt(np.clip(p, 0.0, None) * np.clip(q, 0.0, None)).sum())
    tvd = float(0.5 * np.abs(p - q).sum())
    return DistributionComparison(
        fidelity=min(fidelity, 1.0), tvd=min(tvd, 1.0), residuals=q - p
    )
