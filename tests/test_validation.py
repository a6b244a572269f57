"""Validation counters and distribution comparison.

The collision-free sector masses are checked against state-vector
evolution and explicit classical routing from ``_oracles.py``.
"""

import numpy as np
import pytest

from lopsim.fock import FockState, ModeUnitary, permanent
from lopsim.validation import (
    CollisionFreeReference,
    CounterState,
    DistributionComparison,
    aa_counter_update,
    collision_free_reference,
    compare_distributions,
    _collision_free_weights,
    counter_trajectory_csv,
    lr_counter_update,
    run_validation,
    sample_outcomes,
)

from _oracles import classical_routing_probability, evolve_state_vector, fock_basis_rows


def haar(m: int, seed: int) -> ModeUnitary:
    return ModeUnitary.haar_random(m, np.random.default_rng(seed))


def collision_free_states(m: int, n: int) -> list[FockState]:
    return [FockState(tuple(row)) for row in fock_basis_rows(m, n, True).tolist()]


def test_reference_masses_match_oracles():
    u = haar(6, 3)
    inp = FockState.from_modes(6, (0, 2, 4))
    ref = collision_free_reference(u, inp)
    amps = evolve_state_vector(u.matrix, inp)
    cf = collision_free_states(6, 3)
    ideal = sum(abs(amps.get(state, 0.0)) ** 2 for state in cf)
    classical = sum(classical_routing_probability(u.matrix, inp, state) for state in cf)
    assert ref.n_outcomes == len(cf) == 20
    assert ref.ideal_mass == pytest.approx(ideal, abs=1e-12)
    assert ref.classical_mass == pytest.approx(classical, abs=1e-12)


@pytest.mark.parametrize("m", range(4, 9))
def test_one_pass_weights_equal_per_state_permanents(m):
    u = haar(m, 10 + m)
    inp = FockState.from_modes(m, range(0, m, 2))
    cf = collision_free_states(m, inp.n)
    subs = [u.matrix[np.ix_(state.modes(), inp.modes())] for state in cf]
    ideal = np.array([abs(permanent(sub)) ** 2 for sub in subs])
    classical = np.array([permanent(np.abs(sub) ** 2).real for sub in subs])
    ref = collision_free_reference(u, inp)
    assert ref.n_outcomes == len(cf)
    assert ref.ideal_mass == pytest.approx(ideal.sum(), abs=1e-12)
    assert ref.classical_mass == pytest.approx(classical.sum(), abs=1e-12)
    for hypothesis, per_state in (("ideal", ideal), ("distinguishable", classical)):
        weights = _collision_free_weights(u, inp, hypothesis)
        assert np.allclose(weights, per_state / per_state.sum(), rtol=0, atol=1e-12)


def test_sampler_draws_the_rows_its_weights_were_built_for():
    u = haar(6, 5)
    inp = FockState.from_modes(6, (0, 2, 4))
    cf = collision_free_states(6, 3)
    for hypothesis in ("ideal", "uniform", "distinguishable"):
        weights = _collision_free_weights(u, inp, hypothesis)
        picks = np.random.default_rng(3).choice(len(cf), size=50, p=weights)
        events = sample_outcomes(u, inp, 50, np.random.default_rng(3), hypothesis)
        assert events == tuple(cf[i] for i in picks)


def test_run_validation_replays_bit_exactly():
    u = haar(8, 1)
    inp = FockState.from_modes(8, (0, 1, 2))
    events = sample_outcomes(u, inp, 90, np.random.default_rng(7))
    again = sample_outcomes(u, inp, 90, np.random.default_rng(7))
    assert events == again
    first = run_validation(u, inp, events, checkpoint_every=20)
    assert run_validation(u, inp, again, checkpoint_every=20) == first
    aa, lr = first
    assert aa.samples == lr.samples == 90
    assert [idx for idx, _ in aa.checkpoints] == [20, 40, 60, 80]
    csv = counter_trajectory_csv(aa, lr).splitlines()
    assert csv[:2] == ["sample_index,A,C", "0,0,0"]
    assert csv[-1] == f"90,{aa.value},{lr.value}"
    assert len(csv) == 7


def test_ideal_events_push_both_counters_up():
    u = haar(8, 0)
    inp = FockState.from_modes(8, (0, 1, 2))
    ideal = sample_outcomes(u, inp, 300, np.random.default_rng(100))
    aa, lr = run_validation(u, inp, ideal)
    assert aa.value > 0 and lr.value > 0
    uniform = sample_outcomes(u, inp, 300, np.random.default_rng(100), hypothesis="uniform")
    assert run_validation(u, inp, uniform)[0].value < 0


def test_counter_updates_compute_missing_reference():
    u = haar(5, 2)
    inp = FockState.from_modes(5, (0, 1))
    ref = collision_free_reference(u, inp)
    for update in (aa_counter_update, lr_counter_update):
        with_ref = update(CounterState(), u, (2, 4), (0, 1), ref)
        assert update(CounterState(), u, (2, 4), (0, 1)) == with_ref


def test_compare_identical_and_disjoint():
    p = np.array([0.25, 0.25, 0.5, 0.0])
    same = compare_distributions(p, p)
    assert same.fidelity == pytest.approx(1.0) and same.tvd == pytest.approx(0.0)
    assert not same.residuals.any()
    apart = compare_distributions(np.array([0.5, 0.5, 0.0]), np.array([0.0, 0.0, 1.0]))
    assert apart.fidelity == 0.0 and apart.tvd == pytest.approx(1.0)
    assert np.allclose(apart.residuals, [-0.5, -0.5, 1.0])


U5 = haar(5, 4)
CF_INPUT = FockState.from_modes(5, (0, 1))
BUNCHED = FockState((2, 0, 0, 0, 0))


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: CounterState(checkpoint_every=0), "cadence"),
        (lambda: CounterState().advanced(2), "steps"),
        (lambda: DistributionComparison(1.5, 0.0, np.zeros(1)), "fidelity"),
        (lambda: DistributionComparison(1.0, -0.1, np.zeros(1)), "variation"),
        (lambda: CollisionFreeReference(0.0, 0.5, 1), "ideal"),
        (lambda: CollisionFreeReference(0.5, 1.5, 1), "classical"),
        (lambda: CollisionFreeReference(0.5, 0.5, 0), "at least one"),
        (lambda: collision_free_reference(U5, BUNCHED), "collision-free input"),
        (lambda: aa_counter_update(CounterState(), U5, (1,), (0, 1)), "1 detected modes"),
        (lambda: aa_counter_update(CounterState(), U5, (1, 1), (0, 1)), "distinct"),
        (lambda: lr_counter_update(CounterState(), U5, (1, 2), (0, 5)), "out of range"),
        (lambda: sample_outcomes(U5, CF_INPUT, 0, np.random.default_rng(0)), "n_events"),
        (lambda: sample_outcomes(U5, BUNCHED, 1, np.random.default_rng(0)), "collision-free input"),
        (
            lambda: sample_outcomes(U5, CF_INPUT, 1, np.random.default_rng(0), hypothesis="x"),
            "unknown hypothesis",
        ),
        (lambda: run_validation(U5, CF_INPUT, [BUNCHED]), "not collision-free"),
        (
            lambda: counter_trajectory_csv(CounterState(), CounterState(checkpoint_every=5)),
            "lockstep",
        ),
        (
            lambda: counter_trajectory_csv(
                CounterState(checkpoints=((20, 1),)), CounterState(checkpoints=((40, 1),))
            ),
            "not aligned",
        ),
        (lambda: compare_distributions(np.ones(2) / 2, np.ones(3) / 3), "equal-length"),
        (lambda: compare_distributions(np.ones((2, 2)) / 4, np.ones((2, 2)) / 4), "1-d"),
        (lambda: compare_distributions(np.zeros(0), np.zeros(0)), "equal-length"),
        (
            lambda: compare_distributions(np.array([1.5, -0.5]), np.array([0.5, 0.5])),
            "negative",
        ),
        (lambda: compare_distributions(np.array([0.5, 0.5]), np.array([0.5, 0.4])), "sum to 1"),
    ],
)
def test_invalid_input_raises(call, match):
    with pytest.raises(ValueError, match=match):
        call()
