"""Validation counters and distribution comparison.

The collision-free reference is checked against state-vector evolution,
explicit classical routing and per-pattern permanents, and the counters
against an event-by-event permanent oracle, all from ``_oracles.py``.
"""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lopsim import validation
from lopsim.fock import FockState, ModeUnitary, enumerate_basis, permanent
from lopsim.validation import (
    CollisionFreeReference,
    CounterState,
    DistributionComparison,
    collision_free_reference,
    compare_distributions,
    counter_trajectory_csv,
    run_validation,
    sample_outcomes,
)

from _oracles import (
    classical_routing_probability,
    collision_free_probabilities_by_permanents,
    counter_trajectories_by_permanents,
    evolve_state_vector,
    fock_basis_rows,
)


def haar(m: int, seed: int) -> ModeUnitary:
    return ModeUnitary.haar_random(m, np.random.default_rng(seed))


def collision_free_states(m: int, n: int) -> list[FockState]:
    return [FockState(tuple(row)) for row in fock_basis_rows(m, n, True).tolist()]


def collision_free_rows(m: int, n: int) -> np.ndarray:
    return np.all(enumerate_basis(m, n).occupations <= 1, axis=1)


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
    free = collision_free_rows(m, inp.n)
    for vec, per_state in ((ref.ideal, ideal), (ref.distinguishable, classical)):
        assert not vec[~free].any()
        assert np.allclose(vec[free], per_state / per_state.sum(), rtol=0, atol=1e-12)


def test_sampler_draws_the_rows_its_weights_were_built_for():
    # Drawing over the whole basis, bunched rows at weight 0, picks the
    # same rows as drawing over the collision-free rows alone.
    u = haar(6, 5)
    inp = FockState.from_modes(6, (0, 2, 4))
    ref = collision_free_reference(u, inp)
    cf = fock_basis_rows(6, 3, True)
    free = collision_free_rows(6, 3)
    for hypothesis, weights in (
        ("ideal", ref.ideal[free]),
        ("uniform", np.full(len(cf), 1.0 / len(cf))),
        ("distinguishable", ref.distinguishable[free]),
    ):
        picks = np.random.default_rng(3).choice(len(cf), size=50, p=weights)
        events = sample_outcomes(ref, 50, np.random.default_rng(3), hypothesis)
        assert events.dtype == np.int8 and events.shape == (50, 6)
        assert np.array_equal(events, cf[picks])


@pytest.mark.parametrize("n_events", [0, 2.5, float("inf"), float("nan")])
def test_an_event_count_must_be_a_whole_number(n_events):
    with pytest.raises(ValueError, match="n_events must be a whole number"):
        sample_outcomes(REF5, n_events, np.random.default_rng(0))


def test_a_missing_event_count_is_refused_by_name():
    with pytest.raises(ValueError, match="n_events must be given as a whole number"):
        sample_outcomes(REF5, None, np.random.default_rng(0))


def test_a_whole_float_event_count_draws_that_many():
    assert sample_outcomes(REF5, 3.0, np.random.default_rng(0)).shape == (3, 5)


def test_run_validation_replays_bit_exactly():
    ref = collision_free_reference(haar(8, 1), FockState.from_modes(8, (0, 1, 2)))
    events = sample_outcomes(ref, 90, np.random.default_rng(7))
    again = sample_outcomes(ref, 90, np.random.default_rng(7))
    assert np.array_equal(events, again)
    first = run_validation(ref, events, checkpoint_every=20)
    assert run_validation(ref, again, checkpoint_every=20) == first
    aa, lr = first
    assert aa.samples == lr.samples == 90
    assert [idx for idx, _ in aa.checkpoints] == [20, 40, 60, 80]
    csv = counter_trajectory_csv(aa, lr).splitlines()
    assert csv[:2] == ["sample_index,A,C", "0,0,0"]
    assert csv[-1] == f"90,{aa.value},{lr.value}"
    assert len(csv) == 7


def test_ideal_events_push_both_counters_up():
    ref = collision_free_reference(haar(8, 0), FockState.from_modes(8, (0, 1, 2)))
    ideal = sample_outcomes(ref, 300, np.random.default_rng(100))
    aa, lr = run_validation(ref, ideal)
    assert aa.value > 0 and lr.value > 0
    uniform = sample_outcomes(ref, 300, np.random.default_rng(100), hypothesis="uniform")
    assert run_validation(ref, uniform)[0].value < 0


def test_reference_is_the_only_simulation(monkeypatch):
    calls = {"strong_simulate": 0, "noisy_simulate": 0}

    def counted(name):
        original = getattr(validation, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(validation, name, counted(name))
    assert not hasattr(validation, "permanent")
    ref = collision_free_reference(haar(6, 2), FockState.from_modes(6, (1, 3, 5)))
    assert calls == {"strong_simulate": 1, "noisy_simulate": 1}
    for hypothesis in validation.HYPOTHESES:
        events = sample_outcomes(ref, 40, np.random.default_rng(1), hypothesis)
        run_validation(ref, events, checkpoint_every=3)
    assert calls == {"strong_simulate": 1, "noisy_simulate": 1}


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(3, 8),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    cadence=st.integers(1, 10),
)
def test_reference_and_counters_match_permanent_oracles(m, data, seed, cadence):
    # n >= 2: for one photon the two hypotheses coincide exactly, so the
    # distinguishable-sampler step is a rounding tie.
    n = data.draw(st.integers(2, min(m, 6)))
    modes = data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n, unique=True))
    rng = np.random.default_rng(seed)
    u = ModeUnitary.haar_random(m, rng)
    ref = collision_free_reference(u, FockState.from_modes(m, modes))
    oracle = collision_free_probabilities_by_permanents(u.matrix, sorted(modes))
    basis = enumerate_basis(m, n)
    index = basis.rank(np.array([FockState.from_modes(m, d).occupations for d in oracle]))
    expected = np.array(list(oracle.values()))
    for vec, column in ((ref.ideal, 0), (ref.distinguishable, 1)):
        assert np.allclose(vec[index], expected[:, column], rtol=0, atol=1e-12)
        assert vec.sum() == pytest.approx(1.0, abs=1e-12)
    hypothesis = data.draw(st.sampled_from(validation.HYPOTHESES))
    events = sample_outcomes(ref, 60, rng, hypothesis)
    aa, lr = run_validation(ref, events, checkpoint_every=cadence)
    assert ((aa.value, aa.samples, aa.checkpoints), (lr.value, lr.samples, lr.checkpoints)) == (
        counter_trajectories_by_permanents(u.matrix, sorted(modes), events, cadence)
    )


def test_event_unreachable_under_both_hypotheses_counts_against(caplog):
    # Photons entering the first 2 x 2 block never reach modes 2 and 3.
    block = np.zeros((4, 4), dtype=complex)
    block[:2, :2] = haar(2, 0).matrix
    block[2:, 2:] = haar(2, 1).matrix
    ref = collision_free_reference(ModeUnitary(block), FockState((1, 1, 0, 0)))
    with caplog.at_level(logging.WARNING, logger="lopsim.validation"):
        aa, lr = run_validation(ref, np.array([[1, 1, 0, 0], [0, 0, 1, 1]]), 1)
    assert ["unreachable" in r.getMessage() for r in caplog.records] == [True]
    assert "0011" in caplog.records[0].getMessage()
    assert aa.checkpoints == lr.checkpoints == ((1, 1), (2, 0))


def test_compare_identical_and_disjoint():
    p = np.array([0.25, 0.25, 0.5, 0.0])
    same = compare_distributions(p, p)
    assert same.fidelity == pytest.approx(1.0) and same.tvd == pytest.approx(0.0)
    assert not same.residuals.any()
    apart = compare_distributions(np.array([0.5, 0.5, 0.0]), np.array([0.0, 0.0, 1.0]))
    assert apart.fidelity == 0.0 and apart.tvd == pytest.approx(1.0)
    assert np.allclose(apart.residuals, [-0.5, -0.5, 1.0])


U5 = haar(5, 4)
REF5 = collision_free_reference(U5, FockState.from_modes(5, (0, 1)))
V15 = np.full(15, 0.1)
BUNCHED = FockState((2, 0, 0, 0, 0))


def rows(*events) -> np.ndarray:
    return np.array(events).reshape(len(events), -1)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: CounterState(checkpoint_every=0), "cadence"),
        (lambda: run_validation(REF5, rows((0, 1, 1, 0, 0)), 0), "at least 1 event"),
        (lambda: DistributionComparison(1.5, 0.0, np.zeros(1)), "fidelity"),
        (lambda: DistributionComparison(1.0, -0.1, np.zeros(1)), "variation"),
        (lambda: CollisionFreeReference(5, 2, V15, V15, 0.0, 0.5), "ideal"),
        (lambda: CollisionFreeReference(5, 2, V15, V15, 0.5, 1.5), "classical"),
        (lambda: CollisionFreeReference(2, 3, np.zeros(4), np.zeros(4), 0.5, 0.5), "at least one"),
        (lambda: CollisionFreeReference(5, 2, V15, np.zeros(10), 0.5, 0.5), "cover the"),
        (lambda: collision_free_reference(U5, BUNCHED), "collision-free input"),
        (lambda: run_validation(REF5, rows((0, 1, 1, 0, 0), (0, 1, 0, 0, 0))), "1 detected modes"),
        (lambda: run_validation(REF5, rows((0, 2, 0, 0, 0))), "distinct"),
        (lambda: run_validation(REF5, rows((1, 0, 0, 0, 0, 1))), "out of range"),
        (lambda: run_validation(REF5, np.array([0, 1, 1, 0, 0])), "out of range"),
        (lambda: run_validation(REF5, rows((0, 1, -1, 1, 1))), r"\[0, 1, -1, 1, 1\].*whole number"),
        (lambda: run_validation(REF5, rows((0.5, 0.5, 1, 0, 0))), "whole number"),
        (lambda: sample_outcomes(REF5, 0, np.random.default_rng(0)), "n_events"),
        (
            lambda: sample_outcomes(REF5, 1, np.random.default_rng(0), hypothesis="x"),
            "unknown hypothesis",
        ),
        (lambda: run_validation(REF5, rows(BUNCHED.occupations)), "20000 is not collision-free"),
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
        (
            lambda: compare_distributions(np.array([np.nan, 1.0]), np.array([0.5, 0.5])),
            "ideal distribution has NaN",
        ),
        (
            lambda: compare_distributions(np.array([0.5, 0.5]), np.array([np.inf, 0.0])),
            "experimental distribution has NaN or infinite",
        ),
    ],
)
def test_invalid_input_raises(call, match):
    with pytest.raises(ValueError, match=match):
        call()
