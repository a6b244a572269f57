"""Invariants of the array-native Fock core, checked on random inputs.

The basis rank is checked against the stored occupation rows, and the
photon-addition kernel behind ``strong_simulate`` and ``noisy_simulate``
against the brute-force oracles in ``_oracles.py``.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lopsim.fock import FockState, ModeUnitary, enumerate_basis, strong_simulate
from lopsim.sources import (
    NoisyDistribution,
    SourceModel,
    build_input,
    coincidence_probability,
    cyclic_input_modes,
    cyclic_interferometer,
    genuine_indistinguishability,
    noisy_simulate,
)

from _oracles import classical_routing_probability, evolve_state_vector


def haar(m: int, seed: int) -> ModeUnitary:
    return ModeUnitary.haar_random(m, np.random.default_rng(seed))


@st.composite
def basis_shapes(draw):
    m = draw(st.integers(1, 8))
    collision_free = draw(st.booleans())
    n = draw(st.integers(0, m if collision_free else 5))
    return m, n, collision_free


@st.composite
def photon_inputs(draw, max_photons=4, max_modes=6):
    m = draw(st.integers(1, max_modes))
    modes = draw(st.lists(st.integers(0, m - 1), max_size=max_photons))
    return m, tuple(modes)


class TestBasisRank:
    @settings(max_examples=50, deadline=None)
    @given(shape=basis_shapes(), data=st.data())
    def test_rank_and_index_round_trip(self, shape, data):
        basis = enumerate_basis(*shape)
        picks = np.array(data.draw(st.lists(st.integers(0, len(basis) - 1), min_size=1)))
        assert np.array_equal(basis.rank(basis.occupations[picks]), picks)
        i = int(picks[0])
        assert basis.index(basis[i]) == i
        assert basis.index(basis[i - len(basis)]) == i
        assert basis[i] in basis

    @settings(max_examples=50, deadline=None)
    @given(shape=basis_shapes(), data=st.data())
    def test_non_members_raise_key_error(self, shape, data):
        m, n, collision_free = shape
        cap = 1 if collision_free else n
        row = data.draw(st.lists(st.integers(-1, cap + 2), min_size=1, max_size=m + 1))
        assume(len(row) != m or sum(row) != n or min(row) < 0 or max(row) > cap)
        basis = enumerate_basis(m, n, collision_free)
        with pytest.raises(KeyError):
            basis.rank(np.array([row]))
        if min(row) >= 0:
            with pytest.raises(KeyError):
                basis.index(FockState(tuple(row)))
            assert FockState(tuple(row)) not in basis

    def test_basis_is_ordered_and_read_only(self):
        basis = enumerate_basis(5, 3)
        rows = [tuple(r) for r in basis.occupations.tolist()]
        assert rows == sorted(set(rows))
        with pytest.raises(ValueError):
            basis.occupations[0, 0] = 1


class TestStrongSimulate:
    @settings(max_examples=50, deadline=None)
    @given(case=photon_inputs(), seed=st.integers(0, 2**32 - 1), collision_free=st.booleans())
    def test_matches_state_vector_evolution(self, case, seed, collision_free):
        m, modes = case
        assume(not collision_free or len(modes) <= m)
        u = haar(m, seed)
        state = FockState.from_modes(m, modes)
        reference = evolve_state_vector(u.matrix, state)
        dist = strong_simulate(u, state, collision_free=collision_free)
        expected = np.array([abs(reference.get(t, 0.0)) ** 2 for t in dist.basis])
        assert dist.subspace_weight == pytest.approx(expected.sum(), abs=1e-12)
        assert np.allclose(dist.probabilities, expected / expected.sum(), rtol=0, atol=1e-12)


class TestNoisySimulate:
    @settings(max_examples=30, deadline=None)
    @given(case=photon_inputs(max_photons=3, max_modes=5), seed=st.integers(0, 2**32 - 1))
    def test_distinguishable_photons_route_classically(self, case, seed):
        m, modes = case
        u = haar(m, seed)
        labeled = build_input(len(modes), SourceModel(indistinguishability=0.0), modes=modes)
        noisy = noisy_simulate(u, labeled)
        state = FockState.from_modes(m, modes)
        for t in enumerate_basis(m, len(modes)):
            expected = classical_routing_probability(u.matrix, state, t)
            assert noisy.prob(t) == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(case=photon_inputs(), seed=st.integers(0, 2**32 - 1))
    def test_perfect_source_reproduces_strong_simulate(self, case, seed):
        m, modes = case
        u = haar(m, seed)
        noisy = noisy_simulate(u, build_input(len(modes), SourceModel(), modes=modes))
        ideal = strong_simulate(u, FockState.from_modes(m, modes))
        assert list(noisy.sectors) == [len(modes)]
        assert np.allclose(
            noisy.sectors[len(modes)].probabilities, ideal.probabilities, rtol=0, atol=1e-12
        )

    @settings(max_examples=30, deadline=None)
    @given(
        case=photon_inputs(max_photons=3, max_modes=4),
        seed=st.integers(0, 2**32 - 1),
        ind=st.floats(0.0, 1.0),
        g2=st.floats(0.0, 0.2),
        efficiency=st.floats(0.05, 1.0),
        lossy=st.booleans(),
    )
    def test_total_probability_is_conserved(self, case, seed, ind, g2, efficiency, lossy):
        m, modes = case
        u = haar(m, seed)
        src = SourceModel(indistinguishability=ind, g2=g2, efficiency=efficiency)
        labeled = build_input(len(modes), src, modes=modes)
        keep = np.random.default_rng(seed).uniform(0.0, 1.0, size=m) if lossy else None
        noisy = noisy_simulate(u, labeled, output_losses=keep)
        assert noisy.total() == pytest.approx(labeled.total_weight(), abs=1e-12)
        assert noisy.dropped_weight == 0.0
        assert sum(p for _, p in noisy.items()) == pytest.approx(noisy.total(), abs=1e-12)
        assert len(noisy) == sum(1 for _ in noisy)


class TestDroppedWeight:
    def test_pruned_mass_is_reported(self):
        src = SourceModel(indistinguishability=(0.93, 0.88, 0.95, 0.90), g2=0.02)
        labeled = build_input(4, src, modes=cyclic_input_modes(4))
        unitary = cyclic_interferometer(4, 0.0)
        pruned = noisy_simulate(unitary, labeled, min_branch_weight=1e-3)
        assert pruned.dropped_weight > 0.0
        assert pruned.total() + pruned.dropped_weight == pytest.approx(
            labeled.total_weight(), abs=1e-12
        )
        assert noisy_simulate(unitary, labeled).dropped_weight == 0.0

        conditioned, weight = pruned.postselect_photon_number(4)
        assert conditioned.total() == pytest.approx(1.0, abs=1e-12)
        assert conditioned.dropped_weight == pytest.approx(pruned.dropped_weight / weight)


class TestClickPatterns:
    def test_mapping_inputs_agree_with_distribution_arrays(self):
        src = SourceModel(indistinguishability=(0.93, 0.88, 0.95, 0.90), g2=0.01)
        labeled = build_input(4, src, modes=cyclic_input_modes(4))
        dist = noisy_simulate(cyclic_interferometer(4, 0.0), labeled)
        by_state = dict(dist.items())
        by_tuple = {state.occupations: p for state, p in dist.items()}
        p4 = genuine_indistinguishability(dist, 4)
        assert genuine_indistinguishability(by_state, 4) == pytest.approx(p4, abs=1e-12)
        assert genuine_indistinguishability(by_tuple, 4) == pytest.approx(p4, abs=1e-12)
        pair = coincidence_probability(dist, (1, 6))
        assert coincidence_probability(by_state, (1, 6)) == pytest.approx(pair, abs=1e-12)

    def test_empty_distribution(self):
        empty = NoisyDistribution({})
        assert len(empty) == 0
        assert coincidence_probability(empty, (0, 1)) == 0.0
        with pytest.raises(ValueError, match="undefined"):
            genuine_indistinguishability(empty, 4)
