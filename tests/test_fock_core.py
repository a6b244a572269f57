"""Invariants of the array-native Fock core, checked on random inputs.

The basis rows and the photon-addition tables are checked against a
brute-force enumeration, the basis rank against the stored rows, and the
photon-addition kernel behind ``strong_simulate`` and ``noisy_simulate``
against the brute-force oracles in ``_oracles.py``; ``noisy_simulate``
also against the sum over every labeled branch of its input.  The
kernel's trailing batch axis is checked against one-at-a-time calls.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lopsim.fock import (
    FockState,
    ModeUnitary,
    OutputDistribution,
    _add_photon,
    _gains,
    _successors,
    batched_amplitudes,
    enumerate_basis,
    strong_simulate,
)
from lopsim.sources import (
    TAIL_TOLERANCE,
    SourceModel,
    build_input,
    coincidence_probability,
    cyclic_input_modes,
    cyclic_interferometer,
    genuine_indistinguishability,
    noisy_simulate,
)

from _oracles import (
    branchwise_noisy_distribution,
    classical_routing_probability,
    evolve_state_vector,
    fock_basis_rows,
)


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


class TestBasisTables:
    @pytest.mark.parametrize("collision_free", [False, True])
    @pytest.mark.parametrize("m", range(1, 7))
    def test_rows_match_brute_force(self, m, collision_free):
        for n in range(min(m, 5) + 1 if collision_free else 6):
            occ = enumerate_basis(m, n, collision_free).occupations
            assert np.array_equal(occ, fock_basis_rows(m, n, collision_free))
            assert occ.dtype == np.int8 and not occ.flags.writeable

    @pytest.mark.parametrize("m", range(1, 7))
    def test_photon_addition_tables_match_brute_force(self, m):
        for n in range(6):
            rows, grown = fock_basis_rows(m, n, False), fock_basis_rows(m, n + 1, False)
            position = {tuple(r): i for i, r in enumerate(grown.tolist())}
            successors = [
                [position[tuple(r)] for r in (rows + np.eye(m, dtype=np.int8)[j]).tolist()]
                for j in range(m)
            ]
            assert np.array_equal(_successors(m, n), np.array(successors).reshape(m, len(rows)))
            assert np.array_equal(_gains(m, n), np.sqrt(rows.T + 1.0))


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
        basis = enumerate_basis(m, len(modes), collision_free)
        expected = np.array([abs(reference.get(t, 0.0)) ** 2 for t in basis])
        assert dist.subspace_weight == pytest.approx(expected.sum(), abs=1e-12)
        assert np.allclose(dist.probabilities, expected / expected.sum(), rtol=0, atol=1e-12)


@st.composite
def batched_inputs(draw):
    """B unitaries on m modes and B n-photon inputs, bunching allowed."""
    m = draw(st.integers(2, 7))
    n = draw(st.integers(1, 4))
    count = draw(st.integers(1, 5))
    modes = draw(
        st.lists(
            st.lists(st.integers(0, m - 1), min_size=n, max_size=n),
            min_size=count,
            max_size=count,
        )
    )
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    unitaries = np.stack([ModeUnitary.haar_random(m, rng).matrix for _ in range(count)])
    return unitaries, np.array(modes)


class TestBatchedKernel:
    @settings(max_examples=50, deadline=None)
    @given(case=batched_inputs())
    def test_batch_matches_one_at_a_time(self, case):
        unitaries, modes = case
        m, n = unitaries.shape[1], modes.shape[1]
        amps = batched_amplitudes(unitaries, modes)
        basis = enumerate_basis(m, n)
        assert amps.shape == (len(unitaries), len(basis))
        for u, row, amp in zip(unitaries, modes, amps):
            state = FockState.from_modes(m, row)
            single = strong_simulate(ModeUnitary(u), state)
            assert np.allclose(np.abs(amp) ** 2, single.probabilities, rtol=0, atol=1e-12)
            reference = evolve_state_vector(u, state)
            expected = np.array([reference.get(t, 0.0) for t in basis])
            assert np.allclose(amp, expected, rtol=0, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(case=batched_inputs(), coherent=st.booleans())
    def test_one_dimensional_calls_equal_the_batched_kernel(self, case, coherent):
        unitaries, modes = case
        m, n = unitaries.shape[1], modes.shape[1]
        rng = np.random.default_rng(n)
        vec = rng.normal(size=len(enumerate_basis(m, n - 1)))
        if coherent:
            vec = vec + 1j * rng.normal(size=vec.shape)
        columns = unitaries[:, :, 0].T if coherent else np.abs(unitaries[:, :, 0].T) ** 2
        batched = _add_photon(vec, n - 1, columns, coherent)
        stacked = _add_photon(np.stack([vec] * len(unitaries), axis=1), n - 1, columns, coherent)
        assert np.array_equal(batched, stacked)
        for b, column in enumerate(columns.T):
            single = _add_photon(vec, n - 1, column, coherent)
            assert np.allclose(single, batched[:, b], rtol=0, atol=1e-14)
            for one in (
                _add_photon(vec[:, None], n - 1, column[:, None], coherent),
                _add_photon(vec, n - 1, column[:, None], coherent),
            ):
                assert one.shape == (len(single), 1)
                assert np.array_equal(single, one[:, 0])

    def test_no_inputs_and_no_photons(self):
        u = np.stack([haar(3, seed).matrix for seed in range(2)])
        assert np.array_equal(batched_amplitudes(u, np.zeros((2, 0), dtype=int)), np.ones((2, 1)))
        assert batched_amplitudes(u[:0], np.zeros((0, 2), dtype=int)).shape == (0, 6)


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
        assert np.allclose(noisy.sectors[len(modes)], ideal.probabilities, rtol=0, atol=1e-12)
        # the two are one type and agree on every accessor
        assert type(noisy) is type(ideal)
        rows, values = noisy.outcomes()
        assert np.array_equal(rows, ideal.outcomes()[0])
        assert np.allclose(values, ideal.probabilities, rtol=0, atol=1e-12)
        assert [s for s, _ in noisy.items()] == [s for s, _ in ideal.items()] == list(ideal)
        assert len(noisy) == len(ideal)
        assert noisy.total() == pytest.approx(ideal.total(), abs=1e-12)
        assert noisy.sector_weights() == pytest.approx(ideal.sector_weights(), abs=1e-12)
        for state in ideal:
            assert noisy.prob(state) == pytest.approx(ideal.prob(state), abs=1e-12)
        for dist in (noisy, ideal):
            assert (dist.m, dist.collision_free) == (m, False)
            assert (dist.subspace_weight, dist.dropped_weight) == (1.0, 0.0)

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
        assert noisy.total() + noisy.dropped_weight == pytest.approx(
            sum(b.weight for b in labeled.branches), abs=1e-12
        )
        assert 0.0 <= noisy.dropped_weight <= TAIL_TOLERANCE
        assert sum(p for _, p in noisy.items()) == pytest.approx(noisy.total(), abs=1e-12)
        assert len(noisy) == sum(1 for _ in noisy)


    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(2, 6),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        g2=st.floats(0.0, 0.3),
        efficiency=st.floats(0.05, 1.0),
        lossy=st.booleans(),
    )
    def test_matches_branchwise_oracle(self, m, data, seed, g2, efficiency, lossy):
        modes = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=4))
        ms = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(modes), max_size=len(modes)))
        u = haar(m, seed)
        src = SourceModel(indistinguishability=tuple(ms), g2=g2, efficiency=efficiency)
        labeled = build_input(len(modes), src, modes=modes)
        keep = np.random.default_rng(seed).uniform(0.0, 1.0, size=m) if lossy else None
        noisy = noisy_simulate(u, labeled, output_losses=keep)
        reference = branchwise_noisy_distribution(u.matrix, labeled, keep)

        # The cap is the smallest N whose photon-number tail is at most
        # TAIL_TOLERANCE; the branch weights give that law directly.
        counts = np.zeros(2 * len(modes) + 2)
        for branch in labeled.branches:
            counts[branch.n] += branch.weight
        above = [counts[k + 1 :].sum() for k in range(len(counts))]
        cap = next(k for k, tail in enumerate(above) if tail <= TAIL_TOLERANCE)
        assert noisy.dropped_weight == pytest.approx(above[cap], abs=1e-15)
        assert max(noisy.sectors, default=0) <= cap
        # Without output losses every sector up to the cap is exact; with
        # them the truncated mass can be missing from any sector.
        slack = 1e-12 + (noisy.dropped_weight if lossy else 0.0)
        for n in range(cap + 1):
            basis = enumerate_basis(m, n)
            expected = np.zeros(len(basis))
            rows = [occ for occ in reference if sum(occ) == n]
            if rows:
                np.add.at(expected, basis.rank(np.array(rows)), [reference[r] for r in rows])
            got = noisy.sectors[n] if n in noisy.sectors else np.zeros(len(basis))
            assert np.abs(got - expected).max() <= slack


class TestDroppedWeight:
    def test_pruned_mass_is_reported(self):
        unitary = cyclic_interferometer(4, 0.0)
        modes = cyclic_input_modes(4)
        src = SourceModel(indistinguishability=(0.93, 0.88, 0.95, 0.90), g2=1e-3)
        # Four extra photons carry g2^4 = 1e-12, below the tail tolerance,
        # so the cap is 7 photons and that sector's mass is reported.
        capped = noisy_simulate(unitary, build_input(4, src, modes=modes))
        assert max(capped.sectors) == 7
        assert capped.dropped_weight == pytest.approx(1e-12, rel=1e-12)
        assert capped.total() + capped.dropped_weight == pytest.approx(1.0, abs=1e-12)

        bright = SourceModel(indistinguishability=src.indistinguishability, g2=0.02)
        uncapped = noisy_simulate(unitary, build_input(4, bright, modes=modes))
        assert max(uncapped.sectors) == 8
        assert uncapped.dropped_weight == 0.0

        conditioned, weight = capped.postselect_photon_number(4)
        assert conditioned.total() == pytest.approx(1.0, abs=1e-12)
        assert conditioned.dropped_weight == pytest.approx(capped.dropped_weight / weight)


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
        empty = OutputDistribution(8, {})
        assert len(empty) == 0
        assert coincidence_probability(empty, (0, 1)) == 0.0
        with pytest.raises(ValueError, match="undefined"):
            genuine_indistinguishability(empty, 4)
