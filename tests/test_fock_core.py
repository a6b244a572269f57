"""Invariants of the array-native Fock core, checked on random inputs.

The basis rows and the photon-addition tables are checked against a
brute-force enumeration, the basis rank against the stored rows, and the
photon-addition kernel behind ``strong_simulate`` and ``noisy_simulate``
against the brute-force oracles in ``_oracles.py``; ``noisy_simulate``
also against the sum over every labeled branch of its input, and the
trigger sum bit for bit against one coherent pass per shared set.  The
kernel's trailing batch axis is checked against one-at-a-time calls.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lopsim import fock, sources
from lopsim.fock import (
    FockState,
    ModeUnitary,
    OutputDistribution,
    _add_photon,
    _gains,
    _glynn_deltas,
    _successors,
    batched_amplitudes,
    enumerate_basis,
    strong_simulate,
)
from lopsim.sources import (
    TAIL_TOLERANCE,
    SourceModel,
    _fringe_table,
    batched_noisy_sectors,
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
    fringe_contrast_rows,
    per_subset_noisy_sectors,
)


def haar(m: int, seed: int) -> ModeUnitary:
    return ModeUnitary.haar_random(m, np.random.default_rng(seed))


@st.composite
def basis_shapes(draw):
    m = draw(st.integers(1, 8))
    n = draw(st.integers(0, 5))
    return m, n


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
        m, n = shape
        row = data.draw(st.lists(st.integers(-1, n + 2), min_size=1, max_size=m + 1))
        assume(len(row) != m or sum(row) != n or min(row) < 0 or max(row) > n)
        basis = enumerate_basis(m, n)
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
            occ = enumerate_basis(m, n).occupations
            assert occ.dtype == np.int8 and not occ.flags.writeable
            if collision_free:
                occ = occ[np.all(occ <= 1, axis=1)]
            assert np.array_equal(occ, fock_basis_rows(m, n, collision_free))

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

    @pytest.mark.parametrize(
        "table",
        [
            lambda: enumerate_basis(4, 2)._below,
            lambda: _successors(4, 2),
            lambda: _gains(4, 2),
            lambda: _glynn_deltas(4)[0],
            lambda: _glynn_deltas(4)[1],
            lambda: _fringe_table(8, 4, 4)[0],
            lambda: _fringe_table(8, 4, 4)[1],
        ],
        ids=[
            "below", "successors", "gains", "glynn_deltas", "glynn_signs",
            "fringe_constructive", "fringe_destructive",
        ],
    )
    def test_cached_tables_are_read_only(self, table):
        array = table()
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 0


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
        basis = enumerate_basis(m, len(modes))
        expected = np.array([abs(reference.get(t, 0.0)) ** 2 for t in basis])
        if collision_free:
            expected[~np.all(basis.occupations <= 1, axis=1)] = 0.0
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
            assert dist.m == m
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


    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(2, 6),
        batch=st.integers(1, 5),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        g2=st.floats(0.0, 0.3),
        efficiency=st.floats(0.05, 1.0),
        lossy=st.booleans(),
    )
    def test_batched_pass_matches_separate_calls(
        self, m, batch, data, seed, g2, efficiency, lossy
    ):
        # repeated modes put several triggers on one input mode
        modes = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=3))
        ms = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(modes), max_size=len(modes)))
        src = SourceModel(indistinguishability=tuple(ms), g2=g2, efficiency=efficiency)
        labeled = build_input(len(modes), src, modes=modes)
        keep = np.random.default_rng(seed).uniform(0.0, 1.0, size=m) if lossy else None
        unitaries = np.stack([haar(m, seed + b).matrix for b in range(batch)])
        sectors, dropped = batched_noisy_sectors(unitaries, labeled, output_losses=keep)
        for b, unitary in enumerate(unitaries):
            single = noisy_simulate(unitary, labeled, output_losses=keep)
            assert dropped == single.dropped_weight
            for n, vec in sectors.items():
                assert vec.shape == (len(enumerate_basis(m, n)), batch)
                expected = single.sectors.get(n, np.zeros(len(vec)))
                assert np.abs(vec[:, b] - expected).max() <= 1e-12
            assert set(single.sectors) <= set(sectors)


@st.composite
def trigger_sums(draw):
    """B unitaries and a labeled input with m_i of 0 and 1 and repeated modes."""
    m = draw(st.integers(2, 6))
    modes = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=4))
    ms = draw(
        st.lists(
            st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
            min_size=len(modes),
            max_size=len(modes),
        )
    )
    src = SourceModel(
        indistinguishability=tuple(ms),
        g2=draw(st.floats(0.0, 0.3)),
        efficiency=draw(st.one_of(st.just(1.0), st.floats(0.05, 1.0))),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    unitaries = np.stack(
        [ModeUnitary.haar_random(m, rng).matrix for _ in range(draw(st.sampled_from([1, 3])))]
    )
    keep = rng.uniform(0.0, 1.0, size=m) if draw(st.booleans()) else None
    return unitaries, build_input(len(modes), src, modes=modes), keep


def assert_matches_per_subset_oracle(unitaries, labeled, keep) -> dict[int, np.ndarray]:
    sectors, dropped = batched_noisy_sectors(unitaries, labeled, output_losses=keep)
    expected, expected_dropped = per_subset_noisy_sectors(unitaries, labeled, keep)
    assert dropped == expected_dropped
    assert list(sectors) == list(expected)
    for n, vec in sectors.items():
        assert vec.dtype == expected[n].dtype and vec.shape == expected[n].shape
        assert vec.tobytes() == expected[n].tobytes()
    return sectors


class TestTriggerSum:
    @settings(max_examples=60, deadline=None)
    @given(case=trigger_sums())
    def test_shared_prefixes_match_the_per_subset_oracle(self, case):
        assert_matches_per_subset_oracle(*case)

    @pytest.mark.parametrize("batch", [1, 3])
    def test_shared_sets_above_the_cap_are_skipped(self, batch):
        # At this efficiency P(photons > 2) is below TAIL_TOLERANCE, so
        # the shared sets of three and four triggers are never formed.
        src = SourceModel(indistinguishability=(0.9, 1.0, 0.8, 0.7), g2=0.9, efficiency=1e-4)
        labeled = build_input(4, src, modes=(0, 2, 2, 4))
        unitaries = np.stack([haar(5, seed).matrix for seed in range(batch)])
        for keep in (None, np.linspace(0.5, 0.9, 5)):
            sectors = assert_matches_per_subset_oracle(unitaries, labeled, keep)
            assert max(sectors) == 2 < len(labeled.modes)

    def test_each_shared_prefix_is_computed_once(self, monkeypatch):
        real, coherent_steps, active = fock._add_photon, [], []

        def counted(vec, n, column, coherent):
            if coherent and not active:
                coherent_steps.append(n)
            active.append(n)
            try:
                return real(vec, n, column, coherent)
            finally:
                active.pop()

        monkeypatch.setattr(fock, "_add_photon", counted)
        monkeypatch.setattr(sources, "_add_photon", counted)
        src = SourceModel(indistinguishability=(0.93, 0.88, 0.95, 0.90, 0.92, 0.91), g2=0.0075)
        labeled = build_input(6, src, modes=cyclic_input_modes(6))
        noisy_simulate(cyclic_interferometer(6, 0.3), labeled)
        # one addition per nonempty prefix: C(6, n + 1) of them reach n + 1 photons
        assert len(coherent_steps) == 2**6 - 1
        assert Counter(coherent_steps) == {0: 6, 1: 15, 2: 20, 3: 15, 4: 6, 5: 1}


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


#: (N, m, sectors drawn from): N = 4 on 8 and 10 modes, N = 6 on 12.
FRINGE_SHAPES = [(4, 8, range(9)), (4, 10, range(8)), (6, 12, range(8))]


@st.composite
def fringe_distributions(draw):
    """A multi-sector distribution with zero entries and one-click-per-pair mass."""
    n_photons, m, sectors = draw(st.sampled_from(FRINGE_SHAPES))
    photon_numbers = draw(st.sets(st.sampled_from(sectors), max_size=3)) | {n_photons}
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zero_frac = draw(st.floats(0.0, 0.9))
    vectors = {}
    for n in sorted(photon_numbers):
        size = len(enumerate_basis(m, n))
        vectors[n] = rng.random(size) * (rng.random(size) >= zero_frac)
    left_clicks = FockState.from_modes(m, range(0, 2 * n_photons, 2))
    vectors[n_photons][enumerate_basis(m, n_photons).index(left_clicks)] = 1.0
    return n_photons, OutputDistribution(m, vectors)


class TestClickPatterns:
    @settings(max_examples=50, deadline=None)
    @given(case=fringe_distributions())
    def test_fringe_contrast_matches_the_row_oracle(self, case):
        n_photons, dist = case
        counts = dict(dist.items())
        p_n = genuine_indistinguishability(dist, n_photons)
        assert p_n.hex() == fringe_contrast_rows(dist, n_photons).hex()
        p_counts = genuine_indistinguishability(counts, n_photons)
        assert p_counts.hex() == fringe_contrast_rows(counts, n_photons).hex()

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
