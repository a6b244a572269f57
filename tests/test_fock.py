import numpy as np
import pytest

from lopsim.fock import (
    FockState,
    ModeUnitary,
    _glynn_deltas,
    distinguishable_probability,
    enumerate_basis,
    output_amplitude,
    permanent,
    sample,
    strong_simulate,
)

from _oracles import (
    classical_routing_probability,
    evolve_state_vector,
    permanent_by_permutations,
)


def coupler(r: float = 0.5) -> ModeUnitary:
    t = np.sqrt(r)
    k = 1j * np.sqrt(1.0 - r)
    return ModeUnitary(np.array([[t, k], [k, t]]))


class TestFockState:
    def test_string_round_trip(self):
        s = FockState.from_string("010010100100")
        assert s.m == 12
        assert s.n == 4
        assert s.to_string() == "010010100100"

    def test_from_modes(self):
        s = FockState.from_modes(4, [1, 1, 3])
        assert s.occupations == (0, 2, 0, 1)
        assert s.modes() == (1, 1, 3)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            FockState.from_string("01a")
        with pytest.raises(ValueError):
            FockState((1, -1))


def collision_free_states(m: int, n: int) -> list[FockState]:
    """The collision-free states of ``enumerate_basis(m, n)``, as a mask keeps them."""
    basis = enumerate_basis(m, n)
    return [basis[i] for i in np.flatnonzero(np.all(basis.occupations <= 1, axis=1))]


class TestBasis:
    def test_sizes_match_binomials(self):
        assert len(collision_free_states(12, 6)) == 924
        assert enumerate_basis(12, 6).size == 12376
        assert enumerate_basis(2, 1).size == 2

    def test_canonical_order_endpoints(self):
        states = collision_free_states(12, 6)
        assert states[0].to_string() == "000000111111"
        assert states[-1].to_string() == "111111000000"
        basis = enumerate_basis(12, 6)
        assert basis[0].to_string() == "000000000006"
        assert basis[-1].to_string() == "600000000000"

    def test_full_basis_order_frozen(self):
        basis = enumerate_basis(3, 2)
        assert [s.to_string() for s in basis] == [
            "002", "011", "020", "101", "110", "200",
        ]

    def test_index_lookup(self):
        basis = enumerate_basis(6, 3)
        for i, state in enumerate(basis):
            assert basis.index(state) == i
        with pytest.raises(KeyError):
            basis.index(FockState.from_string("310000"))

    def test_overfull_collision_free_rejected(self):
        with pytest.raises(ValueError, match="no probability mass"):
            strong_simulate(ModeUnitary(np.eye(3)), FockState((2, 1, 1)), collision_free=True)


class TestPermanent:
    def test_identity_and_permutation(self):
        assert permanent(np.eye(5)) == pytest.approx(1.0)
        p = np.eye(6)[np.random.default_rng(0).permutation(6)]
        assert permanent(p) == pytest.approx(1.0)

    def test_all_ones(self):
        # perm of the k x k all-ones matrix is k!
        from math import factorial

        for k in (2, 3, 5, 8):
            assert permanent(np.ones((k, k))) == pytest.approx(float(factorial(k)))

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
    def test_against_permutation_sum(self, k):
        rng = np.random.default_rng(100 + k)
        a = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        expected = permanent_by_permutations(a)
        assert permanent(a) == pytest.approx(expected, rel=1e-10)

    def test_row_and_column_swap_invariance(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        base = permanent(a)
        assert permanent(a[[1, 0, 2, 3, 4], :]) == pytest.approx(base)
        assert permanent(a[:, [0, 1, 4, 3, 2]]) == pytest.approx(base)

    def test_extended_precision_path(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        # the same Glynn sum accumulated in complex128
        deltas, signs = _glynn_deltas(12)
        fast = signs @ np.prod(deltas @ a, axis=1) / 2**11
        assert permanent(a) == pytest.approx(fast, rel=1e-8)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            permanent(np.eye(17))


class TestAmplitudes:
    def test_single_photon_is_matrix_element(self):
        rng = np.random.default_rng(3)
        u = ModeUnitary.haar_random(5, rng)
        for i in range(5):
            for j in range(5):
                amp = output_amplitude(
                    u, FockState.from_modes(5, [j]), FockState.from_modes(5, [i])
                )
                assert amp == pytest.approx(u.matrix[i, j])

    def test_hom_coincidence_vanishes(self):
        u = coupler(0.5)
        ones = FockState.from_string("11")
        assert abs(output_amplitude(u, ones, ones)) == pytest.approx(0.0, abs=1e-12)
        bunched = FockState.from_string("20")
        assert abs(output_amplitude(u, ones, bunched)) ** 2 == pytest.approx(0.5)

    @pytest.mark.parametrize("m,photons", [(4, [0, 1]), (5, [0, 2, 4]), (6, [1, 1, 3])])
    def test_against_state_vector_evolution(self, m, photons):
        rng = np.random.default_rng(m * 17 + len(photons))
        u = ModeUnitary.haar_random(m, rng)
        s = FockState.from_modes(m, photons)
        reference = evolve_state_vector(u.matrix, s)
        for t, expected in reference.items():
            assert output_amplitude(u, s, t) == pytest.approx(expected, abs=1e-10)

    def test_mode_count_mismatch_rejected(self):
        u = coupler()
        with pytest.raises(ValueError):
            output_amplitude(u, FockState.from_string("110"), FockState.from_string("110"))

    def test_photon_number_mismatch_rejected(self):
        u = coupler()
        with pytest.raises(ValueError):
            output_amplitude(u, FockState.from_string("11"), FockState.from_string("10"))


class TestDistinguishable:
    def test_hom_coincidence_half(self):
        u = coupler(0.5)
        ones = FockState.from_string("11")
        assert distinguishable_probability(u, ones, ones) == pytest.approx(0.5)

    @pytest.mark.parametrize("m,photons", [(4, [0, 3]), (5, [0, 2, 4]), (4, [1, 1])])
    def test_against_enumeration(self, m, photons):
        rng = np.random.default_rng(m + 31 * len(photons))
        u = ModeUnitary.haar_random(m, rng)
        s = FockState.from_modes(m, photons)
        for t in enumerate_basis(m, len(photons)):
            expected = classical_routing_probability(u.matrix, s, t)
            assert distinguishable_probability(u, s, t) == pytest.approx(expected, abs=1e-12)

    def test_normalization(self):
        rng = np.random.default_rng(11)
        u = ModeUnitary.haar_random(5, rng)
        s = FockState.from_modes(5, [0, 1, 2])
        total = sum(distinguishable_probability(u, s, t) for t in enumerate_basis(5, 3))
        assert total == pytest.approx(1.0, abs=1e-9)


class TestStrongSimulate:
    def test_sums_to_one(self):
        rng = np.random.default_rng(5)
        u = ModeUnitary.haar_random(6, rng)
        s = FockState.from_string("110100")
        dist = strong_simulate(u, s)
        assert dist.total() == pytest.approx(1.0, abs=1e-9)

    def test_matches_state_vector_oracle(self):
        rng = np.random.default_rng(8)
        u = ModeUnitary.haar_random(6, rng)
        s = FockState.from_string("101010")
        dist = strong_simulate(u, s)
        reference = evolve_state_vector(u.matrix, s)
        for t, amp in reference.items():
            assert dist.prob(t) == pytest.approx(abs(amp) ** 2, abs=1e-10)

    def test_collision_free_renormalization(self):
        rng = np.random.default_rng(9)
        u = ModeUnitary.haar_random(8, rng)
        s = FockState.from_string("11110000")
        full = strong_simulate(u, s)
        cf = strong_simulate(u, s, collision_free=True)
        mass = sum(full.prob(t) for t in collision_free_states(8, 4))
        assert cf.subspace_weight == pytest.approx(mass, abs=1e-9)
        assert cf.total() == pytest.approx(1.0, abs=1e-9)
        for t in collision_free_states(8, 4):
            assert cf.prob(t) == pytest.approx(full.prob(t) / mass, abs=1e-9)
        assert all(state.is_collision_free() for state in cf)

    def test_mapping_lookups_match_iteration(self):
        dist = strong_simulate(ModeUnitary(np.eye(2)), FockState((1, 0)))
        assert len(dist) == 1
        assert list(dist) == [FockState((1, 0))]
        assert FockState((1, 0)) in dist and dist[FockState((1, 0))] == 1.0
        # wrong mode count, and a zero-probability outcome of the right size
        assert FockState((5, 5, 5)) not in dist
        assert dist.get(FockState((0, 1)), "missing") == "missing"
        with pytest.raises(KeyError):
            dist[FockState((0, 1))]
        assert dist.prob(FockState((0, 1))) == 0.0
        assert dist.prob(FockState((5, 5, 5))) == 0.0

    def test_twelve_mode_six_photon_size(self):
        rng = np.random.default_rng(21)
        u = ModeUnitary.haar_random(12, rng)
        s = FockState.from_string("111111000000")
        dist = strong_simulate(u, s, collision_free=True)
        assert len(dist) == 924
        assert dist.total() == pytest.approx(1.0, abs=1e-9)


class TestSampling:
    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(2)
        u = ModeUnitary.haar_random(6, rng)
        s = FockState.from_string("110010")
        a = sample(u, s, shots=500, rng=1234)
        b = sample(u, s, shots=500, rng=1234)
        assert a == b
        c = sample(u, s, shots=500, rng=1235)
        assert a != c

    def test_counts_total(self):
        rng = np.random.default_rng(2)
        u = ModeUnitary.haar_random(5, rng)
        s = FockState.from_string("11000")
        counts = sample(u, s, shots=321, rng=0)
        assert sum(counts.values()) == 321

    def test_empirical_frequencies_converge(self):
        u = coupler(0.5)
        s = FockState.from_string("11")
        counts = sample(u, s, shots=20000, rng=7)
        assert counts.get(FockState.from_string("11"), 0) == 0
        f20 = counts[FockState.from_string("20")] / 20000
        assert f20 == pytest.approx(0.5, abs=0.02)


class TestModeUnitary:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            ModeUnitary(np.ones((3, 3)))

    def test_haar_is_unitary(self):
        u = ModeUnitary.haar_random(12, np.random.default_rng(0))
        assert np.max(np.abs(u.matrix.conj().T @ u.matrix - np.eye(12))) < 1e-10
