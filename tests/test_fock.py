import numpy as np
import pytest

from lopsim import fock
from lopsim.fock import (
    FockState,
    ModeUnitary,
    OutputDistribution,
    _glynn_deltas,
    enumerate_basis,
    output_amplitude,
    permanent,
    sample,
    strong_simulate,
)
from lopsim.sources import SourceModel, build_input, noisy_simulate
from lopsim.validation import collision_free_reference

from _oracles import (
    classical_routing_probability,
    evolve_state_vector,
    permanent_by_permutations,
    sample_by_choice,
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

    @pytest.mark.parametrize("occupations", [(1.0, 0.0), (0.5, 0.5)])
    def test_rejects_non_integer_occupations(self, occupations):
        # a float state would pass here and fail later as an index or a count
        with pytest.raises(TypeError, match="integer"):
            FockState(occupations)

    def test_integer_like_occupations_are_stored_as_ints(self):
        state = FockState(np.array([1, 0, 2], dtype=np.int8))
        assert state.occupations == (1, 0, 2) and type(state.occupations[0]) is int
        assert state in enumerate_basis(3, 3) and hash(state) == hash(FockState((1, 0, 2)))


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

    def test_no_collision_free_mass_rejected(self):
        # Hong-Ou-Mandel: both photons leave a balanced coupler together
        with pytest.raises(ValueError, match="no probability mass"):
            collision_free_reference(coupler(0.5), FockState((1, 1)))


class TestPermanent:
    def test_identity_and_permutation(self):
        assert permanent(np.eye(5)) == pytest.approx(1.0)
        p = np.eye(6)[np.random.default_rng(0).permutation(6)]
        assert permanent(p) == pytest.approx(1.0)

    def test_all_ones(self):
        # perm of the k x k all-ones matrix is k!
        from math import factorial

        for k in (0, 2, 3, 5, 8):
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

    @pytest.mark.parametrize("m,photons", [(4, [0, 1]), (5, [0, 2, 4]), (6, [1, 1, 3]), (3, [])])
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
    # Fully distinguishable photons (m = 0) route classically: Perm(|U_st|^2) / prod t_j!.
    @staticmethod
    def classical(u: ModeUnitary, photons) -> OutputDistribution:
        labeled = build_input(len(photons), SourceModel(indistinguishability=0.0), photons)
        return noisy_simulate(u, labeled)

    def test_hom_coincidence_half(self):
        dist = self.classical(coupler(0.5), [0, 1])
        assert dist.prob(FockState.from_string("11")) == pytest.approx(0.5)

    @pytest.mark.parametrize("m,photons", [(4, [0, 3]), (5, [0, 2, 4]), (4, [1, 1])])
    def test_against_enumeration(self, m, photons):
        rng = np.random.default_rng(m + 31 * len(photons))
        u = ModeUnitary.haar_random(m, rng)
        s = FockState.from_modes(m, photons)
        dist = self.classical(u, photons)
        for t in enumerate_basis(m, len(photons)):
            expected = classical_routing_probability(u.matrix, s, t)
            assert dist.prob(t) == pytest.approx(expected, abs=1e-12)

    def test_normalization(self):
        rng = np.random.default_rng(11)
        u = ModeUnitary.haar_random(5, rng)
        assert self.classical(u, [0, 1, 2]).probabilities.sum() == pytest.approx(1.0, abs=1e-9)


class TestStrongSimulate:
    def test_sums_to_one(self):
        rng = np.random.default_rng(5)
        u = ModeUnitary.haar_random(6, rng)
        s = FockState.from_string("110100")
        dist = strong_simulate(u, s)
        assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-9)

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
        ref = collision_free_reference(u, s)
        mass = sum(full.prob(t) for t in collision_free_states(8, 4))
        assert ref.ideal_mass == pytest.approx(mass, abs=1e-9)
        assert ref.ideal.sum() == pytest.approx(1.0, abs=1e-9)
        basis = enumerate_basis(8, 4)
        for t in collision_free_states(8, 4):
            assert ref.ideal[basis.index(t)] == pytest.approx(full.prob(t) / mass, abs=1e-9)
        assert all(basis[i].is_collision_free() for i in np.flatnonzero(ref.ideal))

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
        ideal = collision_free_reference(u, s).ideal
        assert np.count_nonzero(ideal) == 924
        assert ideal.sum() == pytest.approx(1.0, abs=1e-9)


def test_output_distribution_clips_a_rounding_residue_and_drops_empty_sectors():
    given = np.array([0.5, -1e-13, 0.5])
    dist = OutputDistribution(2, {0: np.zeros(1), 2: given})
    # the residue is clipped into a copy; the caller's array keeps it
    assert dist.sectors[2] is not given and list(dist.sectors[2]) == [0.5, 0.0, 0.5]
    assert given[1] == -1e-13
    # the all-zero sector is dropped
    assert list(dist.sectors) == [2]
    kept = np.array([0.25, 0.0, 0.75])
    assert OutputDistribution(2, {2: kept}).sectors[2] is kept
    with pytest.raises(ValueError, match="negative or NaN"):
        OutputDistribution(2, {2: np.array([0.5, -1e-11, 0.5])})


@pytest.mark.parametrize(
    "m, vec, message",
    [
        (2, [np.inf, 0.0], "infinite probability mass in the 1-photon sector"),
        # one row past the basis, as a vector that kept a trailing sink row would be
        (3, [0.2, 0.3, 0.5, 0.0], "does not match the 1-photon basis"),
        (3, [0.5, 0.5], "does not match the 1-photon basis"),
    ],
    ids=["infinite", "one_row_long", "one_row_short"],
)
def test_output_distribution_refuses_a_malformed_sector(m, vec, message):
    with pytest.raises(ValueError, match=message):
        OutputDistribution(m, {1: np.array(vec)})


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

    @pytest.mark.parametrize(
        "m, photons, shots, seed",
        [(2, (0, 1), 7, 0), (5, (0, 1, 3), 400, 11), (6, (0, 0, 2, 5), 1000, 3)],
    )
    def test_tallies_are_the_draw_of_one_choice_and_a_bincount(self, m, photons, shots, seed):
        u = ModeUnitary.haar_random(m, np.random.default_rng(seed + 50))
        s = FockState.from_modes(m, photons)
        counts = sample(u, s, shots, rng=seed)
        assert isinstance(counts, OutputDistribution)
        assert list(counts.sectors) == [s.n] and counts.sectors[s.n].dtype == float
        assert counts.probabilities.sum() == shots
        expected = sample_by_choice(u, s, shots, seed)
        assert counts == expected and list(counts) == list(expected)

    def test_counts_total(self):
        rng = np.random.default_rng(2)
        u = ModeUnitary.haar_random(5, rng)
        s = FockState.from_string("11000")
        counts = sample(u, s, shots=321, rng=0)
        assert sum(counts.values()) == 321

    @pytest.mark.parametrize("shots", [0, 2.5, float("inf"), float("nan")])
    def test_a_shot_count_must_be_a_whole_number(self, shots):
        with pytest.raises(ValueError, match="shots must be a whole number"):
            sample(coupler(0.5), FockState.from_string("11"), shots, rng=0)

    def test_a_missing_shot_count_is_refused_before_simulating(self, monkeypatch):
        def simulated(*args, **kwargs):
            raise AssertionError("sample simulated before checking its shot count")

        monkeypatch.setattr(fock, "strong_simulate", simulated)
        with pytest.raises(ValueError, match="shots must be given as a whole number"):
            sample(coupler(0.5), FockState.from_string("11"), None, rng=0)

    def test_a_whole_float_shot_count_draws_that_many(self):
        counts = sample(coupler(0.5), FockState.from_string("11"), 3.0, rng=0)
        assert sum(counts.values()) == 3

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
