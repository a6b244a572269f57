from collections.abc import Mapping

import numpy as np
import pytest

from lopsim import fock
from lopsim.fock import (
    FockBasis,
    ModeUnitary,
    OutputDistribution,
    _glynn_deltas,
    batched_amplitudes,
    enumerate_basis,
    output_amplitude,
    permanent,
    sample,
    strong_simulate,
)
from lopsim.sources import SourceModel, build_input, noisy_simulate
from lopsim.qubits import Gate, PostselectionRule, QubitEncoding, logical_distributions
from lopsim.validation import collision_free_reference

from _oracles import (
    basis_states,
    classical_routing_probability,
    evolve_state_vector,
    permanent_by_permutations,
    sample_by_choice,
    values_at,
)


def coupler(r: float = 0.5) -> ModeUnitary:
    t = np.sqrt(r)
    k = 1j * np.sqrt(1.0 - r)
    return ModeUnitary(np.array([[t, k], [k, t]]))


U4 = ModeUnitary.haar_random(4, np.random.default_rng(1))

#: Each entry point that takes input modes, called with the modes ``(0, bad)``.
BAD_MODE_CALLS = {
    "strong_simulate": lambda bad: strong_simulate(U4, (0, bad)),
    "sample": lambda bad: sample(U4, (0, bad), 5, rng=0),
    "output_amplitude_input": lambda bad: output_amplitude(U4, (0, bad), (0, 1)),
    "output_amplitude_output": lambda bad: output_amplitude(U4, (0, 1), (0, bad)),
    "collision_free_reference": lambda bad: collision_free_reference(U4, (0, bad)),
    "batched_amplitudes": lambda bad: batched_amplitudes(U4.matrix[None], (0, bad)),
}


@pytest.mark.parametrize(
    "bad, error, message",
    [(4, ValueError, "mode 4 out of range for m=4"), (-1, ValueError, "mode -1 out of range"),
     (1.0, TypeError, "integer")],
    ids=["out_of_range", "negative", "float"],
)
@pytest.mark.parametrize("entry", list(BAD_MODE_CALLS))
def test_every_entry_point_refuses_a_bad_mode(entry, bad, error, message):
    # a float mode would pass an int() conversion and a negative one index from the end
    with pytest.raises(error, match=message):
        BAD_MODE_CALLS[entry](bad)


#: Each other reader of modes (and of qubit indices and mode counts), called
#: with a fractional value that int() or an intp cast would truncate into range.
FRACTIONAL_MODE_CALLS = {
    "build_input": lambda: build_input(2, SourceModel(), modes=(1.5, -0.5)),
    "logical_distributions_ideal": lambda: logical_distributions(
        np.eye(2)[None], (1.5,), PostselectionRule(((0, 1),))
    ),
    "logical_distributions_noisy": lambda: logical_distributions(
        np.eye(2)[None], (1.5,), PostselectionRule(((0, 1),)), SourceModel(efficiency=0.9)
    ),
    "PostselectionRule": lambda: PostselectionRule(((0.5, 1),)),
    "QubitEncoding": lambda: QubitEncoding(((0.7, 1.2),)),
    "QubitEncoding_n_modes": lambda: QubitEncoding(((0, 1),), (), 2.7),
    "Gate_qubits": lambda: Gate("H", (0.5,)),
    "one_click_pairs": lambda: noisy_simulate(
        U4, build_input(2, SourceModel()), one_click_pairs=((0.9, 1.9),)
    ),
}


@pytest.mark.parametrize("entry", list(FRACTIONAL_MODE_CALLS))
def test_every_mode_reader_refuses_a_fractional_mode(entry):
    with pytest.raises(TypeError, match="integer"):
        FRACTIONAL_MODE_CALLS[entry]()


def test_the_listed_order_of_the_photons_does_not_change_a_result():
    u = ModeUnitary.haar_random(4, np.random.default_rng(2))
    a, b = strong_simulate(u, (3, 1, 1)), strong_simulate(u, (1, 1, 3))
    assert a.probabilities.tobytes() == b.probabilities.tobytes()
    as_array = strong_simulate(u, np.array([3, 1, 1], dtype=np.int8))
    assert as_array.probabilities.tobytes() == b.probabilities.tobytes()
    a, b = sample(u, (3, 1, 1), 50, rng=4), sample(u, (1, 1, 3), 50, rng=4)
    assert a.probabilities.tobytes() == b.probabilities.tobytes()
    assert output_amplitude(u, (3, 1, 1), (2, 0, 0)) == output_amplitude(u, (1, 1, 3), (0, 0, 2))
    a, b = collision_free_reference(u, (3, 0)), collision_free_reference(u, (0, 3))
    assert a.ideal.tobytes() == b.ideal.tobytes()
    assert a.distinguishable.tobytes() == b.distinguishable.tobytes()


def collision_free_states(m: int, n: int) -> list[tuple[int, ...]]:
    """The collision-free rows of ``enumerate_basis(m, n)`` as tuples, as a mask keeps them."""
    occupations = enumerate_basis(m, n).occupations
    return [tuple(row) for row in occupations[np.all(occupations <= 1, axis=1)].tolist()]


def row_text(row) -> str:
    return "".join(str(int(o)) for o in row)


class TestBasis:
    def test_sizes_match_binomials(self):
        assert len(collision_free_states(12, 6)) == 924
        assert enumerate_basis(12, 6).size == 12376
        assert enumerate_basis(2, 1).size == 2

    def test_canonical_order_endpoints(self):
        states = collision_free_states(12, 6)
        assert row_text(states[0]) == "000000111111"
        assert row_text(states[-1]) == "111111000000"
        rows = enumerate_basis(12, 6).occupations
        assert row_text(rows[0]) == "000000000006"
        assert row_text(rows[-1]) == "600000000000"

    def test_full_basis_order_frozen(self):
        rows = enumerate_basis(3, 2).occupations
        assert [row_text(row) for row in rows] == [
            "002", "011", "020", "101", "110", "200",
        ]

    def test_rank_lookup(self):
        basis = enumerate_basis(6, 3)
        assert np.array_equal(basis.rank(basis.occupations), np.arange(len(basis)))
        with pytest.raises(KeyError):
            basis.rank(np.array([[3, 1, 0, 0, 0, 0]]))

    @pytest.mark.parametrize("m, n", [(1, 3), (2, 0), (3, 4), (5, 5), (8, 3), (12, 6), (12, 10)])
    def test_unrank_gives_the_rows_at_random_ranks(self, m, n):
        basis = FockBasis(m, n)  # uncached, so the gather below builds its own rows
        ranks = np.random.default_rng(m * 100 + n).integers(basis.size, size=300)
        rows = basis.unrank(ranks)
        assert "occupations" not in vars(basis)
        assert rows.dtype == np.int8
        assert np.array_equal(rows, basis.occupations[ranks])
        assert np.array_equal(basis.rank(rows), ranks)

    @pytest.mark.parametrize(
        "ranks", [np.array([-1]), np.array([6]), np.array([0.0]), np.zeros((1, 1), dtype=int)]
    )
    def test_unrank_refuses_ranks_outside_the_basis(self, ranks):
        with pytest.raises(IndexError, match="outside the"):
            enumerate_basis(3, 2).unrank(ranks)

    def test_no_collision_free_mass_rejected(self):
        # Hong-Ou-Mandel: both photons leave a balanced coupler together
        with pytest.raises(ValueError, match="no probability mass"):
            collision_free_reference(coupler(0.5), (0, 1))


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
                amp = output_amplitude(u, [j], [i])
                assert amp == pytest.approx(u.matrix[i, j])

    def test_hom_coincidence_vanishes(self):
        u = coupler(0.5)
        ones = (0, 1)
        assert abs(output_amplitude(u, ones, ones)) == pytest.approx(0.0, abs=1e-12)
        bunched = (0, 0)
        assert abs(output_amplitude(u, ones, bunched)) ** 2 == pytest.approx(0.5)

    @pytest.mark.parametrize("m,photons", [(4, [0, 1]), (5, [0, 2, 4]), (6, [1, 1, 3]), (3, [])])
    def test_against_state_vector_evolution(self, m, photons):
        rng = np.random.default_rng(m * 17 + len(photons))
        u = ModeUnitary.haar_random(m, rng)
        reference = evolve_state_vector(u.matrix, photons)
        for t, expected in reference.items():
            out = np.repeat(np.arange(m), t)
            assert output_amplitude(u, photons, out) == pytest.approx(expected, abs=1e-10)

    def test_photon_number_mismatch_rejected(self):
        u = coupler()
        with pytest.raises(ValueError, match="photon number mismatch"):
            output_amplitude(u, (0, 1), (0,))


class TestDistinguishable:
    # Fully distinguishable photons (m = 0) route classically: Perm(|U_st|^2) / prod t_j!.
    @staticmethod
    def classical(u: ModeUnitary, photons) -> OutputDistribution:
        labeled = build_input(len(photons), SourceModel(indistinguishability=0.0), photons)
        return noisy_simulate(u, labeled)

    def test_hom_coincidence_half(self):
        dist = self.classical(coupler(0.5), [0, 1])
        assert values_at(dist, [(1, 1)])[0] == pytest.approx(0.5)

    @pytest.mark.parametrize("m,photons", [(4, [0, 3]), (5, [0, 2, 4]), (4, [1, 1])])
    def test_against_enumeration(self, m, photons):
        rng = np.random.default_rng(m + 31 * len(photons))
        u = ModeUnitary.haar_random(m, rng)
        dist = self.classical(u, photons)
        for t, p in zip(basis_states(m, len(photons)), dist.sectors[len(photons)]):
            expected = classical_routing_probability(u.matrix, photons, t)
            assert p == pytest.approx(expected, abs=1e-12)

    def test_normalization(self):
        rng = np.random.default_rng(11)
        u = ModeUnitary.haar_random(5, rng)
        assert self.classical(u, [0, 1, 2]).probabilities.sum() == pytest.approx(1.0, abs=1e-9)


class TestStrongSimulate:
    def test_sums_to_one(self):
        rng = np.random.default_rng(5)
        u = ModeUnitary.haar_random(6, rng)
        dist = strong_simulate(u, (0, 1, 3))
        assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-9)

    def test_matches_state_vector_oracle(self):
        rng = np.random.default_rng(8)
        u = ModeUnitary.haar_random(6, rng)
        dist = strong_simulate(u, (0, 2, 4))
        reference = evolve_state_vector(u.matrix, (0, 2, 4))
        got = values_at(dist, reference)
        for p, amp in zip(got, reference.values()):
            assert p == pytest.approx(abs(amp) ** 2, abs=1e-10)

    def test_collision_free_renormalization(self):
        rng = np.random.default_rng(9)
        u = ModeUnitary.haar_random(8, rng)
        s = (0, 1, 2, 3)
        full = strong_simulate(u, s)
        ref = collision_free_reference(u, s)
        free = collision_free_states(8, 4)
        probs = values_at(full, free)
        mass = probs.sum()
        assert ref.ideal_mass == pytest.approx(mass, abs=1e-9)
        assert ref.ideal.sum() == pytest.approx(1.0, abs=1e-9)
        basis = enumerate_basis(8, 4)
        index = basis.rank(np.array(free))
        for i, p in zip(index, probs):
            assert ref.ideal[i] == pytest.approx(p / mass, abs=1e-9)
        assert np.all(basis.occupations[np.flatnonzero(ref.ideal)] <= 1)

    def test_len_counts_the_nonzero_outcomes(self):
        dist = strong_simulate(ModeUnitary(np.eye(2)), (0,))
        assert len(dist) == 1
        rows, values = dist.outcomes()
        assert rows[values > 0].tolist() == [[1, 0]] and values.tolist() == [0.0, 1.0]

    def test_outcomes_are_rows_not_a_state_mapping(self):
        dist = strong_simulate(ModeUnitary(np.eye(2)), (0,))
        assert not isinstance(dist, Mapping)
        for name in ("prob", "__getitem__", "items", "__iter__"):
            assert not hasattr(dist, name), name
        basis = enumerate_basis(3, 2)
        for name in ("__iter__", "__getitem__", "__contains__", "index"):
            assert not hasattr(basis, name), name

    def test_twelve_mode_six_photon_size(self):
        rng = np.random.default_rng(21)
        u = ModeUnitary.haar_random(12, rng)
        ideal = collision_free_reference(u, range(6)).ideal
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


def test_a_ranked_sector_reads_through_its_ranks():
    given, ranks = np.array([0.25, 0.0, 0.5]), np.array([0, 3, 5])
    dist = OutputDistribution(3, {1: np.array([0.25, 0.0, 0.0]), 2: given}, ranks={2: ranks})
    assert dist.sectors[2] is given and dist.ranks[2] is ranks and list(dist.ranks) == [2]
    rows, values = dist.outcomes()
    assert rows.tolist() == [[0, 0, 1], [0, 1, 0], [1, 0, 0], [0, 0, 2], [1, 0, 1], [2, 0, 0]]
    assert values.tolist() == [0.25, 0.0, 0.0, 0.25, 0.0, 0.5]
    assert len(dist) == 3
    # a ranked sector without mass is dropped with its ranks
    empty = OutputDistribution(3, {2: np.zeros(0)}, ranks={2: np.zeros(0, dtype=int)})
    assert empty.sectors == {} and empty.ranks == {}


@pytest.mark.parametrize(
    "ranks, message",
    [
        ({1: np.array([[0, 2]])}, "ranks of the 1-photon sector must be a 1-D integer array"),
        ({1: np.array([0.0, 2.0])}, "ranks of the 1-photon sector must be a 1-D integer array"),
        ({1: np.array([1, 1])}, "ranks of the 1-photon sector must ascend strictly"),
        ({1: np.array([2, 0])}, "ranks of the 1-photon sector must ascend strictly"),
        ({1: np.array([-1, 2])}, r"ranks of the 1-photon sector lie outside \[0, 3\)"),
        ({1: np.array([1, 3])}, r"ranks of the 1-photon sector lie outside \[0, 3\)"),
        ({1: np.array([0, 1, 2])}, r"the 1-photon sector has \(2,\) values for 3 ranks"),
        ({1: np.array([0, 2]), 2: np.array([0])}, r"ranks given for sectors \[2\] with no vector"),
    ],
    ids=["two_d", "float", "repeated", "descending", "negative", "past_the_basis", "length",
         "no_vector"],
)
def test_output_distribution_refuses_malformed_ranks(ranks, message):
    with pytest.raises(ValueError, match=message):
        OutputDistribution(3, {1: np.array([0.25, 0.75])}, ranks=ranks)


class TestSampling:
    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(2)
        u = ModeUnitary.haar_random(6, rng)
        s = (0, 1, 4)
        a = sample(u, s, shots=500, rng=1234)
        b = sample(u, s, shots=500, rng=1234)
        assert np.array_equal(a.probabilities, b.probabilities)
        c = sample(u, s, shots=500, rng=1235)
        assert not np.array_equal(a.probabilities, c.probabilities)

    @pytest.mark.parametrize(
        "m, photons, shots, seed",
        [(2, (0, 1), 7, 0), (5, (0, 1, 3), 400, 11), (6, (0, 0, 2, 5), 1000, 3)],
    )
    def test_tallies_are_the_draw_of_one_choice_and_a_bincount(self, m, photons, shots, seed):
        u = ModeUnitary.haar_random(m, np.random.default_rng(seed + 50))
        n = len(photons)
        counts = sample(u, photons, shots, rng=seed)
        assert isinstance(counts, OutputDistribution)
        assert list(counts.sectors) == [n] and counts.sectors[n].dtype == float
        assert counts.probabilities.sum() == shots
        expected = sample_by_choice(u, photons, shots, seed)
        assert np.array_equal(counts.sectors[n], expected)

    def test_counts_total(self):
        rng = np.random.default_rng(2)
        u = ModeUnitary.haar_random(5, rng)
        counts = sample(u, (0, 1), shots=321, rng=0)
        assert counts.probabilities.sum() == 321

    @pytest.mark.parametrize("shots", [0, 2.5, float("inf"), float("nan")])
    def test_a_shot_count_must_be_a_whole_number(self, shots):
        with pytest.raises(ValueError, match="shots must be a whole number"):
            sample(coupler(0.5), (0, 1), shots, rng=0)

    def test_a_missing_shot_count_is_refused_before_simulating(self, monkeypatch):
        def simulated(*args, **kwargs):
            raise AssertionError("sample simulated before checking its shot count")

        monkeypatch.setattr(fock, "strong_simulate", simulated)
        with pytest.raises(ValueError, match="shots must be given as a whole number"):
            sample(coupler(0.5), (0, 1), None, rng=0)

    @pytest.mark.parametrize("seed", [-1, np.int64(-5)])
    def test_a_negative_seed_is_refused_by_name(self, seed):
        with pytest.raises(ValueError, match=f"seed must be a nonnegative int, got {seed}"):
            sample(coupler(0.5), (0, 1), 3, rng=seed)

    def test_a_whole_float_shot_count_draws_that_many(self):
        counts = sample(coupler(0.5), (0, 1), 3.0, rng=0)
        assert counts.probabilities.sum() == 3

    def test_empirical_frequencies_converge(self):
        u = coupler(0.5)
        counts = sample(u, (0, 1), shots=20000, rng=7)
        f11, f20 = values_at(counts, [(1, 1), (2, 0)])
        assert f11 == 0
        f20 /= 20000
        assert f20 == pytest.approx(0.5, abs=0.02)


class TestModeUnitary:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            ModeUnitary(np.ones((3, 3)))

    def test_haar_is_unitary(self):
        u = ModeUnitary.haar_random(12, np.random.default_rng(0))
        assert np.max(np.abs(u.matrix.conj().T @ u.matrix - np.eye(12))) < 1e-10
