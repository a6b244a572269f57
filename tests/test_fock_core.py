"""Invariants of the array-native Fock core, checked on random inputs.

The basis rows and the photon-addition tables, with and without
one-click pairs and a photon cap, are checked against a brute-force
enumeration, the basis rank against the stored rows, and the
photon-addition kernel behind ``strong_simulate`` and ``noisy_simulate``
against the brute-force oracles in ``_oracles.py``; ``noisy_simulate``
also against the sum over every labeled branch of its input, and the
trigger sum against one coherent pass per shared set, entry by entry to
a relative 1e-13 (it adds the same terms in another order).  The
kernel's trailing batch axis is checked against one-at-a-time calls, and
a chain of additions against the fancy-index oracle.
The trigger sum with one-click pairs is checked against the sum without
pairs: it returns the outcomes with one click in every pair, equal bit
for bit, and no others.  Sectors over ranks are read like their dense
expansion.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lopsim import fock, sources
from lopsim.qubits import GHZ_INPUT_MODES, ghz_factory
from lopsim.validation import _restrict_collision_free
from lopsim.fock import (
    FockBasis,
    ModeUnitary,
    OutputDistribution,
    _add_photon,
    _gains,
    _glynn_deltas,
    _live_rows,
    _live_table,
    _one_click_rows,
    _successors,
    _support,
    batched_amplitudes,
    enumerate_basis,
    output_amplitude,
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
    add_photon_fancy_index,
    basis_states,
    branchwise_noisy_distribution,
    classical_routing_probability,
    evolve_state_vector,
    fock_basis_rows,
    fringe_classes_by_filter,
    fringe_contrast_rows,
    live_rows_by_filter,
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
def live_row_keys(draw):
    """A table key ``(m, n, pairs, cap)``: sorted disjoint pairs, often with modes left unpaired."""
    m = draw(st.integers(2, 8))
    order = draw(st.permutations(range(m)))
    count = draw(st.integers(1, m // 2))
    pairs = tuple(sorted(tuple(sorted(order[2 * k : 2 * k + 2])) for k in range(count)))
    n = draw(st.integers(0, 6))
    return m, n, pairs, draw(st.integers(n, n + 3))


@st.composite
def photon_inputs(draw, max_photons=4, max_modes=6):
    m = draw(st.integers(1, max_modes))
    modes = draw(st.lists(st.integers(0, m - 1), max_size=max_photons))
    return m, tuple(modes)


class TestBasisRank:
    @settings(max_examples=50, deadline=None)
    @given(shape=basis_shapes(), data=st.data())
    def test_rank_round_trip(self, shape, data):
        basis = enumerate_basis(*shape)
        picks = np.array(data.draw(st.lists(st.integers(0, len(basis) - 1), min_size=1)))
        assert np.array_equal(basis.rank(basis.occupations[picks]), picks)
        i = int(picks[0])
        assert basis.rank(basis.occupations[[i - len(basis)]])[0] == i

    @settings(max_examples=50, deadline=None)
    @given(shape=basis_shapes(), data=st.data())
    def test_non_members_raise_key_error(self, shape, data):
        m, n = shape
        row = data.draw(st.lists(st.integers(-1, n + 2), min_size=1, max_size=m + 1))
        assume(len(row) != m or sum(row) != n or min(row) < 0 or max(row) > n)
        basis = enumerate_basis(m, n)
        with pytest.raises(KeyError):
            basis.rank(np.array([row]))

    @pytest.mark.parametrize("m, n", [(2, 12), (3, 40)])
    def test_rank_and_successors_of_crowded_rows(self, m, n):
        # an occupation times the rank table's width leaves the int8 range
        basis, grown = enumerate_basis(m, n), enumerate_basis(m, n + 1)
        assert np.array_equal(basis.rank(basis.occupations), np.arange(len(basis)))
        for step, (_, targets) in zip(np.eye(m, dtype=np.int8), _successors(m, n, (), None)):
            assert np.array_equal(targets, grown.rank(basis.occupations + step))

    def test_a_basis_too_large_to_index_is_refused(self):
        with pytest.raises(ValueError, match="too many to index"):
            FockBasis(70, 127)

    def test_basis_is_ordered_and_read_only(self):
        basis = enumerate_basis(5, 3)
        rows = [tuple(r) for r in basis.occupations.tolist()]
        assert rows == sorted(set(rows))
        with pytest.raises(ValueError):
            basis.occupations[0, 0] = 1

    def test_size_and_rank_need_no_rows(self):
        basis = FockBasis(12, 10)
        assert len(basis) == basis.size == 352_716
        last = np.array([(10,) + (0,) * 11])
        assert basis.rank(last)[0] == len(basis) - 1
        assert "occupations" not in vars(basis)
        # built on first read: the same order the rank table gives, read-only
        rows = basis.occupations
        assert rows.dtype == np.int8 and not rows.flags.writeable
        assert np.array_equal(basis.rank(rows), np.arange(len(basis)))
        assert np.array_equal(rows[-1], last[0])


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
            steps, gains = _successors(m, n, (), None), _gains(m, n, (), None)
            # every row moves
            assert all(moved == slice(None) for moved, _ in steps)
            succ = np.array([targets for _, targets in steps])
            assert np.array_equal(succ, np.array(successors).reshape(m, len(rows)))
            assert np.array_equal(gains, np.sqrt(rows.T + 1.0)) and gains.flags.c_contiguous

    @pytest.mark.parametrize(
        "pairs",
        [((0, 1),), ((1, 3),), ((0, 1), (2, 5)), ((0, 5), (1, 4), (2, 3)), ((0, 2), (4, 5))],
        ids=["adjacent", "apart", "two", "three", "edge"],
    )
    def test_support_tables_match_brute_force(self, pairs):
        m = 6

        def live_rows(n, cap):
            # no pair filled, and no more pairs empty than the cap leaves photons for
            rows = fock_basis_rows(m, n, False)
            filled = [any(r[a] and r[b] for a, b in pairs) for r in rows.tolist()]
            empty = np.array([sum(not (r[a] or r[b]) for a, b in pairs) for r in rows.tolist()])
            return rows[~np.array(filled, dtype=bool) & (empty <= cap - n)]

        for cap in (1, 2, 4, 6, 9):  # from 9 on the cap bounds no empty pair
            for n in range(5):
                rows, grown = live_rows(n, cap), live_rows(n + 1, cap)
                full = {tuple(r): i for i, r in enumerate(fock_basis_rows(m, n, False).tolist())}
                ranks = [full[tuple(r)] for r in rows.tolist()]
                assert np.array_equal(_support(m, n, pairs, cap), ranks)
                # an s + e_j that leaves the live rows is left out
                position = {tuple(r): i for i, r in enumerate(grown.tolist())}
                steps = _successors(m, n, pairs, cap)
                for step, (moved, targets) in zip(np.eye(m, dtype=np.int8), steps):
                    grown_rows = [tuple(r) for r in (rows + step).tolist()]
                    kept = [i for i, r in enumerate(grown_rows) if r in position]
                    assert np.array_equal(moved, kept)
                    assert np.array_equal(targets, [position[grown_rows[i]] for i in kept])
                assert np.array_equal(_gains(m, n, pairs, cap), np.sqrt(rows.T + 1.0))
                assert _gains(m, n, pairs, cap).flags.c_contiguous
                one_click = [
                    i for i, r in enumerate(rows.tolist())
                    if all(bool(r[a]) != bool(r[b]) for a, b in pairs)
                ]
                at, read = _one_click_rows(m, n, pairs, cap)
                assert np.array_equal(at, one_click)
                assert np.array_equal(read, np.array(ranks, dtype=np.intp)[one_click])

    @settings(max_examples=80, deadline=None)
    @given(key=live_row_keys())
    def test_live_rows_are_the_filtered_basis_rows(self, key):
        ranks, rows = live_rows_by_filter(*key)
        assert np.array_equal(_support(*key), ranks)
        assert np.array_equal(_live_rows(*key), rows)
        assert _live_rows(*key).dtype == np.int8

    def test_a_cap_below_n_leaves_no_live_rows(self):
        pairs = ((0, 1), (2, 5))
        assert len(_support(6, 3, pairs, 2)) == 0
        assert _live_rows(6, 3, pairs, 2).shape == (0, 6)
        assert len(_one_click_rows(6, 3, pairs, 2)[0]) == 0

    @pytest.mark.parametrize("m", range(4, 13))
    def test_fringe_tables_match_the_filtered_basis(self, m):
        # every N the modes hold, so m > 2N as well as m = 2N
        for n_photons in range(2, m // 2 + 1):
            for n in range(min(2 * n_photons, 8) + 1):
                ranks, constructive, destructive = _fringe_table(m, n, n_photons)
                bright, dark = fringe_classes_by_filter(m, n, n_photons)
                assert ranks is _support(m, n, fringe_pairs(n_photons), n)
                assert np.array_equal(ranks[constructive], bright)
                assert np.array_equal(ranks[destructive], dark)

    @pytest.mark.parametrize(
        "table",
        [
            lambda: enumerate_basis(4, 2)._below,
            lambda: enumerate_basis(4, 2).occupations,
            lambda: _successors(4, 2, (), None)[0][1],
            lambda: _gains(4, 2, (), None),
            lambda: _glynn_deltas(4)[0],
            lambda: _glynn_deltas(4)[1],
            lambda: _fringe_table(8, 4, 4)[0],
            lambda: _fringe_table(8, 4, 4)[1],
            lambda: _fringe_table(8, 4, 4)[2],
            lambda: _support(6, 3, ((0, 1), (2, 5)), 4),
            lambda: _successors(6, 3, ((0, 1), (2, 5)), 4)[0][1],
            lambda: _successors(6, 3, ((0, 1), (2, 5)), 4)[0][0],
            lambda: _gains(6, 3, ((0, 1), (2, 5)), 4),
            lambda: _one_click_rows(6, 3, ((0, 1), (2, 5)), 4)[0],
            lambda: _one_click_rows(6, 3, ((0, 1), (2, 5)), 4)[1],
        ],
        ids=[
            "below", "rows", "successors", "gains", "glynn_deltas", "glynn_signs",
            "fringe_ranks", "fringe_constructive", "fringe_destructive",
            "support", "support_successors", "support_successor_rows", "support_gains",
            "one_click_positions", "one_click_ranks",
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
        reference = evolve_state_vector(u.matrix, modes)
        probs, mass = strong_simulate(u, modes).probabilities, 1.0
        basis = enumerate_basis(m, len(modes))
        expected = np.array([abs(reference.get(t, 0.0)) ** 2 for t in basis_states(m, len(modes))])
        if collision_free:
            expected[~np.all(basis.occupations <= 1, axis=1)] = 0.0
            probs, mass = _restrict_collision_free(probs, m, len(modes))
        assert mass == pytest.approx(expected.sum(), abs=1e-12)
        assert np.allclose(probs, expected / expected.sum(), rtol=0, atol=1e-12)


@st.composite
def batched_inputs(draw):
    """B unitaries on m modes and the n input modes they share, bunched or unsorted."""
    m = draw(st.integers(2, 7))
    n = draw(st.integers(1, 4))
    count = draw(st.integers(1, 5))
    modes = tuple(draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    unitaries = np.stack([ModeUnitary.haar_random(m, rng).matrix for _ in range(count)])
    return unitaries, modes


def added_in_kernel_order(start, vec, n, columns, coherent):
    """``start`` plus one photon addition's terms, added in ``_add_photon``'s order.

    Each mode's terms go into their targets one mode at a time, in
    ascending mode order, as ``vec * column[j]`` times the gain, so every
    entry rounds through the same sums as the kernel's scatter into an
    output it is given.
    """
    expected = start.copy()
    m = len(columns)
    steps, gains = _successors(m, n, (), None), _gains(m, n, (), None)
    for j in np.flatnonzero(np.any(columns, axis=1)):
        term = vec * columns[j]
        if coherent:
            term *= gains[j][:, None]
        expected[steps[j][1]] += term
    return expected


#: A 5-mode coherent case whose scatter into ``start`` differs from
#: ``start + _add_photon(...)`` by more than a relative 1e-14 (the two
#: round in another order).
_REORDERED_SUM_CASE = (
    np.stack([ModeUnitary.haar_random(5, np.random.default_rng(372047938)).matrix]),
    (3, 0, 1),
)


class TestBatchedKernel:
    @settings(max_examples=50, deadline=None)
    @given(case=batched_inputs())
    def test_batch_matches_one_at_a_time(self, case):
        unitaries, modes = case
        m, n = unitaries.shape[1], len(modes)
        amps = batched_amplitudes(unitaries, modes)
        basis = enumerate_basis(m, n)
        assert amps.shape == (len(unitaries), len(basis))
        for u, amp in zip(unitaries, amps):
            single = strong_simulate(ModeUnitary(u), modes)
            assert np.allclose(np.abs(amp) ** 2, single.probabilities, rtol=0, atol=1e-12)
            reference = evolve_state_vector(u, modes)
            expected = np.array([reference.get(t, 0.0) for t in basis_states(m, n)])
            assert np.allclose(amp, expected, rtol=0, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(case=batched_inputs(), coherent=st.booleans())
    def test_one_dimensional_calls_equal_the_batched_kernel(self, case, coherent):
        unitaries, modes = case
        m, n = unitaries.shape[1], len(modes)
        rng = np.random.default_rng(n)
        vec = rng.normal(size=len(enumerate_basis(m, n - 1)))
        if coherent:
            vec = vec + 1j * rng.normal(size=vec.shape)
        columns = unitaries[:, :, 0].T if coherent else np.abs(unitaries[:, :, 0].T) ** 2
        stacked = _add_photon(np.stack([vec] * len(unitaries), axis=1), n - 1, columns, coherent)
        assert stacked.shape == (len(enumerate_basis(m, n)), len(unitaries))
        for b, column in enumerate(columns.T):
            single = _add_photon(vec, n - 1, column, coherent)
            assert np.allclose(single, stacked[:, b], rtol=0, atol=1e-14)
            one = _add_photon(vec[:, None], n - 1, column[:, None], coherent)
            assert one.shape == (len(single), 1)
            assert np.array_equal(single, one[:, 0])

    @settings(max_examples=50, deadline=None)
    @given(case=batched_inputs(), coherent=st.booleans())
    @example(case=_REORDERED_SUM_CASE, coherent=True)
    def test_scatter_into_a_given_output_through_a_scratch_buffer(self, case, coherent):
        unitaries, modes = case
        m, n = unitaries.shape[1], len(modes)
        rng = np.random.default_rng(n)
        columns = unitaries[:, :, 0].T if coherent else np.abs(unitaries[:, :, 0].T) ** 2
        vec = rng.random((len(enumerate_basis(m, n - 1)), len(unitaries))).astype(columns.dtype)
        start = rng.random((len(enumerate_basis(m, n)), len(unitaries))).astype(columns.dtype)
        scratch = np.full(vec.size + 3, np.nan, dtype=columns.dtype)
        out = start.copy()
        got = _add_photon(vec, n - 1, columns, coherent, out, scratch)
        assert np.shares_memory(got, out) and got.shape == out.shape
        assert np.array_equal(out, added_in_kernel_order(start, vec, n - 1, columns, coherent))
        fresh = _add_photon(vec, n - 1, columns, coherent, scratch=scratch)
        assert np.array_equal(fresh, _add_photon(vec, n - 1, columns, coherent))

    @settings(max_examples=50, deadline=None)
    @given(
        m=st.integers(1, 6),
        coherent_steps=st.lists(st.booleans(), min_size=1, max_size=4),
        batch=st.sampled_from([(), (1,), (3,)]),
        given_out=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_chain_of_additions_matches_the_fancy_index_oracle(
        self, m, coherent_steps, batch, given_out, seed
    ):
        rng = np.random.default_rng(seed)
        vec = np.ones((1, *batch), dtype=complex)  # the vacuum
        for n, coherent in enumerate(coherent_steps):
            column = rng.normal(size=(m, *batch)) + 1j * rng.normal(size=(m, *batch))
            if not coherent:
                column = np.abs(column) ** 2
            start = np.zeros((len(enumerate_basis(m, n + 1)), *batch), vec.dtype)
            if given_out:
                start[:] = rng.random(start.shape)
            got = _add_photon(vec, n, column, coherent, start.copy() if given_out else None)
            expected = start + add_photon_fancy_index(vec, n, column, coherent)
            assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)
            vec = got

    @settings(max_examples=50, deadline=None)
    @given(case=batched_inputs())
    def test_a_shared_tuple_matches_the_permanents(self, case):
        # the tuple is kept as drawn: bunched, unsorted or both
        unitaries, modes = case
        m = unitaries.shape[1]
        amps = batched_amplitudes(unitaries, modes)
        # each output row passed as its mode list
        outputs = [np.repeat(np.arange(m), row) for row in enumerate_basis(m, len(modes)).occupations]
        for u, amp in zip(unitaries, amps):
            expected = [output_amplitude(ModeUnitary(u), modes, t) for t in outputs]
            assert np.allclose(amp, expected, rtol=0, atol=1e-12)
        assert np.allclose(amps, batched_amplitudes(unitaries, sorted(modes)), rtol=0, atol=1e-12)

    def test_no_inputs_and_no_photons(self):
        u = np.stack([haar(3, seed).matrix for seed in range(2)])
        assert np.array_equal(batched_amplitudes(u, ()), np.ones((2, 1)))
        assert batched_amplitudes(u[:0], (0, 1)).shape == (0, 6)


class TestNoisySimulate:
    @settings(max_examples=30, deadline=None)
    @given(case=photon_inputs(max_photons=3, max_modes=5), seed=st.integers(0, 2**32 - 1))
    def test_distinguishable_photons_route_classically(self, case, seed):
        m, modes = case
        u = haar(m, seed)
        labeled = build_input(len(modes), SourceModel(indistinguishability=0.0), modes=modes)
        noisy = noisy_simulate(u, labeled)
        for t, p in zip(basis_states(m, len(modes)), noisy.sectors[len(modes)]):
            expected = classical_routing_probability(u.matrix, modes, t)
            assert p == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(case=photon_inputs(), seed=st.integers(0, 2**32 - 1))
    def test_perfect_source_reproduces_strong_simulate(self, case, seed):
        m, modes = case
        u = haar(m, seed)
        noisy = noisy_simulate(u, build_input(len(modes), SourceModel(), modes=modes))
        ideal = strong_simulate(u, modes)
        assert list(noisy.sectors) == [len(modes)]
        # one coherent pass serves both, so the vectors are equal bit for bit
        assert np.array_equal(noisy.sectors[len(modes)], ideal.probabilities)
        # the two are one type and agree on every accessor
        assert type(noisy) is type(ideal)
        rows, values = noisy.outcomes()
        assert np.array_equal(rows, ideal.outcomes()[0])
        assert np.array_equal(values, ideal.probabilities)
        assert len(noisy) == len(ideal)
        for dist in (noisy, ideal):
            assert dist.m == m
            assert dist.dropped_weight == 0.0

    @settings(max_examples=30, deadline=None)
    @given(
        case=photon_inputs(max_photons=3, max_modes=4),
        seed=st.integers(0, 2**32 - 1),
        ind=st.floats(0.0, 1.0),
        g2=st.floats(0.0, 0.2),
        efficiency=st.floats(0.05, 1.0),
    )
    def test_total_probability_is_conserved(self, case, seed, ind, g2, efficiency):
        m, modes = case
        u = haar(m, seed)
        src = SourceModel(indistinguishability=ind, g2=g2, efficiency=efficiency)
        labeled = build_input(len(modes), src, modes=modes)
        noisy = noisy_simulate(u, labeled)
        total = noisy.probabilities.sum()
        assert total + noisy.dropped_weight == pytest.approx(
            sum(b.weight for b in labeled.branches), abs=1e-12
        )
        assert 0.0 <= noisy.dropped_weight <= TAIL_TOLERANCE
        assert len(noisy) == np.count_nonzero(noisy.probabilities)


    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(2, 6),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        g2=st.floats(0.0, 0.3),
        efficiency=st.floats(0.05, 1.0),
    )
    def test_matches_branchwise_oracle(self, m, data, seed, g2, efficiency):
        modes = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=4))
        ms = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(modes), max_size=len(modes)))
        u = haar(m, seed)
        src = SourceModel(indistinguishability=tuple(ms), g2=g2, efficiency=efficiency)
        labeled = build_input(len(modes), src, modes=modes)
        noisy = noisy_simulate(u, labeled)
        reference = branchwise_noisy_distribution(u.matrix, labeled)

        # The cap is the smallest N whose photon-number tail is at most
        # TAIL_TOLERANCE; the branch weights give that law directly.
        counts = np.zeros(2 * len(modes) + 2)
        for branch in labeled.branches:
            counts[branch.n] += branch.weight
        above = [counts[k + 1 :].sum() for k in range(len(counts))]
        cap = next(k for k, tail in enumerate(above) if tail <= TAIL_TOLERANCE)
        assert noisy.dropped_weight == pytest.approx(above[cap], abs=1e-15)
        assert max(noisy.sectors, default=0) <= cap
        # every sector up to the cap is exact
        for n in range(cap + 1):
            basis = enumerate_basis(m, n)
            expected = np.zeros(len(basis))
            rows = [occ for occ in reference if sum(occ) == n]
            if rows:
                np.add.at(expected, basis.rank(np.array(rows)), [reference[r] for r in rows])
            got = noisy.sectors[n] if n in noisy.sectors else np.zeros(len(basis))
            assert np.abs(got - expected).max() <= 1e-12


    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(2, 6),
        batch=st.integers(1, 5),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        g2=st.floats(0.0, 0.3),
        efficiency=st.floats(0.05, 1.0),
    )
    def test_batched_pass_matches_separate_calls(self, m, batch, data, seed, g2, efficiency):
        # repeated modes put several triggers on one input mode
        modes = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=3))
        ms = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(modes), max_size=len(modes)))
        src = SourceModel(indistinguishability=tuple(ms), g2=g2, efficiency=efficiency)
        labeled = build_input(len(modes), src, modes=modes)
        unitaries = np.stack([haar(m, seed + b).matrix for b in range(batch)])
        sectors, dropped = batched_noisy_sectors(unitaries, labeled)
        for b, unitary in enumerate(unitaries):
            single = noisy_simulate(unitary, labeled)
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
    return unitaries, build_input(len(modes), src, modes=modes)


#: Relative error allowed on every sector entry against the per-set oracle,
#: with no absolute floor: an oracle 0 must stay exactly 0.
SUM_ORDER_RTOL = 1e-13


def p6_input():
    """Six triggers of a lossless source on the cyclic interferometer's inputs."""
    src = SourceModel(indistinguishability=(0.93, 0.88, 0.95, 0.90, 0.92, 0.91), g2=0.0075)
    return build_input(6, src, modes=cyclic_input_modes(6))


def assert_matches_per_subset_oracle(unitaries, labeled) -> dict[int, np.ndarray]:
    sectors, dropped = batched_noisy_sectors(unitaries, labeled)
    expected, expected_dropped = per_subset_noisy_sectors(unitaries, labeled)
    assert dropped == expected_dropped
    assert sorted(sectors) == sorted(expected)
    for n, vec in sectors.items():
        assert vec.dtype == expected[n].dtype and vec.shape == expected[n].shape
        # the trigger sum adds the oracle's nonnegative terms in another order
        assert np.all(np.abs(vec - expected[n]) <= SUM_ORDER_RTOL * expected[n])
        assert np.array_equal(vec == 0.0, expected[n] == 0.0)
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
        sectors = assert_matches_per_subset_oracle(unitaries, labeled)
        assert max(sectors) == 2 < len(labeled.modes)

    @staticmethod
    def p6_additions(monkeypatch) -> list[tuple[bool, int, int]]:
        """``(coherent, n, columns)`` of each photon addition of a lossless cyclic p6.

        Only the outermost call counts: a batch of one reruns as the
        one-dimensional call.  ``columns`` is the width of ``column``'s
        batch axis (1 without one).
        """
        real, steps, active = fock._add_photon, [], []

        def counted(vec, n, column, coherent, *args, **kwargs):
            if not active:
                steps.append((coherent, n, column.shape[1] if column.ndim == 2 else 1))
            active.append(n)
            try:
                return real(vec, n, column, coherent, *args, **kwargs)
            finally:
                active.pop()

        monkeypatch.setattr(fock, "_add_photon", counted)
        monkeypatch.setattr(sources, "_add_photon", counted)
        noisy_simulate(cyclic_interferometer(6, 0.3), p6_input())
        return steps

    def test_each_shared_prefix_is_computed_once(self, monkeypatch):
        coherent_steps = [(n, w) for coherent, n, w in self.p6_additions(monkeypatch) if coherent]
        # one call per prefix length, one column per nonempty prefix:
        # C(6, n + 1) of them reach n + 1 photons
        assert len(coherent_steps) == 6
        assert dict(coherent_steps) == {0: 6, 1: 15, 2: 20, 3: 15, 4: 6, 5: 1}

    def test_each_classical_step_is_applied_once_per_set_of_later_triggers(self, monkeypatch):
        classical = [n for coherent, n, _ in self.p6_additions(monkeypatch) if not coherent]
        # Trigger j's own photon is folded into the 2^(5-j) sets of the
        # triggers after it, one sector each (63 in all); the extras then
        # grow the summed sector 6 one photon at a time up to the cap of
        # 10, from 6..k for k < 10 (1 + 2 + 3 + 4 + 4 + 4 = 18).
        assert len(classical) == 2**6 - 1 + 18

    def test_a_perfect_source_runs_one_coherent_pass_and_no_mixture(self, monkeypatch):
        real_add, real_mix, additions, mixes = fock._add_photon, sources._mix_photon, [], []

        def added(vec, n, column, coherent, *args, **kwargs):
            additions.append((coherent, n, column.shape[1:]))
            return real_add(vec, n, column, coherent, *args, **kwargs)

        def mixed(sectors, *args):
            mixes.append(sorted(sectors))
            return real_mix(sectors, *args)

        monkeypatch.setattr(fock, "_add_photon", added)
        monkeypatch.setattr(sources, "_add_photon", added)
        monkeypatch.setattr(sources, "_mix_photon", mixed)
        labeled = build_input(6, SourceModel(), modes=cyclic_input_modes(6))
        unitaries = np.stack([cyclic_interferometer(6, 0.3).matrix, haar(12, 5).matrix])
        sectors, dropped = batched_noisy_sectors(unitaries, labeled)
        # one shared set, all six triggers: one photon addition per photon, both columns at once
        assert additions == [(True, n, (2,)) for n in range(6)]
        assert mixes == [] and list(sectors) == [6] and dropped == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 8),
        batch=st.integers(1, 3),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_perfect_source_is_the_ideal_simulator_bit_for_bit(self, m, batch, data, seed):
        # the trigger sum adds the photons in ascending mode order, whatever the listed order
        modes = data.draw(st.lists(st.integers(0, m - 1), max_size=4))
        rng = np.random.default_rng(seed)
        unitaries = np.stack([ModeUnitary.haar_random(m, rng).matrix for _ in range(batch)])
        sectors, dropped = batched_noisy_sectors(unitaries, build_input(len(modes), SourceModel(), modes))
        ideal = np.abs(batched_amplitudes(unitaries, sorted(modes)).T) ** 2
        assert list(sectors) == [len(modes)] and dropped == 0.0
        assert np.array_equal(sectors[len(modes)], ideal)

    def test_a_perfect_source_reads_the_ghz_inputs_as_the_ideal_simulator(self):
        unitaries = np.stack([ghz_factory()[0].unitary().matrix, haar(12, 3).matrix])
        labeled = build_input(6, SourceModel(), modes=GHZ_INPUT_MODES)
        sectors, dropped = batched_noisy_sectors(unitaries, labeled)
        ideal = np.abs(batched_amplitudes(unitaries, GHZ_INPUT_MODES).T) ** 2
        assert list(sectors) == [6] and dropped == 0.0
        assert np.array_equal(sectors[6], ideal)

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize(
        "ms", [(0.0, 1.0, 0.8, 1.0), (1.0, 0.6, 1.0, 1.0), (0.0, 0.0, 1.0, 0.3)]
    )
    def test_forced_triggers_sum_as_the_per_subset_oracle_bit_for_bit(self, ms, batch):
        # A lossless trigger with m_i = 1 is always in S and one with m_i = 0
        # always out, so only one trigger is free: the two shared sets meet in
        # one addition, and every term is the oracle's own product.
        labeled = build_input(4, SourceModel(indistinguishability=ms), modes=(1, 4, 1, 2))
        unitaries = np.stack([haar(6, seed).matrix for seed in range(batch)])
        assert len(sources._trigger_sets(labeled)[3]) == 2
        sectors, dropped = batched_noisy_sectors(unitaries, labeled)
        expected, expected_dropped = per_subset_noisy_sectors(unitaries, labeled)
        assert dropped == expected_dropped == 0.0
        assert sorted(sectors) == sorted(expected) == [4]
        assert np.array_equal(sectors[4], expected[4])

    def test_working_memory_stays_near_the_output(self):
        unitary, labeled = cyclic_interferometer(6, 0.3), p6_input()
        noisy_simulate(unitary, labeled)  # fills the basis and successor tables
        tracemalloc.start()
        try:
            dist = noisy_simulate(unitary, labeled)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = sum(vec.nbytes for vec in dist.sectors.values())
        assert peak < 1.75 * output

    @pytest.mark.parametrize("alpha", [0.0, 0.7, 2.0])
    def test_p6_matches_the_per_subset_oracle(self, alpha):
        unitary, labeled = cyclic_interferometer(6, alpha), p6_input()
        sectors, _ = per_subset_noisy_sectors(unitary.matrix[None], labeled)
        oracle = OutputDistribution(12, {n: vec[:, 0] for n, vec in sectors.items()})
        p6 = genuine_indistinguishability(noisy_simulate(unitary, labeled), 6)
        assert abs(p6 - fringe_contrast_rows(oracle, 6)) <= 1e-13


@st.composite
def paired_trigger_sums(draw):
    """B unitaries on up to 8 modes, a lossy input with g2 > 0, and disjoint mode pairs."""
    m = draw(st.integers(2, 8))
    modes = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=4))
    ms = draw(st.lists(st.floats(0.0, 1.0), min_size=len(modes), max_size=len(modes)))
    src = SourceModel(
        indistinguishability=tuple(ms),
        g2=draw(st.floats(0.001, 0.3)),
        efficiency=draw(st.floats(0.05, 0.99)),
    )
    order = draw(st.permutations(range(m)))
    pairs = [tuple(order[2 * k : 2 * k + 2]) for k in range(draw(st.integers(1, m // 2)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    unitaries = np.stack(
        [ModeUnitary.haar_random(m, rng).matrix for _ in range(draw(st.sampled_from([1, 3])))]
    )
    return unitaries, build_input(len(modes), src, modes=modes), pairs


def fringe_pairs(n_photons: int) -> tuple[tuple[int, int], ...]:
    return tuple((2 * k, 2 * k + 1) for k in range(n_photons))


class TestExclusivePairs:
    @settings(max_examples=60, deadline=None)
    @given(case=paired_trigger_sums())
    def test_one_click_rows_are_those_without_pairs(self, case):
        # each sector holds its one-click rows only, so there is no "0 elsewhere" to check
        unitaries, labeled, pairs = case
        m = unitaries.shape[1]
        full, dropped = batched_noisy_sectors(unitaries, labeled)
        key = sources._pair_key(pairs, m)
        sectors, pair_dropped = sources._trigger_sum(unitaries, labeled, key)
        assert pair_dropped == dropped
        read = {}
        for n in full:
            occ = enumerate_basis(m, n).occupations
            one_click = np.all([(occ[:, a] > 0) != (occ[:, b] > 0) for a, b in pairs], axis=0)
            read[n] = _support(m, n, key, n)
            assert np.array_equal(read[n], np.flatnonzero(one_click))
        assert sorted(sectors) == [n for n in sorted(full) if len(read[n])]
        for n, vec in sectors.items():
            assert vec.shape == (len(read[n]), len(unitaries))
            assert np.array_equal(vec, full[n][read[n]])

    def test_p6_live_and_read_row_counts(self):
        pairs = fringe_pairs(6)
        tail = sources._photon_number_tail(p6_input())
        cap = int(np.argmax(tail[1:] <= TAIL_TOLERANCE))
        assert cap == 10
        # the pairs alone keep 130,592 rows in sectors 6-10 (a cap of 16 bounds no empty pair)
        assert sum(len(_support(12, n, pairs, 16)) for n in range(6, 11)) == 130_592
        live = [len(_support(12, n, pairs, cap)) for n in range(6, 11)]
        assert live == [5_324, 10_464, 16_464, 17_024, 8_064]
        read = [len(_one_click_rows(12, n, pairs, cap)[0]) for n in range(6, 11)]
        assert read == [64, 384, 1_344, 3_584, 8_064]

    def test_a_p6_returns_13056_nonzero_outcomes_on_its_read_rows(self):
        # the benchmark tracer reports len(result) of noisy_simulate as sources.output_states
        unitary = cyclic_interferometer(6, 0.3)
        dist = noisy_simulate(unitary, p6_input(), one_click_pairs=fringe_pairs(6))
        assert len(dist) == 13_056
        assert [len(vec) for vec in dist.sectors.values()] == [64, 384, 1_344, 3_584, 8_064]

    def test_a_warm_measurement_calls_noisy_simulate_through_the_module(self, monkeypatch):
        # the benchmark tracer times this span by replacing sources.noisy_simulate
        src = SourceModel(indistinguishability=(0.93, 0.88, 0.95, 0.90, 0.92, 0.91), g2=0.0075)
        sources.measure_genuine_indistinguishability(6, src, 0.3)
        real, calls = sources.noisy_simulate, []

        def counted(*args, **kwargs):
            calls.append(kwargs["one_click_pairs"])
            return real(*args, **kwargs)

        monkeypatch.setattr(sources, "noisy_simulate", counted)
        sources.measure_genuine_indistinguishability(6, src, 0.3)
        assert calls == [fringe_pairs(6)]

    def test_a_p6_measurement_builds_no_full_basis_successor_table(self):
        _successors.cache_clear()
        _gains.cache_clear()
        src = SourceModel(indistinguishability=(0.93, 0.88, 0.95, 0.90, 0.92, 0.91), g2=0.0075)
        sources.measure_genuine_indistinguishability(6, src, 0.3)
        # gain tables for the six coherent photon numbers only, none for classical steps
        assert _gains.cache_info().currsize == 6
        hits = _successors.cache_info().hits
        for n in range(10):  # every table a full-basis p6 reads
            _successors(12, n, (), None)
            assert _successors.cache_info().hits == hits

    def test_the_full_basis_path_builds_no_support_table(self):
        _live_table.cache_clear()
        labeled = build_input(4, SourceModel(0.9, 0.01), cyclic_input_modes(4))
        noisy_simulate(cyclic_interferometer(4, 0.3), labeled)
        # with no pairs every row is live: the tables read the basis, never a row list
        assert _live_table.cache_info().currsize == 0

    def test_working_memory_on_the_support_stays_small(self):
        # the live vectors of sectors 6-10 hold 57,340 states (0.46 MB);
        # a warm run peaked at about 1.2 MB, 5.5 MB with full-basis sectors
        unitary, labeled = cyclic_interferometer(6, 0.3), p6_input()
        noisy_simulate(unitary, labeled, one_click_pairs=fringe_pairs(6))  # fills the tables
        tracemalloc.start()
        try:
            noisy_simulate(unitary, labeled, one_click_pairs=fringe_pairs(6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    @pytest.mark.parametrize(
        "pairs, message",
        [
            (((0, 1), (1, 2)), "share a mode"),
            (((3, 3),), "share a mode"),
            (((0, 12),), "outside"),
            (((-1, 0),), "outside"),
        ],
    )
    def test_overlapping_and_out_of_range_pairs_raise(self, pairs, message):
        with pytest.raises(ValueError, match=message):
            noisy_simulate(cyclic_interferometer(6, 0.3), p6_input(), one_click_pairs=pairs)



class TestColdStart:
    """A fresh process's p6 builds the tables it reads, and no 12-mode basis rows."""

    SOURCE = SourceModel(indistinguishability=(0.93, 0.88, 0.95, 0.90, 0.92, 0.91), g2=0.0075)

    @staticmethod
    def clear_tables():
        for table in (
            enumerate_basis, _live_table, _successors, _gains, _one_click_rows, _fringe_table
        ):
            table.cache_clear()

    def test_a_cold_p6_builds_no_full_basis_rows(self):
        self.clear_tables()
        sources.measure_genuine_indistinguishability(6, self.SOURCE, 0.3)
        assert enumerate_basis.cache_info().currsize > 0
        for n in range(11):  # every sector of the p6 cap
            assert "occupations" not in vars(enumerate_basis(12, n))

    def test_a_cold_read_of_fringe_rows_builds_no_full_basis_rows(self):
        dist = sources._fringe_distribution(6, self.SOURCE, 0.3)
        self.clear_tables()
        assert dist.probabilities.sum() > 0.0
        assert enumerate_basis.cache_info().currsize == 0  # the values need no basis
        rows, values = dist.outcomes()
        assert coincidence_probability(dist, (0, 2)) > 0.0
        for n in range(11):
            assert "occupations" not in vars(enumerate_basis(12, n))
        # the rows are those of the full basis at the sector's ranks
        start = 0
        for n, ranks in dist.ranks.items():
            stop = start + len(ranks)
            assert np.array_equal(rows[start:stop], FockBasis(12, n).occupations[ranks])
            start = stop
        assert start == len(rows) == len(values)

    def test_a_cold_p6_peak_stays_small(self):
        # the full 12-mode bases alone hold 7.4 MB; the filtered tables
        # peaked at 27.6 MB, the generated ones at about 12 MB with
        # full-basis sectors and at about 9.6 MB on the one-click rows
        self.clear_tables()
        tracemalloc.start()
        try:
            sources.measure_genuine_indistinguishability(6, self.SOURCE, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6


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
        assert capped.probabilities.sum() + capped.dropped_weight == pytest.approx(1.0, abs=1e-12)

        bright = SourceModel(indistinguishability=src.indistinguishability, g2=0.02)
        uncapped = noisy_simulate(unitary, build_input(4, bright, modes=modes))
        assert max(uncapped.sectors) == 8
        assert uncapped.dropped_weight == 0.0


#: (N, m, sectors drawn from): N = 4 on 8 and 10 modes, N = 6 on 12.
FRINGE_SHAPES = [(4, 8, range(9)), (4, 10, range(8)), (6, 12, range(8))]


@st.composite
def fringe_distributions(draw):
    """A multi-sector distribution with zero entries and one-click-per-pair mass.

    Each sector covers the full basis, the fringe's own one-click rows
    (the ranks a fringe simulation returns) or a random subset of ranks.
    """
    n_photons, m, sectors = draw(st.sampled_from(FRINGE_SHAPES))
    photon_numbers = draw(st.sets(st.sampled_from(sectors), max_size=3)) | {n_photons}
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zero_frac = draw(st.floats(0.0, 0.9))
    left_clicks = np.zeros((1, m), dtype=np.int8)
    left_clicks[0, 0 : 2 * n_photons : 2] = 1
    mark = enumerate_basis(m, n_photons).rank(left_clicks)
    vectors, ranks = {}, {}
    for n in sorted(photon_numbers):
        covers = draw(st.sampled_from(["basis", "fringe", "subset"]))
        size = len(enumerate_basis(m, n))
        if covers == "fringe":
            ranks[n] = _fringe_table(m, n, n_photons)[0]
        elif covers == "subset":
            subset = np.flatnonzero(rng.random(size) < draw(st.floats(0.0, 1.0)))
            ranks[n] = np.union1d(subset, mark) if n == n_photons else subset
        rows = ranks.get(n, np.arange(size))
        vectors[n] = rng.random(len(rows)) * (rng.random(len(rows)) >= zero_frac)
        if n == n_photons:
            vectors[n][np.searchsorted(rows, mark)] = 1.0
    return n_photons, OutputDistribution(m, vectors, ranks=ranks)


def expanded(dist: OutputDistribution) -> OutputDistribution:
    """``dist`` with every sector written densely over its full basis."""
    dense = {}
    for n, vec in dist.sectors.items():
        dense[n] = np.zeros(len(enumerate_basis(dist.m, n)))
        dense[n][dist.ranks.get(n, slice(None))] = vec
    return OutputDistribution(dist.m, dense)


class TestClickPatterns:
    @settings(max_examples=50, deadline=None)
    @given(case=fringe_distributions())
    def test_fringe_contrast_matches_the_row_oracle(self, case):
        n_photons, dist = case
        tallies = {n: np.floor(vec * 1000) for n, vec in dist.sectors.items()}
        counts = OutputDistribution(dist.m, tallies, ranks=dist.ranks)
        p_n = genuine_indistinguishability(dist, n_photons)
        assert p_n.hex() == fringe_contrast_rows(dist, n_photons).hex()
        p_counts = genuine_indistinguishability(counts, n_photons)
        assert p_counts.hex() == fringe_contrast_rows(counts, n_photons).hex()

    @settings(max_examples=30, deadline=None)
    @given(
        case=fringe_distributions(), modes=st.sets(st.integers(0, 7), min_size=1, max_size=3)
    )
    def test_a_ranked_sector_reads_as_its_dense_expansion(self, case, modes):
        n_photons, dist = case
        dense = expanded(dist)
        assert len(dist) == len(dense)
        assert genuine_indistinguishability(dense, n_photons) == pytest.approx(
            genuine_indistinguishability(dist, n_photons), rel=1e-12
        )
        coincidence = coincidence_probability(dist, sorted(modes))
        assert coincidence.hex() == coincidence_probability(dense, sorted(modes)).hex()

    def test_empty_distribution(self):
        empty = OutputDistribution(8, {})
        assert len(empty) == 0
        assert coincidence_probability(empty, (0, 1)) == 0.0
        with pytest.raises(ValueError, match="undefined"):
            genuine_indistinguishability(empty, 4)
