"""Postselection as a mask on occupation rows, checked against a per-state rule.

``logical_distribution`` reads an ``OutputDistribution`` through its
outcome view; random rules and random single- and multi-sector
distributions of probabilities or of integer counts are compared with
the brute-force ``postselect_by_state`` of ``_oracles.py``.  The
batched ``logical_distributions`` path is compared with
``logical_distribution`` of each unitary's ``strong_simulate`` and
``noisy_simulate`` output, each row of a stack bit for bit with its own
one-unitary call, and its cached readout table with the rule's readout
of the whole basis.  The accessors of ``OutputDistribution`` are
checked against its outcome view.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lopsim import qubits
from lopsim.fock import (
    ModeUnitary,
    OutputDistribution,
    enumerate_basis,
    strong_simulate,
)
from lopsim.mesh import PhotonicCircuit
from lopsim.qubits import (
    GHZ_INPUT_MODES,
    Gate,
    GateCircuit,
    PostselectionRule,
    QubitEncoding,
    compile_gate_circuit,
    encoding_input_state,
    ghz_factory,
    ghz_postselection,
    logical_distribution,
    logical_distributions,
)
from lopsim.sources import SourceModel, build_input, noisy_simulate

from _oracles import placed_distribution, postselect_by_state


@st.composite
def rules(draw):
    m = draw(st.integers(2, 8))
    modes = draw(st.permutations(range(m)))
    n_qubits = draw(st.integers(1, min(3, m // 2)))
    pairs = tuple((modes[2 * q], modes[2 * q + 1]) for q in range(n_qubits))
    rest = modes[2 * n_qubits :]
    vacuum = tuple(draw(st.lists(st.sampled_from(rest), unique=True))) if rest else ()
    free = [mode for mode in rest if mode not in vacuum]
    heralds = ()
    if free:
        pattern = st.lists(
            st.tuples(st.sampled_from(free), st.integers(0, 2)),
            max_size=2,
            unique_by=lambda pair: pair[0],
        ).map(tuple)
        heralds = tuple(draw(st.lists(pattern, max_size=3)))
    rule = PostselectionRule(pairs, vacuum, heralds, threshold=draw(st.booleans()))
    return m, rule


def random_sector(
    m: int, n: int, rng: np.random.Generator, collision_free: bool = False
) -> np.ndarray:
    occupations = enumerate_basis(m, n).occupations
    size = len(occupations)
    probs = rng.random(size) * (rng.random(size) < 0.7)
    if collision_free:
        probs[~np.all(occupations <= 1, axis=1)] = 0.0
    return probs / max(probs.sum(), 1.0)


@settings(max_examples=50, deadline=None)
@given(
    drawn=rules(),
    kind=st.sampled_from(["output", "noisy", "counts"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_mask_readout_matches_per_state_rule(drawn, kind, seed):
    m, rule = drawn
    rng = np.random.default_rng(seed)
    q = len(rule.qubit_pairs)
    sectors = {n: random_sector(m, n, rng) for n in range(q, q + 3)}
    if kind == "output":
        n = q + int(rng.integers(3))
        dist = OutputDistribution(m, {n: sectors[n]})
    elif kind == "noisy":
        dist = OutputDistribution(m, sectors)
    else:
        counts = {n: (vec > 0) * rng.integers(1, 50, len(vec)) for n, vec in sectors.items()}
        dist = OutputDistribution(m, counts)
    expected, weight = postselect_by_state(dist, rule)
    if weight <= 0.0:
        with pytest.raises(ValueError, match="postselection"):
            logical_distribution(dist, rule)
        return
    probs, got_weight = logical_distribution(dist, rule)
    assert probs.shape == (2,) * q
    assert got_weight == pytest.approx(weight, rel=1e-12, abs=1e-12)
    reference = np.zeros((2,) * q)
    for bits, p in expected.items():
        reference[bits] = p
    assert np.max(np.abs(probs - reference)) < 1e-12
    rows, _ = dist.outcomes()
    accepted, index = rule.readout(rows)
    for row, ok, i in zip(rows[:20].tolist(), accepted[:20], index[:20]):
        single, single_weight = postselect_by_state({tuple(row): 1.0}, rule)
        assert (single_weight > 0.0) == ok
        if ok:
            [bits] = single
            assert int(np.ravel_multi_index(bits, (2,) * q)) == i


@settings(max_examples=25, deadline=None)
@given(
    n_qubits=st.integers(1, 3),
    batch=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_readout_matches_one_distribution_per_unitary(n_qubits, batch, seed):
    rng = np.random.default_rng(seed)
    enc = QubitEncoding.default(n_qubits)
    rule = PostselectionRule(enc.qubit_pairs, vacuum_modes=enc.ancilla_modes)
    state = encoding_input_state(enc, tuple(rng.integers(0, 2, n_qubits)))
    unitaries = [ModeUnitary.haar_random(enc.n_modes, rng) for _ in range(batch)]
    stack = np.array([u.matrix for u in unitaries])
    source = SourceModel(
        indistinguishability=tuple(rng.uniform(0.5, 1.0, n_qubits)),
        g2=float(rng.uniform(0.0, 0.05)),
        efficiency=float(rng.uniform(0.5, 1.0)),
    )
    labeled = build_input(n_qubits, source, modes=state.modes())

    ideal = logical_distributions(stack, state.modes(), rule)
    noisy = logical_distributions(stack, state.modes(), rule, source)
    assert ideal.shape == noisy.shape == (batch, 1 << n_qubits)
    for u, got_ideal, got_noisy in zip(unitaries, ideal, noisy):
        want, _ = logical_distribution(strong_simulate(u, state), rule)
        assert np.array_equal(got_ideal, want.ravel())
        want, _ = logical_distribution(noisy_simulate(u, labeled), rule)
        assert np.max(np.abs(got_noisy - want.ravel())) < 1e-12


def test_ravel_puts_qubit_zero_first():
    circuit, rule, _, _ = compile_gate_circuit(GateCircuit(2, (Gate("CNOT", (0, 1)),)))
    enc = QubitEncoding.default(2)
    dist = strong_simulate(circuit.unitary(), encoding_input_state(enc, (1, 0)))
    probs, _ = logical_distribution(dist, rule)
    assert probs.ravel()[3] == pytest.approx(1.0, abs=1e-12)
    assert probs.ravel()[3] == probs[1, 1]


def test_empty_distribution_has_no_accepted_outcome():
    rule = PostselectionRule(((0, 1),))
    empty = OutputDistribution(2, {})
    rows, values = empty.outcomes()
    assert rows.shape == (0, 2) and values.shape == (0,)
    with pytest.raises(ValueError, match="postselection"):
        logical_distribution(empty, rule)
    with pytest.raises(ValueError, match=re.escape("rule reads modes [5], rows have 2 modes")):
        logical_distribution(empty, PostselectionRule(((0, 5),)))


def test_a_rule_built_from_lists_reads_out_as_its_tuple_rule():
    _, heralds, _ = ghz_factory()
    tupled = ghz_postselection(heralds, 1, threshold=True)
    listed = PostselectionRule(
        [list(pair) for pair in tupled.qubit_pairs],
        heralds=[[list(spec) for spec in pattern] for pattern in tupled.heralds],
        threshold=True,
    )
    ghz = PhotonicCircuit(12).extend(ghz_factory()[0].elements).unitary().matrix[None]
    assert listed == tupled and hash(listed) == hash(tupled)
    want = logical_distributions(ghz, GHZ_INPUT_MODES, tupled)
    assert np.array_equal(logical_distributions(ghz, GHZ_INPUT_MODES, listed), want)
    enc = QubitEncoding.default(2)
    circuit, tupled, _, unitary = compile_gate_circuit(GateCircuit.from_text("CNOT 0 1"), enc)
    listed = PostselectionRule([list(p) for p in enc.qubit_pairs], list(enc.ancilla_modes))
    assert listed == tupled and hash(listed) == hash(tupled)
    dist = strong_simulate(unitary, encoding_input_state(enc, (1, 0)))
    got, want = logical_distribution(dist, listed), logical_distribution(dist, tupled)
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]


def test_threshold_herald_reads_any_count_as_a_click():
    rule = PostselectionRule(((0, 1),), heralds=(((2, 2),),), threshold=True)
    dist = placed_distribution(3, {(0, 1, 1): 0.25, (1, 0, 0): 0.75})
    probs, weight = logical_distribution(dist, rule)
    assert weight == 0.25 and probs[1] == 1.0


@st.composite
def distributions(draw):
    """Random single- or multi-sector distributions, some masked collision-free."""
    m = draw(st.integers(1, 6))
    collision_free = draw(st.booleans())
    photons = st.integers(0, m if collision_free else 4)
    ns = draw(st.lists(photons, min_size=1, max_size=3, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sectors = {n: random_sector(m, n, rng, collision_free) for n in ns}
    scale = max(sum(vec.sum() for vec in sectors.values()), 1.0)
    dist = OutputDistribution(
        m,
        {n: vec / scale for n, vec in sectors.items()},
        dropped_weight=draw(st.floats(0.0, 1e-6)),
    )
    return dist, collision_free


@settings(max_examples=50, deadline=None)
@given(drawn=distributions())
def test_accessors_agree_with_the_outcome_view(drawn):
    dist, collision_free = drawn
    rows, values = dist.outcomes()
    assert np.array_equal(dist.probabilities, values)
    assert len(dist) == np.count_nonzero(values)
    photons = rows.sum(axis=1)
    assert np.all(np.diff(photons) >= 0)
    assert sorted(set(photons[values > 0].tolist())) == list(dist.sectors)
    for n, vec in dist.sectors.items():
        at = photons == n
        assert np.array_equal(enumerate_basis(dist.m, n).rank(rows[at]), np.arange(len(vec)))
        assert np.array_equal(values[at], vec)
    if collision_free:
        assert np.all(rows[values > 0] <= 1)


@settings(max_examples=20, deadline=None)
@given(k=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_each_row_of_a_stack_is_bit_for_bit_its_own_one_unitary_call(k, seed):
    rng = np.random.default_rng(seed)
    enc = QubitEncoding.default(2)
    rule = PostselectionRule(enc.qubit_pairs, vacuum_modes=enc.ancilla_modes)
    modes = encoding_input_state(enc, tuple(rng.integers(0, 2, 2))).modes()
    stack = np.array([ModeUnitary.haar_random(6, rng).matrix for _ in range(k)])
    source = SourceModel(
        indistinguishability=tuple(rng.uniform(0.5, 1.0, 2)),
        g2=float(rng.uniform(0.0, 0.05)),
        efficiency=float(rng.uniform(0.5, 1.0)),
    )
    for photons in (None, source):
        rows = logical_distributions(stack, modes, rule, photons)
        assert rows.shape == (k, 4)
        for unitary, row in zip(stack, rows):
            assert np.array_equal(row, logical_distributions(unitary[None], modes, rule, photons)[0])


def _named_rules():
    _, heralds, _ = ghz_factory()
    enc = QubitEncoding.default(2)
    return {
        "ghz-threshold": (12, ghz_postselection(heralds, 1, threshold=True)),
        "ghz-number": (12, ghz_postselection(heralds, -1)),
        "one-herald-threshold": (
            12, ghz_postselection(heralds[:1], heralds[0].sign, threshold=True)
        ),
        "threshold": (6, PostselectionRule(enc.qubit_pairs, threshold=True)),
        "plain": (6, PostselectionRule(enc.qubit_pairs, vacuum_modes=enc.ancilla_modes)),
    }


def assert_table_matches_readout(rule, m, n):
    kept, index = qubits._readout_table(rule, m, n)
    accepted, want = rule.readout(enumerate_basis(m, n).occupations)
    assert np.array_equal(kept, np.flatnonzero(accepted))
    assert np.array_equal(index, want[accepted])
    assert not kept.flags.writeable and not index.flags.writeable


@pytest.mark.parametrize("name", list(_named_rules()))
def test_the_readout_table_is_the_rule_readout_of_the_basis(name):
    m, rule = _named_rules()[name]
    for n in (2, 3, 6, 7) if m == 12 else range(5):
        assert_table_matches_readout(rule, m, n)
    kept, index = qubits._readout_table(rule, m, 6 if m == 12 else 2)
    assert len(kept) > 0
    with pytest.raises(ValueError, match="read-only"):
        kept[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        index[0] = 0


@settings(max_examples=40, deadline=None)
@given(drawn=rules(), n=st.integers(0, 4))
def test_the_readout_table_of_a_drawn_rule_is_its_readout(drawn, n):
    m, rule = drawn
    assert_table_matches_readout(rule, m, n)


def test_a_rule_built_from_lists_reads_its_tuple_rules_table():
    _, heralds, _ = ghz_factory()
    tupled = ghz_postselection(heralds, 1, threshold=True)
    listed = PostselectionRule(
        [list(pair) for pair in tupled.qubit_pairs],
        heralds=[[list(spec) for spec in pattern] for pattern in tupled.heralds],
        threshold=True,
    )
    qubits._readout_table.cache_clear()
    table = qubits._readout_table(tupled, 12, 6)
    assert qubits._readout_table(listed, 12, 6) is table
    info = qubits._readout_table.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_a_multi_sector_readout_sums_its_accepted_rows_in_one_bincount_in_sector_order():
    # a threshold rule with no vacuum modes accepts rows of several photon numbers
    rule = PostselectionRule(((1, 2), (4, 3)), threshold=True)
    source = SourceModel(indistinguishability=0.9, g2=0.05)
    unitary = ModeUnitary.haar_random(6, np.random.default_rng(5))
    dist = noisy_simulate(unitary, build_input(2, source, modes=(1, 4)))
    rows, values = dist.outcomes()
    accepted, index = rule.readout(rows)
    assert len(np.unique(rows[accepted].sum(axis=1))) == 3
    raw = np.bincount(index[accepted], weights=values[accepted], minlength=4)
    probs, weight = logical_distribution(dist, rule)
    assert weight == raw.sum()
    assert np.array_equal(probs.ravel(), raw / raw.sum())
