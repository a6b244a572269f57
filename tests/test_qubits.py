"""Tests for dual-rail qubit compilation, postselection and the GHZ factory."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import pauli_matrix, postselect_by_state, rail_amplitudes_slos
from lopsim import fock, qubits
from lopsim.fock import FockState, ModeUnitary, output_amplitude, strong_simulate
from lopsim.mesh import PhotonicCircuit, two_mode_gate_elements
from lopsim.qubits import (
    CNOT_SUCCESS,
    GHZ_HERALD_MODES,
    GHZ_INPUT_MODES,
    GHZ_MEASUREMENT_SETTINGS,
    TOFFOLI_SUCCESS,
    CompilationError,
    Gate,
    GateCircuit,
    GateCompiler,
    HeraldPattern,
    PostselectionRule,
    QubitEncoding,
    compile_gate_circuit,
    encoding_input_state,
    ghz_factory,
    ghz_fidelity,
    ghz_input_state,
    ghz_noisy_fidelity,
    ghz_postselection,
    logical_distribution,
    logical_distributions,
    logical_matrix,
    pauli_measurement_setting,
)
from lopsim.sources import SourceModel

RNG = np.random.default_rng(1234)

CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
TOFFOLI_MATRIX = np.eye(8, dtype=complex)
TOFFOLI_MATRIX[6:, 6:] = np.array([[0, 1], [1, 0]])


def random_state(n_qubits, rng):
    vec = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return vec / np.linalg.norm(vec)


def pauli_readout(unitary, input_modes, rule, word):
    """Pauli expectation read from the one batched dual-rail readout."""
    logical = logical_distributions(unitary.matrix[None], input_modes, rule)[0]
    return float(qubits._pauli_signs(word) @ logical)


def haar_2x2(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_single_gates(n_qubits, count, rng):
    gates = []
    for _ in range(count):
        name = str(rng.choice(["H", "T", "RX", "RY", "RZ"]))
        angle = float(rng.uniform(-np.pi, np.pi)) if name.startswith("R") else None
        gates.append(Gate(name, (int(rng.integers(n_qubits)),), angle))
    return gates


def random_gate_circuit(n_qubits, rng):
    """Single-qubit layers around the entangling gates the default budget allows."""
    order = tuple(int(q) for q in rng.permutation(n_qubits))
    if n_qubits == 1:
        entangling = []
    elif n_qubits == 2:
        entangling = [Gate("CNOT", order)]
    elif rng.random() < 0.5:
        entangling = [Gate("TOFFOLI", order)]
    else:
        entangling = [Gate("CNOT", (0, 1)), Gate("CNOT", (1, 2))]
    gates = random_single_gates(n_qubits, 3, rng)
    for gate in entangling:
        gates += [gate, *random_single_gates(n_qubits, 2, rng)]
    return GateCircuit(n_qubits, tuple(gates))


def kron_logical_unitary(gc):
    """Gate-list product with every gate embedded as a full 2^n matrix."""
    n = gc.n_qubits
    dim = 1 << n
    total = np.eye(dim, dtype=complex)
    for gate in gc.gates:
        if gate.name in ("CNOT", "TOFFOLI"):
            full = np.zeros((dim, dim), dtype=complex)
            *controls, target = gate.qubits
            for col in range(dim):
                bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
                if all(bits[c] for c in controls):
                    bits[target] ^= 1
                full[int("".join(map(str, bits)), 2), col] = 1.0
        else:
            single = GateCircuit(1, (Gate(gate.name, (0,), gate.angle),)).logical_unitary()
            full = np.ones((1, 1))
            for q in range(n):
                full = np.kron(full, single if q == gate.qubits[0] else np.eye(2))
        total = full @ total
    return total


def compiled_matrix_and_scale(gc, enc=None):
    circuit, rule, success, _ = compile_gate_circuit(gc, enc)
    enc = enc or QubitEncoding.default(gc.n_qubits)
    mat = logical_matrix(circuit, enc)
    target = gc.logical_unitary()
    anchor = np.unravel_index(np.argmax(np.abs(target)), target.shape)
    scale = mat[anchor] / target[anchor]
    return mat, target, scale, success


class TestQubitEncoding:
    def test_default_layouts(self):
        one = QubitEncoding.default(1)
        assert one.qubit_pairs == ((0, 1),) and one.n_modes == 2
        two = QubitEncoding.default(2)
        assert two.qubit_pairs == ((1, 2), (4, 3))
        assert two.ancilla_modes == (0, 5) and two.n_modes == 6
        three = QubitEncoding.default(3)
        assert three.n_modes == 12 and len(three.ancilla_modes) == 6

    def test_no_default_above_three(self):
        with pytest.raises(CompilationError):
            QubitEncoding.default(4)

    def test_rail_accessor(self):
        enc = QubitEncoding.default(2)
        assert enc.rail(0, 0) == 1 and enc.rail(0, 1) == 2
        assert enc.rail(1, 0) == 4 and enc.rail(1, 1) == 3

    def test_overlapping_modes_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            QubitEncoding(((0, 1), (1, 2)), (), 4)
        with pytest.raises(ValueError, match="disjoint"):
            QubitEncoding(((0, 1),), (1,), 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            QubitEncoding(((0, 5),), (), 2)

    def test_n_modes_inferred(self):
        enc = QubitEncoding(((0, 1),), (2,))
        assert enc.n_modes == 3


class TestGateValidation:
    def test_unknown_gate(self):
        with pytest.raises(ValueError, match="unknown gate"):
            Gate("SWAP", (0, 1))

    def test_arity_checked(self):
        with pytest.raises(ValueError, match="takes"):
            Gate("CNOT", (0,))

    def test_duplicate_targets(self):
        with pytest.raises(ValueError, match="distinct"):
            Gate("CNOT", (1, 1))

    def test_rotation_needs_angle(self):
        with pytest.raises(ValueError, match="needs an angle"):
            Gate("RX", (0,))

    def test_fixed_gate_takes_no_angle(self):
        with pytest.raises(ValueError, match="no angle"):
            Gate("H", (0,), 0.3)

    def test_case_normalization(self):
        assert Gate("cnot", (0, 1)).name == "CNOT"

    def test_circuit_target_range(self):
        with pytest.raises(ValueError, match="out of range"):
            GateCircuit(1, (Gate("CNOT", (0, 1)),))

    def test_circuit_qubit_count_range(self):
        with pytest.raises(ValueError, match="1..3"):
            GateCircuit(4)

    def test_measurement_word_checked(self):
        with pytest.raises(ValueError, match="bad measurement"):
            GateCircuit(2, (), "XQ")
        with pytest.raises(ValueError, match="bad measurement"):
            GateCircuit(2, (), "X")


class TestTextFormat:
    def test_parse_example_lines(self):
        gc = GateCircuit.from_text("CNOT 0 1\nRY 0 0.7853981634\n")
        assert gc.n_qubits == 2
        assert gc.gates[0] == Gate("CNOT", (0, 1))
        assert gc.gates[1].name == "RY"
        assert gc.gates[1].angle == pytest.approx(np.pi / 4)

    def test_comments_blanks_and_case(self):
        text = "# prepare\n\nh 0\n  toffoli 0 1 2  \nmeasure zzz\n"
        gc = GateCircuit.from_text(text)
        assert [g.name for g in gc.gates] == ["H", "TOFFOLI"]
        assert gc.measurement == "ZZZ" and gc.n_qubits == 3

    def test_round_trip(self):
        gc = GateCircuit(
            2,
            (Gate("H", (0,)), Gate("RZ", (1,), 1.25), Gate("CNOT", (0, 1))),
            "XY",
        )
        assert GateCircuit.from_text(gc.to_text()) == gc

    def test_qubit_count_from_measurement(self):
        gc = GateCircuit.from_text("H 0\nMEASURE ZZ")
        assert gc.n_qubits == 2

    def test_explicit_qubit_count(self):
        gc = GateCircuit.from_text("H 0", n_qubits=3)
        assert gc.n_qubits == 3

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ValueError, match="line 2"):
            GateCircuit.from_text("H 0\nFOO 1\n")
        with pytest.raises(ValueError, match="wrong number of fields"):
            GateCircuit.from_text("RX 0\n")
        with pytest.raises(ValueError, match="duplicate MEASURE"):
            GateCircuit.from_text("MEASURE Z\nMEASURE X\n")


class TestLogicalUnitary:
    def test_single_gates_embed(self):
        gc = GateCircuit(2, (Gate("H", (1,)),))
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.allclose(gc.logical_unitary(), np.kron(np.eye(2), h))

    def test_cnot_and_toffoli_matrices(self):
        assert np.allclose(
            GateCircuit(2, (Gate("CNOT", (0, 1)),)).logical_unitary(), CNOT_MATRIX
        )
        assert np.allclose(
            GateCircuit(3, (Gate("TOFFOLI", (0, 1, 2)),)).logical_unitary(),
            TOFFOLI_MATRIX,
        )

    def test_reversed_control_target(self):
        u = GateCircuit(2, (Gate("CNOT", (1, 0)),)).logical_unitary()
        expected = np.array(
            [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
        )
        assert np.allclose(u, expected)

    def test_gate_order_is_left_to_right(self):
        gc = GateCircuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1))))
        bell = gc.logical_unitary()[:, 0]
        assert np.allclose(bell, np.array([1, 0, 0, 1]) / np.sqrt(2))

    @pytest.mark.parametrize("n_qubits", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_kron_product(self, n_qubits, seed):
        rng = np.random.default_rng([n_qubits, seed])
        gc = random_gate_circuit(n_qubits, rng)
        gc = GateCircuit(n_qubits, gc.gates + tuple(random_single_gates(n_qubits, 4, rng)))
        assert np.allclose(gc.logical_unitary(), kron_logical_unitary(gc), rtol=0, atol=1e-14)


class TestLogicalMatrix:
    @pytest.mark.parametrize("n_qubits", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_entry_amplitudes(self, n_qubits, seed):
        gc = random_gate_circuit(n_qubits, np.random.default_rng([seed, n_qubits]))
        enc = QubitEncoding.default(n_qubits)
        circuit, _, _, _ = compile_gate_circuit(gc, enc)
        unitary = circuit.unitary()
        states = [encoding_input_state(enc, bits) for bits in np.ndindex((2,) * n_qubits)]
        expected = np.array(
            [[output_amplitude(unitary, col, row) for col in states] for row in states]
        )
        assert np.allclose(logical_matrix(circuit, enc), expected, rtol=0, atol=1e-12)


class TestSingleQubitCompilation:
    @pytest.mark.parametrize(
        "gate",
        [
            Gate("H", (0,)),
            Gate("T", (0,)),
            Gate("RX", (0,), 0.83),
            Gate("RY", (0,), -1.91),
            Gate("RZ", (0,), 2.43),
        ],
    )
    def test_exact_and_deterministic(self, gate):
        gc = GateCircuit(1, (gate,))
        mat, target, scale, success = compiled_matrix_and_scale(gc)
        assert success == 1.0
        assert abs(abs(scale) - 1.0) < 1e-12
        assert np.max(np.abs(mat - scale * target)) < 1e-12

    def test_t_gate_on_plus_state(self):
        gc = GateCircuit.from_text("H 0\nT 0")
        circuit, rule, success, _ = compile_gate_circuit(gc)
        assert success == 1.0
        mat = logical_matrix(circuit, QubitEncoding.default(1))
        column = mat[:, 0] / mat[0, 0] * abs(mat[0, 0])
        expected = np.array([1.0, np.exp(1j * np.pi / 4)]) / np.sqrt(2)
        assert np.max(np.abs(column - expected)) < 1e-12

    def test_empty_circuit_is_identity(self):
        mat, target, scale, success = compiled_matrix_and_scale(GateCircuit(1))
        assert np.allclose(mat, np.eye(2))
        assert success == 1.0


class TestCnotCompilation:
    def test_logical_action_and_success(self):
        gc = GateCircuit(2, (Gate("CNOT", (0, 1)),))
        mat, target, scale, success = compiled_matrix_and_scale(gc)
        assert success == pytest.approx(CNOT_SUCCESS, abs=1e-15)
        assert abs(abs(scale) ** 2 - CNOT_SUCCESS) < 1e-12
        assert np.max(np.abs(mat - scale * target)) < 1e-12

    def test_flipped_orientation(self):
        gc = GateCircuit(2, (Gate("CNOT", (1, 0)),))
        mat, target, scale, _ = compiled_matrix_and_scale(gc)
        assert np.max(np.abs(mat - scale * target)) < 1e-12

    def test_one_zero_maps_to_one_one(self):
        gc = GateCircuit(2, (Gate("CNOT", (0, 1)),))
        circuit, rule, _, _ = compile_gate_circuit(gc)
        enc = QubitEncoding.default(2)
        dist = strong_simulate(circuit.unitary(), encoding_input_state(enc, (1, 0)))
        logical, weight = logical_distribution(dist, rule)
        assert logical[(1, 1)] == pytest.approx(1.0, abs=1e-12)
        assert weight == pytest.approx(CNOT_SUCCESS, abs=1e-12)

    def test_success_is_input_independent(self):
        gc = GateCircuit(2, (Gate("CNOT", (0, 1)),))
        circuit, _, _, _ = compile_gate_circuit(gc)
        enc = QubitEncoding.default(2)
        weights = []
        for _ in range(20):
            prep = [haar_2x2(RNG), haar_2x2(RNG)]
            prepped = PhotonicCircuit(enc.n_modes)
            for q, u in enumerate(prep):
                prepped.extend(two_mode_gate_elements(u, *enc.qubit_pairs[q]))
            prepped.extend(circuit.elements)
            mat = logical_matrix(prepped, enc)
            weights.append(np.sum(np.abs(mat[:, 0]) ** 2))
        assert np.max(np.abs(np.array(weights) - CNOT_SUCCESS)) < 1e-9

    def test_random_product_inputs_follow_the_gate(self):
        gc = GateCircuit(2, (Gate("CNOT", (0, 1)),))
        circuit, _, _, _ = compile_gate_circuit(gc)
        enc = QubitEncoding.default(2)
        for _ in range(20):
            u_a, u_b = haar_2x2(RNG), haar_2x2(RNG)
            prepped = PhotonicCircuit(enc.n_modes)
            prepped.extend(two_mode_gate_elements(u_a, *enc.qubit_pairs[0]))
            prepped.extend(two_mode_gate_elements(u_b, *enc.qubit_pairs[1]))
            prepped.extend(circuit.elements)
            amps = logical_matrix(prepped, enc)[:, 0]
            expected = CNOT_MATRIX @ np.kron(u_a[:, 0], u_b[:, 0])
            scale = amps[np.argmax(np.abs(expected))] / expected[
                np.argmax(np.abs(expected))
            ]
            assert np.max(np.abs(amps - scale * expected)) < 1e-9

    def test_ancilla_budget(self):
        gc = GateCircuit(2, (Gate("CNOT", (0, 1)), Gate("CNOT", (0, 1))))
        with pytest.raises(CompilationError, match="mode budget"):
            compile_gate_circuit(gc)

    def test_repeated_cnots_on_one_pair_do_not_compose(self):
        # photon-number imbalance created by the first gate can be pushed
        # back into the one-per-pair sector by the second gate's central
        # coupler, so terminal postselection no longer yields the gate
        # product; the compiler verifies this and refuses
        enc = QubitEncoding(((1, 2), (4, 3)), (0, 5, 6, 7), 8)
        gc = GateCircuit(2, (Gate("CNOT", (0, 1)), Gate("CNOT", (0, 1))))
        with pytest.raises(CompilationError, match="deviates"):
            compile_gate_circuit(gc, enc)

    def test_chained_cnots_on_distinct_pairs_compose(self):
        # a gate never changes the photon count of an untouched pair, so
        # imbalanced terms stay imbalanced and die in the postselection
        gc = GateCircuit(3, (Gate("CNOT", (0, 1)), Gate("CNOT", (1, 2))))
        mat, target, scale, success = compiled_matrix_and_scale(gc)
        assert success == pytest.approx(CNOT_SUCCESS**2)
        assert abs(abs(scale) ** 2 - CNOT_SUCCESS**2) < 1e-12
        assert np.max(np.abs(mat - scale * target)) < 1e-12

    def test_encoding_mismatch(self):
        gc = GateCircuit(2, (Gate("CNOT", (0, 1)),))
        with pytest.raises(CompilationError, match="encoding"):
            compile_gate_circuit(gc, QubitEncoding.default(1))


class TestToffoliCompilation:
    def test_logical_action_and_success(self):
        gc = GateCircuit(3, (Gate("TOFFOLI", (0, 1, 2)),))
        mat, target, scale, success = compiled_matrix_and_scale(gc)
        assert success == pytest.approx(TOFFOLI_SUCCESS, abs=1e-15)
        assert abs(abs(scale) ** 2 - TOFFOLI_SUCCESS) < 1e-12
        assert np.max(np.abs(mat - scale * target)) < 1e-11

    def test_one_one_zero_flips_target(self):
        gc = GateCircuit(3, (Gate("TOFFOLI", (0, 1, 2)),))
        circuit, rule, _, _ = compile_gate_circuit(gc)
        enc = QubitEncoding.default(3)
        dist = strong_simulate(circuit.unitary(), encoding_input_state(enc, (1, 1, 0)))
        logical, weight = logical_distribution(dist, rule)
        assert logical[(1, 1, 1)] == pytest.approx(1.0, abs=1e-12)
        assert weight == pytest.approx(TOFFOLI_SUCCESS, rel=1e-9)

    def test_toffoli_success_scale(self):
        assert TOFFOLI_SUCCESS == pytest.approx((2 ** (1 / 3) - 1) ** 3)
        assert 0.017 < TOFFOLI_SUCCESS < 0.018

    def test_surrounding_single_qubit_gates_stay_exact(self):
        gc = GateCircuit(
            3,
            (Gate("H", (0,)), Gate("TOFFOLI", (0, 1, 2)), Gate("RY", (2,), 0.4)),
        )
        mat, target, scale, success = compiled_matrix_and_scale(gc)
        assert success == pytest.approx(TOFFOLI_SUCCESS)
        assert np.max(np.abs(mat - scale * target)) < 1e-11

    def test_toffoli_then_cnot_does_not_compose(self):
        # the three-rail contraction leaves imbalanced terms on every pair,
        # so any following entangling gate reopens a leak-back channel
        gc = GateCircuit(3, (Gate("TOFFOLI", (0, 1, 2)), Gate("CNOT", (0, 1))))
        with pytest.raises(CompilationError, match="deviates"):
            compile_gate_circuit(gc)

    def test_two_toffolis_exceed_the_budget(self):
        gc = GateCircuit(3, (Gate("TOFFOLI", (0, 1, 2)), Gate("TOFFOLI", (0, 1, 2))))
        with pytest.raises(CompilationError, match="mode budget"):
            compile_gate_circuit(gc)


@pytest.mark.parametrize(
    "text",
    ["T 0", "H 0\nMEASURE X", "RY 0 0.4\nCNOT 0 1\nRX 1 1.1", "CNOT 1 0\nMEASURE YX",
     "TOFFOLI 0 1 2", "H 2\nTOFFOLI 0 1 2\nMEASURE XZY"],
)
def test_compile_returns_the_circuit_unitary(text):
    circuit, _, _, unitary = compile_gate_circuit(GateCircuit.from_text(text))
    assert np.array_equal(unitary.matrix, circuit.unitary().matrix)


def test_compile_check_reports_a_wrong_success_weight(monkeypatch):
    # the logical action is right, only the expected weight is not
    monkeypatch.setattr(qubits, "CNOT_SUCCESS", 0.2)
    gc = GateCircuit(2, (Gate("CNOT", (0, 1)),))
    message = r"deviates from .* success weight 0.111111 against the expected 0.2"
    with pytest.raises(CompilationError, match=message):
        compile_gate_circuit(gc)


_ANGLES = st.sampled_from([0.0, -0.0, np.pi, -np.pi / 2]) | st.floats(
    -2.0 * np.pi, 2.0 * np.pi, allow_nan=False
)


@st.composite
def _gates(draw, n_qubits):
    names = ["T", "H", "RX", "RY", "RZ", "CNOT", "TOFFOLI"][: 5 + min(n_qubits - 1, 2)]
    name = draw(st.sampled_from(names))
    targets = draw(st.permutations(range(n_qubits)))[: {"CNOT": 2, "TOFFOLI": 3}.get(name, 1)]
    angle = draw(_ANGLES) if name.startswith("R") else None
    return Gate(name, tuple(targets), angle)


@st.composite
def _circuit_sequences(draw):
    """Circuits on one qubit count, each keeping a random prefix of the last."""
    n = draw(st.integers(1, 3))
    circuits, gates = [], ()
    for _ in range(draw(st.integers(2, 5))):
        gates = gates[: draw(st.integers(0, len(gates)))] + tuple(
            draw(st.lists(_gates(n), max_size=4))
        )
        word = draw(st.none() | st.text("IXYZ", min_size=n, max_size=n))
        circuits.append(GateCircuit(n, gates, word))
    return circuits


def _compile_or_error(compile, gc):
    try:
        return compile(gc)
    except CompilationError as exc:
        return str(exc)


@settings(max_examples=40, deadline=None)
@given(_circuit_sequences())
def test_gate_compiler_matches_a_fresh_compile(circuits):
    compiler = GateCompiler(QubitEncoding.default(circuits[0].n_qubits))
    for gc in circuits:
        got = _compile_or_error(compiler.compile, gc)
        want = _compile_or_error(compile_gate_circuit, gc)
        if isinstance(want, str):
            assert got == want
            continue
        circuit, rule, success, unitary = got
        assert circuit.elements == want[0].elements
        assert (rule, success) == (want[1], want[2])
        assert np.array_equal(unitary.matrix, want[3].matrix)
        assert unitary.matrix.tobytes() == circuit.unitary().matrix.tobytes()


def test_gate_compiler_recovers_after_an_exhausted_pool():
    enc = QubitEncoding.default(2)
    compiler = GateCompiler(enc)
    prefix = (Gate("RY", (0,), 0.3), Gate("CNOT", (0, 1)))
    compiler.compile(GateCircuit(2, prefix))
    with pytest.raises(CompilationError, match="mode budget"):
        compiler.compile(GateCircuit(2, prefix + (Gate("CNOT", (1, 0)),)))
    after = GateCircuit(2, prefix + (Gate("RX", (1,), 0.7),), "XZ")
    got, want = compiler.compile(after), compile_gate_circuit(after, enc)
    assert got[0].elements == want[0].elements
    assert np.array_equal(got[3].matrix, want[3].matrix)


def test_gate_compiler_decomposes_only_the_changed_tail(monkeypatch):
    calls = []

    def counted(v, mode_a, mode_b):
        calls.append((mode_a, mode_b))
        return two_mode_gate_elements(v, mode_a, mode_b)

    monkeypatch.setattr(qubits, "two_mode_gate_elements", counted)
    compiler = GateCompiler(QubitEncoding.default(2))
    gates = [
        Gate("RY", (0,), 0.1), Gate("CNOT", (0, 1)), Gate("RX", (1,), 0.2),
        Gate("RZ", (0,), 0.3), Gate("H", (0,)),
    ]
    compiler.compile(GateCircuit(2, tuple(gates)))
    assert len(calls) == 6  # RY, the CNOT's two Hadamards, RX, RZ, H
    gates[2] = Gate("RX", (1,), 0.25)
    compiler.compile(GateCircuit(2, tuple(gates)))
    assert len(calls) == 7  # only the new RX; the RZ and H after it are reused


def test_gate_compiler_keeps_only_the_last_circuits_rotations():
    compiler = GateCompiler(QubitEncoding.default(2))
    for i in range(50):
        gc = GateCircuit(
            2, (Gate("RY", (0,), 0.01 * i), Gate("CNOT", (0, 1)), Gate("RZ", (1,), -0.02 * i))
        )
        compiler.compile(gc)
    assert set(compiler._rotations) == {gc.gates[0], gc.gates[2]}


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
def test_rail_amplitudes_match_the_slos_oracle(n_qubits):
    enc = QubitEncoding.default(n_qubits)
    for seed in range(4):
        u = ModeUnitary.haar_random(enc.n_modes, np.random.default_rng([n_qubits, seed])).matrix
        got, want = qubits._rail_amplitudes(u, enc), rail_amplitudes_slos(u, enc)
        assert got.shape == want.shape == (1 << n_qubits, 1 << n_qubits)
        assert np.max(np.abs(got - want)) <= 1e-13


def test_compile_check_catches_a_dropped_coupler(monkeypatch):
    cnot_elements = qubits._cnot_elements

    def without_one_coupler(*args):
        elements = cnot_elements(*args)
        couplers = [e for e in elements if getattr(e, "reflectivity", None) == 1.0 / 3.0]
        elements.remove(couplers[1])
        return elements

    monkeypatch.setattr(qubits, "_cnot_elements", without_one_coupler)
    with pytest.raises(CompilationError, match="deviates from"):
        compile_gate_circuit(GateCircuit(2, (Gate("CNOT", (0, 1)),)))


def test_compile_check_runs_no_slos_pass(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return fock.batched_amplitudes(*args)

    monkeypatch.setattr(qubits, "batched_amplitudes", counted)
    compile_gate_circuit(GateCircuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1)))))
    assert calls == []


def read(rule, *rows):
    """Logical index of each occupation row through ``rule.readout``, None if rejected."""
    accepted, index = rule.readout(np.array(rows))
    return [int(i) if ok else None for ok, i in zip(accepted, index)]


class TestPostselectionRule:
    def test_exact_counts_required(self):
        rule = PostselectionRule(((0, 1), (2, 3)), vacuum_modes=(4,))
        rows = [(1, 0, 0, 1, 0), (1, 1, 0, 1, 0), (2, 0, 0, 1, 0), (1, 0, 0, 1, 1)]
        assert read(rule, *rows) == [0b01, None, None, None]

    def test_threshold_mode_merges_multi_photon(self):
        rule = PostselectionRule(((0, 1),), threshold=True)
        assert read(rule, (2, 0), (1, 1), (0, 0)) == [0, None, None]
        exact = replace(rule, threshold=False)
        assert read(exact, (2, 0)) == [None]

    def test_herald_patterns_are_alternatives(self):
        rule = PostselectionRule(
            ((0, 1),), heralds=(((2, 1), (3, 0)), ((2, 0), (3, 1)))
        )
        accepted, _ = rule.readout(
            np.array([(1, 0, 1, 0), (0, 1, 0, 1), (1, 0, 1, 1), (1, 0, 0, 0)])
        )
        assert accepted.tolist() == [True, True, False, False]

    def test_threshold_heralds_use_clicks(self):
        rule = PostselectionRule(
            ((0, 1),), heralds=(((2, 1), (3, 0)),), threshold=True
        )
        accepted, _ = rule.readout(np.array([(1, 0, 2, 0), (1, 0, 0, 0)]))
        assert accepted.tolist() == [True, False]

    def test_empty_distribution_raises(self):
        rule = PostselectionRule(((0, 1),), vacuum_modes=(2,))
        dist = {FockState((0, 0, 2)): 1.0}
        with pytest.raises(ValueError, match="postselection"):
            logical_distribution(dist, rule)


class TestPauliMeasurement:
    def test_z_and_identity_words_add_nothing(self):
        enc = QubitEncoding.default(2)
        assert pauli_measurement_setting("ZI", enc).elements == []

    def test_word_validation(self):
        enc = QubitEncoding.default(2)
        with pytest.raises(ValueError, match="does not match"):
            pauli_measurement_setting("Z", enc)
        with pytest.raises(ValueError, match="bad Pauli"):
            pauli_measurement_setting("ZQ", enc)

    def test_rotations_diagonalize_the_word(self):
        enc = QubitEncoding.default(1)
        for letter in "XY":
            circuit = pauli_measurement_setting(letter, enc)
            u = circuit.unitary().matrix[:2, :2]
            rotated = u @ pauli_matrix(letter) @ u.conj().T
            assert np.max(np.abs(rotated - pauli_matrix("Z"))) < 1e-12

    def test_x_on_plus_state(self):
        gc = GateCircuit(1, (Gate("H", (0,)),), measurement="X")
        circuit, rule, _, _ = compile_gate_circuit(gc)
        modes = encoding_input_state(QubitEncoding.default(1)).modes()
        assert pauli_readout(circuit.unitary(), modes, rule, "X") == pytest.approx(
            1.0, abs=1e-12
        )

    def test_y_on_circular_state(self):
        gc = GateCircuit(
            1, (Gate("H", (0,)), Gate("RZ", (0,), np.pi / 2)), measurement="Y"
        )
        circuit, rule, _, _ = compile_gate_circuit(gc)
        modes = encoding_input_state(QubitEncoding.default(1)).modes()
        assert pauli_readout(circuit.unitary(), modes, rule, "Y") == pytest.approx(
            1.0, abs=1e-12
        )

    def test_bell_state_correlations(self):
        enc = QubitEncoding.default(2)
        base = GateCircuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1))))
        expected = {"ZZ": 1.0, "XX": 1.0, "YY": -1.0, "ZI": 0.0, "IZ": 0.0}
        for word, value in expected.items():
            gc = GateCircuit(2, base.gates, measurement=word)
            circuit, rule, _, _ = compile_gate_circuit(gc)
            modes = encoding_input_state(enc).modes()
            assert pauli_readout(circuit.unitary(), modes, rule, word) == pytest.approx(
                value, abs=1e-12
            )


@pytest.fixture(scope="module")
def factory():
    circuit, heralds, encoding = ghz_factory()
    return circuit, heralds, encoding, circuit.unitary()


class TestGhzFactory:
    def herald_amplitudes(self, unitary, herald):
        """Qubit-basis amplitudes conditioned on one herald pattern."""
        occ = dict(herald.occupations)
        inp = ghz_input_state()
        amps = np.zeros(8, dtype=complex)
        pairs = ((0, 1), (5, 6), (10, 11))
        for index in range(8):
            bits = [(index >> (2 - q)) & 1 for q in range(3)]
            modes = [pairs[q][bits[q]] for q in range(3)]
            modes += [mode for mode, count in herald.occupations if count]
            state = FockState.from_modes(12, tuple(sorted(modes)))
            amps[index] = output_amplitude(unitary, inp, state)
        return amps

    def test_shape_of_the_return(self, factory):
        circuit, heralds, encoding, _ = factory
        assert circuit.m == 12
        assert len(heralds) == 8
        assert encoding.qubit_pairs == ((0, 1), (5, 6), (10, 11))
        assert [h.name for h in heralds] == [f"h{i}" for i in range(1, 9)]

    def test_input_state(self):
        assert tuple(ghz_input_state().modes()) == GHZ_INPUT_MODES
        assert ghz_input_state().m == 12

    def test_plus_heralds_match_the_published_patterns(self, factory):
        _, heralds, _, _ = factory
        byname = {h.name: h for h in heralds}
        assert dict(byname["h2"].occupations) == {2: 0, 3: 1, 4: 0, 7: 1, 8: 1, 9: 0}
        assert dict(byname["h3"].occupations) == {2: 1, 3: 0, 4: 0, 7: 1, 8: 0, 9: 1}
        assert dict(byname["h5"].occupations) == {2: 1, 3: 0, 4: 1, 7: 0, 8: 1, 9: 0}
        assert dict(byname["h8"].occupations) == {2: 0, 3: 1, 4: 1, 7: 0, 8: 0, 9: 1}
        for name in ("h2", "h3", "h5", "h8"):
            assert byname[name].sign == 1
        for name in ("h1", "h4", "h6", "h7"):
            assert byname[name].sign == -1

    def test_each_herald_flags_its_ghz_state(self, factory):
        _, heralds, _, unitary = factory
        for herald in heralds:
            amps = self.herald_amplitudes(unitary, herald)
            assert np.max(np.abs(amps[1:7])) < 1e-12
            expected = 1.0 / (16.0 * np.sqrt(2.0))
            assert abs(amps[0]) == pytest.approx(expected, abs=1e-12)
            ratio = amps[7] / amps[0]
            assert ratio == pytest.approx(herald.sign, abs=1e-12)

    def test_herald_probabilities(self, factory):
        _, heralds, _, unitary = factory
        probs = [
            np.sum(np.abs(self.herald_amplitudes(unitary, h)) ** 2) for h in heralds
        ]
        assert np.max(np.abs(np.array(probs) - 1.0 / 256.0)) < 1e-12
        plus = sum(p for h, p in zip(heralds, probs) if h.sign == 1)
        assert plus == pytest.approx(1.0 / 64.0, abs=1e-9)

    def test_pooled_postselection_rule(self, factory):
        circuit, heralds, _, unitary = factory
        rule = ghz_postselection(heralds, sign=1)
        assert len(rule.heralds) == 4
        dist = strong_simulate(unitary, ghz_input_state())
        logical, weight = logical_distribution(dist, rule)
        assert weight == pytest.approx(1.0 / 64.0, abs=1e-12)
        assert logical[(0, 0, 0)] == pytest.approx(0.5, abs=1e-12)
        assert logical[(1, 1, 1)] == pytest.approx(0.5, abs=1e-12)
        with pytest.raises(ValueError, match="sign"):
            ghz_postselection(heralds, sign=0)

    def test_noiseless_stabilizers_are_signed_units(self):
        fidelity, expectations = ghz_noisy_fidelity(None)
        _, perfect_source = ghz_noisy_fidelity(SourceModel())
        signs = {
            "III": 1,
            "XXX": 1,
            "ZZI": 1,
            "IZZ": 1,
            "ZIZ": 1,
            "YYX": -1,
            "XYY": -1,
            "YXY": -1,
        }
        for word, sign in signs.items():
            assert expectations[word] == pytest.approx(sign, abs=1e-9), word
            assert expectations[word] == pytest.approx(perfect_source[word], abs=1e-12), word
        assert fidelity == pytest.approx(1.0, abs=1e-12)
        assert ghz_fidelity(expectations) == fidelity

    def test_expectations_match_density_matrix_traces(self, factory):
        _, heralds, _, unitary = factory
        herald = next(h for h in heralds if h.name == "h2")
        amps = self.herald_amplitudes(unitary, herald)
        state = amps / np.linalg.norm(amps)
        rho = np.outer(state, state.conj())
        for word in ("XXX", "ZZI", "IZZ", "ZIZ", "YYX", "XYY", "YXY"):
            direct = float(np.real(np.trace(pauli_matrix(word) @ rho)))
            setting = "ZZZ" if set(word) <= {"Z", "I"} else word
            circuit, _, encoding = ghz_factory()
            run = PhotonicCircuit(12).extend(circuit.elements)
            run.extend(pauli_measurement_setting(setting, encoding).elements)
            measured = pauli_readout(run.unitary(), GHZ_INPUT_MODES, herald.rule(), word)
            assert measured == pytest.approx(direct, abs=1e-9), word

    def test_z_marginals_equal_per_word_readouts(self, factory):
        _, heralds, _, _ = factory
        rule = ghz_postselection(heralds, sign=1, threshold=True)
        rng = np.random.default_rng(77)
        unitaries = {
            word: ModeUnitary.haar_random(12, rng) for word in GHZ_MEASUREMENT_SETTINGS
        }
        stack = np.array([u.matrix for u in unitaries.values()])
        rows = logical_distributions(stack, GHZ_INPUT_MODES, rule)
        expectations = qubits._ghz_expectations(dict(zip(unitaries, rows)))
        assert len(expectations) == 8 and expectations["III"] == 1.0
        for word, value in expectations.items():
            setting = "ZZZ" if set(word) <= {"Z", "I"} else word
            if word != "III":
                probs, _ = postselect_by_state(
                    strong_simulate(unitaries[setting], ghz_input_state()), rule
                )
                expected = sum(
                    p * (-1) ** sum(bit for bit, c in zip(bits, word) if c != "I")
                    for bits, p in probs.items()
                )
                assert value == pytest.approx(expected, abs=1e-14), word
        assert 0.01 < abs(expectations["ZZI"]) < 0.99


class TestGhzFidelity:
    def test_perfect_expectations(self):
        expectations = {
            "III": 1.0,
            "XXX": 1.0,
            "ZZI": 1.0,
            "IZZ": 1.0,
            "ZIZ": 1.0,
            "YYX": -1.0,
            "XYY": -1.0,
            "YXY": -1.0,
        }
        assert ghz_fidelity(expectations) == pytest.approx(1.0)

    def test_maximally_mixed_state(self):
        expectations = dict.fromkeys(
            ("XXX", "ZZI", "IZZ", "ZIZ", "YYX", "XYY", "YXY"), 0.0
        )
        expectations["III"] = 1.0
        assert ghz_fidelity(expectations) == pytest.approx(1.0 / 8.0)

    def test_missing_stabilizer(self):
        with pytest.raises(ValueError, match="missing stabilizer"):
            ghz_fidelity({"III": 1.0})


class TestNoisyGhz:
    def test_fidelity_with_the_fitted_source(self):
        source = SourceModel(
            indistinguishability=(0.95786, 0.96488, 0.95943, 0.97008, 0.96274, 0.9638),
            g2=0.0075,
        )
        fidelity, expectations = ghz_noisy_fidelity(source)
        assert 0.76 <= fidelity <= 0.88
        assert fidelity == pytest.approx(0.839, abs=2e-3)
        # coherence-type stabilizers degrade with the six-photon overlap
        # product, parity-type ones much less
        assert expectations["XXX"] == pytest.approx(0.7194, abs=2e-3)
        assert expectations["ZZI"] > 0.9

    def test_perfect_source_recovers_unity(self):
        fidelity, _ = ghz_noisy_fidelity(SourceModel())
        assert fidelity == pytest.approx(1.0, abs=1e-9)
