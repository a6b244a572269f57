"""Tests for circuit elements, the rectangular mesh and compilation."""

import dataclasses
import hashlib
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lopsim.fock import ModeUnitary
from lopsim.mesh import (
    CompilationResult,
    DirectionalCoupler,
    MeshLayout,
    ModePermutation,
    PhaseShifter,
    PhotonicCircuit,
    clements_decompose,
    compile_with_imperfections,
    fidelity,
    gauge_fidelity,
    two_mode_gate_elements,
    unitary_to_elements,
    _Workspace,
    _adjoint_sweep,
    _apply_element,
    _corrected_phases,
    _forward_sweep,
    _gauge_objective_and_grad,
    _optimal_gauges,
)

from lopsim import mesh
from _oracles import (
    adjoint_sweep_by_layer,
    apply_element_numpy,
    mesh_transfer_with_derivatives,
    optimal_gauges_einsum,
)


def haar(m: int, seed: int) -> ModeUnitary:
    return ModeUnitary.haar_random(m, np.random.default_rng(seed))


class TestElements:
    def test_phase_shifter_matrix(self):
        u = PhotonicCircuit(3).add(PhaseShifter(1, np.pi / 3)).unitary().matrix
        expected = np.diag([1.0, np.exp(1j * np.pi / 3), 1.0])
        assert np.allclose(u, expected)

    def test_balanced_coupler_matrix(self):
        u = PhotonicCircuit(2).add(DirectionalCoupler(0, 1, 0.5)).unitary().matrix
        expected = np.array([[1.0, 1j], [1j, 1.0]]) / np.sqrt(2.0)
        assert np.allclose(u, expected)

    def test_full_reflectivity_is_identity(self):
        u = PhotonicCircuit(2).add(DirectionalCoupler(0, 1, 1.0)).unitary().matrix
        assert np.allclose(u, np.eye(2))

    def test_coupler_on_distant_modes(self):
        u = PhotonicCircuit(4).add(DirectionalCoupler(0, 3, 0.5)).unitary().matrix
        assert np.allclose(u[1, 1], 1.0)
        assert np.allclose(u[2, 2], 1.0)
        assert np.allclose(u[0, 3], 1j / np.sqrt(2.0))

    def test_permutation_matrix(self):
        u = PhotonicCircuit(3).add(ModePermutation((2, 0, 1))).unitary().matrix
        for src, dst in enumerate((2, 0, 1)):
            vec = np.zeros(3)
            vec[src] = 1.0
            out = u @ vec
            assert np.allclose(out[dst], 1.0)

    def test_permutation_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            ModePermutation((0, 0, 1))

    def test_coupler_validation(self):
        with pytest.raises(ValueError):
            DirectionalCoupler(1, 1)
        with pytest.raises(ValueError):
            DirectionalCoupler(0, 1, 1.2)

    def test_element_mode_range_checked(self):
        with pytest.raises(ValueError):
            PhotonicCircuit(3).add(PhaseShifter(5, 0.1))
        circuit = PhotonicCircuit(3)
        with pytest.raises(ValueError):
            circuit.add(DirectionalCoupler(2, 3))

    def test_a_float_phase_mode_is_refused(self):
        with pytest.raises(TypeError):
            PhotonicCircuit(2).add(PhaseShifter(0.5, 0.1))

    def test_boolean_coupler_modes_are_mode_numbers(self):
        # operator.index reads False and True as modes 0 and 1, as every
        # other mode reader does; numpy would read them as a row mask
        coupler = DirectionalCoupler(False, True)
        assert (type(coupler.mode_a), type(coupler.mode_b)) == (int, int)
        u = PhotonicCircuit(2).add(coupler).unitary().matrix
        assert np.array_equal(u, PhotonicCircuit(2).add(DirectionalCoupler(0, 1)).unitary().matrix)

    def test_a_float_coupler_mode_is_refused(self):
        with pytest.raises(TypeError):
            DirectionalCoupler(0, 1.0)

    def test_float_permutation_targets_are_refused(self):
        with pytest.raises(TypeError):
            ModePermutation((1.0, 0.0))

    @pytest.mark.parametrize(
        "element, message",
        [
            (PhaseShifter(-1, 0.5), "mode -1 out of range for m=3"),
            (DirectionalCoupler(1, 3), "mode 3 out of range for m=3"),
            (ModePermutation((1, 0)), "permutation over 2 modes, circuit has 3"),
        ],
        ids=["negative", "past-the-end", "short-permutation"],
    )
    def test_elements_given_at_construction_are_checked_as_add_checks_them(self, element, message):
        # a negative mode would otherwise index from the end of the matrix
        with pytest.raises(ValueError, match=message):
            PhotonicCircuit(3).add(element)
        with pytest.raises(ValueError, match=message):
            PhotonicCircuit(3, [PhaseShifter(0, 0.1), element])

    def test_compose_order_is_first_element_first(self):
        # A phase on mode 0 before the coupler lands on the coupler input.
        first = PhotonicCircuit(2)
        first.add(PhaseShifter(0, 0.7))
        first.add(DirectionalCoupler(0, 1, 0.5))
        u1 = first.unitary().matrix
        expected = (
            PhotonicCircuit(2).add(DirectionalCoupler(0, 1, 0.5)).unitary().matrix
            @ PhotonicCircuit(2).add(PhaseShifter(0, 0.7)).unitary().matrix
        )
        assert np.allclose(u1, expected)


_PHASES = st.sampled_from([0.0, -0.0, np.pi, -np.pi]) | st.floats(-50.0, 50.0)
_REFLECTIVITIES = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def _element_lists(draw):
    m = draw(st.sampled_from([2, 6, 12]))
    modes = st.integers(0, m - 1)
    phase = st.builds(PhaseShifter, modes, _PHASES)
    pair = st.lists(modes, min_size=2, max_size=2, unique=True)
    coupler = st.builds(lambda ab, r: DirectionalCoupler(*ab, r), pair, _REFLECTIVITIES)
    permutation = st.builds(ModePermutation, st.permutations(range(m)).map(tuple))
    return m, draw(st.lists(phase | coupler | permutation, min_size=1, max_size=40))


@settings(max_examples=200, deadline=None)
@given(_element_lists())
def test_element_kernel_matches_the_numpy_oracle(case):
    m, elements = case
    got, want = np.eye(m, dtype=complex), np.eye(m, dtype=complex)
    for element in elements:
        _apply_element(got, element)
        apply_element_numpy(want, element)
    assert got.tobytes() == want.tobytes()


class TestTwoModeGate:
    @pytest.mark.parametrize("seed", range(8))
    def test_synthesis_matches_target(self, seed):
        v = haar(2, seed).matrix
        circuit = PhotonicCircuit(2).extend(two_mode_gate_elements(v, 0, 1))
        assert np.max(np.abs(circuit.unitary().matrix - v)) < 1e-10

    def test_synthesis_on_embedded_modes(self):
        v = haar(2, 42).matrix
        circuit = PhotonicCircuit(4).extend(two_mode_gate_elements(v, 1, 3))
        u = circuit.unitary().matrix
        block = u[np.ix_((1, 3), (1, 3))]
        assert np.max(np.abs(block - v)) < 1e-10
        assert np.allclose(u[0, 0], 1.0)
        assert np.allclose(u[2, 2], 1.0)

    def test_a_float_mode_is_refused(self):
        with pytest.raises(TypeError):
            two_mode_gate_elements(np.eye(2), 0.5, 1)

    def test_diagonal_target(self):
        v = np.diag([np.exp(0.3j), np.exp(-1.1j)])
        circuit = PhotonicCircuit(2).extend(two_mode_gate_elements(v, 0, 1))
        assert np.max(np.abs(circuit.unitary().matrix - v)) < 1e-10

    def test_swap_like_target(self):
        v = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        circuit = PhotonicCircuit(2).extend(two_mode_gate_elements(v, 0, 1))
        assert np.max(np.abs(circuit.unitary().matrix - v)) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(-np.pi, np.pi),
        beta=st.floats(-np.pi, np.pi),
        delta=st.floats(-np.pi, np.pi),
        # 0 gives a diagonal and pi/2 an anti-diagonal target.
        gamma=st.one_of(st.sampled_from([0.0, np.pi / 2]), st.floats(0.0, np.pi / 2)),
    )
    def test_synthesis_reproduces_any_unitary(self, alpha, beta, delta, gamma):
        c, s = np.cos(gamma), np.sin(gamma)
        v = np.exp(1j * alpha) * np.array(
            [
                [np.exp(1j * beta) * c, np.exp(1j * delta) * s],
                [-np.exp(-1j * delta) * s, np.exp(-1j * beta) * c],
            ]
        )
        circuit = PhotonicCircuit(2).extend(two_mode_gate_elements(v, 0, 1))
        assert np.max(np.abs(circuit.unitary().matrix - v)) < 1e-10


class TestMeshLayout:
    def test_reference_chip_counts(self):
        layout = MeshLayout(12)
        assert layout.n_cells == 66
        assert layout.n_logical == 132
        assert layout.n_actuated == 126
        assert len(layout.pinned_indices) == 6
        pinned_cells = [idx // 2 for idx in layout.pinned_indices]
        tops = sorted(layout.cells[c] for c in pinned_cells)
        assert tops == [0, 2, 4, 6, 8, 10]

    def test_pinned_indices_are_external_phases(self):
        layout = MeshLayout(12)
        assert all(idx % 2 == 1 for idx in layout.pinned_indices)

    def test_small_mesh_has_no_pinning(self):
        layout = MeshLayout(6)
        assert layout.n_cells == 15
        assert layout.n_actuated == 30
        assert layout.pinned_indices == ()

    def test_cell_multiset_matches_rectangle(self):
        layout = MeshLayout(12)
        counts = {p: 0 for p in range(11)}
        for p in layout.cells:
            counts[p] += 1
        for p in range(11):
            assert counts[p] == 6

    def test_actuated_round_trip(self):
        layout = MeshLayout(12)
        rng = np.random.default_rng(3)
        actuated = rng.uniform(0, 2 * np.pi, layout.n_actuated)
        full = layout.phases_from_actuated(actuated)
        assert np.allclose(layout.actuated_from_phases(full), actuated)
        assert np.allclose(full[list(layout.pinned_indices)], 0.0)

    @pytest.mark.parametrize("m", [2, 3, 5, 6, 12])
    def test_circuit_expansion_matches_matrix(self, m):
        layout = MeshLayout(m)
        rng = np.random.default_rng(7 + m)
        phases = rng.uniform(0, 2 * np.pi, layout.n_logical)
        refl = rng.uniform(0.3, 0.7, size=(layout.n_cells, 2))
        output = rng.uniform(0, 2 * np.pi, m)
        balanced = layout.circuit(phases, output_phases=output)
        direct = layout.unitary(phases, output_phases=output).matrix
        assert np.max(np.abs(direct - balanced.unitary().matrix)) < 1e-12
        # the same cells on the couplers ``refl``, in cell order r1, r2
        couplers = iter(refl.ravel().tolist())
        imperfect = [
            dataclasses.replace(e, reflectivity=next(couplers))
            if isinstance(e, DirectionalCoupler) else e
            for e in balanced.elements
        ]
        direct = layout.unitary(phases, refl, output).matrix
        expanded = PhotonicCircuit(m, imperfect).unitary().matrix
        assert np.max(np.abs(direct - expanded)) < 1e-12

    @pytest.mark.parametrize(
        "shapes, message",
        [
            ((15, None), r"expected 12 logical phases, got \(15,\)"),
            ((12, 7), "output phase layer must have one phase per mode"),
        ],
        ids=["phases", "output-phases"],
    )
    @pytest.mark.parametrize("reader", ["unitary", "circuit"])
    def test_both_readers_refuse_phases_of_another_shape(self, reader, shapes, message):
        layout = MeshLayout(4)
        phases, outputs = (None if n is None else np.zeros(n) for n in shapes)
        with pytest.raises(ValueError, match=message):
            getattr(layout, reader)(phases, output_phases=outputs)


class TestDecomposition:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 8, 12])
    def test_round_trip_exact(self, m):
        target = haar(m, 100 + m)
        result = clements_decompose(target)
        rebuilt = result.unitary().matrix
        assert np.max(np.abs(rebuilt - target.matrix)) < 1e-10
        assert fidelity(target, result.unitary()) > 1.0 - 1e-12

    @settings(max_examples=25, deadline=None)
    @given(m=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
    def test_round_trip_any_seed(self, m, seed):
        target = haar(m, seed)
        rebuilt = clements_decompose(target).unitary().matrix
        assert np.max(np.abs(rebuilt - target.matrix)) < 1e-10

    def test_identity_decomposition(self):
        result = clements_decompose(ModeUnitary(np.eye(6, dtype=complex)))
        rebuilt = result.unitary().matrix
        assert np.max(np.abs(rebuilt - np.eye(6))) < 1e-10

    def test_permutation_decomposition(self):
        u = PhotonicCircuit(4).add(ModePermutation((3, 0, 2, 1))).unitary()
        result = clements_decompose(u)
        assert np.max(np.abs(result.unitary().matrix - u.matrix)) < 1e-10

    def test_layout_mismatch_rejected(self):
        with pytest.raises(ValueError):
            clements_decompose(haar(4, 0), MeshLayout(5))


class TestFidelity:
    def test_self_fidelity(self):
        u = haar(6, 1)
        assert fidelity(u, u) == pytest.approx(1.0)

    def test_left_invariance(self):
        u, v, w = haar(5, 2), haar(5, 3), haar(5, 4)
        f1 = fidelity(u, v)
        f2 = fidelity(ModeUnitary(w.matrix @ u.matrix), ModeUnitary(w.matrix @ v.matrix))
        assert f1 == pytest.approx(f2, abs=1e-12)

    def test_scale_invariance_of_normalization(self):
        u = haar(4, 5)
        assert fidelity(u, 0.5 * u.matrix) == pytest.approx(1.0)

    def test_gauge_fidelity_absorbs_boundary_phases(self):
        u = haar(6, 6)
        rng = np.random.default_rng(8)
        d_out = np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
        d_in = np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
        dressed = d_out[:, None] * u.matrix * d_in[None, :]
        assert fidelity(u, dressed) < 0.999
        assert gauge_fidelity(u, dressed) > 1.0 - 1e-9

    def test_pinned_phases_are_pure_gauge(self):
        layout = MeshLayout(12)
        rng = np.random.default_rng(9)
        full = rng.uniform(0, 2 * np.pi, layout.n_logical)
        zeroed = full.copy()
        zeroed[list(layout.pinned_indices)] = 0.0
        u_full = layout.unitary(full)
        u_zeroed = layout.unitary(zeroed)
        assert gauge_fidelity(u_full, u_zeroed) > 1.0 - 1e-9

    def test_permutation_target_needs_no_zero_division(self):
        # Rows 0, 1 of U * conj(T) vanish: their phases stay 0 and the two
        # matched modes give |2|^2 / (4 * 4).
        swap = np.eye(4)[[1, 0, 2, 3]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gauge_fidelity(swap, np.eye(4)) == pytest.approx(0.25, abs=1e-15)
            assert gauge_fidelity(np.eye(4)[[1, 0, 3, 2]], np.eye(4)) == 0.0
            assert gauge_fidelity(swap, swap) == pytest.approx(1.0, abs=1e-15)


class TestGaugeOracle:
    """The matrix-vector boundary-phase solve against the einsum rescoring one."""

    @staticmethod
    def _score(target, implemented, gauges):
        out, inn = gauges(target, implemented)
        dressed = np.exp(1j * out)[:, None] * implemented * np.exp(1j * inn)[None, :]
        return abs(np.trace(target.conj().T @ dressed)) / target.shape[0]

    @pytest.mark.parametrize("pair", range(20))
    def test_score_matches_on_haar_pairs(self, pair):
        m = 3 + pair % 10
        target, implemented = haar(m, 500 + pair).matrix, haar(m, 600 + pair).matrix
        got = self._score(target, implemented, _optimal_gauges)
        expected = self._score(target, implemented, optimal_gauges_einsum)
        assert abs(got - expected) <= 1e-12

    def test_compile_fidelity_matches_oracle_gauges(self, monkeypatch):
        layout = MeshLayout(12)
        rng = np.random.default_rng(70)
        cases = [
            (
                ModeUnitary.haar_random(12, rng),
                rng.normal(0.567, 0.006, size=(layout.n_cells, 2)),
            )
            for _ in range(6)
        ]

        def infidelities():
            return np.array([
                1.0 - compile_with_imperfections(
                    target, refl, layout=layout, max_restarts=1, maxiter=60, rng=71
                ).fidelity
                for target, refl in cases
            ])

        got = infidelities()
        monkeypatch.setattr(mesh, "_optimal_gauges", optimal_gauges_einsum)
        expected = infidelities()
        assert np.all(np.abs(got - expected) <= 0.02 * expected)
        assert abs(got.mean() - expected.mean()) <= 0.005 * expected.mean()


class TestCompilation:
    def test_analytic_gradient_matches_finite_differences(self):
        layout = MeshLayout(5)
        rng = np.random.default_rng(21)
        refl = rng.normal(0.567, 0.006, size=(layout.n_cells, 2))
        target = haar(5, 22).matrix
        x = rng.uniform(0, 2 * np.pi, layout.n_actuated)
        args = (layout, refl, target, np.eye(5, dtype=complex), _Workspace(layout, 5, False))
        value, grad = _gauge_objective_and_grad(x, *args)
        eps = 1e-6
        for idx in range(0, layout.n_actuated, 7):
            shift = np.zeros_like(x)
            shift[idx] = eps
            up, _ = _gauge_objective_and_grad(x + shift, *args)
            down, _ = _gauge_objective_and_grad(x - shift, *args)
            numeric = (up - down) / (2 * eps)
            assert numeric == pytest.approx(grad[idx], abs=5e-6)

    def test_ideal_couplers_reach_unit_fidelity(self):
        target = haar(6, 11)
        layout = MeshLayout(6)
        refl = np.full((layout.n_cells, 2), 0.5)
        result = compile_with_imperfections(target, refl, layout=layout)
        assert isinstance(result, CompilationResult)
        assert result.fidelity > 1.0 - 1e-9
        assert result.restarts_used == 1

    def test_ideal_couplers_with_pinned_phases(self):
        target = haar(12, 12)
        layout = MeshLayout(12)
        refl = np.full((layout.n_cells, 2), 0.5)
        result = compile_with_imperfections(target, refl, layout=layout)
        assert result.fidelity > 1.0 - 1e-9
        full = result.phases
        assert np.allclose(full[list(layout.pinned_indices)], 0.0)

    def test_imperfect_couplers_high_fidelity(self):
        target = haar(12, 13)
        layout = MeshLayout(12)
        rng = np.random.default_rng(14)
        refl = rng.normal(0.567, 0.006, size=(layout.n_cells, 2))
        result = compile_with_imperfections(target, refl, layout=layout, max_restarts=3)
        assert result.fidelity > 0.99
        ideal = clements_decompose(target, layout)
        seeded = layout.actuated_from_phases(ideal.phases)
        naive = layout.unitary(layout.phases_from_actuated(seeded), refl)
        assert result.fidelity > gauge_fidelity(target, naive)

    def test_implemented_matrix_matches_reported_fidelity(self):
        target = haar(6, 15)
        layout = MeshLayout(6)
        rng = np.random.default_rng(16)
        refl = rng.normal(0.567, 0.006, size=(layout.n_cells, 2))
        result = compile_with_imperfections(target, refl, layout=layout, max_restarts=2)
        assert gauge_fidelity(target, layout.unitary(result.phases, refl)) == result.fidelity


    @pytest.mark.parametrize("bad", [1.2, -0.1, np.nan])
    @pytest.mark.parametrize("reader", ["compile", "unitary"])
    def test_a_reflectivity_outside_zero_to_one_is_refused(self, bad, reader):
        layout = MeshLayout(4)
        refl = np.full((layout.n_cells, 2), 0.5)
        refl[3, 1] = bad
        phases = np.zeros(layout.n_logical)
        call = {
            "compile": lambda: compile_with_imperfections(haar(4, 18), refl, layout=layout),
            "unitary": lambda: layout.unitary(phases, refl),
        }[reader]
        with pytest.raises(ValueError, match=r"of cell 3 \(coupler r2\) outside \[0, 1\]"):
            call()

    @pytest.mark.parametrize(
        "gain, attempts",
        [(1.0, mesh.COMPILE_PATIENCE + 1), (0.995, mesh.COMPILE_PATIENCE + 1), (0.98, 6)],
        ids=["none", "0.5%", "2%"],
    )
    def test_restarts_stop_once_they_gain_less_than_the_progress_fraction(
        self, monkeypatch, gain, attempts
    ):
        # Each scripted attempt lowers 1 - F (1e-4 at the first) by the
        # factor ``gain``: 0.5 % gains are more than 1e-7 apiece, so an
        # absolute 1e-7 rule ran all six attempts; 2 % gains still count,
        # and the first attempt counts against no earlier one.
        import scipy.optimize

        infidelities = []

        def scripted(fun, x0, **_):
            infidelities.append(1e-4 * gain ** len(infidelities))
            return scipy.optimize.OptimizeResult(fun=infidelities[-1] - 1.0, x=x0)

        monkeypatch.setattr(scipy.optimize, "minimize", scripted)
        layout = MeshLayout(4)
        refl = np.full((layout.n_cells, 2), 0.5)
        result = compile_with_imperfections(haar(4, 18), refl, layout, max_restarts=6)
        assert result.restarts_used == len(infidelities) == attempts
        assert np.isfinite(result.fidelity)

    def test_max_restarts_below_one_is_rejected(self):
        layout = MeshLayout(4)
        refl = np.full((layout.n_cells, 2), 0.5)
        with pytest.raises(ValueError, match="max_restarts"):
            compile_with_imperfections(haar(4, 17), refl, layout=layout, max_restarts=0)


class TestSweepOracle:
    """The layered forward/adjoint kernel against element-by-element products."""

    @pytest.mark.parametrize("m", range(2, 9))
    @pytest.mark.parametrize("per_row", [False, True])
    def test_forward_and_adjoint_match_brute_force(self, m, per_row):
        layout = MeshLayout(m)
        rng = np.random.default_rng(40 + m)
        n_rows = 3
        refl = rng.uniform(0.2, 0.8, size=(layout.n_cells, 2))
        shape = (n_rows, layout.n_logical) if per_row else (layout.n_logical,)
        phases = rng.uniform(0.0, 2 * np.pi, size=shape)
        rows = rng.normal(size=(n_rows, m)) + 1j * rng.normal(size=(n_rows, m))
        adjoint = rng.normal(size=(n_rows, m)) + 1j * rng.normal(size=(n_rows, m))
        out, tape = _forward_sweep(layout, rows, phases, refl)
        d_phases, d_refl = _adjoint_sweep(layout, tape, adjoint)
        assert d_phases.shape == (n_rows, layout.n_logical)
        assert d_refl.shape == (n_rows, layout.n_cells, 2)
        for b in range(n_rows):
            u, du_phase, du_refl = mesh_transfer_with_derivatives(
                layout.cells, phases[b] if per_row else phases, refl, m
            )
            np.testing.assert_allclose(out[b], u @ rows[b], rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                d_phases[b], du_phase @ rows[b] @ adjoint[b], rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(
                d_refl[b], du_refl @ rows[b] @ adjoint[b], rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("m", [2, 5, 8])
    def test_a_tape_serves_every_adjoint_until_the_next_forward_sweep(self, m):
        layout = MeshLayout(m)
        rng = np.random.default_rng(60 + m)
        refl = rng.uniform(0.2, 0.8, size=(layout.n_cells, 2))
        phases = rng.uniform(0.0, 2 * np.pi, size=(2, 4, layout.n_logical))
        rows = np.eye(m, dtype=complex)[np.arange(4) % m]
        cotangents = rng.normal(size=(3, 4, m)) + 1j * rng.normal(size=(3, 4, m))

        def fresh(phases, adjoint):
            # each expected pair from its own forward sweep on a fresh workspace
            return _adjoint_sweep(layout, _forward_sweep(layout, rows, phases, refl)[1], adjoint)

        expected = [fresh(phases[0], adjoint) for adjoint in cotangents]
        work = _Workspace(layout, 4, True)
        assert _forward_sweep(layout, rows, phases[0], refl, work)[1] is work
        for _ in range(2):
            for adjoint, (d_phases, d_refl) in zip(cotangents, expected):
                got = _adjoint_sweep(layout, work, adjoint)
                assert got[0].tobytes() == d_phases.tobytes()
                assert got[1].tobytes() == d_refl.tobytes()
        # the next forward sweep on the workspace writes its tape over this one
        _forward_sweep(layout, rows, phases[1], refl, work)
        got = _adjoint_sweep(layout, work, cotangents[0])
        later = fresh(phases[1], cotangents[0])
        assert got[0].tobytes() == later[0].tobytes()
        assert got[0].tobytes() != expected[0][0].tobytes()

    @pytest.mark.parametrize("m", range(2, 13))
    def test_adjoint_matches_the_per_layer_kernel_bit_for_bit(self, m):
        layout = MeshLayout(m)
        rng = np.random.default_rng(80 + m)
        refl = rng.uniform(0.2, 0.8, size=(layout.n_cells, 2))
        for n_rows in (1, 7, 400):
            for per_row in (False, True):
                shape = (n_rows, layout.n_logical) if per_row else (layout.n_logical,)
                phases = rng.uniform(0.0, 2 * np.pi, size=shape)
                rows = rng.normal(size=(n_rows, m)) + 1j * rng.normal(size=(n_rows, m))
                adjoint = rng.normal(size=(n_rows, m)) + 1j * rng.normal(size=(n_rows, m))
                _, tape = _forward_sweep(layout, rows, phases, refl)
                got = _adjoint_sweep(layout, tape, adjoint)
                expected = adjoint_sweep_by_layer(layout, tape, adjoint)
                assert np.array_equal(got[0], expected[0]), (n_rows, per_row)
                assert np.array_equal(got[1], expected[1]), (n_rows, per_row)


#: sha256 over the bytes of ``phases``, its output and input gauges
#: (``_optimal_gauges`` of the target and the implemented matrix) and
#: ``fidelity`` of ``compile_with_imperfections(max_restarts=2,
#: maxiter=60)``, keyed by (m, target seed, coupler seed); the coupler seed
#: also seeds the restarts. Recorded when the compile first seeded from
#: the error-corrected decomposition (1 - F = 2.2e-16, 2.2e-16, 7.686e-4).
PINNED_COMPILES = {
    (4, 150, 151): "68228508b15fed9f0a6e777f958e7f2c0276c4aaa288b62405dbc312bbf60e59",
    (6, 152, 153): "34bbf4038487f49a0f8d4a583f14362d86884a64afcd0cce2dfd811d98fa5e76",
    (12, 154, 155): "f07114fe6820cbd45f72769835beaa79479e44df368189a2a48590447b746329",
}

#: 1 - F of the same compiles seeded from the ideal Clements phases.
CLEMENTS_SEEDED_INFIDELITY = {
    (4, 150, 151): 2.566e-9,
    (6, 152, 153): 2.973e-9,
    (12, 154, 155): 9.868e-4,
}


@lru_cache(maxsize=None)
def pinned_case(m: int, target_seed: int, coupler_seed: int):
    """Target, couplers and compile of one ``PINNED_COMPILES`` case."""
    layout = MeshLayout(m)
    target = haar(m, target_seed)
    refl = np.random.default_rng(coupler_seed).normal(0.567, 0.006, size=(layout.n_cells, 2))
    fit = compile_with_imperfections(
        target, refl, layout=layout, max_restarts=2, rng=coupler_seed, maxiter=60
    )
    return target, refl, fit


@pytest.mark.parametrize("m, target_seed, coupler_seed", list(PINNED_COMPILES))
def test_seeded_compiles_are_pinned(m, target_seed, coupler_seed):
    target, refl, fit = pinned_case(m, target_seed, coupler_seed)
    gauges = _optimal_gauges(target.matrix, MeshLayout(m)._matrix(fit.phases, refl))
    digest = hashlib.sha256()
    for array in (fit.phases, *gauges):
        digest.update(array.tobytes())
    digest.update(np.float64(fit.fidelity).tobytes())
    assert digest.hexdigest() == PINNED_COMPILES[m, target_seed, coupler_seed]


@pytest.mark.parametrize("case", list(CLEMENTS_SEEDED_INFIDELITY))
def test_pinned_compiles_land_no_farther_than_from_the_clements_seed(case):
    assert 1.0 - pinned_case(*case)[2].fidelity <= CLEMENTS_SEEDED_INFIDELITY[case]


def seeded_infidelity(target, layout, phases, refl):
    """1 - F of ``phases`` on the couplers ``refl``, as the compile seeds them (pinned at 0)."""
    seed = layout.phases_from_actuated(layout.actuated_from_phases(phases))
    return 1.0 - gauge_fidelity(target, layout.unitary(seed, refl))


class TestCorrectedSeed:
    """The error-corrected decomposition the compile starts from."""

    @pytest.mark.parametrize("m", range(2, 13))
    def test_balanced_couplers_give_the_clements_phases(self, m):
        layout = MeshLayout(m)
        refl = np.full((layout.n_cells, 2), 0.5)
        for seed in range(3):
            ideal = clements_decompose(haar(m, 700 + 10 * m + seed), layout).phases
            got = _corrected_phases(layout, ideal, refl)
            assert np.max(np.abs(np.angle(np.exp(1j * (got - ideal))))) < 1e-12

    @pytest.mark.parametrize("case", [(4, 150, 151), (6, 152, 153)])
    def test_a_seed_with_every_cell_in_reach_is_exact(self, case):
        target, refl = pinned_case(*case)[:2]
        layout = MeshLayout(case[0])
        ideal = clements_decompose(target, layout).phases
        # a cell reaches its split when bar and cross each clear the couplers' floor
        r1, r2 = refl.T
        a, b = np.sqrt(r1 * r2), np.sqrt((1 - r1) * (1 - r2))
        c, d = np.sqrt((1 - r1) * r2), np.sqrt(r1 * (1 - r2))
        half = ideal[0::2] / 2
        assert np.all(np.sin(half) ** 2 > (a - b) ** 2)
        assert np.all(np.cos(half) ** 2 > (c - d) ** 2)
        corrected = _corrected_phases(layout, ideal, refl)
        assert seeded_infidelity(target, layout, corrected, refl) < 1e-12
        assert seeded_infidelity(target, layout, ideal, refl) > 1e-4

    def test_the_seed_beats_the_clements_seed_on_the_reference_couplers(self):
        layout = MeshLayout(12)
        rng = np.random.default_rng(160)
        for _ in range(6):
            target = ModeUnitary.haar_random(12, rng)
            refl = rng.normal(0.567, 0.006, size=(layout.n_cells, 2))
            ideal = clements_decompose(target, layout).phases
            corrected = _corrected_phases(layout, ideal, refl)
            assert seeded_infidelity(target, layout, corrected, refl) < seeded_infidelity(
                target, layout, ideal, refl
            )

    @pytest.mark.parametrize("r", [0.0, 1.0])
    def test_a_coupler_at_zero_or_one_keeps_the_ideal_theta(self, r):
        layout = MeshLayout(4)
        refl = np.full((layout.n_cells, 2), 0.567)
        refl[2, 0] = r
        ideal = clements_decompose(haar(4, 170), layout).phases
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            corrected = _corrected_phases(layout, ideal, refl)
        assert np.all(np.isfinite(corrected))
        assert corrected[4] == ideal[4]


@pytest.mark.parametrize("m", range(2, 13))
def test_one_workspace_gives_the_gauge_objective_bits_of_fresh_ones(m):
    # a buffer that some evaluation left partly written would show here
    layout = MeshLayout(m)
    rng = np.random.default_rng(90 + m)
    refl = rng.normal(0.567, 0.006, size=(layout.n_cells, 2))
    target, rows = haar(m, 100 + m).matrix, np.eye(m, dtype=complex)
    work = _Workspace(layout, m, False)
    for _ in range(4):
        x = rng.uniform(0.0, 2 * np.pi, layout.n_actuated)
        shared = _gauge_objective_and_grad(x, layout, refl, target, rows, work)
        fresh = _gauge_objective_and_grad(
            x, layout, refl, target, rows, _Workspace(layout, m, False)
        )
        assert shared[0] == fresh[0]
        assert shared[1].tobytes() == fresh[1].tobytes()


class TestDeterminism:
    def test_compile_twice_in_one_process(self):
        target = haar(6, 31)
        layout = MeshLayout(6)
        refl = np.random.default_rng(32).normal(0.567, 0.006, size=(layout.n_cells, 2))
        runs = [
            compile_with_imperfections(target, refl, layout=layout, maxiter=20, rng=33)
            for _ in range(2)
        ]
        for field in ("phases", "fidelity", "restarts_used"):
            assert np.array_equal(getattr(runs[0], field), getattr(runs[1], field)), field
        gauges = [_optimal_gauges(target.matrix, layout._matrix(r.phases, refl)) for r in runs]
        for first, second in zip(*gauges):
            assert np.array_equal(first, second)


class TestUnitaryEmbedding:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_exact_on_contiguous_modes(self, k):
        block = haar(k, 20 + k).matrix
        elements = unitary_to_elements(block, range(k))
        circuit = PhotonicCircuit(k).extend(elements)
        assert np.max(np.abs(circuit.unitary().matrix - block)) < 1e-12
        if k == 1:  # one mode is one phase
            assert [type(e) for e in elements] == [PhaseShifter]

    def test_scattered_modes_leave_the_rest_alone(self):
        block = haar(3, 31).matrix
        modes = (5, 0, 3)
        circuit = PhotonicCircuit(7).extend(unitary_to_elements(block, modes))
        full = circuit.unitary().matrix
        embedded = full[np.ix_(modes, modes)]
        assert np.max(np.abs(embedded - block)) < 1e-12
        untouched = [1, 2, 4, 6]
        assert np.max(np.abs(full[np.ix_(untouched, untouched)] - np.eye(4))) < 1e-12
        assert np.max(np.abs(full[np.ix_(untouched, list(modes))])) < 1e-12

    def test_accepts_mode_unitary(self):
        block = haar(2, 40)
        circuit = PhotonicCircuit(4).extend(unitary_to_elements(block, (2, 3)))
        assert np.max(np.abs(circuit.unitary().matrix[2:, 2:] - block.matrix)) < 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            unitary_to_elements(np.ones((2, 2)), (0, 1))

    def test_rejects_float_modes(self):
        with pytest.raises(TypeError):
            unitary_to_elements(np.eye(2), [0.5, 1.7])

    def test_rejects_mode_count_mismatch(self):
        with pytest.raises(ValueError, match="modes"):
            unitary_to_elements(haar(3, 41).matrix, (0, 1))
        with pytest.raises(ValueError, match="distinct"):
            unitary_to_elements(haar(2, 42).matrix, (1, 1))
