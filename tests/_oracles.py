"""Brute-force reference implementations used only by the test suite.

Each function here recomputes a quantity through a route independent of
the library code: Fock bases filtered from every occupation tuple,
sampled counts per basis row from one ``choice`` and a ``bincount``,
the live rows of a set of one-click pairs and the cyclic-fringe classes
filtered from every row of the full basis,
factorial-cost permanents, the collision-free sampling probabilities and
validation counters from one permanent pair per pattern, full second-quantized
state-vector evolution, explicit classical routing enumeration, the
noisy-source output summed over every labeled branch, the trigger sum
with a coherent pass from scratch for every shared set, the cyclic
interferometer's noisy output over the full basis, the bright
cyclic-fringe patterns from a simulation of the ideal circuit and the
contrast classified row by row on every call, benchmark-plan
weights from the dense 16^n correlation solve, a plan executed one
configuration per executor call, executors that run a plan's
configurations through a density-matrix channel (the gate followed by
depolarizing noise in closed form), the classifier chip and its two blocks
built element by element and its pattern matrix merged row by row over
the whole twelve-mode basis, the mesh transfer matrix and its derivatives as products
of per-element factors, the element kernel with numpy scalars, the
rail amplitudes of a mode unitary from a SLOS pass over the whole
n-photon basis, the VQE ansatz as a gate circuit, and a VQE backend
that compiles every circuit, the ansatz settings included, from scratch
and reads each out alone.  Three
helpers serve the tests: :func:`placed_distribution` builds hand-written
inputs, :func:`basis_states` lists a basis as occupation tuples for the
tuple-keyed oracles, and :func:`values_at` reads a distribution at those
tuples' rows by ``rank``.  Every oracle takes an input as a tuple of
modes, one entry per photon.
"""

from __future__ import annotations

import functools
import itertools
from math import comb, factorial, prod, sqrt
from typing import Callable, Sequence

import numpy as np

from lopsim.benchmark import _MEAS_SIGNS, _PREP_VECTORS, Executor, FidelityEstimate, _as_unitary
from lopsim.fock import (
    OutputDistribution,
    _gains,
    _successors,
    batched_amplitudes,
    enumerate_basis,
    strong_simulate,
)
from lopsim.hardware import (
    TRANSPILE_MAX_ROUNDS,
    HardwareModel,
    IntensityData,
    TranspilationError,
    _intensities,
    _tvd,
)
from lopsim.mesh import (
    GAUGE_ITERATIONS,
    DirectionalCoupler,
    MeshLayout,
    ModePermutation,
    PhaseShifter,
    PhotonicCircuit,
)
from lopsim.qnn import (
    _BLOCK_PAIRS,
    ENCODING_MODES,
    N_FEATURES,
    N_MODES,
    N_THETA,
    _checked_theta,
)
from lopsim.qubits import (
    _MEAS_ROT,
    Gate,
    GateCircuit,
    QubitEncoding,
    _PREFIXES,
    _checked_gates,
    _gate_elements,
    _pauli_signs,
    _setting_elements,
    compile_gate_circuit,
    logical_distribution,
)
from lopsim.sources import (
    TAIL_TOLERANCE,
    SourceModel,
    _accumulate,
    _cyclic_circuit,
    _photon_number_tail,
    build_input,
    cyclic_input_modes,
    cyclic_interferometer,
    noisy_simulate,
)
from lopsim.variational import BASES, PhotonicVqeBackend, _ansatz_steps


def sample_by_choice(unitary, modes: tuple[int, ...], shots: int, seed: int) -> np.ndarray:
    """Counts of ``shots`` draws per basis row: one ``choice`` over the exact vector, then ``bincount``."""
    rng = np.random.default_rng(seed)
    p = strong_simulate(unitary, modes).probabilities
    draws = rng.choice(len(p), size=shots, p=p / p.sum())
    return np.bincount(draws, minlength=len(p))


def placed_distribution(m: int, entries: dict[tuple[int, ...], float]) -> OutputDistribution:
    """A hand-written input: each value at its occupation tuple's basis rank, one sector per photon number."""
    sectors: dict[int, np.ndarray] = {}
    for occupations, value in entries.items():
        basis = enumerate_basis(m, sum(occupations))
        vec = sectors.setdefault(basis.n, np.zeros(len(basis)))
        vec[basis.rank(np.array([occupations]))[0]] = value
    return OutputDistribution(m, sectors)


def basis_states(m: int, n: int) -> list[tuple[int, ...]]:
    """The rows of ``enumerate_basis(m, n)`` as occupation tuples, in order, for the tuple-keyed oracles."""
    return [tuple(row) for row in enumerate_basis(m, n).occupations.tolist()]


def values_at(dist: OutputDistribution, states) -> np.ndarray:
    """``dist``'s value at each occupation tuple's row, found by ``rank``; 0.0 in a sector with no mass."""
    rows = np.array(list(states), dtype=np.int8).reshape(-1, dist.m)
    counts = rows.sum(axis=1)
    values = np.zeros(len(rows))
    for n, vec in dist.sectors.items():
        at = counts == n
        values[at] = vec[enumerate_basis(dist.m, n).rank(rows[at])]
    return values


def fock_basis_rows(m: int, n: int, collision_free: bool) -> np.ndarray:
    """Every n-photon occupation row on m modes, ascending lexicographically.

    Filters all occupation tuples with entries up to the per-mode cap (1
    collision-free, n otherwise) by their photon total; ``(N, m)`` int8.
    """
    cap = 1 if collision_free else n
    rows = sorted(r for r in itertools.product(range(cap + 1), repeat=m) if sum(r) == n)
    return np.array(rows, dtype=np.int8).reshape(len(rows), m)


def _pair_clicks(
    occ: np.ndarray, pairs: tuple[tuple[int, int], ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``occ``: whether some pair has both modes occupied, and how many are empty."""
    filled = np.zeros(len(occ), dtype=bool)
    empty = np.zeros(len(occ), dtype=np.intp)
    for a, b in pairs:
        on_a, on_b = occ[:, a] > 0, occ[:, b] > 0
        filled |= on_a & on_b
        empty += ~(on_a | on_b)
    return filled, empty


def live_rows_by_filter(
    m: int, n: int, pairs: tuple[tuple[int, int], ...], cap: int
) -> tuple[np.ndarray, np.ndarray]:
    """Ranks and rows of the live rows, filtered from every row of the full basis.

    A row is kept when it fills no pair and leaves at most ``cap - n``
    pairs empty: the filter the live-row tables used before they were
    generated by pair pattern.
    """
    occ = enumerate_basis(m, n).occupations
    filled, empty = _pair_clicks(occ, pairs)
    ranks = np.flatnonzero(~filled & (empty <= cap - n))
    return ranks, occ[ranks]


def fringe_classes_by_filter(m: int, n: int, n_photons: int) -> tuple[np.ndarray, np.ndarray]:
    """Constructive and destructive ranks of one sector, classified over every basis row.

    A row is in a class when each output pair ``(2k, 2k + 1)`` has
    exactly one clicking mode; the class is constructive when an even
    number of pairs click on their odd mode.  Modes past the first
    ``2 * n_photons`` are ignored.
    """
    width = 2 * n_photons
    clicks = enumerate_basis(m, n).occupations[:, :width] > 0
    right = clicks[:, 1::2]
    valid = np.all(clicks[:, 0::2] != right, axis=1)
    constructive = valid & (right.sum(axis=1) % 2 == 0)
    return np.flatnonzero(constructive), np.flatnonzero(valid & ~constructive)


def permanent_by_permutations(a: np.ndarray) -> complex:
    """Permanent via the defining sum over permutations (k <= 8)."""
    a = np.asarray(a)
    k = a.shape[0]
    if k == 0:
        return 1.0 + 0.0j
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(k)):
        term = 1.0 + 0.0j
        for i, j in enumerate(perm):
            term *= a[i, j]
        total += term
    return total


def collision_free_probabilities_by_permanents(
    u: np.ndarray, input_modes
) -> dict[tuple[int, ...], tuple[float, float]]:
    """Ideal and classical probability of every collision-free pattern.

    Keyed by the detected modes: ``|Perm(U_sub)|^2`` and
    ``Perm(|U_sub|^2)``, each divided by its sum over all C(m, n)
    patterns, with factorial-cost permanents.
    """
    input_modes = tuple(input_modes)
    pairs = {}
    for detected in itertools.combinations(range(u.shape[0]), len(input_modes)):
        sub = u[np.ix_(detected, input_modes)]
        pairs[detected] = (
            abs(permanent_by_permutations(sub)) ** 2,
            permanent_by_permutations(np.abs(sub) ** 2).real,
        )
    ideal_mass = sum(q for q, _ in pairs.values())
    classical_mass = sum(p for _, p in pairs.values())
    return {d: (q / ideal_mass, p / classical_mass) for d, (q, p) in pairs.items()}


def counter_trajectories_by_permanents(
    u: np.ndarray, input_modes, events, checkpoint_every: int
) -> tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]:
    """Both validation counters as (value, samples, checkpoints), event by event.

    An event steps the uniform-sampler counter up when its conditioned
    ideal probability times C(m, n) is at least 1, and the
    distinguishable-sampler counter up when its conditioned ideal
    probability is at least its classical one and not both are zero;
    every other step is down.
    """
    input_modes = tuple(input_modes)
    probabilities = collision_free_probabilities_by_permanents(u, input_modes)
    k = comb(u.shape[0], len(input_modes))
    counters = [[0, 0, []], [0, 0, []]]
    for event in events:
        q, p = probabilities[tuple(np.flatnonzero(event).tolist())]
        steps = (1 if q * k >= 1.0 else -1, 1 if q >= p and q + p > 0.0 else -1)
        for counter, step in zip(counters, steps):
            counter[0] += step
            counter[1] += 1
            if counter[1] % checkpoint_every == 0:
                counter[2].append((counter[1], counter[0]))
    return tuple((value, samples, tuple(marks)) for value, samples, marks in counters)


def evolve_state_vector(u: np.ndarray, modes) -> dict[tuple[int, ...], complex]:
    """Second-quantized evolution of a Fock input through an interferometer.

    ``modes`` lists the input mode of each photon (repeats bunch).
    Applies the image of each creation operator photon by photon and
    returns amplitudes on normalized occupation kets, keyed by
    occupation tuple.
    """
    m = u.shape[0]
    amps: dict[tuple[int, ...], complex] = {(0,) * m: 1.0 + 0.0j}
    for mode in modes:
        nxt: dict[tuple[int, ...], complex] = {}
        for occ, amp in amps.items():
            for j in range(m):
                coeff = u[j, mode]
                if coeff == 0:
                    continue
                new_occ = list(occ)
                new_occ[j] += 1
                key = tuple(new_occ)
                nxt[key] = nxt.get(key, 0.0) + amp * coeff * sqrt(new_occ[j])
        amps = nxt
    norm = prod(factorial(list(modes).count(q)) for q in set(modes))
    scale = 1.0 / sqrt(norm)
    return {k: v * scale for k, v in amps.items()}


def classical_routing_probability(
    u: np.ndarray, photons, occupations: tuple[int, ...]
) -> float:
    """Distinguishable-photon probability of ``occupations`` from input modes ``photons``, by enumeration."""
    m = u.shape[0]
    weights = np.abs(u) ** 2
    total = 0.0
    for assignment in itertools.product(range(m), repeat=len(photons)):
        occ = [0] * m
        for dest in assignment:
            occ[dest] += 1
        if tuple(occ) != tuple(occupations):
            continue
        p = 1.0
        for src, dest in zip(photons, assignment):
            p *= weights[dest, src]
        total += p
    return total


def branch_distribution(u: np.ndarray, photons) -> dict[tuple[int, ...], float]:
    """Output of one labeled branch by explicit class-by-class evolution.

    ``photons`` carry ``mode`` and ``label``.  Each label class evolves
    coherently by :func:`evolve_state_vector`; the class outputs combine
    by classical convolution over occupation tuples.
    """
    m = u.shape[0]
    classes: dict[int, list[int]] = {}
    for ph in photons:
        classes.setdefault(ph.label, []).append(ph.mode)
    dist = {(0,) * m: 1.0}
    for modes in classes.values():
        amps = evolve_state_vector(u, modes)
        nxt: dict[tuple[int, ...], float] = {}
        for occ, p in dist.items():
            for out, amp in amps.items():
                key = tuple(a + b for a, b in zip(occ, out))
                nxt[key] = nxt.get(key, 0.0) + p * abs(amp) ** 2
        dist = nxt
    return dist


def branchwise_noisy_distribution(u: np.ndarray, labeled) -> dict[tuple[int, ...], float]:
    """Noisy-source output summed branch by branch over ``labeled.branches``.

    The untruncated reference for ``noisy_simulate``: every branch of the
    explicit label expansion goes through :func:`branch_distribution`
    (branches with the same classes share one evaluation).
    """
    grouped: dict[tuple[tuple[int, ...], ...], tuple[float, tuple]] = {}
    for branch in labeled.branches:
        classes: dict[int, list[int]] = {}
        for ph in branch.photons:
            classes.setdefault(ph.label, []).append(ph.mode)
        key = tuple(sorted(tuple(sorted(modes)) for modes in classes.values()))
        weight, _ = grouped.get(key, (0.0, None))
        grouped[key] = (weight + branch.weight, branch.photons)
    total: dict[tuple[int, ...], float] = {}
    for weight, photons in grouped.values():
        for occ, p in branch_distribution(u, photons).items():
            total[occ] = total.get(occ, 0.0) + weight * p
    return total


def add_photon_fancy_index(
    vec: np.ndarray, n: int, column: np.ndarray, coherent: bool
) -> np.ndarray:
    """One photon-addition step over the full basis, fancy-index ``+=`` scatter."""
    m = len(column)
    batch = vec.shape[1:] or column.shape[1:]
    if batch == (1,):
        return add_photon_fancy_index(vec.reshape(len(vec)), n, column.reshape(m), coherent)[:, None]
    if batch and vec.ndim == 1:
        vec = vec[:, None]
    out = np.zeros((len(enumerate_basis(m, n + 1)), *batch), dtype=np.result_type(vec, column))
    steps, gains = _successors(m, n, (), None), _gains(m, n, (), None)
    for j in np.flatnonzero(column if column.ndim == 1 else np.any(column, axis=1)):
        # the kernel's operand order: swapped, a complex product may round apart
        term = vec * column[j]
        if coherent:
            term *= gains[j][:, None] if batch else gains[j]
        out[steps[j][1]] += term
    return out


def per_subset_noisy_sectors(
    unitaries: np.ndarray, labeled
) -> tuple[dict[int, np.ndarray], float]:
    """``batched_noisy_sectors`` with one coherent pass per shared set.

    Every shared set adds its photons from the vacuum, in sorted mode
    order, and divides out ``sqrt(prod s_i!)`` for bunched modes; every
    step scatters through :func:`add_photon_fancy_index`.
    """
    unitaries = np.asarray(unitaries, dtype=complex)
    count, m = unitaries.shape[:2]
    tail = _photon_number_tail(labeled)
    cap = int(np.argmax(tail[1:] <= TAIL_TOLERANCE))
    power = np.abs(unitaries) ** 2
    columns = [np.ascontiguousarray(power[:, :, q].T) for q in labeled.modes]
    rows = np.arange(count)

    def mix(sectors, column, w_none, w_one):
        out: dict[int, np.ndarray] = {}
        for n, vec in sectors.items():
            if w_none:
                _accumulate(out, n, w_none * vec)
            if w_one and n < cap:
                _accumulate(out, n + 1, add_photon_fancy_index(vec, n, w_one * column, False))
        return out

    sectors: dict[int, np.ndarray] = {}
    for members in itertools.product((False, True), repeat=len(labeled.modes)):
        shared_modes = sorted(q for q, s in zip(labeled.modes, members) if s)
        weight = prod(w for w, s in zip(labeled.shared, members) if s)
        if weight == 0.0 or len(shared_modes) > cap:
            continue
        amp = np.ones((1, count), dtype=complex)
        for k, q in enumerate(shared_modes):
            column = unitaries[rows, :, np.full(count, q)].T
            amp = add_photon_fancy_index(amp, k, column, True)
        bunching = prod(factorial(s) for s in np.bincount(shared_modes, minlength=m))
        if bunching > 1:
            amp = amp / sqrt(bunching)
        term = {len(shared_modes): weight * np.abs(amp) ** 2}
        for column, unique, lost, s in zip(columns, labeled.unique, labeled.lost, members):
            if not s:
                term = mix(term, column, lost, unique)
        for n, vec in term.items():
            _accumulate(sectors, n, vec)
    for column, extra in zip(columns, labeled.extra):
        sectors = mix(sectors, column, 1.0 - extra, extra)
    return sectors, float(tail[cap + 1])


def cyclic_full_distribution(n_photons: int, src, alpha: float = 0.0):
    """Noisy output of the cyclic interferometer over the full basis, no one-click pairs."""
    labeled = build_input(n_photons, src, cyclic_input_modes(n_photons))
    return noisy_simulate(cyclic_interferometer(n_photons, alpha), labeled)


_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1j], [1j, 0.0]]),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}


@functools.cache
def constructive_patterns(n_photons: int) -> frozenset[tuple[int, ...]]:
    """Pair-click patterns bright at alpha = 0 for perfect photons, simulated.

    Runs the ideal cyclic circuit on ``2 * n_photons`` modes and keeps the
    one-click-per-pair outcomes with probability above 1e-9 of the largest
    one; a pattern lists, pair by pair, whether the odd mode clicked.
    """
    unitary = _cyclic_circuit(n_photons, 0.0).unitary()
    dist = strong_simulate(unitary, cyclic_input_modes(n_photons))
    rows, probs = dist.outcomes()
    clicks = rows > 0
    right = clicks[:, 1::2]
    valid = np.all(clicks[:, 0::2] != right, axis=1)
    bright = valid & (probs > 1e-9 * probs.max())
    return frozenset(map(tuple, right[bright].astype(int).tolist()))


def fringe_contrast_rows(dist, n_photons: int) -> float:
    """``p_N = (C - D) / (C + D)`` with every outcome row classified on this call.

    Builds the click mask of the first ``2 * n_photons`` modes, keeps the
    rows with one click per output pair and splits them by whether the
    right-hand clicks, read as bits, form a simulated constructive
    pattern (:func:`constructive_patterns`).  The class values are summed
    in outcome order.
    """
    width = 2 * n_photons
    rows, values = dist.outcomes()
    clicks = rows[:, :width].reshape(len(rows), width) > 0
    right = clicks[:, 1::2]
    valid = np.all(clicks[:, 0::2] != right, axis=1)
    bits = 1 << np.arange(n_photons)
    bright = [int(np.dot(pattern, bits)) for pattern in constructive_patterns(n_photons)]
    constructive = valid & np.isin(right @ bits, bright)
    c_sum = float(values[constructive].sum())
    d_sum = float(values[valid & ~constructive].sum())
    return float((c_sum - d_sum) / (c_sum + d_sum))


def pauli_matrix(word: str) -> np.ndarray:
    """Kronecker product of single-qubit Paulis, first letter leftmost."""
    out = np.ones((1, 1), dtype=complex)
    for letter in word:
        out = np.kron(out, _PAULI_1Q[letter])
    return out


def haar_average_fidelity(
    u: np.ndarray,
    noisy_gate: "Callable[[np.ndarray], np.ndarray]",
    samples: int,
    seed: int,
) -> tuple[float, float]:
    """Monte-Carlo average gate fidelity over Haar-random pure states.

    ``noisy_gate`` maps an input density matrix through the noisy gate
    (gate action included).  Returns the sample mean and its standard
    error.
    """
    rng = np.random.default_rng(seed)
    d = u.shape[0]
    values = np.empty(samples)
    for k in range(samples):
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        ideal = u @ psi
        rho_out = noisy_gate(np.outer(psi, psi.conj()))
        values[k] = np.real(ideal.conj() @ rho_out @ ideal)
    return float(values.mean()), float(values.std(ddof=1) / sqrt(samples))


def swap_paired_functional(
    u: np.ndarray, noisy_gate: "Callable[[np.ndarray], np.ndarray]"
) -> float:
    """Direct quadruple-sum evaluation of the swap-paired estimator.

    Feeds every matrix unit through ``noisy_gate`` and contracts against
    the two alpha coefficients; independent of the plan solver.
    """
    d = u.shape[0]
    ud = u.conj().T
    total = 0.0 + 0.0j
    for ip, jp in itertools.product(range(d), repeat=2):
        unit = np.zeros((d, d), dtype=complex)
        unit[ip, jp] = 1.0
        image = noisy_gate(unit)
        for i, j in itertools.product(range(d), repeat=2):
            coef = ud[ip, i] * u[j, jp] + ud[ip, j] * u[i, jp]
            total += coef * image[j, i]
    return float(np.real(total)) / (d * (d + 1))


def dense_plan_weights(
    u: np.ndarray, n: int, functional: str
) -> dict[tuple[str, str], complex]:
    """Benchmark-plan weights from the dense 16^n x 16^n correlation solve.

    Builds the functional's dual matrix from its defining quadruple sum,
    fills one basis column vec(kron(rho^T, P)) per (preparation, word)
    and solves the full system.  Returns every weight, pruned or not,
    keyed by (preparation, word) in the plan's label order.  The n = 3
    system is 4096 x 4096 and takes seconds.
    """
    d = 2**n
    ud = u.conj().T
    dual = np.zeros((d * d, d * d), dtype=complex)
    for i, j, ip, jp in itertools.product(range(d), repeat=4):
        if functional == "tabulated":
            dual[jp * d + i, ip * d + j] += ud[ip, i] * u[j, jp] + ud[ip, j] * u[i, jp]
        else:
            dual[jp * d + i, ip * d + i] += ud[ip, j] * u[j, jp]
            dual[jp * d + i, ip * d + j] += ud[ip, j] * u[i, jp]
    dual /= d * (d + 1)

    rhos = {c: np.outer(v, v.conj()) for c, v in _PREP_VECTORS[functional].items()}
    signed = {c: _MEAS_SIGNS[functional][c] * _PAULI_1Q[c] for c in "IXYZ"}
    labels: list[tuple[str, str]] = []
    basis = np.empty((16**n, 16**n), dtype=complex)
    for prep in itertools.product("01+i", repeat=n):
        rho = np.ones((1, 1), dtype=complex)
        for c in prep:
            rho = np.kron(rho, rhos[c])
        for word in itertools.product("IXYZ", repeat=n):
            observable = np.ones((1, 1), dtype=complex)
            for c in word:
                observable = np.kron(observable, signed[c])
            basis[:, len(labels)] = np.kron(rho.T, observable).reshape(-1)
            labels.append(("".join(prep), "".join(word)))
    weights = np.linalg.solve(basis, dual.reshape(-1))
    return dict(zip(labels, weights))


def per_configuration_favg(
    plan, executor, shots_per_config=None, seed=0, merge_settings=True
) -> FidelityEstimate:
    """``estimate_favg`` with one executor call per configuration.

    Each (preparation, setting) configuration runs as a batch of one, in
    plan order, and its shots are drawn right after it.
    """
    rng = np.random.default_rng(seed)
    groups: dict[tuple, list[int]] = {}
    for index, entry in enumerate(plan.entries):
        key = (entry.preparation, entry.setting) if merge_settings else (index,)
        groups.setdefault(key, []).append(index)
    total, variance = plan.constant, 0.0
    for indices in groups.values():
        first = plan.entries[indices[0]]
        vectors = np.array(plan.preparation_vectors(first))
        probs = np.asarray(executor(vectors[None], [first.setting]), dtype=float)[0]
        if shots_per_config is not None:
            probs = rng.multinomial(shots_per_config, probs / probs.sum()) / shots_per_config
        for index in indices:
            entry = plan.entries[index]
            correlation = float(_pauli_signs(entry.word) @ probs) * plan.measurement_sign(entry)
            total += entry.weight * correlation
            if shots_per_config is not None:
                spread = max(0.0, 1.0 - correlation * correlation)
                variance += entry.weight**2 * spread / shots_per_config
    return FidelityEstimate(float(total), float(np.sqrt(variance)))


def channel_executor(
    channel: Callable[[np.ndarray], np.ndarray], n_qubits: int
) -> Executor:
    """Executor for any density-matrix map that includes the gate action.

    ``channel`` maps a ``(B, 2^n, 2^n)`` stack of density matrices to the
    stack of their outputs and is called once per executor call, on the
    product preparations of all B configurations.  Each configuration's
    measurement rotation is the Kronecker product of its 2x2 blocks (at
    most 16 x 16), and only the diagonal of the rotated output is formed.
    """

    def run(preparations: np.ndarray, settings: Sequence[str]) -> np.ndarray:
        preparations = np.asarray(preparations, dtype=complex)
        count = len(preparations)
        blocks = np.array(
            [[_MEAS_ROT[c] for c in word] for word in settings], dtype=complex
        ).reshape(count, n_qubits, 2, 2)
        psi = np.ones((count, 1), dtype=complex)
        rot = np.ones((count, 1, 1), dtype=complex)
        for q in range(n_qubits):
            psi = (psi[:, :, None] * preparations[:, q, None, :]).reshape(count, -1)
            rot = rot[:, :, None, :, None] * blocks[:, q, None, :, None, :]
            rot = rot.reshape(count, 2 << q, 2 << q)
        out = channel(psi[:, :, None] * psi[:, None, :].conj())
        # diag(R rho R^dagger)_i = sum_j (R rho)_ij conj(R_ij)
        probs = np.sum((rot @ out) * rot.conj(), axis=2).real
        return np.clip(probs, 0.0, None)

    return run


def depolarizing_executor(gate: GateCircuit | np.ndarray, probability: float) -> Executor:
    """Executor applying the gate followed by a depolarizing channel."""
    if not 0.0 <= probability <= 1.0:
        raise ValueError("depolarizing probability must lie in [0, 1]")
    mat = _as_unitary(gate)
    d = mat.shape[0]
    n_qubits = int(round(np.log2(d)))
    eye = np.eye(d, dtype=complex)

    def channel(rho: np.ndarray) -> np.ndarray:
        out = mat @ rho @ mat.conj().T
        trace = np.trace(out, axis1=-2, axis2=-1).real[..., None, None]
        return (1.0 - probability) * out + probability * trace / d * eye

    return channel_executor(channel, n_qubits)


def _add_block(circuit: PhotonicCircuit, block: np.ndarray) -> None:
    """One trainable block, cell by cell (outer and inner phase per cell)."""
    for cell, (a, b) in enumerate(_BLOCK_PAIRS):
        outer, inner = block[2 * cell], block[2 * cell + 1]
        circuit.add(PhaseShifter(a, outer))
        circuit.add(DirectionalCoupler(a, b))
        circuit.add(PhaseShifter(a, inner))
        circuit.add(DirectionalCoupler(a, b))


def _add_redirect(circuit: PhotonicCircuit) -> None:
    """Fixed layer spreading the outer region modes over their neighbors."""
    circuit.add(DirectionalCoupler(1, 2))
    circuit.add(DirectionalCoupler(0, 1))
    circuit.add(DirectionalCoupler(6, 7))
    circuit.add(DirectionalCoupler(7, 8))


def classifier_blocks(theta) -> tuple[np.ndarray, np.ndarray]:
    """The first block and the second block plus redirect layer, each built element by element."""
    theta = _checked_theta(theta)
    first, second = PhotonicCircuit(N_MODES), PhotonicCircuit(N_MODES)
    _add_block(first, theta[: N_THETA // 2])
    _add_block(second, theta[N_THETA // 2 :])
    _add_redirect(second)
    return first.unitary().matrix, second.unitary().matrix


def classifier_pattern_table() -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """Merged patterns and the ``(364, 37)`` matrix over the twelve-mode three-photon basis.

    Row by row, each occupation is threshold-detected and the redirect
    groups (modes 0-2 and 6-8) are summed into pseudo photon numbers.  A
    row with a photon on modes 9-11 is left unassigned: the circuit never
    populates those modes.
    """
    rows = basis_states(N_MODES, 3)
    merged = {}
    for i, occ in enumerate(rows):
        if sum(occ[:9]) == 3:
            clicks = [int(c > 0) for c in occ]
            merged[i] = (sum(clicks[0:3]), *clicks[3:6], sum(clicks[6:9]))
    patterns = tuple(sorted(set(merged.values())))
    column = {pattern: k for k, pattern in enumerate(patterns)}
    matrix = np.zeros((len(rows), len(patterns)))
    for i, pattern in merged.items():
        matrix[i, column[pattern]] = 1.0
    return patterns, matrix


def classifier_circuit(theta, phases) -> PhotonicCircuit:
    """Full twelve-mode classifier circuit for one data point, element by element.

    ``theta`` fills the two trainable blocks cell by cell (two phases
    per cell); ``phases`` are the four encoding phases applied between
    the blocks.  The fixed redirect layer follows the second block.
    """
    theta = _checked_theta(theta)
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (N_FEATURES,):
        raise ValueError(f"expected {N_FEATURES} encoding phases, got shape {phases.shape}")
    circuit = PhotonicCircuit(N_MODES)
    _add_block(circuit, theta[: N_THETA // 2])
    for mode, phase in zip(ENCODING_MODES, phases):
        circuit.add(PhaseShifter(mode, phase))
    _add_block(circuit, theta[N_THETA // 2 :])
    _add_redirect(circuit)
    return circuit


def h2_ground_energy_closed_form(
    alpha: float, beta: float, gamma: float, delta: float, mu: float
) -> float:
    """Ground energy of alpha II + beta ZI + gamma IZ + delta ZZ + mu XX.

    The Hamiltonian couples (|00>, |11>) and (|01>, |10>) separately, so
    the characteristic polynomial factors into two quadratics whose
    roots are written out here; the ground energy is the smaller branch
    minimum.
    """
    even = alpha + delta - np.hypot(beta + gamma, mu)
    odd = alpha - delta - np.hypot(beta - gamma, mu)
    return float(min(even, odd))


def postselect_by_state(distribution, rule) -> tuple[dict[tuple[int, ...], float], float]:
    """Postselected logical distribution, checking one outcome at a time.

    ``distribution`` is an ``OutputDistribution`` or a dict keyed by
    occupation tuples.  An outcome is
    kept when every rail pair holds exactly one photon (one click with
    ``rule.threshold``), every vacuum mode is empty and, if the rule has
    heralds, one herald pattern matches.  Returns the normalized
    ``{bits: probability}`` dict and the acceptance weight.
    """
    if isinstance(distribution, OutputDistribution):
        rows, values = distribution.outcomes()
        distribution = {tuple(r): p for r, p in zip(rows.tolist(), values.tolist()) if p}
    raw: dict[tuple[int, ...], float] = {}
    for occ, prob in distribution.items():
        bits = []
        for r0, r1 in rule.qubit_pairs:
            if rule.threshold:
                if (occ[r0] > 0) == (occ[r1] > 0):
                    break
                bits.append(1 if occ[r1] > 0 else 0)
            else:
                if occ[r0] + occ[r1] != 1:
                    break
                bits.append(occ[r1])
        else:
            if any(occ[mode] > 0 for mode in rule.vacuum_modes):
                continue
            if rule.heralds and not any(
                all(
                    (occ[mode] > 0) == (count > 0) if rule.threshold else occ[mode] == count
                    for mode, count in pattern
                )
                for pattern in rule.heralds
            ):
                continue
            raw[tuple(bits)] = raw.get(tuple(bits), 0.0) + prob
    weight = sum(raw.values())
    return {bits: p / weight for bits, p in raw.items()} if weight > 0 else {}, weight


def _embedded(block: np.ndarray, top: int, base: np.ndarray) -> np.ndarray:
    factor = base.copy()
    factor[top : top + 2, top : top + 2] = block
    return factor


def mesh_transfer_with_derivatives(
    cells, phases: np.ndarray, refl: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mesh transfer matrix and its parameter derivatives, element by element.

    ``cells[c]`` is the top mode of cell c; the cell applies phase(phi) on
    the top mode, coupler(r[c, 0]), phase(theta), coupler(r[c, 1]), with
    ``phases[2c] = theta`` and ``phases[2c + 1] = phi``.  The transfer
    matrix is the product of one full m x m factor per element, as
    ``PhotonicCircuit.unitary`` builds it.  The derivative by a parameter
    is the same product with that element's 2x2 block replaced by its
    derivative (zero elsewhere): ``1j exp(1j a)`` on a phase, ``dt =
    0.5 / sqrt(r)`` and ``dk = -0.5j / sqrt(1 - r)`` on a coupler.

    Returns ``u`` (m, m), ``du_phase`` (n_logical, m, m) in logical order
    and ``du_refl`` (n_cells, 2, m, m).
    """
    eye, zero = np.eye(m, dtype=complex), np.zeros((m, m), dtype=complex)
    factors: list[tuple[np.ndarray, np.ndarray, tuple]] = []
    for c, top in enumerate(cells):
        light_order = (("phase", 2 * c + 1), ("refl", (c, 0)), ("phase", 2 * c), ("refl", (c, 1)))
        for kind, index in light_order:
            if kind == "phase":
                z = np.exp(1j * phases[index])
                block = np.array([[z, 0.0], [0.0, 1.0]])
                derivative = np.array([[1j * z, 0.0], [0.0, 0.0]])
            else:
                r = refl[index]
                t, k = sqrt(r), 1j * sqrt(1.0 - r)
                dt, dk = 0.5 / sqrt(r), -0.5j / sqrt(1.0 - r)
                block = np.array([[t, k], [k, t]])
                derivative = np.array([[dt, dk], [dk, dt]])
            factors.append(
                (_embedded(block, top, eye), _embedded(derivative, top, zero), (kind, index))
            )

    def product(swap: int | None) -> np.ndarray:
        u = eye.copy()
        for i, (factor, derivative, _) in enumerate(factors):
            u = (derivative if i == swap else factor) @ u
        return u

    du_phase = np.zeros((2 * len(cells), m, m), dtype=complex)
    du_refl = np.zeros((len(cells), 2, m, m), dtype=complex)
    for i, (_, _, (kind, index)) in enumerate(factors):
        if kind == "phase":
            du_phase[index] = product(i)
        else:
            du_refl[index] = product(i)
    return product(None), du_phase, du_refl


def apply_element_numpy(u: np.ndarray, element) -> None:
    """Left-multiply ``u`` in place by one element, with numpy scalars.

    ``isinstance`` dispatch, ``np.sqrt`` coupler amplitudes and each
    coupler row read twice; ``mesh._apply_element`` must match it bit
    for bit.
    """
    if isinstance(element, PhaseShifter):
        u[element.mode, :] *= np.exp(1j * element.phase)
    elif isinstance(element, DirectionalCoupler):
        a, b = element.mode_a, element.mode_b
        t = np.sqrt(element.reflectivity)
        k = 1j * np.sqrt(1.0 - element.reflectivity)
        ra = t * u[a, :] + k * u[b, :]
        rb = k * u[a, :] + t * u[b, :]
        u[a, :] = ra
        u[b, :] = rb
    elif isinstance(element, ModePermutation):
        u[list(element.targets), :] = u.copy()
    else:
        raise TypeError(f"unknown circuit element {element!r}")


def rail_amplitudes_slos(unitary: np.ndarray, enc: QubitEncoding) -> np.ndarray:
    """Logical matrix of a mode unitary from one batched SLOS pass.

    Each of the 2^n rail inputs runs through ``batched_amplitudes`` over
    the whole n-photon basis, and is read at the 2^n rail outputs by rank.
    """
    n = enc.n_qubits
    dim = 1 << n
    bits = (np.arange(dim)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    rails = np.array(enc.qubit_pairs, dtype=np.intp)[np.arange(n), bits]
    amps = np.concatenate([batched_amplitudes(unitary[None], row) for row in rails])
    rows = np.zeros((dim, enc.n_modes), dtype=np.intp)
    rows[np.arange(dim)[:, None], rails] = 1
    return amps[:, enumerate_basis(enc.n_modes, n).rank(rows)].T


def ansatz_circuit(theta: Sequence[float], basis: str = "ZZ") -> GateCircuit:
    """Seven-angle two-qubit ansatz measured in the ``basis`` setting.

    The gate list is RY on qubit 0, CNOT, then RX, RZ, RX layers on
    both qubits; any two-qubit pure state is reachable.  ``basis`` is
    the circuit's measurement word, so the compiler applies its
    rotation (none for ZZ, a Hadamard on each qubit for XX).
    """
    steps = _ansatz_steps(theta)
    basis = basis.upper()
    if basis not in BASES:
        raise ValueError(f"basis must be one of {BASES}, got {basis!r}")
    return GateCircuit(2, tuple(Gate(*step) for step in steps), basis)


class PerEvaluationVqeBackend(PhotonicVqeBackend):
    """``PhotonicVqeBackend`` with no compiler kept between circuits.

    Every circuit is compiled from scratch by ``compile_gate_circuit``
    after its caches are emptied, so nothing one evaluation compiled is
    reused by the next, and the ansatz settings of a stack of angle rows
    are the compiles of ``ansatz_circuit(theta, basis)``, one per row
    and basis, not the bound compile, read out one circuit at a time,
    not in one stacked pass.  Each is read out through a Fock
    distribution, then ``logical_distribution``: ``strong_simulate`` for
    the perfect source, so the ideal cases compare the trigger sum the
    backend runs with the ideal simulator, and ``noisy_simulate``
    otherwise.  The encoding, input and readout-flip matrix are built
    here, not read from the backend.
    """

    def distribution(self, circuit):
        if circuit.n_qubits != 2:
            raise ValueError("backend is wired for two-qubit circuits")
        enc = QubitEncoding.default(2)
        modes = tuple(rail0 for rail0, _ in enc.qubit_pairs)
        for cached in (_gate_elements, _checked_gates, _PREFIXES, _setting_elements):
            cached.cache_clear()
        _, rule, _, unitary = compile_gate_circuit(circuit, enc)
        if self.source == SourceModel():  # the ideal simulator, not the trigger sum
            dist = strong_simulate(unitary, modes)
        else:
            dist = noisy_simulate(unitary, build_input(2, self.source, modes=modes))
        f = self.readout_flip
        flip = np.array([[1.0 - f, f], [f, 1.0 - f]])
        return np.kron(flip, flip) @ logical_distribution(dist, rule)[0].ravel()

    def ansatz_distributions(self, thetas):
        return np.array(
            [[self.distribution(ansatz_circuit(theta, b)) for b in BASES] for theta in thetas]
        )


def forward_sweep_by_layer(layout: MeshLayout, rows: np.ndarray, phases: np.ndarray, refl):
    """``mesh._forward_sweep`` on coupler factors broadcast from (2, n_cells, 1).

    Each layer reads its span of the (2, n_cells, 1) coupler columns, so
    every coupler product broadcasts a column over the row batch, and
    writes its products into scratch sliced from (2, n_cells, B) arrays by
    the same span.  Every product still goes to an array that is none of
    its operands.  Returns the output (B, m) and the tape amplitudes ``x``
    and ``y`` (2, n_cells, B) in layer order; the library's sweep on
    full-width coupler planes must match them bit for bit.
    """
    n_rows = len(rows)
    e = np.multiply(1j, np.reshape(phases, (-1, layout.n_logical)).T[
        2 * layout.layer_order + np.array([[0], [1]])
    ])
    np.exp(e, out=e)
    r = np.ascontiguousarray(np.asarray(refl)[layout.layer_order].T)[..., None]
    t, k = np.sqrt(r), 1j * np.sqrt(1.0 - r)
    s = np.array(rows.T, dtype=complex, order="C")
    x, y, scratch = (np.empty((2, layout.n_cells, n_rows), dtype=complex) for _ in range(3))

    def mix(a, u, b, v, p, q, out):
        np.multiply(a, u, out=p)
        np.multiply(b, v, out=q)
        np.add(p, q, out=out)

    for span, top, bot in layout.layers:
        t1, k1, t2, k2 = t[0, span], k[0, span], t[1, span], k[1, span]
        x1, y1, x3, y3 = x[0, span], y[0, span], x[1, span], y[1, span]
        p, q = scratch[0, span], scratch[1, span]
        np.multiply(s[top], e[1, span], out=x1)
        y1[...] = s[bot]
        mix(t1, x1, k1, y1, p, q, out=p)
        np.multiply(p, e[0, span], out=x3)
        mix(k1, x1, t1, y1, p, q, out=y3)
        mix(t2, x3, k2, y3, p, q, out=s[top])
        mix(k2, x3, t2, y3, p, q, out=s[bot])
    return np.ascontiguousarray(s.T), x, y


def adjoint_sweep_by_layer(layout: MeshLayout, work, adjoint: np.ndarray):
    """``mesh._adjoint_sweep`` with every derivative formed inside the layer loop.

    ``work`` is the sweep workspace that holds the forward sweep's tape.
    Each layer reads its tape amplitudes, forms the reflectivity and
    phase derivatives of its cells from the cotangent at hand and
    carries the cotangent on; the results are permuted back to cell
    order at the end.  The library's post-loop pass must match it bit
    for bit.
    """
    e, t, k, x, y = work.e, work.t, work.k, work.x, work.y
    dt, dk = 0.5 / t, -0.5j / np.sqrt(1.0 - work.refl)
    a = np.array(adjoint.T, dtype=complex, order="C")
    d_phases, d_refl = np.empty_like(x), np.empty_like(x)
    for span, top, bot in reversed(layout.layers):
        t1, k1, t2, k2 = t[0, span], k[0, span], t[1, span], k[1, span]
        dt1, dk1, dt2, dk2 = dt[0, span], dk[0, span], dt[1, span], dk[1, span]
        x1, y1, x3, y3 = x[0, span], y[0, span], x[1, span], y[1, span]
        ax, ay = a[top], a[bot]
        d_refl[1, span] = ax * (dt2 * x3 + dk2 * y3) + ay * (dk2 * x3 + dt2 * y3)
        ax, ay = t2 * ax + k2 * ay, k2 * ax + t2 * ay
        d_phases[0, span] = 1j * ax * x3
        ax = ax * e[0, span]
        d_refl[0, span] = ax * (dt1 * x1 + dk1 * y1) + ay * (dk1 * x1 + dt1 * y1)
        ax, ay = t1 * ax + k1 * ay, k1 * ax + t1 * ay
        d_phases[1, span] = 1j * ax * x1
        a[top] = ax * e[1, span]
        a[bot] = ay
    inverse = layout.layer_inverse
    n_rows = a.shape[1]
    return (
        np.take(d_phases.T, inverse, axis=1).reshape(n_rows, layout.n_logical),
        np.take(d_refl.T, inverse, axis=1),
    )


def optimal_gauges_einsum(target: np.ndarray, implemented: np.ndarray):
    """Boundary phases by alternating updates that rescore the dressed matrix.

    Every step forms ``D_out U D_in`` against ``conj(T)`` with an einsum
    and scores ``|Tr(D_in T^dag D_out U)|``; the update orders, the step
    budget, the stop rule and the better-of-two choice are the library's.
    Returns the (output, input) phases.
    """
    target_conj = target.conj()
    m = target.shape[0]
    best = None
    for out_first in (True, False):
        d_in = np.ones(m, dtype=complex)
        d_out = np.ones(m, dtype=complex)
        left = d_out[:, None] * implemented
        score = -1.0
        for step in range(GAUGE_ITERATIONS):
            if (step % 2 == 0) == out_first:
                diag_out = np.einsum("ij,ij->i", implemented * d_in[None, :], target_conj)
                size = np.abs(diag_out)
                d_out = np.where(size > 1e-15, np.conj(diag_out) / size, 1.0)
                left = d_out[:, None] * implemented
            else:
                diag_in = np.einsum("ij,ij->j", left, target_conj)
                size = np.abs(diag_in)
                d_in = np.where(size > 1e-15, np.conj(diag_in) / size, 1.0)
            new_score = float(
                np.abs(np.sum(np.einsum("ij,ij->i", left * d_in[None, :], target_conj)))
            )
            if step > 2 and new_score - score < 1e-14:
                score = new_score
                break
            score = new_score
        if best is None or score > best[0]:
            best = (score, d_out, d_in)
    return np.angle(best[1]), np.angle(best[2])


def phases_per_row(voltages: np.ndarray, hw: HardwareModel) -> np.ndarray:
    """``A V^2 + b`` of one voltage vector, as a plain matrix-vector product."""
    return hw.a @ (voltages * voltages) + hw.b


def voltages_from_phases_per_row(phi_target: np.ndarray, hw: HardwareModel) -> np.ndarray:
    """Branch search for one phase vector with one ``solve`` per round.

    Raises :class:`TranspilationError` with the library's messages.
    """
    phi_target = np.asarray(phi_target, dtype=float)
    w_cap = hw.v_max**2
    k = np.ceil((hw.b - phi_target) / (2.0 * np.pi))
    flips = np.zeros_like(k)
    for _ in range(TRANSPILE_MAX_ROUNDS):
        w = np.linalg.solve(hw.a, phi_target + 2.0 * np.pi * k - hw.b)
        if not np.all(np.isfinite(w)):
            raise TranspilationError("the phase model gives a non-finite voltage solution")
        negative = w < -1e-12
        over = w > w_cap + 1e-9
        if not negative.any() and not over.any():
            break
        stuck = np.flatnonzero(flips > 8)
        if stuck.size:
            raise TranspilationError(
                f"no feasible voltage branch for shifters {stuck.tolist()} "
                f"(2 pi window exceeds the {w_cap:.0f} V^2 range)"
            )
        k[negative] += 1.0
        k[over & ~negative] -= 1.0
        flips[negative | over] += 1.0
    else:
        bad = np.flatnonzero((w < -1e-12) | (w > w_cap + 1e-9))
        raise TranspilationError(f"branch search did not converge for shifters {bad.tolist()}")
    voltages = np.sqrt(np.clip(w, 0.0, w_cap))
    residual = phases_per_row(voltages, hw) - phi_target
    residual = np.abs((residual + np.pi) % (2.0 * np.pi) - np.pi)
    if not residual.max() <= 1e-6:
        raise TranspilationError(f"transpilation residual {residual.max():.2e} rad")
    return voltages


def benchmark_tvds_per_row(
    hw_est: HardwareModel,
    hw_true: HardwareModel,
    layout: MeshLayout,
    n_configs: int,
    seed: int,
) -> np.ndarray:
    """Programming-benchmark TVDs with one draw and one transpilation per candidate."""
    rng = np.random.default_rng(seed)
    targets, volts = [], []
    while len(targets) < n_configs:
        phi_target = rng.uniform(0.0, 2.0 * np.pi, size=layout.n_actuated)
        try:
            volts.append(voltages_from_phases_per_row(phi_target, hw_est))
        except TranspilationError:
            continue
        targets.append(phi_target)
    inputs = np.arange(n_configs) % layout.m
    intended = _intensities(hw_est, layout, layout.phases_from_actuated(np.array(targets)), inputs)
    realized_phases = [phases_per_row(v, hw_true) for v in volts]
    realized = _intensities(
        hw_true, layout, layout.phases_from_actuated(np.array(realized_phases)), inputs
    )
    return _tvd(intended, realized)


def measurements_per_row(
    hw: HardwareModel, layout: MeshLayout, n: int, seed: int, noise: float, scale: float
) -> IntensityData:
    """Random-drive intensity data with the phases of each drive formed on its own."""
    rng = np.random.default_rng(seed)
    volts, gains = [], []
    for _ in range(n):
        volts.append(rng.uniform(0.0, hw.v_max, size=hw.b.shape[0]))
        gains.append(1.0 + noise * rng.standard_normal(hw.m))
    inputs = [i % hw.m for i in range(n)]
    phases = layout.phases_from_actuated(np.array([phases_per_row(v, hw) for v in volts]))
    clean = scale * _intensities(hw, layout, phases, inputs)
    noisy = np.clip(clean * np.array(gains), 0.0, None)
    return IntensityData(np.array(volts), np.array(inputs), noisy)


def rail_modes(enc: QubitEncoding, bits: Sequence[int]) -> tuple[int, ...]:
    """Input modes of a computational basis state: one photon per qubit on the
    rail of its bit, qubit 0 first."""
    return tuple(enc.rail(q, bit) for q, bit in enumerate(bits))
