"""Brute-force reference implementations used only by the test suite.

Each function here recomputes a quantity through a route independent of
the library code: Fock bases filtered from every occupation tuple,
factorial-cost permanents, full second-quantized
state-vector evolution, explicit classical routing enumeration, the
noisy-source output summed over every labeled branch, and the mesh
transfer matrix and its derivatives as products of per-element factors.
"""

from __future__ import annotations

import itertools
from math import comb, factorial, sqrt

import numpy as np

from lopsim.fock import FockState


def fock_basis_rows(m: int, n: int, collision_free: bool) -> np.ndarray:
    """Every n-photon occupation row on m modes, ascending lexicographically.

    Filters all occupation tuples with entries up to the per-mode cap (1
    collision-free, n otherwise) by their photon total; ``(N, m)`` int8.
    """
    cap = 1 if collision_free else n
    rows = sorted(r for r in itertools.product(range(cap + 1), repeat=m) if sum(r) == n)
    return np.array(rows, dtype=np.int8).reshape(len(rows), m)


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


def evolve_state_vector(u: np.ndarray, input_state: FockState) -> dict[FockState, complex]:
    """Second-quantized evolution of a Fock input through an interferometer.

    Applies the image of each creation operator photon by photon and
    returns amplitudes on normalized occupation kets.
    """
    amps: dict[tuple[int, ...], complex] = {(0,) * input_state.m: 1.0 + 0.0j}
    for mode in input_state.modes():
        nxt: dict[tuple[int, ...], complex] = {}
        for occ, amp in amps.items():
            for j in range(input_state.m):
                coeff = u[j, mode]
                if coeff == 0:
                    continue
                new_occ = list(occ)
                new_occ[j] += 1
                key = tuple(new_occ)
                nxt[key] = nxt.get(key, 0.0) + amp * coeff * sqrt(new_occ[j])
        amps = nxt
    norm = 1.0
    for occ in input_state.occupations:
        norm *= factorial(occ)
    scale = 1.0 / sqrt(norm)
    return {FockState(k): v * scale for k, v in amps.items()}


def classical_routing_probability(
    u: np.ndarray, input_state: FockState, output_state: FockState
) -> float:
    """Distinguishable-photon outcome probability by explicit enumeration."""
    m = input_state.m
    weights = np.abs(u) ** 2
    photons = input_state.modes()
    total = 0.0
    for assignment in itertools.product(range(m), repeat=len(photons)):
        occ = [0] * m
        for dest in assignment:
            occ[dest] += 1
        if tuple(occ) != output_state.occupations:
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
        amps = evolve_state_vector(u, FockState.from_modes(m, modes))
        nxt: dict[tuple[int, ...], float] = {}
        for occ, p in dist.items():
            for state, amp in amps.items():
                key = tuple(a + b for a, b in zip(occ, state.occupations))
                nxt[key] = nxt.get(key, 0.0) + p * abs(amp) ** 2
        dist = nxt
    return dist


def thin_by_state(
    dist: dict[tuple[int, ...], float], keep: np.ndarray
) -> dict[tuple[int, ...], float]:
    """Per-mode binomial loss applied outcome by outcome, loss pattern by loss pattern."""
    out: dict[tuple[int, ...], float] = {}
    for occ, p in dist.items():
        for lost in itertools.product(*(range(o + 1) for o in occ)):
            w = p
            for o, d, k in zip(occ, lost, keep):
                w *= comb(o, d) * k ** (o - d) * (1.0 - k) ** d
            key = tuple(o - d for o, d in zip(occ, lost))
            out[key] = out.get(key, 0.0) + w
    return out


def branchwise_noisy_distribution(
    u: np.ndarray, labeled, output_losses: np.ndarray | None = None
) -> dict[tuple[int, ...], float]:
    """Noisy-source output summed branch by branch over ``labeled.branches``.

    The untruncated reference for ``noisy_simulate``: every branch of the
    explicit label expansion goes through :func:`branch_distribution`
    (branches with the same classes share one evaluation) and, with
    ``output_losses``, through :func:`thin_by_state`.
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
    if output_losses is not None:
        total = thin_by_state(total, np.asarray(output_losses, dtype=float))
    return total


_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1j], [1j, 0.0]]),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}


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

    Keys may be ``FockState`` objects or occupation tuples.  A state is
    kept when every rail pair holds exactly one photon (one click with
    ``rule.threshold``), every vacuum mode is empty and, if the rule has
    heralds, one herald pattern matches.  Returns the normalized
    ``{bits: probability}`` dict and the acceptance weight.
    """
    raw: dict[tuple[int, ...], float] = {}
    for key, prob in distribution.items():
        occ = getattr(key, "occupations", key)
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
