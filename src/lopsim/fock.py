"""Fock-space linear algebra for multi-photon interferometry.

Occupation-number states, basis enumeration, matrix permanents, exact
transition amplitudes and strong simulation of linear-optical circuits.

A :class:`FockBasis` stores every n-photon state on m modes as one
read-only ``(N, m)`` array of occupations in ascending lexicographic
order and ranks rows by the combinatorial number system (a table of how
many completions the remaining modes admit); no other module knows this
layout, and it is the only basis kind.  Every multi-photon
distribution comes from one kernel that adds a photon from one input
mode to a vector over the n-photon basis: on amplitudes it is the SLOS
recursion of Heurtel et al., *Strong simulation of linear optical
processes* (Comput. Phys. Commun. 291, 108848 (2023)); on ``|U|^2`` it
is the classical convolution.  A trailing batch axis runs many unitaries
through the same recursion at once (:func:`batched_amplitudes`).
Permanents serve only single amplitudes.

:class:`OutputDistribution` is the one type of every simulated output,
ideal or from a noisy source: a probability vector per photon-number
sector over the cached basis, plus the mass a collision-free
restriction kept (``subspace_weight``) and the mass a simulation left
out (``dropped_weight``).  Every readout (click patterns, postselection,
pattern merging, the collision-free restriction of threshold detectors)
is a mask or group-by on one outcome view, :func:`outcome_arrays`:
``(K, m)`` occupation rows and ``(K,)`` values.  An
:class:`OutputDistribution` hands over its arrays through
``outcomes()``; any other mapping, such as the counts of :func:`sample`,
keyed by state or by tuple, is converted once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, prod, sqrt
from typing import Iterable, Iterator, Mapping

import numpy as np

__all__ = [
    "FockState",
    "FockBasis",
    "ModeUnitary",
    "OutputDistribution",
    "SampleCounts",
    "permanent",
    "enumerate_basis",
    "output_amplitude",
    "distinguishable_probability",
    "strong_simulate",
    "batched_amplitudes",
    "sample",
    "outcome_arrays",
]

PERMANENT_MAX_SIZE = 16
UNITARITY_ATOL = 1e-10


@dataclass(frozen=True)
class FockState:
    """Occupation numbers of ``m`` optical modes, mode 0 first."""

    occupations: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(o < 0 for o in self.occupations):
            raise ValueError(f"negative occupation in {self.occupations}")

    @property
    def m(self) -> int:
        return len(self.occupations)

    @property
    def n(self) -> int:
        return sum(self.occupations)

    @classmethod
    def from_string(cls, text: str) -> "FockState":
        """Parse a digit string such as ``"010010"`` (one digit per mode)."""
        if not text or not text.isdigit():
            raise ValueError(f"not a valid occupation string: {text!r}")
        return cls(tuple(int(c) for c in text))

    @classmethod
    def from_modes(cls, m: int, modes: Iterable[int]) -> "FockState":
        """State with one photon added per entry of ``modes``."""
        occ = [0] * m
        for mode in modes:
            if not 0 <= mode < m:
                raise ValueError(f"mode {mode} out of range for m={m}")
            occ[mode] += 1
        return cls(tuple(occ))

    def to_string(self) -> str:
        if any(o > 9 for o in self.occupations):
            raise ValueError("occupation > 9 has no single-digit form")
        return "".join(str(o) for o in self.occupations)

    def modes(self) -> tuple[int, ...]:
        """Mode index of each photon, repeated by occupation, sorted."""
        out: list[int] = []
        for mode, occ in enumerate(self.occupations):
            out.extend([mode] * occ)
        return tuple(out)

    def is_collision_free(self) -> bool:
        return all(o <= 1 for o in self.occupations)

    def __str__(self) -> str:
        return self.to_string()


class FockBasis:
    """Canonically ordered basis of every n-photon state on m modes.

    ``occupations`` holds one row per state, in ascending lexicographic
    order, so for m=12, n=6 the basis runs from |000000000006> up to
    |600000000000>.  Any restriction, such as the collision-free rows a
    threshold detector can tell apart, is a mask on these rows and keeps
    their order.  States are built on demand by indexing or iteration;
    :meth:`rank` maps occupation rows back to their positions.
    """

    def __init__(self, m: int, n: int):
        if m < 1:
            raise ValueError("need at least one mode")
        if not 0 <= n <= np.iinfo(np.int8).max:
            raise ValueError(f"photon number must lie in [0, 127], got {n}")
        self.m = m
        self.n = n
        # blocks[k]: rows over the last s modes holding k photons, in
        # order; prepending one mode's occupation keeps them in order.
        # tails[s, k] counts them.
        blocks = [np.zeros((1, 0), dtype=np.int8)] + [np.zeros((0, 0), dtype=np.int8)] * n
        tails = np.zeros((m, n + 1), dtype=np.intp)
        for s in range(m):
            tails[s] = [len(b) for b in blocks]
            grown = []
            for k in range(n + 1):
                parts = [blocks[k - o] for o in range(k + 1)]
                block = np.empty((sum(map(len, parts)), s + 1), dtype=np.int8)
                start = 0
                for o, part in enumerate(parts):
                    block[start : start + len(part), 0] = o
                    block[start : start + len(part), 1:] = part
                    start += len(part)
                grown.append(block)
            blocks = grown
        self.occupations = blocks[n]
        self.occupations.setflags(write=False)
        # below[i, r, o]: states that put fewer than o photons on mode i
        # when r photons are left for modes i..m-1.
        below = np.zeros((m, n + 1, n + 1), dtype=np.intp)
        for o in range(1, n + 1):
            below[:, o - 1 :, o] = tails[:, : n + 2 - o]
        self._below = np.cumsum(below, axis=2)[::-1]
        self._below.setflags(write=False)

    def rank(self, rows: np.ndarray) -> np.ndarray:
        """Basis index of each occupation row; ``KeyError`` if any is absent."""
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self.m or not (
            np.all(rows.sum(axis=1) == self.n)
            and np.all((rows >= 0) & (rows < self._below.shape[2]))
        ):
            raise KeyError(f"occupation rows outside the ({self.m}, {self.n}) basis")
        index = np.zeros(len(rows), dtype=np.intp)
        left = np.full(len(rows), self.n)
        for i, below in enumerate(self._below):
            index += below[left, rows[:, i]]
            left -= rows[:, i]
        return index

    def __len__(self) -> int:
        return len(self.occupations)

    def __iter__(self) -> Iterator[FockState]:
        return (FockState(tuple(row)) for row in self.occupations.tolist())

    def __getitem__(self, i: int) -> FockState:
        return FockState(tuple(self.occupations[i].tolist()))

    def __contains__(self, state: FockState) -> bool:
        try:
            return self.index(state) >= 0
        except (KeyError, AttributeError):
            return False

    def index(self, state: FockState) -> int:
        try:
            return int(self.rank(np.array([state.occupations]))[0])
        except KeyError:
            raise KeyError(f"{state} is not in this basis") from None

    @property
    def size(self) -> int:
        return len(self.occupations)


class ModeUnitary:
    """An m-mode linear-optical transfer matrix, validated as unitary."""

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
        deviation = np.max(np.abs(matrix.conj().T @ matrix - np.eye(matrix.shape[0])))
        if not deviation <= UNITARITY_ATOL * max(1.0, matrix.shape[0]):
            raise ValueError(f"matrix is not unitary (max deviation {deviation:.3e})")
        matrix = matrix.copy()
        matrix.setflags(write=False)
        self.matrix = matrix

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def haar_random(cls, m: int, rng: np.random.Generator) -> "ModeUnitary":
        """Haar-distributed random unitary via QR with phase correction."""
        z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        q, r = np.linalg.qr(z)
        phases = np.diag(r).copy()
        phases /= np.abs(phases)
        return cls(q * phases)

    def __matmul__(self, other: "ModeUnitary") -> "ModeUnitary":
        if self.m != other.m:
            raise ValueError("mode count mismatch")
        return ModeUnitary(self.matrix @ other.matrix)


@lru_cache(maxsize=32)
def _glynn_deltas(k: int) -> tuple[np.ndarray, np.ndarray]:
    """All delta vectors (first entry fixed +1) and their sign products."""
    count = 1 << (k - 1)
    idx = np.arange(count, dtype=np.uint32)
    bits = (idx[:, None] >> np.arange(k - 1, dtype=np.uint32)[None, :]) & 1
    deltas = np.empty((count, k), dtype=np.float64)
    deltas[:, 0] = 1.0
    deltas[:, 1:] = 1.0 - 2.0 * bits
    parity = bits.sum(axis=1) & 1
    signs = 1.0 - 2.0 * parity.astype(np.float64)
    deltas.setflags(write=False)
    signs.setflags(write=False)
    return deltas, signs


def permanent(matrix: np.ndarray) -> complex:
    """Permanent of a square matrix by Glynn's formula.

    Cost is O(2^k k^2) for a k x k matrix; k is capped at 16. From
    k >= 12 accumulation runs in extended precision to limit
    cancellation error.
    """
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    k = a.shape[0]
    if k == 0:
        return 1.0 + 0.0j
    if k > PERMANENT_MAX_SIZE:
        raise ValueError(f"permanent size {k} exceeds cap {PERMANENT_MAX_SIZE}")
    if k == 1:
        return complex(a[0, 0])
    dtype = np.clongdouble if k >= 12 else np.complex128
    deltas, signs = _glynn_deltas(k)
    rows = deltas.astype(dtype) @ a.astype(dtype)
    terms = np.prod(rows, axis=1)
    total = np.dot(signs.astype(dtype), terms)
    return complex(total / dtype(1 << (k - 1)))


@lru_cache(maxsize=None)
def enumerate_basis(m: int, n: int) -> FockBasis:
    """Canonical n-photon basis on m modes (see :class:`FockBasis`).

    Bases are cached: repeated simulations at the same (m, n) share one
    occupation array and rank table.
    """
    return FockBasis(m, n)


@lru_cache(maxsize=None)
def _successors(m: int, n: int) -> np.ndarray:
    """Index of ``s + e_j`` in the (n+1)-photon basis, shape (m, N_n).

    The rank terms of ``s + e_j`` are those of ``s`` with one more photon
    left for modes up to j, so each row is a prefix, a term and a suffix.
    """
    occ, below = enumerate_basis(m, n).occupations, enumerate_basis(m, n + 1)._below
    terms = np.empty((m, len(occ)), dtype=np.intp)
    left = np.full(len(occ), n)
    for i in range(m):
        terms[i] = below[i, left, occ[:, i]]
        left -= occ[:, i]
    suffix, prefix = terms.sum(axis=0), 0
    left = np.full(len(occ), n + 1)
    for j in range(m):
        suffix -= terms[j]
        terms[j] = prefix + below[j, left, occ[:, j] + 1] + suffix
        prefix = prefix + below[j, left, occ[:, j]]
        left -= occ[:, j]
    terms.setflags(write=False)
    return terms


@lru_cache(maxsize=None)
def _gains(m: int, n: int) -> np.ndarray:
    """Bosonic gain ``sqrt(s_j + 1)`` of a photon added to mode j, shape (m, N_n)."""
    gains = np.ascontiguousarray(np.sqrt(enumerate_basis(m, n).occupations.T + 1.0))
    gains.setflags(write=False)
    return gains


def _add_photon(vec: np.ndarray, n: int, column: np.ndarray, coherent: bool) -> np.ndarray:
    """Add one photon to vectors over the full n-photon basis.

    ``column`` is where the photon goes.  Coherently, ``vec`` holds
    amplitudes, ``column`` is ``U[:, k]`` for input mode k, and the step
    is ``amp'[s + e_j] += U[j, k] sqrt(s_j + 1) amp[s]`` (one SLOS step).
    Otherwise ``vec`` holds probabilities, ``column`` is ``|U[:, k]|^2``
    and the step is ``p'[s + e_j] += |U[j, k]|^2 p[s]``.

    The basis axis comes first.  ``vec`` is ``(N_n,)`` or ``(N_n, B)``
    and ``column`` is ``(m,)`` or ``(m, B)``; a trailing batch axis on
    either runs B independent additions (one unitary and state per
    column) in the same scatter, and a 1-D operand is shared by all B.
    Returns the vectors over the full (n+1)-photon basis, ``(N_{n+1},)``
    when both inputs are 1-D and ``(N_{n+1}, B)`` otherwise.  B = 1 runs
    as the 1-D call: a trailing axis of length 1 only slows the scatter.
    Each ``succ[j]`` holds distinct indices, so both scatters add the same
    terms in the same order: ``np.add.at`` on 1-D vectors (12 scatters of
    167,960 states on 12 modes: 5.5 ms, fancy-index ``+=`` 11.5 ms) and
    ``+=`` with a batch axis (4,368 x 4 states: 2.1 ms, ``np.add.at`` 4.6 ms).
    """
    m = len(column)
    batch = vec.shape[1:] or column.shape[1:]
    if batch == (1,):
        return _add_photon(vec.reshape(len(vec)), n, column.reshape(m), coherent)[:, None]
    if batch and vec.ndim == 1:
        vec = vec[:, None]
    out = np.zeros((len(enumerate_basis(m, n + 1)), *batch), dtype=np.result_type(vec, column))
    succ = _successors(m, n)
    for j in np.flatnonzero(column if column.ndim == 1 else np.any(column, axis=1)):
        term = column[j] * vec
        if coherent:
            gain = _gains(m, n)[j]
            term *= gain[:, None] if batch else gain
        if batch:
            out[succ[j]] += term
        else:
            np.add.at(out, succ[j], term)
    return out


def batched_amplitudes(unitaries: np.ndarray, input_modes: np.ndarray) -> np.ndarray:
    """Output amplitudes of B inputs through B unitaries in one SLOS pass.

    ``unitaries`` is ``(B, m, m)`` and ``input_modes`` is ``(B, n)``: row
    b lists the input mode of each photon of input b (repeats bunch).
    Returns ``(B, N)`` amplitudes over ``enumerate_basis(m, n)``, row b
    being ``<t|U_b|s_b>`` for every basis state t.  The photons of all B
    inputs are added one position at a time through the batched kernel.
    """
    unitaries = np.asarray(unitaries, dtype=complex)
    input_modes = np.asarray(input_modes, dtype=np.intp)
    rows = np.arange(len(input_modes))
    amp = np.ones((1, len(rows)), dtype=complex)
    for n, modes in enumerate(input_modes.T):
        amp = _add_photon(amp, n, unitaries[rows, :, modes].T, coherent=True)
    return _unbunched(amp, input_modes, unitaries.shape[1])


def _unbunched(amp: np.ndarray, input_modes: np.ndarray, m: int) -> np.ndarray:
    """``(B, N)`` amplitudes from ``(N, B)`` photon additions: divides out ``sqrt(prod s_i!)``."""
    rows = np.arange(len(input_modes))
    occ = np.zeros((len(rows), m), dtype=np.intp)
    np.add.at(occ, (rows[:, None], input_modes), 1)
    if np.all(occ <= 1):
        return amp.T
    table = np.array([factorial(k) for k in range(input_modes.shape[1] + 1)], dtype=float)
    return amp.T / np.sqrt(np.prod(table[occ], axis=1))[:, None]


def _submatrix(u: np.ndarray, input_state: FockState, output_state: FockState) -> np.ndarray:
    return u[np.ix_(output_state.modes(), input_state.modes())]


def _factorials(state: FockState) -> int:
    return prod(factorial(occ) for occ in state.occupations)


def output_amplitude(
    unitary: ModeUnitary, input_state: FockState, output_state: FockState
) -> complex:
    """Transition amplitude <t|U|s> = Perm(U_st) / sqrt(prod s_i! prod t_j!)."""
    _check_states(unitary, input_state, output_state)
    if input_state.n == 0:
        return 1.0 + 0.0j
    perm = permanent(_submatrix(unitary.matrix, input_state, output_state))
    return perm / sqrt(_factorials(input_state) * _factorials(output_state))


def distinguishable_probability(
    unitary: ModeUnitary, input_state: FockState, output_state: FockState
) -> float:
    """Outcome probability for fully distinguishable photons.

    Classical routing: Perm(|U_st|^2) / prod t_j!.
    """
    _check_states(unitary, input_state, output_state)
    if input_state.n == 0:
        return 1.0
    sub = np.abs(_submatrix(unitary.matrix, input_state, output_state)) ** 2
    return float(np.real(permanent(sub)) / _factorials(output_state))


def _check_states(unitary: ModeUnitary, *states: FockState) -> None:
    n = states[0].n
    for s in states:
        if s.m != unitary.m:
            raise ValueError(f"state has {s.m} modes, unitary has {unitary.m}")
        if s.n != n:
            raise ValueError("photon number mismatch between states")


class OutputDistribution(Mapping[FockState, float]):
    """Outcome probabilities of one detector array, one vector per photon number.

    ``sectors[n]`` is the probability vector over ``enumerate_basis(m, n)``;
    only sectors with mass are kept.  Iteration, ``items`` and ``len``
    cover the nonzero outcomes, and so do ``in``, ``get`` and ``[]``:
    ``[]`` raises KeyError elsewhere, while :meth:`prob` is total and
    returns 0.0 there.  A collision-free result (see
    :func:`strong_simulate`) is the same vector with its bunched outcomes
    set to 0 and the rest renormalized; ``subspace_weight`` is the mass
    the kept outcomes carried before.  ``dropped_weight`` is the mass a
    simulation left out (see :func:`lopsim.sources.noisy_simulate`), so
    ``total() + dropped_weight`` is 1 before any postselection.
    """

    def __init__(
        self,
        m: int,
        sectors: Mapping[int, np.ndarray],
        *,
        subspace_weight: float = 1.0,
        dropped_weight: float = 0.0,
    ):
        self.m = m
        self.sectors: dict[int, np.ndarray] = {}
        for n, vec in sorted(sectors.items()):
            vec = np.asarray(vec, dtype=float)
            if vec.shape != (len(enumerate_basis(m, n)),):
                raise ValueError(f"probability vector does not match the {n}-photon basis")
            if not np.all(vec >= -1e-12):
                raise ValueError("negative or NaN probability")
            vec = np.clip(vec, 0.0, None)
            if vec.sum() > 0.0:
                self.sectors[n] = vec
        self.subspace_weight = float(subspace_weight)
        self.dropped_weight = float(dropped_weight)

    @property
    def probabilities(self) -> np.ndarray:
        """Every sector's vector, concatenated in photon-number order."""
        return self.outcomes()[1]

    def prob(self, state: FockState) -> float:
        """Probability of ``state``; 0.0 for any outcome outside the support."""
        vec = self.sectors.get(state.n)
        if vec is None or state.m != self.m:
            return 0.0
        try:
            return float(vec[enumerate_basis(self.m, state.n).index(state)])
        except KeyError:
            return 0.0

    def __getitem__(self, state: FockState) -> float:
        """Probability of a nonzero outcome; KeyError elsewhere, as iteration says."""
        p = self.prob(state) if isinstance(state, FockState) else 0.0
        if p == 0.0:
            raise KeyError(state)
        return p

    def items(self) -> Iterator[tuple[FockState, float]]:
        rows, values = self.outcomes()
        nonzero = np.flatnonzero(values)
        for row, p in zip(rows[nonzero].tolist(), values[nonzero].tolist()):
            yield FockState(tuple(row)), p

    def __iter__(self) -> Iterator[FockState]:
        return (state for state, _ in self.items())

    def __len__(self) -> int:
        return sum(int(np.count_nonzero(vec)) for vec in self.sectors.values())

    def total(self) -> float:
        return float(sum(vec.sum() for vec in self.sectors.values()))

    def sector_weights(self) -> dict[int, float]:
        """Total probability per photon number."""
        return {n: float(vec.sum()) for n, vec in self.sectors.items()}

    def postselect_photon_number(self, n: int) -> tuple["OutputDistribution", float]:
        """Distribution conditioned on ``n`` detected photons, and its weight.

        The conditioned ``dropped_weight`` is the original divided by that
        weight: a bound on the relative error of the conditioned values.
        """
        if n not in self.sectors:
            raise ValueError(f"no probability mass in the {n}-photon sector")
        weight = float(self.sectors[n].sum())
        conditioned = OutputDistribution(
            self.m,
            {n: self.sectors[n] / weight},
            subspace_weight=self.subspace_weight,
            dropped_weight=self.dropped_weight / weight,
        )
        return conditioned, weight

    def outcomes(self) -> tuple[np.ndarray, np.ndarray]:
        """Occupation rows and probabilities of every sector, photon number ascending."""
        if len(self.sectors) == 1:
            [(n, vec)] = self.sectors.items()
            return enumerate_basis(self.m, n).occupations, vec
        rows = [enumerate_basis(self.m, n).occupations for n in self.sectors]
        return (
            np.concatenate(rows or [np.zeros((0, self.m), dtype=np.int8)]),
            np.concatenate([*self.sectors.values(), []]),
        )


SampleCounts = dict[FockState, int]


def strong_simulate(
    unitary: ModeUnitary,
    input_state: FockState,
    collision_free: bool = False,
) -> OutputDistribution:
    """Exact output distribution of ``input_state`` through ``unitary``.

    The B = 1 case of :func:`batched_amplitudes`: photons are added one
    input mode at a time by the SLOS kernel, which yields every output
    amplitude at once.  With ``collision_free`` the bunched outcomes are
    masked to 0 and the rest renormalized (threshold-detector view), and
    ``subspace_weight`` keeps the mass they carried.
    """
    _check_states(unitary, input_state)
    m, n = input_state.m, input_state.n
    modes = np.array([input_state.modes()], dtype=np.intp)
    probs = np.abs(batched_amplitudes(unitary.matrix[None], modes)[0]) ** 2
    if not collision_free:
        return OutputDistribution(m, {n: probs})
    free = np.all(enumerate_basis(m, n).occupations <= 1, axis=1)
    weight = probs[free].sum()
    if weight <= 0.0:
        raise ValueError("no probability mass in the collision-free subspace")
    return OutputDistribution(m, {n: np.where(free, probs / weight, 0.0)}, subspace_weight=weight)


def _seeded_rng(seed: np.random.Generator | int) -> np.random.Generator:
    """Generator for ``seed``: an int seeds a new one, a Generator passes through.

    None is refused: ``default_rng(None)`` seeds itself from the OS, so
    its draws would differ from run to run.
    """
    if seed is None:
        raise ValueError("need an int seed or a numpy Generator, got None")
    return np.random.default_rng(seed)


def sample(
    unitary: ModeUnitary,
    input_state: FockState,
    shots: int,
    rng: np.random.Generator | int,
    collision_free: bool = False,
) -> SampleCounts:
    """Draw ``shots`` outcomes by inverse-CDF sampling of the exact distribution."""
    if shots < 0:
        raise ValueError("shots must be non-negative")
    rng = _seeded_rng(rng)
    rows, p = strong_simulate(unitary, input_state, collision_free=collision_free).outcomes()
    draws = rng.choice(len(p), size=shots, p=p / p.sum())
    tallies = np.bincount(draws, minlength=len(p))
    return {FockState(tuple(rows[i].tolist())): int(tallies[i]) for i in np.flatnonzero(tallies)}


def outcome_arrays(dist: Mapping) -> tuple[np.ndarray, np.ndarray]:
    """Occupation rows ``(K, m)`` and values ``(K,)`` of a distribution.

    An :class:`OutputDistribution` hands over its ``outcomes()``.  Any
    other mapping, keyed by :class:`FockState` or by occupation
    tuple, is converted here; an empty one gives ``(0, 0)`` rows.
    """
    if isinstance(dist, OutputDistribution):
        return dist.outcomes()
    rows = [getattr(key, "occupations", key) for key in dist]
    values = np.fromiter(dist.values(), dtype=float, count=len(rows))
    return np.array(rows, dtype=np.int64).reshape(len(rows), -1 if rows else 0), values
