"""Fock-space linear algebra for multi-photon interferometry.

Basis enumeration, matrix permanents, exact transition amplitudes and
strong simulation of linear-optical circuits.  An input is a sequence of
modes, one entry per photon (repeats bunch); every outcome is an int8
occupation row, placed in its basis by :meth:`FockBasis.rank`.

A :class:`FockBasis` orders every n-photon state on m modes
lexicographically and ranks rows by the combinatorial number system (a
table of how many completions the remaining modes admit); its size and
ranks are arithmetic on those counts, and its read-only ``(N, m)`` array
of occupations is built only when first read.  No other module knows
this layout, and it is the only basis kind.  Every multi-photon
distribution comes from one kernel that adds a photon from one input
mode to a vector over the n-photon basis: on amplitudes it is the SLOS
recursion of Heurtel et al., *Strong simulation of linear optical
processes* (Comput. Phys. Commun. 291, 108848 (2023)); on ``|U|^2`` it
is the classical convolution.  A trailing batch axis runs many unitaries
through the same recursion at once, and one coherent pass
(:func:`_coherent_prefixes`) serves both :func:`batched_amplitudes` and
the noisy trigger sum of :mod:`lopsim.sources`.  The kernel's vectors
hold the live rows of a set of disjoint mode pairs and a photon cap,
those that can still reach one click in every pair, and nothing else;
with no pairs every basis row is live, so one family of tables, built
from the live rows alone, serves both.  Live rows are generated by pair
pattern, never filtered from the full basis.  Permanents serve single
amplitudes (:func:`output_amplitude`) and, through Glynn's formula
(:func:`_glynn_deltas`), the 4^n rail amplitudes that check every
dual-rail gate compile (:func:`lopsim.qubits._rail_amplitudes`); neither
builds a basis.

:class:`OutputDistribution` is the one outcome type, simulated or
sampled: a vector per photon-number sector over the cached basis, of
probabilities (ideal or from a noisy source) or of the counts
:func:`sample` draws, plus the mass a simulation left out
(``dropped_weight``).  The simulators return full vectors (the trigger
sum with one-click pairs its read rows, by rank); a reader that wants a
restricted view, such as the collision-free outcomes of threshold
detectors (:mod:`lopsim.validation`), restricts them itself.
Every readout (click patterns, postselection, pattern merging) is a mask
or group-by on its outcome view, ``outcomes()``: ``(K, m)`` occupation
rows and ``(K,)`` values, or on its ``sectors`` directly.
"""

from __future__ import annotations

import operator
from functools import cached_property, lru_cache
from itertools import combinations, product
from math import comb, factorial, isfinite, prod, sqrt
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "FockBasis",
    "ModeUnitary",
    "OutputDistribution",
    "permanent",
    "enumerate_basis",
    "output_amplitude",
    "strong_simulate",
    "batched_amplitudes",
    "sample",
]

PERMANENT_MAX_SIZE = 16
UNITARITY_ATOL = 1e-10


class FockBasis:
    """Canonically ordered basis of every n-photon state on m modes.

    ``occupations`` holds one row per state, in ascending lexicographic
    order, so for m=12, n=6 the basis runs from |000000000006> up to
    |600000000000>.  Any restriction, such as the collision-free rows a
    threshold detector can tell apart, is a mask on these rows and keeps
    their order.  :meth:`rank` maps occupation rows back to their
    positions and :meth:`unrank` back to rows.  The size and rank table
    are arithmetic, so ``len``, ``rank`` and ``unrank`` never build the
    rows; ``occupations`` is built on first read.
    """

    def __init__(self, m: int, n: int):
        if m < 1:
            raise ValueError("need at least one mode")
        if not 0 <= n <= np.iinfo(np.int8).max:
            raise ValueError(f"photon number must lie in [0, 127], got {n}")
        self.m = m
        self.n = n
        self.size = comb(m - 1 + n, n)
        if self.size > np.iinfo(np.intp).max:
            raise ValueError(f"the ({m}, {n}) basis has {self.size} states, too many to index")
        # tails[s, k]: rows over the last s modes holding k photons; one
        # more mode takes 0..k of them, so tails[s + 1] sums tails[s].
        tails = np.zeros((m, n + 1), dtype=np.intp)
        tails[0, 0] = 1
        for s in range(m - 1):
            tails[s + 1] = np.cumsum(tails[s])
        # below[i, r, o]: states that put fewer than o photons on mode i
        # when r photons are left for modes i..m-1.
        below = np.zeros((m, n + 1, n + 1), dtype=np.intp)
        for o in range(1, n + 1):
            below[:, o - 1 :, o] = tails[:, : n + 2 - o]
        self._below = np.cumsum(below, axis=2)[::-1]
        self._below.setflags(write=False)

    @cached_property
    def occupations(self) -> np.ndarray:
        """One read-only int8 row per state, in order, built on first read."""
        # blocks[k]: rows over the last s modes holding k photons, in
        # order; prepending one mode's occupation keeps them in order.
        blocks = [np.zeros((1, 0), dtype=np.int8)] + [np.zeros((0, 0), dtype=np.int8)] * self.n
        for s in range(self.m):
            grown = []
            for k in range(self.n + 1):
                parts = [blocks[k - o] for o in range(k + 1)]
                block = np.empty((sum(map(len, parts)), s + 1), dtype=np.int8)
                start = 0
                for o, part in enumerate(parts):
                    block[start : start + len(part), 0] = o
                    block[start : start + len(part), 1:] = part
                    start += len(part)
                grown.append(block)
            blocks = grown
        occupations = blocks[self.n]
        occupations.setflags(write=False)
        return occupations

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
        for below, column in zip(self._below, rows.T):
            index += below.ravel()[left * (self.n + 1) + column]
            left -= column
        return index

    def unrank(self, ranks: np.ndarray) -> np.ndarray:
        """Occupation rows (int8) at basis indices ``ranks``: the inverse of :meth:`rank`.

        Reads the rank table only, so picking a few rows never builds
        ``occupations``. Mode by mode, a row takes the largest occupation
        whose count of earlier states still fits in what is left of its
        rank.
        """
        ranks = np.asarray(ranks)
        if ranks.ndim != 1 or ranks.dtype.kind not in "iu" or not (
            np.all((ranks >= 0) & (ranks < self.size))
        ):
            raise IndexError(f"ranks outside the ({self.m}, {self.n}) basis of {self.size} states")
        rows = np.empty((len(ranks), self.m), dtype=np.int8)
        rest = ranks.astype(np.intp)
        left = np.full(len(ranks), self.n)
        at = np.arange(len(ranks))
        for below, column in zip(self._below, rows.T):
            before = below[left]  # (K, n + 1): states under each occupation of this mode
            occupation = np.count_nonzero(before[:, 1:] <= rest[:, None], axis=1)
            rest -= before[at, occupation]
            left -= occupation
            column[...] = occupation
        return rows

    def __len__(self) -> int:
        return self.size


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
    def haar_random(cls, m: int, rng: np.random.Generator | int) -> "ModeUnitary":
        """Haar-distributed random unitary via QR with phase correction."""
        rng = _seeded_rng(rng)
        z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        q, r = np.linalg.qr(z)
        phases = np.diag(r).copy()
        phases /= np.abs(phases)
        return cls(q * phases)


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
def _live_table(
    m: int, n: int, pairs: tuple[tuple[int, int], ...], cap: int
) -> tuple[np.ndarray, np.ndarray]:
    """Read-only basis ranks and occupation rows of the live n-photon rows, rank ascending.

    With no pairs every row is live, and the kernel reads the basis
    itself, never these tables.

    A row is live when no pair of ``pairs`` has both modes occupied and
    at most ``cap - n`` pairs are empty, so that the photons the cap
    leaves can still put one click in every pair.  Removing a photon
    never fills a pair and empties at most one, so every row a live row
    comes from is live: the live values depend on the live rows alone.
    A photon added to a dead row gives another dead row, so no outcome
    with one click in every pair comes from one.

    The rows are generated by pair pattern, not filtered from the basis:
    for each count k of occupied pairs and choice of k pairs and sides,
    the ``n - k`` photons left go to those sides and the unpaired modes
    as the rows of a small basis, in one fancy-index assignment per k.
    The rows are then ranked and sorted.
    """
    free = [q for q in range(m) if all(q not in pair for pair in pairs)]
    blocks = [np.zeros((0, m), dtype=np.int8)]
    for k in range(max(0, len(pairs) + n - cap), min(len(pairs), n) + 1):
        width = k + len(free)
        sides = [(*q, *free) for chosen in combinations(pairs, k) for q in product(*chosen)]
        modes = np.array(sides, dtype=np.intp)[:, None]
        if width:
            spare = enumerate_basis(width, n - k).occupations
        else:  # every mode paired and none occupied: only the vacuum is left
            spare = np.zeros((int(n == 0), 0), dtype=np.int8)
        block = np.zeros((len(sides), len(spare), m), dtype=np.int8)
        block[np.arange(len(sides))[:, None, None], np.arange(len(spare))[:, None], modes] = (
            spare + (np.arange(width) < k)
        )
        blocks.append(block.reshape(-1, m))
    rows = np.concatenate(blocks)
    ranks = enumerate_basis(m, n).rank(rows)
    order = np.argsort(ranks)
    ranks, rows = ranks[order], rows[order]
    ranks.setflags(write=False)
    rows.setflags(write=False)
    return ranks, rows


def _support(m: int, n: int, pairs: tuple[tuple[int, int], ...], cap: int) -> np.ndarray:
    """Read-only ranks of the live rows of ``enumerate_basis(m, n)`` (see :func:`_live_table`)."""
    return _live_table(m, n, pairs, cap)[0]


def _live_size(m: int, n: int, pairs: tuple[tuple[int, int], ...], cap: int | None) -> int:
    """Length of the n-photon vector: its live rows (see :func:`_support`)."""
    return len(_support(m, n, pairs, cap)) if pairs else len(enumerate_basis(m, n))


def _live_rows(m: int, n: int, pairs: tuple[tuple[int, int], ...], cap: int | None) -> np.ndarray:
    """Occupation rows of the live rows, in vector order, generated by pair pattern."""
    return _live_table(m, n, pairs, cap)[1] if pairs else enumerate_basis(m, n).occupations


@lru_cache(maxsize=None)
def _successors(
    m: int, n: int, pairs: tuple[tuple[int, int], ...], cap: int | None
) -> tuple[tuple[slice | np.ndarray, np.ndarray], ...]:
    """Where a photon added to mode j moves the n-photon vector's rows: ``(rows, targets)`` per j.

    Tables are keyed by ``(m, n, pairs, cap)``; with no pairs the caller
    passes ``cap`` None, so the full basis has one table per sector.  A
    vector holds the live rows (:func:`_support`), and ``s + e_j`` of the
    row at ``rows[i]`` sits at ``targets[i]`` of the (n+1)-photon vector.
    With no pairs ``rows`` is every row (``slice(None)``).  With pairs
    the additions that leave the live rows are left out: an ``s + e_j``
    that fills a pair, or that keeps more than ``cap - n - 1`` pairs
    empty, which is read from the empty-pair count of ``s`` and whether
    j fills an empty pair, not searched.  The rank terms of ``s + e_j``
    are those of ``s`` with one more photon left for modes up to j, so
    each row is a prefix, a term and a suffix (the rank of ``s`` less its
    terms up to j), from the live rows alone.
    With no pairs the rank is the position; otherwise it is looked up in
    the grown live ranks.  Every array is read-only.
    """
    occ = _live_rows(m, n, pairs, cap)
    below = enumerate_basis(m, n + 1)._below
    table = np.empty((m, len(occ)), dtype=np.intp)
    suffix = _support(m, n, pairs, cap).copy() if pairs else np.arange(len(occ))
    prefix, left = 0, np.full(len(occ), n)
    for j in range(m):
        flat, at = below[j].ravel(), left * (n + 2) + occ[:, j]
        suffix -= flat[at]
        at += n + 2
        table[j] = prefix + flat[at + 1] + suffix
        prefix = prefix + flat[at]
        left -= occ[:, j]
    if not pairs:
        table.setflags(write=False)
        return tuple((slice(None), table[j]) for j in range(m))
    grown = _support(m, n + 1, pairs, cap)
    empty = sum((occ[:, a] == 0) & (occ[:, b] == 0) for a, b in pairs)
    partner = {a: b for pair in pairs for a, b in (pair, pair[::-1])}
    steps = []
    for j in range(m):
        if j in partner:  # filling an empty pair spends one of the photons the cap leaves
            kept = (occ[:, partner[j]] == 0) & (empty - (occ[:, j] == 0) < cap - n)
        else:
            kept = empty < cap - n
        rows = np.flatnonzero(kept)
        targets = np.searchsorted(grown, table[j, rows])
        rows.setflags(write=False)
        targets.setflags(write=False)
        steps.append((rows, targets))
    return tuple(steps)


@lru_cache(maxsize=None)
def _gains(
    m: int, n: int, pairs: tuple[tuple[int, int], ...], cap: int | None
) -> np.ndarray:
    """Gain ``sqrt(s_j + 1)`` of a photon added to mode j, shape (m, K_n), C-contiguous."""
    gains = np.ascontiguousarray(np.sqrt(_live_rows(m, n, pairs, cap).T + 1.0))
    gains.setflags(write=False)
    return gains


@lru_cache(maxsize=None)
def _one_click_rows(
    m: int, n: int, pairs: tuple[tuple[int, int], ...], cap: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vector positions and ranks of the one-click-per-pair rows (live at a cap of n), read-only.

    The trigger sum with pairs returns ``vec[positions]``, a vector over these ranks.
    """
    ranks = _support(m, n, pairs, min(n, cap))
    at = np.searchsorted(_support(m, n, pairs, cap), ranks)
    at.setflags(write=False)
    return at, ranks


def _add_photon(
    vec: np.ndarray, n: int, column: np.ndarray, coherent: bool,
    out: np.ndarray | None = None, scratch: np.ndarray | None = None,
    pairs: tuple[tuple[int, int], ...] = (), cap: int | None = None,
) -> np.ndarray:
    """Add one photon to vectors over the live n-photon rows.

    ``column`` is where the photon goes.  Coherently, ``vec`` holds
    amplitudes, ``column`` is ``U[:, k]`` for input mode k, and the step
    is ``amp'[s + e_j] += U[j, k] sqrt(s_j + 1) amp[s]`` (one SLOS step).
    Otherwise ``vec`` holds probabilities, ``column`` is ``|U[:, k]|^2``
    and the step is ``p'[s + e_j] += |U[j, k]|^2 p[s]``.

    The basis axis comes first.  ``vec`` holds the :func:`_support` rows
    of ``pairs`` (sorted disjoint mode pairs) under photon cap ``cap``
    (with no pairs, every basis row, whatever the cap): ``(K_n,)`` with a
    1-D ``column`` of shape ``(m,)``, or ``(K_n, B)``, which runs B
    independent additions (one unitary and state per column) in the same
    scatter, with ``column`` ``(m, B)``.
    Returns the vectors over the live (n+1)-photon rows, ``(K_{n+1},)``
    or ``(K_{n+1}, B)`` as ``vec``: ``out`` (or a view of it) plus the
    step, if given.  Each ``column[j] * vec`` is formed in one buffer,
    the head of a flat ``scratch`` of the result's dtype if given.  B = 1
    runs as the 1-D call: a trailing axis of length 1 only slows the
    scatter.

    One loop reads the :func:`_successors` and :func:`_gains` tables of
    ``(pairs, cap)``: every live entry gets the same products, added in
    the same mode order, as over the full basis.  The additions that
    leave the live rows are not formed.  The targets of one mode are
    distinct, so both scatters add the same terms in the same order:
    ``np.add.at`` on 1-D vectors (12 scatters of 167,960 states on 12
    modes: 5.5 ms, fancy-index ``+=`` 11.5 ms) and ``+=`` with a batch
    axis (4,368 x 4 states: 2.1 ms, ``np.add.at`` 4.6 ms).
    """
    m = len(column)
    batch = vec.shape[1:]
    if batch == (1,):
        out = None if out is None else out.reshape(len(out))
        vec, column = vec.reshape(len(vec)), column.reshape(m)
        return _add_photon(vec, n, column, coherent, out, scratch, pairs, cap)[:, None]
    key = (m, n, pairs, cap if pairs else None)
    if out is None:
        out = np.zeros((_live_size(m, n + 1, pairs, cap), *batch), np.result_type(vec, column))
    term = np.ndarray((len(vec), *batch), out.dtype, buffer=scratch)
    steps = _successors(*key)
    gains = _gains(*key) if coherent else None  # classical steps never build a gain table
    for j in (column if column.ndim == 1 else column.any(axis=1)).nonzero()[0]:
        rows, targets = steps[j]
        part = term[: len(targets)]
        np.multiply(vec[rows], column[j], out=part)
        if coherent:
            gain = gains[j][rows]
            part *= gain[:, None] if batch else gain
        if batch:
            out[targets] += part
        else:
            np.add.at(out, targets, part)
    return out


def _coherent_prefixes(
    unitaries: np.ndarray, wanted: Sequence[tuple[int, ...]],
    pairs: tuple[tuple[int, int], ...] = (), cap: int | None = None,
) -> dict[tuple[int, ...], np.ndarray]:
    """Amplitudes of every prefix of every mode tuple in ``wanted``, from the vacuum.

    ``unitaries`` is ``(B, m, m)``; a tuple's photons are added in its
    order.  The prefixes of one length take one more SLOS step from their
    heads in one batched :func:`_add_photon` call, column block i adding
    prefix i's last mode to its head.  Each column gets the products of
    a call of its own, added in the same order (plus exact zeros where
    only another column's mode reaches an output), so every prefix is
    bit for bit that call's.  Returns ``(K, B)`` live vectors of
    ``(pairs, cap)`` keyed by prefix, the vacuum under ``()``, with no
    bunching division (:func:`_unbunched`).
    """
    count, m = unitaries.shape[:2]
    vacuum = np.ones((_live_size(m, 0, pairs, cap), count), dtype=complex)  # none if not live
    prefixes = {(): vacuum}
    for k in range(max(map(len, wanted), default=0)):
        grow = sorted({modes[: k + 1] for modes in wanted if len(modes) > k})
        heads = [prefixes[p[:-1]] for p in grow]
        columns = [unitaries[:, :, p[-1]].T for p in grow]
        if len(grow) > 1:  # column blocks side by side; one block is read as it is
            heads, columns = [np.concatenate(heads, axis=1)], [np.concatenate(columns, axis=1)]
        grown = _add_photon(heads[0], k, columns[0], True, pairs=pairs, cap=cap)
        for i, p in enumerate(grow):
            prefixes[p] = grown[:, i * count : (i + 1) * count]
    return prefixes


def _bunching(modes: tuple[int, ...]) -> int:
    """``prod s_i!`` of the occupations that ``modes`` lists."""
    return prod(factorial(modes.count(q)) for q in set(modes))


def _unbunched(amp: np.ndarray, modes: tuple[int, ...]) -> np.ndarray:
    """``amp`` divided by ``sqrt(prod s_i!)`` of the input that ``modes`` lists."""
    bunching = _bunching(modes)
    return amp / sqrt(bunching) if bunching > 1 else amp


def _input_modes(m: int, modes: Sequence[int]) -> tuple[int, ...]:
    """``modes`` as a tuple of ints, one per photon, each checked.

    A non-integer mode (such as ``1.0``) raises ``TypeError`` and a mode
    outside ``[0, m)`` ``ValueError``.
    """
    modes = tuple(map(operator.index, modes))
    for mode in modes:
        if not 0 <= mode < m:
            raise ValueError(f"mode {mode} out of range for m={m}")
    return modes


def batched_amplitudes(unitaries: np.ndarray, modes: Sequence[int]) -> np.ndarray:
    """Output amplitudes of one input through B unitaries in one SLOS pass.

    ``unitaries`` is ``(B, m, m)`` and ``modes`` lists the input mode of
    each photon (repeats bunch), shared by every unitary; photons are
    added in the order listed.  Returns ``(B, N)`` amplitudes over
    ``enumerate_basis(m, n)``, row b being ``<t|U_b|s>`` for every basis
    state t: the one-tuple case of :func:`_coherent_prefixes`, divided by
    :func:`_unbunched`.  Modes are checked by :func:`_input_modes`.
    """
    unitaries = np.asarray(unitaries, dtype=complex)
    modes = _input_modes(unitaries.shape[-1], modes)
    return _unbunched(_coherent_prefixes(unitaries, [modes])[modes].T, modes)


def output_amplitude(
    unitary: ModeUnitary, input_modes: Sequence[int], output_modes: Sequence[int]
) -> complex:
    """Transition amplitude <t|U|s> = Perm(U[t, s]) / sqrt(prod s_i! prod t_j!).

    ``input_modes`` and ``output_modes`` list the mode of each photon of
    s and t (repeats bunch); the submatrix takes them in ascending order.
    """
    s = tuple(sorted(_input_modes(unitary.m, input_modes)))
    t = tuple(sorted(_input_modes(unitary.m, output_modes)))
    if len(s) != len(t):
        raise ValueError("photon number mismatch between states")
    perm = permanent(unitary.matrix[np.ix_(t, s)])
    return perm / sqrt(_bunching(s) * _bunching(t))


class OutputDistribution:
    """Outcomes of one detector array, one vector per photon number.

    ``sectors[n]`` is a vector of probabilities, or of counts when
    :func:`sample` drew it, over the basis ranks ``ranks[n]`` if given
    (0 elsewhere; :func:`lopsim.sources.noisy_simulate` with one-click
    pairs returns its read rows so) and over ``enumerate_basis(m, n)``
    otherwise; only sectors with mass are kept.  An outcome is an
    occupation row of :meth:`outcomes`.  ``dropped_weight`` is the mass
    a simulation left out, so for probabilities the sum of
    ``probabilities`` plus ``dropped_weight`` is 1 before any
    postselection, less the mass of rows not returned, and for counts
    that sum is the number of shots.  The vectors and ranks given are
    kept, not copied; a vector is clipped into a new array only when it
    holds a negative rounding residue.  A negative, NaN or infinite
    probability is refused, and so are ranks that are not strictly
    ascending 1-D integers inside the basis, one per value.
    """

    def __init__(
        self,
        m: int,
        sectors: Mapping[int, np.ndarray],
        *,
        dropped_weight: float = 0.0,
        ranks: Mapping[int, np.ndarray] | None = None,
    ):
        self.m = m
        self.sectors: dict[int, np.ndarray] = {}
        self.ranks: dict[int, np.ndarray] = {}
        ranks = ranks or {}
        unvectored = sorted(set(ranks) - set(sectors))
        if unvectored:
            raise ValueError(f"ranks given for sectors {unvectored} with no vector")
        for n, vec in sorted(sectors.items()):
            vec = np.asarray(vec, dtype=float)
            size = len(enumerate_basis(m, n))
            covered = ranks.get(n)
            if covered is None:
                if vec.shape != (size,):
                    raise ValueError(f"probability vector does not match the {n}-photon basis")
            else:
                covered = np.asarray(covered)
                if covered.ndim != 1 or covered.dtype.kind not in "iu":
                    raise ValueError(f"ranks of the {n}-photon sector must be a 1-D integer array")
                if np.any(covered[1:] <= covered[:-1]):
                    raise ValueError(f"ranks of the {n}-photon sector must ascend strictly")
                if len(covered) and not (covered[0] >= 0 and covered[-1] < size):
                    raise ValueError(f"ranks of the {n}-photon sector lie outside [0, {size})")
                if vec.shape != covered.shape:
                    raise ValueError(
                        f"the {n}-photon sector has {vec.shape} values for {len(covered)} ranks"
                    )
            low = vec.min(initial=0.0)  # a ranked sector may be empty
            if not low >= -1e-12:  # also NaN, which min propagates
                raise ValueError("negative or NaN probability")
            if low < 0.0:
                vec = np.clip(vec, 0.0, None)
            total = vec.sum()
            if not isfinite(total):  # NaN was refused above, so an infinity or an overflow
                raise ValueError(f"infinite probability mass in the {n}-photon sector")
            if total > 0.0:
                self.sectors[n] = vec
                if covered is not None:
                    self.ranks[n] = covered
        self.dropped_weight = float(dropped_weight)

    @property
    def probabilities(self) -> np.ndarray:
        """Every sector's vector, concatenated in photon-number order; no rows are read."""
        if len(self.sectors) == 1:
            return next(iter(self.sectors.values()))
        return np.concatenate([*self.sectors.values(), []])

    def __len__(self) -> int:
        """Number of nonzero outcomes; the benchmark tracer reports it per noisy simulation."""
        return sum(int(np.count_nonzero(vec)) for vec in self.sectors.values())

    def _rows(self, n: int) -> np.ndarray:
        """Occupation rows that sector n's vector covers, in its order.

        A sector over ranks unranks them, so it never builds the full basis.
        """
        basis = enumerate_basis(self.m, n)
        return basis.unrank(self.ranks[n]) if n in self.ranks else basis.occupations

    def outcomes(self) -> tuple[np.ndarray, np.ndarray]:
        """Occupation rows and probabilities of every sector, photon number ascending."""
        if len(self.sectors) == 1:
            [n] = self.sectors
            return self._rows(n), self.probabilities
        rows = [self._rows(n) for n in self.sectors]
        return np.concatenate(rows or [np.zeros((0, self.m), dtype=np.int8)]), self.probabilities


def strong_simulate(unitary: ModeUnitary, modes: Sequence[int]) -> OutputDistribution:
    """Exact output distribution of the photons that ``modes`` lists through ``unitary``.

    ``modes`` holds the input mode of each photon (repeats bunch).  The
    B = 1 case of :func:`batched_amplitudes`, with the photons added one
    input mode at a time in ascending mode order, whatever order they are
    listed in; the SLOS kernel yields every output amplitude at once.
    """
    modes = tuple(sorted(_input_modes(unitary.m, modes)))
    probs = np.abs(batched_amplitudes(unitary.matrix[None], modes)[0]) ** 2
    return OutputDistribution(unitary.m, {len(modes): probs})


def _seeded_rng(seed: np.random.Generator | int) -> np.random.Generator:
    """Generator for ``seed``: an int seeds a new one, a Generator passes through.

    None is refused: ``default_rng(None)`` seeds itself from the OS, so
    its draws would differ from run to run.  A negative int is refused
    here, by name, rather than deep inside numpy.
    """
    if seed is None:
        raise ValueError("need an int seed or a numpy Generator, got None")
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ValueError(f"seed must be a nonnegative int, got {seed}")
    return np.random.default_rng(seed)


def _shot_count(
    shots: int | None, rng: np.random.Generator | None, name: str = "shots", required: bool = False
):
    """``shots`` as an int, or None (exact) unless ``required``.

    Refuses counts below 1, fractions, infinities, NaN, a count without
    an ``rng`` and, for a draw that has no exact form, a missing count.
    """
    if shots is None:
        if required:
            raise ValueError(f"{name} must be given as a whole number of at least 1, got None")
        return None
    if not 1 <= shots < np.inf or int(shots) != shots:  # before int() meets an inf or a NaN
        raise ValueError(f"{name} must be a whole number of at least 1, got {shots}")
    if rng is None:
        raise ValueError(f"sampled {name} need a seeded rng; got rng=None")
    return int(shots)


def _frequencies(rng: np.random.Generator, shots: int, p: np.ndarray) -> np.ndarray:
    """Frequencies of ``shots`` multinomial draws from each row of ``p`` (last axis normalized)."""
    return rng.multinomial(shots, p / p.sum(axis=-1, keepdims=True)) / shots


def sample(
    unitary: ModeUnitary,
    modes: Sequence[int],
    shots: int,
    rng: np.random.Generator | int,
) -> OutputDistribution:
    """Draw ``shots`` outcomes of :func:`strong_simulate` and return their counts.

    The counts come as an :class:`OutputDistribution` over the input's
    photon-number sector (float tallies summing to ``shots``),
    the type every readout reads.
    """
    rng = _seeded_rng(rng)
    shots = _shot_count(shots, rng, required=True)
    dist = strong_simulate(unitary, modes)
    [(n, p)] = dist.sectors.items()
    draws = rng.choice(len(p), size=shots, p=p / p.sum())
    tallies = np.bincount(draws, minlength=len(p)).astype(float)
    return OutputDistribution(dist.m, {n: tallies})
