"""Imperfect single-photon sources and noisy multiphoton interference.

Phenomenological per-trigger noise model with three ingredients:

* loss: each emitted photon survives with probability ``efficiency``;
* partial distinguishability: a surviving photon carries the shared
  interference label with probability ``m_i``, otherwise a label of its
  own (photons interfere only within a label class);
* residual multiphoton emission: with probability ``g2`` the trigger is
  accompanied by an extra, fully distinguishable photon in the same
  input mode (also subject to loss).

The model is a mixture of up to 6^n labeled branches.
:func:`build_input` keeps it as a per-trigger table, and
:func:`noisy_simulate` sums it exactly over the 2^n sets of triggers
whose photon takes the shared label (the distinguishable-photon
expansion of Renema et al., PRL 120, 220502 (2018)), truncated only by
a photon-number cap whose tail mass it reports.  The result is the
same :class:`~lopsim.fock.OutputDistribution` that an ideal input
gives, with one sector per detected photon number and the truncated
mass as ``dropped_weight``; :func:`batched_noisy_sectors` runs the same
sum for a stack of interferometers at once.  Detection throughout this
module is click-based (threshold detectors): an occupied mode counts as
one click regardless of photon number.

The module also provides the two standard source characterization
experiments: the two-photon Hong-Ou-Mandel visibility (with its purity
correction), and the cyclic multiport interferometer measuring genuine
n-photon indistinguishability.
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources
from math import comb, prod
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .fock import (
    FockState,
    ModeUnitary,
    OutputDistribution,
    _add_photon,
    _unbunched,
    enumerate_basis,
    outcome_arrays,
    strong_simulate,
)
from .mesh import DirectionalCoupler, PhaseShifter, PhotonicCircuit

__all__ = [
    "SourceModel",
    "LabeledPhoton",
    "InputBranch",
    "LabeledInput",
    "build_input",
    "batched_noisy_sectors",
    "noisy_simulate",
    "coincidence_probability",
    "hom_experiment",
    "ms_correction",
    "cyclic_interferometer",
    "cyclic_input_modes",
    "cyclic_distribution",
    "genuine_indistinguishability",
    "measure_genuine_indistinguishability",
    "indistinguishability_fringe",
    "FringeFit",
    "fit_fringe",
    "load_indistinguishability_matrix",
    "fit_product_model",
]

SCHEMA = "lopsim-source-v1"

SHARED_LABEL = 0

#: Largest photon-number tail mass :func:`noisy_simulate` leaves out.
TAIL_TOLERANCE = 1e-9


@dataclass(frozen=True)
class SourceModel:
    """Noise parameters of a triggered single-photon source.

    Attributes:
        indistinguishability: probability that a photon carries the
            shared interference label.  Either one scalar for all
            photons or a per-photon sequence ``m_i``.  The pairwise
            two-photon indistinguishability implied by the model is
            ``M_ij = m_i * m_j``.
        g2: second-order correlation at zero delay; probability that a
            trigger emits an extra distinguishable photon.
        efficiency: per-photon survival probability (source brightness,
            setup transmission and detection folded together).
    """

    indistinguishability: float | tuple[float, ...] = 1.0
    g2: float = 0.0
    efficiency: float = 1.0

    def __post_init__(self) -> None:
        ind = self.indistinguishability
        if np.ndim(ind) > 0:
            ind = tuple(float(v) for v in np.asarray(ind, dtype=float))
            object.__setattr__(self, "indistinguishability", ind)
            values = ind
        else:
            object.__setattr__(self, "indistinguishability", float(ind))
            values = (float(ind),)
        if any(not 0.0 <= v <= 1.0 for v in values):
            raise ValueError("indistinguishability values must lie in [0, 1]")
        if not 0.0 <= self.g2 < 1.0:
            raise ValueError(f"g2 must lie in [0, 1), got {self.g2}")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(f"efficiency must lie in (0, 1], got {self.efficiency}")

    def m_values(self, n: int) -> np.ndarray:
        """Per-photon shared-label probabilities for ``n`` photons."""
        ind = self.indistinguishability
        if isinstance(ind, tuple):
            if len(ind) != n:
                raise ValueError(
                    f"source defines {len(ind)} photons, {n} requested"
                )
            return np.array(ind)
        return np.full(n, ind)

    @classmethod
    def from_pairwise_matrix(
        cls,
        matrix: np.ndarray,
        g2: float = 0.0,
        efficiency: float = 1.0,
    ) -> "SourceModel":
        """Source with per-photon ``m_i`` fitted from a pairwise matrix."""
        m_fit, _ = fit_product_model(matrix)
        return cls(indistinguishability=tuple(m_fit), g2=g2, efficiency=efficiency)

    def to_dict(self) -> dict:
        ind = self.indistinguishability
        return {
            "schema": SCHEMA,
            "indistinguishability": list(ind) if isinstance(ind, tuple) else ind,
            "g2": self.g2,
            "efficiency": self.efficiency,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SourceModel":
        if data.get("schema") != SCHEMA:
            raise ValueError(f"unexpected schema {data.get('schema')!r}")
        ind = data["indistinguishability"]
        if isinstance(ind, list):
            ind = tuple(ind)
        return cls(
            indistinguishability=ind,
            g2=float(data["g2"]),
            efficiency=float(data["efficiency"]),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "SourceModel":
        return cls.from_dict(json.loads(Path(path).read_text()))


@dataclass(frozen=True)
class LabeledPhoton:
    """A photon in ``mode`` carrying an interference label.

    Photons with equal labels interfere coherently; photons with
    different labels are mutually distinguishable.  Label 0 is the
    shared label.
    """

    mode: int
    label: int


@dataclass(frozen=True)
class InputBranch:
    """One term of the explicit labeled-input expansion."""

    weight: float
    photons: tuple[LabeledPhoton, ...]

    @property
    def n(self) -> int:
        return len(self.photons)


@dataclass(frozen=True)
class LabeledInput:
    """Per-trigger table of the input a noisy source feeds.

    Trigger ``i`` feeds input mode ``modes[i]``.  Its main photon takes
    the shared label with weight ``shared[i]`` (``efficiency * m_i``),
    a label of its own with weight ``unique[i]``
    (``efficiency * (1 - m_i)``), and is lost with weight ``lost[i]``
    (``1 - efficiency``).  Independently, an extra photon with a label
    of its own joins it in the same mode with weight ``extra[i]``
    (``g2 * efficiency``).
    """

    modes: tuple[int, ...]
    shared: tuple[float, ...]
    unique: tuple[float, ...]
    lost: tuple[float, ...]
    extra: tuple[float, ...]

    @cached_property
    def branches(self) -> tuple[InputBranch, ...]:
        """The explicit mixture over label assignments, up to 6^n branches.

        Label 0 is shared; trigger ``i``'s own photon has label ``1 + i``
        and its extra photon ``1 + n + i``.  Options of zero weight are
        left out.  :func:`noisy_simulate` never expands this.
        """
        n = len(self.modes)
        factors = []
        for i, q in enumerate(self.modes):
            main = (
                (self.shared[i], (LabeledPhoton(q, SHARED_LABEL),)),
                (self.unique[i], (LabeledPhoton(q, 1 + i),)),
                (self.lost[i], ()),
            )
            extra = ((self.extra[i], (LabeledPhoton(q, 1 + n + i),)), (1.0 - self.extra[i], ()))
            factors += [[(w, ph) for w, ph in options if w != 0.0] for options in (main, extra)]
        return tuple(
            InputBranch(prod(w for w, _ in combo), sum((ph for _, ph in combo), ()))
            for combo in itertools.product(*factors)
        )


def build_input(
    n: int,
    src: SourceModel,
    modes: Sequence[int] | None = None,
) -> LabeledInput:
    """Per-trigger input table for ``n`` triggered photons.

    Each trigger independently loses its photon with probability
    ``1 - efficiency``; a surviving photon takes the shared label with
    probability ``m_i`` and a unique label otherwise; and an extra
    distinguishable photon accompanies the trigger with probability
    ``g2`` (the extra is subject to the same loss).  The table is exact;
    :func:`noisy_simulate` sums it by trigger.

    Args:
        n: number of triggers.
        src: source noise parameters.
        modes: input mode per trigger; defaults to ``0..n-1``.
    """
    if modes is None:
        modes = tuple(range(n))
    else:
        modes = tuple(int(q) for q in modes)
        if len(modes) != n:
            raise ValueError(f"expected {n} input modes, got {len(modes)}")
    ms = src.m_values(n)
    eta = src.efficiency
    return LabeledInput(
        modes=modes,
        shared=tuple(float(eta * m) for m in ms),
        unique=tuple(float(eta * (1.0 - m)) for m in ms),
        lost=(1.0 - eta,) * n,
        extra=(src.g2 * eta,) * n,
    )


def _photon_number_tail(labeled: LabeledInput) -> np.ndarray:
    """``P(photons >= k)`` for ``k = 0 .. 2n + 1``.

    The photon count is a sum of independent Bernoulli counts, one for
    each trigger's main photon and one for its extra, so its law is the
    convolution of the 2n two-point laws.  The tail is summed from the
    top to keep its small entries accurate.
    """
    pmf = np.ones(1)
    for p in (*(1.0 - lost for lost in labeled.lost), *labeled.extra):
        pmf = np.convolve(pmf, [1.0 - p, p])
    return np.append(np.cumsum(pmf[::-1])[::-1], 0.0)


def _accumulate(sectors: dict[int, np.ndarray], n: int, vec: np.ndarray) -> None:
    """Add ``vec`` into sector ``n``, taking it over if the sector is new."""
    if n in sectors:
        sectors[n] += vec
    else:
        sectors[n] = vec


def _mix_photon(
    sectors: dict[int, np.ndarray], column: np.ndarray, w_none: float, w_one: float, cap: int
) -> dict[int, np.ndarray]:
    """One classical mixture step over photon-number sectors.

    With weight ``w_none`` no photon is added; with weight ``w_one`` one
    distinguishable photon is routed by ``column`` (``|U_b[:, q]|^2`` for
    input mode q in column b, shape ``(m, B)``).  Sectors above ``cap``
    are not formed.
    """
    out: dict[int, np.ndarray] = {}
    for n, vec in sectors.items():
        if w_none:
            _accumulate(out, n, w_none * vec)
        if w_one and n < cap:
            _accumulate(out, n + 1, _add_photon(vec, n, w_one * column, coherent=False))
    return out


def _thin_outputs(
    sectors: dict[int, np.ndarray], m: int, keep: np.ndarray
) -> dict[int, np.ndarray]:
    """Per-mode binomial thinning of ``(N_n, B)`` photon-number sectors.

    Mode by mode, a state with ``a`` photons in mode j moves to the state
    with ``d`` of them lost, weighted ``C(a, d) keep_j^(a-d) (1-keep_j)^d``.
    """
    for j, kj in enumerate(keep):
        thinned: dict[int, np.ndarray] = {}
        for n, vec in sectors.items():
            occ = enumerate_basis(m, n).occupations
            for d in range(int(occ[:, j].max()) + 1):
                hit = occ[:, j] >= d
                lost = occ[hit]
                lost[:, j] -= d
                w = [comb(d + e, d) * kj**e * (1.0 - kj) ** d for e in range(n - d + 1)]
                target = enumerate_basis(m, n - d)
                out = thinned.setdefault(n - d, np.zeros((len(target), vec.shape[1])))
                out[target.rank(lost)] += vec[hit] * np.array(w)[lost[:, j], None]
        sectors = thinned
    return sectors


def batched_noisy_sectors(
    unitaries: np.ndarray,
    labeled: LabeledInput,
    output_losses: np.ndarray | None = None,
) -> tuple[dict[int, np.ndarray], float]:
    """Noisy-source outputs of B interferometers in one trigger sum.

    ``unitaries`` is ``(B, m, m)``.  The sum of :func:`noisy_simulate`
    runs once for the whole stack.  The coherent amplitudes of a shared
    set, modes sorted, are those of the set without its last mode plus
    one SLOS step, so each prefix is computed once: 2^n - 1 photon
    additions for n distinct triggers instead of n 2^(n-1).  Each set
    gets the additions and the bunching division of its own
    :func:`~lopsim.fock.batched_amplitudes` pass, in the same order, so
    no bit changes.  Each classical step feeds column b the
    ``|U_b[:, q]|^2`` of its own unitary through the batched
    photon-addition kernel.  A batch pays off on small sectors only; on
    large ones its strided scatters cost more than the Python calls it
    saves.

    Returns the sectors, ``{n: (N_n, B)}`` probabilities over
    ``enumerate_basis(m, n)`` (column b the output of unitary b), and the
    photon-number tail above the cap, which every column shares.
    """
    unitaries = np.asarray(unitaries, dtype=complex)
    count, m = unitaries.shape[:2]
    if output_losses is not None:
        keep = np.asarray(output_losses, dtype=float)
        if keep.shape != (m,):
            raise ValueError(f"output_losses must have shape ({m},)")
        if not np.all((keep >= 0.0) & (keep <= 1.0)):
            raise ValueError("output losses must lie in [0, 1]")
    FockState.from_modes(m, labeled.modes)  # rejects an input mode outside the unitary
    tail = _photon_number_tail(labeled)
    cap = int(np.argmax(tail[1:] <= TAIL_TOLERANCE))
    power = np.abs(unitaries) ** 2
    columns = [np.ascontiguousarray(power[:, :, q].T) for q in labeled.modes]
    prefixes = {(): np.ones((1, count), dtype=complex)}

    sectors: dict[int, np.ndarray] = {}
    for members in itertools.product((False, True), repeat=len(labeled.modes)):
        shared_modes = tuple(sorted(q for q, s in zip(labeled.modes, members) if s))
        weight = prod(w for w, s in zip(labeled.shared, members) if s)
        if weight == 0.0 or len(shared_modes) > cap:
            continue
        for k, q in enumerate(shared_modes):
            if shared_modes[: k + 1] not in prefixes:
                head = prefixes[shared_modes[:k]]
                prefixes[shared_modes[: k + 1]] = _add_photon(head, k, unitaries[:, :, q].T, True)
        inputs = np.broadcast_to(np.array(shared_modes, dtype=np.intp), (count, len(shared_modes)))
        coherent = np.abs(_unbunched(prefixes[shared_modes], inputs, m).T) ** 2
        term = {len(shared_modes): weight * np.ascontiguousarray(coherent)}
        for column, unique, lost, s in zip(columns, labeled.unique, labeled.lost, members):
            if not s:
                term = _mix_photon(term, column, lost, unique, cap)
        for n, vec in term.items():
            _accumulate(sectors, n, vec)
    for column, extra in zip(columns, labeled.extra):
        sectors = _mix_photon(sectors, column, 1.0 - extra, extra, cap)
    if output_losses is not None:
        sectors = _thin_outputs(sectors, m, keep)
    return sectors, float(tail[cap + 1])


def noisy_simulate(
    unitary: ModeUnitary | np.ndarray,
    labeled: LabeledInput,
    output_losses: np.ndarray | None = None,
) -> OutputDistribution:
    """Output distribution of a noisy source's input, summed by trigger.

    A labeled branch is fixed by the set S of triggers whose photon takes
    the shared label; every other photon is fully distinguishable, and
    classical addition is linear, so

        P = sum_S P(S) strong(S) (*) prod_{i not in S} D_i (*) prod_i E_i

    with ``P(S) = prod_{i in S} shared[i]``.  ``strong(S)`` evolves the
    shared photons coherently; ``D_i`` adds trigger i's own photon
    (weight ``unique[i]``) or nothing (``lost[i]``); ``E_i``, its extra
    photon, does not depend on S and is applied once, after the sum.

    The only truncation is a photon-number cap: the smallest N whose
    exact tail ``P(photons > N)`` is at most ``TAIL_TOLERANCE``.  Sectors
    above N are not formed and the tail is reported as ``dropped_weight``.

    This is the B = 1 case of :func:`batched_noisy_sectors`, as
    :func:`~lopsim.fock.strong_simulate` is of
    :func:`~lopsim.fock.batched_amplitudes`; a batch of one runs the
    one-dimensional photon-addition kernel.

    Args:
        unitary: the interferometer.
        labeled: per-trigger input table from :func:`build_input`.
        output_losses: per-mode survival probabilities applied to the
            output by binomial thinning, or None for lossless readout.

    Returns:
        An :class:`~lopsim.fock.OutputDistribution` with one sector per
        populated photon number up to the cap, the type
        :func:`~lopsim.fock.strong_simulate` returns.  Its
        ``dropped_weight`` is the tail above the cap, so ``total() +
        dropped_weight`` is 1.  Without output losses every sector is
        exact; with them, ``dropped_weight`` bounds the mass missing from
        any sector.  Postselection scales it like the probabilities.
    """
    if not isinstance(unitary, ModeUnitary):
        unitary = ModeUnitary(np.asarray(unitary))
    sectors, dropped = batched_noisy_sectors(unitary.matrix[None], labeled, output_losses)
    return OutputDistribution(
        unitary.m, {n: vec[:, 0] for n, vec in sectors.items()}, dropped_weight=dropped
    )


def coincidence_probability(
    dist: Mapping[FockState, float], modes: Sequence[int]
) -> float:
    """Probability that every listed mode clicks (threshold detectors)."""
    modes = list(modes)
    rows, values = outcome_arrays(dist)
    m = rows.shape[1] if len(rows) else max(modes, default=-1) + 1
    outside = [q for q in modes if not 0 <= q < m]
    if outside:
        raise ValueError(f"modes {outside} lie outside the distribution's modes [0, {m})")
    return float(values[np.all(rows[:, modes] > 0, axis=1)].sum()) if len(rows) else 0.0


def _mzi_unitary(internal_phase: float) -> ModeUnitary:
    """Two-mode Mach-Zehnder: coupler, phase on mode 0, coupler."""
    circuit = PhotonicCircuit(2)
    circuit.add(DirectionalCoupler(0, 1))
    circuit.add(PhaseShifter(0, internal_phase))
    circuit.add(DirectionalCoupler(0, 1))
    return circuit.unitary()


def hom_experiment(src: SourceModel) -> float:
    """Two-photon Hong-Ou-Mandel visibility of a source pair.

    Sends two photons into a Mach-Zehnder interferometer and compares
    the two-detector coincidence rate at the interfering internal phase
    (pi/2) against the non-interfering reference (pi):
    ``V = 1 - 2 C(pi/2) / C(pi)``.

    The model's pairwise indistinguishability is ``m_0 * m_1``, so the
    visibility is reduced from that value by the g2 contribution.
    """
    labeled = build_input(2, src)
    rates = {}
    for phase in (np.pi / 2.0, np.pi):
        dist = noisy_simulate(_mzi_unitary(phase), labeled)
        rates[phase] = coincidence_probability(dist, (0, 1))
    reference = rates[np.pi]
    if reference <= 0.0:
        raise ValueError("no reference coincidences; cannot form a visibility")
    return float(1.0 - 2.0 * rates[np.pi / 2.0] / reference)


def ms_correction(v_hom: float, g2: float) -> float:
    """Purity-corrected two-photon indistinguishability.

    Removes the g2-induced visibility reduction:
    ``M_s = (V_HOM + g2) / (1 - g2)``.  Values above 1 (possible with
    noisy estimates) are clamped with a warning.
    """
    if not 0.0 <= v_hom < 1.0:
        raise ValueError(f"visibility must lie in [0, 1), got {v_hom}")
    if not 0.0 <= g2 < 1.0:
        raise ValueError(f"g2 must lie in [0, 1), got {g2}")
    m_s = (v_hom + g2) / (1.0 - g2)
    if m_s > 1.0:
        warnings.warn(
            f"corrected indistinguishability {m_s:.6f} exceeds 1; clamping",
            stacklevel=2,
        )
        m_s = 1.0
    return float(m_s)


def cyclic_input_modes(n_photons: int) -> tuple[int, ...]:
    """Input modes fed with photons in the cyclic interferometer."""
    return tuple(range(1, 2 * n_photons, 2))


def _cyclic_circuit(n_photons: int, alpha: float) -> PhotonicCircuit:
    """Cyclic 2n-mode interferometer with one internal phase.

    A first coupler layer splits each photon between its own pair and
    the next pair; the single phase ``alpha`` sits on the closing arm;
    a second coupler layer recombines neighbors within each output pair
    (2k, 2k+1).  Every photon interferes with both cyclic neighbors,
    which makes the one-click-per-pair fringe sensitive to the
    coherence of all n photons at once.
    """
    m = 2 * n_photons
    circuit = PhotonicCircuit(m)
    for k in range(n_photons):
        circuit.add(DirectionalCoupler(2 * k + 1, (2 * k + 2) % m))
    circuit.add(PhaseShifter(0, alpha))
    for k in range(n_photons):
        circuit.add(DirectionalCoupler(2 * k, 2 * k + 1))
    return circuit


def cyclic_interferometer(n_photons: int, alpha: float) -> ModeUnitary:
    """Unitary of the cyclic interferometer on ``2 * n_photons`` modes.

    Photons enter on the odd modes (:func:`cyclic_input_modes`) and the
    one-click-per-output-pair events split into two parity classes
    whose rates oscillate as ``1 +- p_N cos(alpha)``.
    """
    if n_photons not in (4, 6):
        raise ValueError(f"unsupported photon number {n_photons}; expected 4 or 6")
    return _cyclic_circuit(n_photons, alpha).unitary()


def _one_click_per_pair(clicks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outcomes with exactly one click per output pair (2k, 2k+1), and the clicked sides."""
    right = clicks[:, 1::2]
    return np.all(clicks[:, 0::2] != right, axis=1), right


@lru_cache(maxsize=None)
def _constructive_patterns(n_photons: int) -> frozenset[tuple[int, ...]]:
    """Pair-click patterns bright at alpha = 0 for perfect photons."""
    m = 2 * n_photons
    unitary = _cyclic_circuit(n_photons, 0.0).unitary()
    dist = strong_simulate(unitary, FockState.from_modes(m, cyclic_input_modes(n_photons)))
    rows, probs = outcome_arrays(dist)
    valid, right = _one_click_per_pair(rows > 0)
    bright = valid & (probs > 1e-9 * probs.max())
    return frozenset(map(tuple, right[bright].astype(int).tolist()))


def _fringe_classes(rows: np.ndarray, n_photons: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the constructive and of the destructive one-click-per-pair rows."""
    width = 2 * n_photons
    if len(rows) and rows.shape[1] < width:
        raise ValueError(f"the {n_photons}-photon fringe needs {width} modes, got {rows.shape[1]}")
    valid, right = _one_click_per_pair(rows[:, :width].reshape(len(rows), width) > 0)
    bits = 1 << np.arange(n_photons)
    bright = [int(np.dot(pattern, bits)) for pattern in _constructive_patterns(n_photons)]
    constructive = valid & np.isin(right @ bits, bright)
    return np.flatnonzero(constructive), np.flatnonzero(valid & ~constructive)


@lru_cache(maxsize=None)
def _fringe_table(m: int, n: int, n_photons: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only :func:`_fringe_classes` of one distribution sector's basis rows."""
    classes = _fringe_classes(enumerate_basis(m, n).occupations, n_photons)
    for index in classes:
        index.setflags(write=False)
    return classes


def genuine_indistinguishability(
    dist: Mapping[FockState, float],
    n_photons: int,
) -> float:
    """Genuine n-photon indistinguishability from cyclic-circuit statistics.

    Restricts ``dist`` (probabilities or counts from the interferometer
    at alpha = 0; modes past the first ``2 * n_photons`` are ignored) to
    events with exactly one click per output pair and contrasts the
    constructive class against the destructive one:
    ``p_N = (C - D) / (C + D)``.  For the independent-label model with
    perfect purity this equals the product of the ``m_i``.
    """
    if isinstance(dist, OutputDistribution):
        parts = [(vec, _fringe_table(dist.m, n, n_photons)) for n, vec in dist.sectors.items()]
    else:
        rows, values = outcome_arrays(dist)
        parts = [(values, _fringe_classes(rows, n_photons))]
    constructive = np.concatenate([vec[c] for vec, (c, _) in parts] + [[]])
    destructive = np.concatenate([vec[d] for vec, (_, d) in parts] + [[]])
    c_sum, d_sum = float(constructive.sum()), float(destructive.sum())
    total = c_sum + d_sum
    if not total > 0.0:
        raise ValueError("no one-click-per-pair events; p_N is undefined")
    return float((c_sum - d_sum) / total)


def cyclic_distribution(
    n_photons: int, src: SourceModel, alpha: float = 0.0
) -> OutputDistribution:
    """Noisy output of the cyclic interferometer fed by ``n_photons`` triggers."""
    unitary = cyclic_interferometer(n_photons, alpha)
    labeled = build_input(n_photons, src, modes=cyclic_input_modes(n_photons))
    return noisy_simulate(unitary, labeled)


def measure_genuine_indistinguishability(
    n_photons: int, src: SourceModel, alpha: float = 0.0
) -> float:
    """Simulate the cyclic experiment and estimate ``p_N``."""
    return genuine_indistinguishability(cyclic_distribution(n_photons, src, alpha), n_photons)


def indistinguishability_fringe(
    n_photons: int, src: SourceModel, alphas: Sequence[float]
) -> np.ndarray:
    """``p_N`` estimates over a scan of the internal phase."""
    return np.array(
        [measure_genuine_indistinguishability(n_photons, src, alpha=a) for a in alphas]
    )


@dataclass(frozen=True)
class FringeFit:
    """Cosine fit ``amplitude * cos(frequency * alpha + phase)``."""

    amplitude: float
    frequency: float
    phase: float


def fit_fringe(alphas: Sequence[float], values: Sequence[float]) -> FringeFit:
    """Least-squares cosine fit of a fringe scan."""
    from scipy.optimize import curve_fit

    alphas = np.asarray(alphas, dtype=float)
    values = np.asarray(values, dtype=float)

    def model(a, c1, freq, phase):
        return c1 * np.cos(freq * a + phase)

    start = (float(np.max(np.abs(values))) or 1.0, 1.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        popt, _ = curve_fit(model, alphas, values, p0=start)
    amplitude, frequency, phase = (float(v) for v in popt)
    if amplitude < 0.0:
        amplitude = -amplitude
        phase += np.pi
    if frequency < 0.0:
        frequency = -frequency
        phase = -phase
    phase = float((phase + np.pi) % (2.0 * np.pi) - np.pi)
    return FringeFit(amplitude=amplitude, frequency=frequency, phase=phase)


def load_indistinguishability_matrix(path: str | Path | None = None) -> np.ndarray:
    """Pairwise indistinguishability matrix from an upper-triangular CSV.

    Line ``i`` of the file lists the entries above the diagonal of row
    ``i``; the diagonal is 1 and the matrix is symmetric.  With no path
    the measured six-photon matrix bundled with the package is loaded.
    """
    if path is None:
        text = (
            resources.files("lopsim")
            .joinpath("data/indistinguishability_matrix.csv")
            .read_text()
        )
    else:
        text = Path(path).read_text()
    rows = [line.strip() for line in text.splitlines() if line.strip()]
    n = len(rows) + 1
    matrix = np.eye(n)
    for i, row in enumerate(rows):
        entries = [float(v) for v in row.split(",") if v.strip()]
        if len(entries) != n - 1 - i:
            raise ValueError(
                f"row {i} has {len(entries)} entries, expected {n - 1 - i}"
            )
        for k, value in enumerate(entries):
            j = i + 1 + k
            matrix[i, j] = matrix[j, i] = value
    return matrix


def fit_product_model(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """Fit per-photon ``m_i`` so that ``M_ij ~ m_i * m_j``.

    The fit is linear least squares in log space over the above-diagonal
    entries.  A pairwise-measured matrix is over-determined for the
    product model, so the returned residual (root-mean-square deviation
    of ``m_i * m_j`` from ``M_ij``) reports the model mismatch.
    """
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError("matrix must be square")
    if not np.allclose(matrix, matrix.T, atol=1e-9):
        raise ValueError("matrix must be symmetric")
    if not np.allclose(np.diag(matrix), 1.0, atol=1e-9):
        raise ValueError("diagonal entries must be 1")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    values = np.array([matrix[i, j] for i, j in pairs])
    if np.any(values <= 0.0) or np.any(values > 1.0):
        raise ValueError("off-diagonal entries must lie in (0, 1]")
    design = np.zeros((len(pairs), n))
    for r, (i, j) in enumerate(pairs):
        design[r, i] = design[r, j] = 1.0
    solution, *_ = np.linalg.lstsq(design, np.log(values), rcond=None)
    m_fit = np.exp(solution)
    residual = float(
        np.sqrt(np.mean([(matrix[i, j] - m_fit[i] * m_fit[j]) ** 2 for i, j in pairs]))
    )
    return m_fit, residual
