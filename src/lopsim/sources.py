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
:func:`noisy_simulate` sums it exactly over the sets of triggers whose
photon takes the shared label (the distinguishable-photon expansion of
Renema et al., PRL 120, 220502 (2018)), in Horner order over the
triggers, truncated only by a photon-number cap whose tail mass it
reports as ``dropped_weight``, into the
:class:`~lopsim.fock.OutputDistribution` an ideal input gives;
:func:`batched_noisy_sectors` runs the same sum for a stack of
interferometers.  Only the sets that carry weight are formed, so the
perfect source ``SourceModel()`` (m_i = 1, g2 = 0, efficiency 1) forms
one and is the ideal simulator, bit for bit.  A caller that reads only
the outcomes with one click in every pair of some disjoint mode pairs
names them (``one_click_pairs``) and gets those outcomes alone, as the
cyclic fringe does (:func:`measure_genuine_indistinguishability`).
Detection throughout this module is click-based (threshold detectors):
an occupied mode counts as one click regardless of photon number.

The module also provides the two standard source characterization
experiments: the two-photon Hong-Ou-Mandel visibility (with its purity
correction), and the cyclic multiport interferometer measuring genuine
n-photon indistinguishability, whose fringe classes are read from click
parity (:func:`genuine_indistinguishability`).
"""

from __future__ import annotations

import itertools
import operator
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources
from math import fsum, prod
from typing import Sequence

import numpy as np

from .fock import (
    ModeUnitary,
    OutputDistribution,
    _add_photon,
    _coherent_prefixes,
    _input_modes,
    _live_size,
    _live_table,
    _one_click_rows,
    _support,
    _unbunched,
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
    "genuine_indistinguishability",
    "measure_genuine_indistinguishability",
    "FringeFit",
    "fit_fringe",
    "load_indistinguishability_matrix",
    "fit_product_model",
]

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
        modes: input mode per trigger, each an integer (a float raises
            ``TypeError``); defaults to ``0..n-1``.
    """
    modes = tuple(range(n)) if modes is None else tuple(map(operator.index, modes))
    if len(modes) != n:
        raise ValueError(f"expected {n} input modes, got {len(modes)}")
    return _labeled_input(src, modes)


@lru_cache(maxsize=64)
def _labeled_input(src: SourceModel, modes: tuple[int, ...]) -> LabeledInput:
    """:func:`build_input`'s table, built once per source and modes (both frozen)."""
    n, eta, ms = len(modes), src.efficiency, src.m_values(len(modes)).tolist()
    shared, unique = tuple(float(eta * m) for m in ms), tuple(float(eta * (1.0 - m)) for m in ms)
    return LabeledInput(modes, shared, unique, (1.0 - eta,) * n, (src.g2 * eta,) * n)


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


@lru_cache(maxsize=64)
def _trigger_sets(labeled: LabeledInput) -> tuple[int, float, tuple[int, ...], tuple]:
    """Photon cap, tail above it, folded triggers and the shared sets of weight, per input.

    A trigger is in S only if ``shared[i] > 0`` and out of it only if ``unique[i] + lost[i]
    > 0``, and only those that can be out fold.  A set is ``(one flag per folded trigger,
    modes, P(S))``, in ``itertools.product`` order (out first), none above the cap.
    """
    tail = _photon_number_tail(labeled)
    cap = int(np.argmax(tail[1:] <= TAIL_TOLERANCE))
    triggers = zip(labeled.shared, labeled.unique, labeled.lost)
    options = [(False,) * (u + lost > 0.0) + (True,) * (w > 0.0) for w, u, lost in triggers]
    folds = tuple(i for i, option in enumerate(options) if not option[0])
    sets = []
    for flags in itertools.product(*options):
        modes = tuple(sorted(q for q, s in zip(labeled.modes, flags) if s))
        if len(modes) <= cap:
            weight = prod(w for w, s in zip(labeled.shared, flags) if s)
            sets.append((tuple(flags[i] for i in folds), modes, weight))
    return cap, float(tail[cap + 1]), folds, tuple(sets)


def _accumulate(sectors: dict[int, np.ndarray], n: int, vec: np.ndarray) -> None:
    """Add ``vec`` into sector ``n``, taking it over if the sector is new."""
    if n in sectors:
        sectors[n] += vec
    else:
        sectors[n] = vec


def _mix_photon(
    sectors: dict[int, np.ndarray], column: np.ndarray, w_none: float, w_one: float,
    cap: int, scratch: np.ndarray, pairs: tuple[tuple[int, int], ...],
) -> None:
    """One classical mixture step over photon-number sectors, in place.

    With weight ``w_none`` no photon is added; with weight ``w_one`` one
    distinguishable photon is routed by ``column`` (``|U_b[:, q]|^2`` for
    input mode q in column b, shape ``(m, B)``).  Top down, sector n adds
    into n + 1 (up to ``cap``), then is scaled by ``w_none`` or dropped.
    With ``pairs`` the sectors are vectors over their live rows.
    """
    for n in sorted(sectors, reverse=True):
        if w_one and n < cap:
            grown = sectors.get(n + 1)
            sectors[n + 1] = _add_photon(
                sectors[n], n, w_one * column, False, grown, scratch, pairs, cap
            )
        if w_none:
            sectors[n] *= w_none
        else:
            del sectors[n]


def _pair_key(pairs: Sequence[Sequence[int]], m: int) -> tuple[tuple[int, int], ...]:
    """``pairs`` as sorted pairs in sorted order; refuses modes outside ``[0, m)`` or shared."""
    key = tuple(sorted(tuple(sorted((operator.index(a), operator.index(b)))) for a, b in pairs))
    modes = [q for pair in key for q in pair]
    outside = [q for q in modes if not 0 <= q < m]
    if outside:
        raise ValueError(f"one-click pair modes {outside} lie outside [0, {m})")
    if len(set(modes)) < len(modes):
        raise ValueError(f"one-click pairs {key} share a mode")
    return key


def batched_noisy_sectors(
    unitaries: np.ndarray,
    labeled: LabeledInput,
    *,
    one_click_pairs: Sequence[Sequence[int]] = (),
) -> tuple[dict[int, np.ndarray], float]:
    """Noisy-source outputs of B interferometers in one trigger sum.

    ``unitaries`` is ``(B, m, m)``.  The sum of :func:`noisy_simulate`
    runs once for the whole stack, over the shared sets that carry
    weight (:func:`_trigger_sets`).  A set's coherent amplitudes, modes
    sorted, are those of the set without its last mode plus one SLOS
    step, so each prefix is computed once (at most 2^n - 1 photon
    additions for n distinct triggers, n for the perfect source's one
    set), in one batched call per prefix length of the coherent pass of
    :func:`~lopsim.fock.batched_amplitudes`
    (:func:`~lopsim.fock._coherent_prefixes`, then
    :func:`~lopsim.fock._unbunched`): each set's coherent term is bit for
    bit that call's for its modes.  The classical steps then fold in each
    trigger that can be out of S (at most 2^n - 1 D's; sums round in
    another order) and each extra photon of nonzero weight, in place
    through one scratch buffer, column b taking ``|U_b[:, q]|^2``; with
    no such step none of these is built.  A batch pays off on small
    sectors only; on large ones its strided scatters cost more than the
    Python calls it saves.

    ``one_click_pairs`` lists disjoint mode pairs of which the caller
    reads only the outcomes with exactly one click in every pair.  Every
    step then runs on the live rows (:func:`~lopsim.fock._support`): no
    pair filled, and no more pairs empty than the photons the cap leaves
    could fill.  Removing a photon never fills a pair and empties at
    most one, so no outcome off the live rows feeds one on them, and no
    read outcome comes from a dead row.  Only the read outcomes are
    returned: each sector keeps the rows with one click in every pair
    (:func:`~lopsim.fock._one_click_rows`), rank ascending, each exact
    (bit for bit its value without pairs), and a sector with no such row
    is left out.  With no pairs every row is live and read.  (On the
    12-mode cyclic p6 at a cap of 10, sectors 6-10 hold 57,340 live
    states and return the 13,440 read ones, instead of 640,458.)

    Returns the sectors, ``{n: (N_n, B)}`` probabilities (column b the
    output of unitary b) over ``enumerate_basis(m, n)``, or with pairs
    over its ranks ``_support(m, n, pairs, n)``, and the photon-number
    tail above the cap, which every column shares.
    """
    unitaries = np.asarray(unitaries, dtype=complex)
    count, m = unitaries.shape[:2]
    pairs = _pair_key(one_click_pairs, m)
    _input_modes(m, labeled.modes)  # rejects an input mode outside the unitary
    cap, dropped, folds, shared = _trigger_sets(labeled)
    columns, scratch = [None] * len(labeled.modes), None
    if any(labeled.unique) or any(labeled.extra):  # some classical step adds a photon
        columns = [np.ascontiguousarray(np.abs(unitaries[:, :, q].T) ** 2) for q in labeled.modes]
        largest = max((_live_size(m, n, pairs, cap) for n in range(cap)), default=0)
        scratch = np.empty(largest * count)

    prefixes = _coherent_prefixes(unitaries, [modes for _, modes, _ in shared], pairs, cap)
    terms: dict[tuple[bool, ...], dict[int, np.ndarray]] = {}
    for members, shared_modes, weight in shared:
        probs = np.abs(_unbunched(prefixes[shared_modes], shared_modes)) ** 2
        terms[members] = {len(shared_modes): probs if weight == 1.0 else weight * probs}
    del prefixes  # the classical fold needs none of the amplitudes
    for j in folds:  # Horner order
        step = columns[j], labeled.lost[j], labeled.unique[j], cap, scratch, pairs
        folded: dict[tuple[bool, ...], dict[int, np.ndarray]] = {}
        for members, term in terms.items():
            if not members[0]:
                _mix_photon(term, *step)
            for n, vec in term.items():
                _accumulate(folded.setdefault(members[1:], {}), n, vec)
        terms = folded
    sectors = terms[()]
    for column, extra in zip(columns, labeled.extra):
        if extra:
            _mix_photon(sectors, column, 1.0 - extra, extra, cap, scratch, pairs)
    if pairs:
        reads = {n: _one_click_rows(m, n, pairs, cap)[0] for n in sectors}
        sectors = {n: vec[reads[n]] for n, vec in sectors.items() if len(reads[n])}
    return sectors, dropped


def noisy_simulate(
    unitary: ModeUnitary | np.ndarray,
    labeled: LabeledInput,
    *,
    one_click_pairs: Sequence[Sequence[int]] = (),
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
    The D_i commute, so the sum runs in Horner form from ``c_0(S) = P(S)
    strong(S)``: ``c_{j+1}(S) = c_j(S + {j}) + D_j c_j(S)``, S in {j+1, ..}.

    The only truncation is a photon-number cap: the smallest N whose
    exact tail ``P(photons > N)`` is at most ``TAIL_TOLERANCE``.  Sectors
    above N are not formed and the tail is reported as ``dropped_weight``.

    The B = 1 case of :func:`batched_noisy_sectors`, as
    :func:`~lopsim.fock.strong_simulate` is of
    :func:`~lopsim.fock.batched_amplitudes`, on the 1-D kernel.

    Args:
        unitary: the interferometer.
        labeled: per-trigger input table from :func:`build_input`.
        one_click_pairs: disjoint mode pairs of which the caller reads
            only the outcomes with exactly one click in every pair, such
            as the output pairs of the cyclic fringe; only the outcomes
            that can still reach one are simulated (see
            :func:`batched_noisy_sectors`).

    Returns:
        An :class:`~lopsim.fock.OutputDistribution` with one exact sector
        per populated photon number up to the cap, whose probabilities
        plus ``dropped_weight`` sum to 1.  With ``one_click_pairs`` a
        sector covers only its outcomes with one click in every pair, by
        rank (``ranks[n]``), and one with none is left out, so the sum
        falls short of 1 by the mass of the others.  Postselection scales
        ``dropped_weight`` like the probabilities.
    """
    if not isinstance(unitary, ModeUnitary):
        unitary = ModeUnitary(np.asarray(unitary))
    pairs = _pair_key(one_click_pairs, unitary.m)
    sectors, dropped = batched_noisy_sectors(unitary.matrix[None], labeled, one_click_pairs=pairs)
    return OutputDistribution(
        unitary.m,
        {n: vec[:, 0] for n, vec in sectors.items()},
        dropped_weight=dropped,
        ranks={n: _support(unitary.m, n, pairs, n) for n in sectors} if pairs else None,
    )


def coincidence_probability(dist: OutputDistribution, modes: Sequence[int]) -> float:
    """Probability that every listed mode clicks (threshold detectors)."""
    modes = list(modes)
    outside = [q for q in modes if not 0 <= q < dist.m]
    if outside:
        raise ValueError(f"modes {outside} lie outside the distribution's modes [0, {dist.m})")
    rows, values = dist.outcomes()
    # rounded once, so the value does not depend on which zero rows a sector holds
    return fsum(values[np.all(rows[:, modes] > 0, axis=1)])


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
    if not np.isfinite(alpha):
        raise ValueError(f"alpha must be a finite phase, got {alpha}")
    return _cyclic_circuit(n_photons, alpha).unitary()


def _output_pairs(n_photons: int, m: int) -> tuple[tuple[int, int], ...]:
    """The fringe's output pairs ``(2k, 2k + 1)``; refuses fewer than ``2 * n_photons`` modes."""
    if m < 2 * n_photons:
        raise ValueError(f"the {n_photons}-photon fringe needs {2 * n_photons} modes, got {m}")
    return tuple((2 * k, 2 * k + 1) for k in range(n_photons))


@lru_cache(maxsize=None)
def _fringe_table(m: int, n: int, n_photons: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only basis ranks of one sector's fringe rows and the positions of each class among them.

    Its rows with one click in every output pair are the live rows of
    those pairs at a cap of n (:func:`~lopsim.fock._live_table`), so
    they are generated, not searched for in the basis, and their ranks
    are the array a fringe simulation's sector covers.  Each such row
    clicks on the even or the odd mode of every pair, so its class is
    the parity of its odd-mode clicks: even is constructive.
    """
    ranks, rows = _live_table(m, n, _output_pairs(n_photons, m), n)
    odd = np.count_nonzero(rows[:, 1 : 2 * n_photons : 2], axis=1) % 2
    classes = np.flatnonzero(odd == 0), np.flatnonzero(odd == 1)
    for index in classes:
        index.setflags(write=False)
    return ranks, *classes


def genuine_indistinguishability(dist: OutputDistribution, n_photons: int) -> float:
    """Genuine n-photon indistinguishability from cyclic-circuit statistics.

    Restricts ``dist`` (probabilities or sampled counts from the
    interferometer at alpha = 0; modes past the first ``2 * n_photons``
    are ignored) to events with exactly one click per output pair and
    contrasts the constructive class (an even number of pairs clicking
    on their odd mode) against the destructive one (an odd number):
    ``p_N = (C - D) / (C + D)``.  For the independent-label model with
    perfect purity this equals the product of the ``m_i``.
    """
    if n_photons < 1:
        raise ValueError(f"need at least one photon, got {n_photons}")
    _output_pairs(n_photons, dist.m)  # refuses too few modes, with or without events
    constructive, destructive = [[]], [[]]
    for n, vec in dist.sectors.items():
        ranks, bright, dark = _fringe_table(dist.m, n, n_photons)
        covered = dist.ranks.get(n)
        if covered is None:  # the full basis
            vec = vec[ranks]
        elif covered is not ranks:  # rows other than the fringe's: read those it holds
            read = np.flatnonzero(np.isin(covered, ranks))
            is_bright = np.isin(covered[read], ranks[bright])
            bright, dark = read[is_bright], read[~is_bright]
        constructive.append(vec[bright])
        destructive.append(vec[dark])
    c_sum, d_sum = (float(np.concatenate(part).sum()) for part in (constructive, destructive))
    total = c_sum + d_sum
    if not total > 0.0:
        raise ValueError("no one-click-per-pair events; p_N is undefined")
    return float((c_sum - d_sum) / total)


def _fringe_distribution(n_photons: int, src: SourceModel, alpha: float) -> OutputDistribution:
    """Noisy output of the cyclic interferometer on the outcomes the fringe reads.

    The fringe reads one click per output pair ``(2k, 2k + 1)``, so
    those are the one-click pairs, and each sector covers those
    outcomes only.
    """
    unitary = cyclic_interferometer(n_photons, alpha)
    labeled = build_input(n_photons, src, modes=cyclic_input_modes(n_photons))
    return noisy_simulate(unitary, labeled, one_click_pairs=_output_pairs(n_photons, unitary.m))


def measure_genuine_indistinguishability(
    n_photons: int, src: SourceModel, alpha: float = 0.0
) -> float:
    """Simulate the cyclic experiment on the outcomes it reads and estimate ``p_N``.

    The value is bit for bit that of the full output, the same
    :func:`noisy_simulate` without ``one_click_pairs``.
    """
    return genuine_indistinguishability(_fringe_distribution(n_photons, src, alpha), n_photons)


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


def load_indistinguishability_matrix() -> np.ndarray:
    """The measured six-photon pairwise indistinguishability matrix bundled with the package."""
    text = resources.files("lopsim").joinpath("data/indistinguishability_matrix.csv").read_text()
    return _upper_triangular(text)


def _upper_triangular(text: str) -> np.ndarray:
    """Symmetric matrix from an upper-triangular CSV text.

    Line ``i`` lists the entries above the diagonal of row ``i``; the
    diagonal is 1 and the matrix is symmetric.
    """
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
    if not np.allclose(matrix, matrix.T, rtol=0, atol=1e-9):
        raise ValueError("matrix must be symmetric")
    if not np.allclose(np.diag(matrix), 1.0, rtol=0, atol=1e-9):
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
