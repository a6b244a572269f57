"""Circuit elements, rectangular interferometer meshes and compilation.

A circuit is an ordered list of phase shifters, directional couplers and
mode permutations; each element takes its modes through
``operator.index``, so a float mode raises ``TypeError``. The rectangular
mesh follows the nulling scheme of rectangular decompositions: every
unitary factors exactly into one two-phase cell per mode pair plus a
diagonal layer of output phases.

A cell on modes (p, p+1) is four elements in light order: phase(phi) on
the top mode p, coupler(r1), phase(theta) on mode p, coupler(r2).
``MeshLayout`` schedules the cells once into layers of disjoint mode
pairs (m layers for m >= 3): each cell goes one layer after the
latest earlier cell sharing one of its modes. Cells in a layer touch
disjoint pairs, so they commute and one vectorized update applies a whole
layer to a batch of row states.

``_forward_sweep`` and ``_adjoint_sweep`` are the only mesh propagation.
The forward sweep pushes row states, held mode-major with the row batch
last, through the layers and records a tape: the phase and coupler
factors, permuted once into layer order so each layer is a contiguous
span of cells on stride-2 mode slices, and every cell's pair amplitudes
entering its two couplers. The coupler factors are full-width (2,
n_cells, B) planes, so no coupler product broadcasts a column over the
rows. The adjoint sweep reads that tape back to front with a cotangent
and returns its product with the derivative of the output by every phase
and reflectivity, so nothing of the forward pass is recomputed. Its
layer loop only carries the cotangent back and stores the cotangents
leaving every cell's two couplers, (2, n_cells, B) like the tape; one
vectorized pass over all cells and both couplers then forms both
derivatives from those and the tape. At a phase element the product is
``1j * a_top * s_top`` (cotangent times state on the top mode), so no
2x2 derivative blocks are formed. The unitary, the compile objective and
every calibration and benchmark intensity go through this pair.

Both sweeps write into a workspace (``_Workspace``) that the caller owns,
one per shape of rows and phases, and the workspace is the tape: the
forward sweep leaves its phase and coupler factors and cell amplitudes
there beside its output, and the adjoint sweep reads them from there.
Each fit owns one: ``hardware.calibrate`` and
``compile_with_imperfections`` build one per fit and hand it to every
objective evaluation, so a fit makes its state, tape, cotangent and
derivative arrays once; a caller that passes none gets a fresh one
through the same code. The output and tape of a forward sweep hold until
the next forward sweep on the workspace, and the derivatives of an
adjoint sweep until its next adjoint sweep.

``compile_with_imperfections`` seeds its L-BFGS fit with the
error-corrected decomposition (``_corrected_phases``): the ideal
rectangular cells, each re-solved in light order for its own couplers,
with the phases a cell leaves on its modes carried into the next cells.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from lopsim.fock import ModeUnitary, _seeded_rng

__all__ = [
    "PhaseShifter",
    "DirectionalCoupler",
    "ModePermutation",
    "PhotonicCircuit",
    "MeshLayout",
    "MeshPhases",
    "CompilationResult",
    "clements_decompose",
    "compile_with_imperfections",
    "fidelity",
    "gauge_fidelity",
    "two_mode_gate_elements",
    "unitary_to_elements",
]

RECONSTRUCTION_ATOL = 1e-10

#: :func:`compile_with_imperfections` stops restarting once the fidelity
#: reaches ``COMPILE_STOP_FIDELITY`` or ``COMPILE_PATIENCE`` restarts in a
#: row fail to improve it, where an improvement lowers the best ``1 - F``
#: by more than the fraction ``COMPILE_PROGRESS`` of it.
COMPILE_STOP_FIDELITY = 1.0 - 1e-6
COMPILE_PATIENCE = 2
COMPILE_PROGRESS = 0.01

#: Alternating phase updates per update order in the boundary-phase search.
GAUGE_ITERATIONS = 40


@dataclass(frozen=True)
class PhaseShifter:
    """Phase ``exp(1j * phase)`` on one mode."""

    mode: int
    phase: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", operator.index(self.mode))


@dataclass(frozen=True)
class DirectionalCoupler:
    """Coupler with transfer matrix [[sqrt(r), i sqrt(1-r)], [i sqrt(1-r), sqrt(r)]]."""

    mode_a: int
    mode_b: int
    reflectivity: float = 0.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode_a", operator.index(self.mode_a))
        object.__setattr__(self, "mode_b", operator.index(self.mode_b))
        if self.mode_a == self.mode_b:
            raise ValueError("coupler needs two distinct modes")
        if not 0.0 <= self.reflectivity <= 1.0:
            raise ValueError(f"reflectivity {self.reflectivity} outside [0, 1]")


@dataclass(frozen=True)
class ModePermutation:
    """Routing element: a photon entering mode i exits mode ``targets[i]``."""

    targets: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", tuple(map(operator.index, self.targets)))
        if sorted(self.targets) != list(range(len(self.targets))):
            raise ValueError(f"not a permutation of modes: {self.targets}")


CircuitElement = PhaseShifter | DirectionalCoupler | ModePermutation


def _apply_element(u: np.ndarray, element: CircuitElement) -> None:
    """In-place left-multiplication of ``u`` by the element transfer matrix.

    Every compile and every :meth:`PhotonicCircuit.unitary` call runs
    this once per element, so it dispatches on the exact element type
    once, takes the coupler amplitudes from ``math.sqrt`` (correctly
    rounded, like ``np.sqrt``) and reads each coupler row once.  The
    phase factor stays ``np.exp``, so no result depends on two libm
    exponentials agreeing.
    """
    kind = type(element)
    if kind is PhaseShifter:
        u[element.mode] *= np.exp(1j * element.phase)
    elif kind is DirectionalCoupler:
        r = element.reflectivity
        t, k = math.sqrt(r), 1j * math.sqrt(1.0 - r)
        row_a, row_b = u[element.mode_a], u[element.mode_b]
        u[element.mode_a], u[element.mode_b] = t * row_a + k * row_b, k * row_a + t * row_b
    elif kind is ModePermutation:
        u[list(element.targets)] = u.copy()
    else:
        raise TypeError(f"unknown circuit element {element!r}")


def _check_element_modes(element: CircuitElement, m: int) -> None:
    if isinstance(element, PhaseShifter):
        modes = [element.mode]
    elif isinstance(element, DirectionalCoupler):
        modes = [element.mode_a, element.mode_b]
    else:
        modes = list(element.targets)
        if len(element.targets) != m:
            raise ValueError(f"permutation over {len(element.targets)} modes, circuit has {m}")
    for mode in modes:
        if not 0 <= mode < m:
            raise ValueError(f"mode {mode} out of range for m={m}")


@dataclass
class PhotonicCircuit:
    """Ordered element list; the first element acts on the input first."""

    m: int
    elements: list[CircuitElement] = field(default_factory=list)

    def __post_init__(self) -> None:
        for element in self.elements:
            _check_element_modes(element, self.m)

    def add(self, element: CircuitElement) -> "PhotonicCircuit":
        _check_element_modes(element, self.m)
        self.elements.append(element)
        return self

    def extend(self, elements: Sequence[CircuitElement]) -> "PhotonicCircuit":
        for element in elements:
            self.add(element)
        return self

    def unitary(self) -> ModeUnitary:
        u = np.eye(self.m, dtype=complex)
        for element in self.elements:
            _apply_element(u, element)
        return ModeUnitary(u)


# ---------------------------------------------------------------------------
# Rectangular mesh


def _cell_matrix(theta: float, phi: float) -> np.ndarray:
    """2x2 block of one balanced cell: coupler @ phase(theta) @ coupler @ phase(phi)."""
    t = np.sqrt(0.5)
    coupler = np.array([[t, 1j * t], [1j * t, t]])
    pt = np.diag([np.exp(1j * theta), 1.0])
    pf = np.diag([np.exp(1j * phi), 1.0])
    return coupler @ pt @ coupler @ pf


def _cell_angles(v: np.ndarray) -> tuple[float, float, float, float]:
    """Angles (theta, phi, psi, chi) of a 2x2 unitary ``v``.

    ``v = diag(exp(1j psi), exp(1j chi)) @ _cell_matrix(theta, phi)``. When
    one row entry vanishes, phi is free and set to zero.
    """
    s, c = np.abs(v[0, 0]), np.abs(v[0, 1])
    theta = 2.0 * np.arctan2(s, c)
    half = 1j * np.exp(1j * theta / 2.0)
    if s > 1e-14 and c > 1e-14:
        phi = float(np.angle(v[0, 0] * np.conj(v[0, 1])))
        psi = float(np.angle(v[0, 1] / (half * c)))
        chi = float(np.angle(-v[1, 1] / (half * s)))
    elif s <= 1e-14:
        phi = 0.0
        psi = float(np.angle(v[0, 1] / half))
        chi = float(np.angle(v[1, 0] / half))
    else:
        phi = 0.0
        psi = float(np.angle(v[0, 0] / (half * s)))
        chi = float(np.angle(-v[1, 1] / half))
    return theta, phi, psi, chi


class MeshLayout:
    """Rectangular cell arrangement for an m-mode mesh.

    ``cells[c]`` is the top mode of cell c; cells are stored in
    application order. The flat logical phase vector stores
    ``[theta_0, phi_0, theta_1, phi_1, ...]``. For the 12-mode reference
    geometry the six external phases that sit directly on untouched
    input modes are not actuated in hardware and are pinned to zero,
    leaving 126 actuated phases. ``layer_order`` lists the cells layer by
    layer and ``layer_inverse`` undoes it; ``layers[d]`` is the d-th layer
    of disjoint pairs as (its span of cells in layer order, its top-mode
    slice, its bottom-mode slice).
    """

    def __init__(self, m: int):
        if m < 2:
            raise ValueError("mesh needs at least 2 modes")
        self.m = m
        self.cells = tuple(_mesh_cell_sequence(m))
        self.n_cells = len(self.cells)
        self.n_logical = 2 * self.n_cells
        pinned: list[int] = []
        if m == 12:
            touched = [False] * m
            for c, p in enumerate(self.cells):
                if not touched[p]:
                    pinned.append(2 * c + 1)
                touched[p] = True
                touched[p + 1] = True
        self.pinned_indices = tuple(pinned)
        self.actuated_indices = np.delete(np.arange(self.n_logical), pinned)
        self.n_actuated = len(self.actuated_indices)
        layer_of: list[int] = []
        free = [0] * m
        for p in self.cells:
            layer = max(free[p], free[p + 1])
            free[p] = free[p + 1] = layer + 1
            layer_of.append(layer)
        # Layer order: cells grouped by layer, by index within a layer. A
        # layer's tops then rise in steps of 2, so it is one contiguous span
        # of cells on stride-2 mode slices.
        order = sorted(range(self.n_cells), key=layer_of.__getitem__)
        self.layer_order = np.array(order)
        self.layer_inverse = np.empty_like(self.layer_order)
        self.layer_inverse[self.layer_order] = np.arange(self.n_cells)
        layers = []
        lo = 0
        for d in range(max(free)):
            tops = [self.cells[c] for c in order if layer_of[c] == d]
            t0, t_last = tops[0], tops[-1]
            if tops != list(range(t0, t_last + 1, 2)):
                raise RuntimeError("layer tops are not evenly spaced")
            span, lo = slice(lo, lo + len(tops)), lo + len(tops)
            layers.append((span, slice(t0, t_last + 1, 2), slice(t0 + 1, t_last + 2, 2)))
        self.layers = tuple(layers)

    def phases_from_actuated(self, actuated: np.ndarray) -> np.ndarray:
        """Logical phase vector(s) with pinned phases at zero; leading axes are kept."""
        actuated = np.asarray(actuated, dtype=float)
        if actuated.shape[-1:] != (self.n_actuated,):
            raise ValueError(
                f"expected {self.n_actuated} actuated phases, got {actuated.shape}"
            )
        full = np.zeros(actuated.shape[:-1] + (self.n_logical,))
        full[..., self.actuated_indices] = actuated
        return full

    def actuated_from_phases(self, full: np.ndarray) -> np.ndarray:
        """Actuated entries of logical phase vector(s); leading axes are kept."""
        full = np.asarray(full, dtype=float)
        if full.shape[-1:] != (self.n_logical,):
            raise ValueError(f"expected {self.n_logical} logical phases, got {full.shape}")
        return full[..., self.actuated_indices]

    def unitary(
        self,
        phases: np.ndarray,
        reflectivities: np.ndarray | None = None,
        output_phases: np.ndarray | None = None,
    ) -> ModeUnitary:
        return ModeUnitary(self._matrix(phases, reflectivities, output_phases))

    def _matrix(
        self,
        phases: np.ndarray,
        reflectivities: np.ndarray | None = None,
        output_phases: np.ndarray | None = None,
    ) -> np.ndarray:
        phases, output_phases = self._checked_phases(phases, output_phases)
        refl = self._reflectivity_table(reflectivities)
        u = _forward_sweep(self, np.eye(self.m, dtype=complex), phases, refl)[0].T
        if output_phases is not None:
            u = np.exp(1j * output_phases)[:, None] * u
        return u

    def _checked_phases(
        self, phases: np.ndarray, output_phases: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """The logical phases and the optional output layer as float arrays of their shapes."""
        phases = np.asarray(phases, dtype=float)
        if phases.shape != (self.n_logical,):
            raise ValueError(f"expected {self.n_logical} logical phases, got {phases.shape}")
        if output_phases is not None:
            output_phases = np.asarray(output_phases, dtype=float)
            if output_phases.shape != (self.m,):
                raise ValueError("output phase layer must have one phase per mode")
        return phases, output_phases

    def _reflectivity_table(self, reflectivities: np.ndarray | None) -> np.ndarray:
        if reflectivities is None:
            return np.full((self.n_cells, 2), 0.5)
        refl = np.asarray(reflectivities, dtype=float)
        if refl.shape != (self.n_cells, 2):
            raise ValueError(
                f"expected reflectivities of shape {(self.n_cells, 2)}, got {refl.shape}"
            )
        outside = ~((refl >= 0.0) & (refl <= 1.0))  # NaN included
        if outside.any():
            cell, coupler = np.argwhere(outside)[0]
            raise ValueError(
                f"reflectivity {refl[cell, coupler]} of cell {cell} (coupler r{coupler + 1}) "
                "outside [0, 1]"
            )
        return refl

    def circuit(
        self, phases: np.ndarray, output_phases: np.ndarray | None = None
    ) -> PhotonicCircuit:
        """Element-level expansion of the balanced mesh (phi, coupler, theta, coupler per cell)."""
        phases, output_phases = self._checked_phases(phases, output_phases)
        circuit = PhotonicCircuit(self.m)
        for c, p in enumerate(self.cells):
            circuit.add(PhaseShifter(p, float(phases[2 * c + 1])))
            circuit.add(DirectionalCoupler(p, p + 1))
            circuit.add(PhaseShifter(p, float(phases[2 * c])))
            circuit.add(DirectionalCoupler(p, p + 1))
        if output_phases is not None:
            for mode in range(self.m):
                circuit.add(PhaseShifter(mode, float(output_phases[mode])))
        return circuit


class _Workspace:
    """The arrays the sweeps over one shape write into, call after call: the tape.

    One workspace serves ``n_rows`` row states on ``layout`` under one
    logical phase vector shared by every row, or one per row
    (``per_row``). Arrays are mode- or cell-major with the row batch last,
    so a layer's update runs over contiguous rows, and cells are permuted
    by ``MeshLayout.layer_order``. The forward sweep writes ``e`` (2,
    n_cells, B or 1), the phase factors of (theta, phi); ``refl``, ``t``
    and ``k`` (2, n_cells, 1), the reflectivities and coupler factors of
    (r1, r2), and ``t_plane`` and ``k_plane``, the same factors over all
    (2, n_cells, B); ``x`` and ``y`` (2, n_cells, B), every cell's top and
    bottom amplitudes entering coupler(r1) (``[0]``, after phase(phi)) and
    coupler(r2) (``[1]``, after phase(theta)); and ``out``. Each layer's
    views of these, of its state rows and of two scratch rows per cell (a
    layer has at most m // 2) are made once, in ``layer_views``. Its
    arrays are made here, the adjoint sweep's on its first call, so
    forward-only readers never make them.
    """

    def __init__(self, layout: MeshLayout, n_rows: int, per_row: bool):
        self.layout = layout
        # phase_order[j, c] is the logical index of phase j (theta, phi) of
        # the c-th cell in layer order
        self.phase_order = 2 * layout.layer_order + np.array([[0], [1]])
        self.state = s = np.empty((layout.m, n_rows), dtype=complex)
        self.e = e = np.empty((2, layout.n_cells, n_rows if per_row else 1), dtype=complex)
        self.x = x = np.empty((2, layout.n_cells, n_rows), dtype=complex)
        self.y = y = np.empty_like(x)
        self.t_plane = t = np.empty_like(x)
        self.k_plane = k = np.empty_like(x)
        self.scratch = np.empty((2, layout.m // 2, n_rows), dtype=complex)
        self.out = np.empty((n_rows, layout.m), dtype=complex)
        self.layer_views = [
            (*t[:, span], *k[:, span], *self.scratch[:, : span.stop - span.start],
             s[top], s[bot], *e[:, span], *x[:, span], *y[:, span])
            for span, top, bot in layout.layers
        ]

    @cached_property
    def adjoint(self) -> tuple:
        """The adjoint sweep's arrays: ``ax``, ``ay`` and ``d_phases`` (2,
        n_cells, B) in layer order; the derivatives in cell order,
        ``phase_grad`` (B, n_logical) and ``refl_grad`` (B, n_cells, 2);
        ``gather``, the flat positions in a (2, n_cells, B) array in layer
        order of the entries of a (B, n_cells, 2) one in cell order; and
        the layer views with ``ax``, ``ay`` in place of the tape."""
        x = self.x
        ax, ay = np.empty_like(x), np.empty_like(x)
        cells = np.arange(x.size).reshape(x.shape)[:, self.layout.layer_inverse]
        return (
            ax, ay, np.empty_like(x), np.empty((x.shape[2], 2 * x.shape[1]), dtype=complex),
            np.empty(x.shape[::-1], dtype=complex), cells.T.ravel(),
            [v[:-4] + (*ax[:, at], *ay[:, at])
             for v, (at, _, _) in zip(self.layer_views, self.layout.layers)],
        )


def _mix(a, x, b, y, p: np.ndarray, q: np.ndarray, out: np.ndarray) -> None:
    """``out = a * x + b * y`` through the scratch ``p`` and ``q``.

    Each product is written to a scratch array that is none of its
    operands, because numpy rounds an in-place complex product of one
    element differently from the same product out of place; ``out`` may be
    ``p`` or ``q``.
    """
    np.multiply(a, x, out=p)
    np.multiply(b, y, out=q)
    np.add(p, q, out=out)


def _forward_sweep(
    layout: MeshLayout,
    rows: np.ndarray,
    phases: np.ndarray,
    refl: np.ndarray,
    work: _Workspace | None = None,
) -> tuple[np.ndarray, _Workspace]:
    """Push row states (B, m) through the mesh, one layer at a time.

    ``phases`` is one logical vector shared by every row, or one per row
    (B, n_logical); ``refl`` is the (n_cells, 2) coupler table. Returns
    ``out`` (B, m), where ``out[b]`` is the mesh transfer matrix applied to
    ``rows[b]``, and the workspace (a fresh one when ``work`` is None)
    that holds it and the tape ``_adjoint_sweep`` reads until its next
    forward sweep. The phase factors and coupler planes are formed once
    and one (m, B) state array is updated in place; the tape gets copies
    of the amplitudes it needs.
    """
    if work is None:
        work = _Workspace(layout, len(rows), np.ndim(phases) == 2)
    s, e = work.state, work.e
    np.multiply(1j, np.reshape(phases, (-1, layout.n_logical)).T[work.phase_order], out=e)
    np.exp(e, out=e)
    work.refl = refl = np.ascontiguousarray(refl[layout.layer_order].T)[..., None]
    work.t, work.k = np.sqrt(refl), 1j * np.sqrt(1.0 - refl)
    np.copyto(work.t_plane, work.t)
    np.copyto(work.k_plane, work.k)
    np.copyto(s, rows.T)
    for t1, t2, k1, k2, p, q, top, bot, e0, e1, x1, x3, y1, y3 in work.layer_views:
        np.multiply(top, e1, out=x1)
        y1[...] = bot
        _mix(t1, x1, k1, y1, p, q, out=p)
        np.multiply(p, e0, out=x3)
        _mix(k1, x1, t1, y1, p, q, out=y3)
        _mix(t2, x3, k2, y3, p, q, out=top)
        _mix(k2, x3, t2, y3, p, q, out=bot)
    np.copyto(work.out, s.T)
    return work.out, work


def _adjoint_sweep(work: _Workspace, cotangent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run the cotangent (B, m) back through the mesh taped on ``work``.

    The tape is only read, so one forward sweep serves any number of
    cotangents. For each row b, with ``a = cotangent[b]`` and ``out`` the
    forward output row, returns ``a . d out / d phase`` as (B, n_logical)
    in logical order and ``a . d out / d r`` as (B, n_cells, 2). Both are
    arrays of ``work``, written over by its next adjoint sweep.

    The layer loop only carries the cotangent back, in the forward
    sweep's state array, storing ``ax``, ``ay`` (2, n_cells, B), the
    cotangents leaving every cell's coupler(r1) (``[0]``) and coupler(r2)
    (``[1]``) on its top and bottom mode. One pass over all cells and both
    couplers then forms both derivatives: with ``x``, ``y`` the amplitudes
    entering a coupler and ``ax``, ``ay`` those leaving it, the coupler
    contributes ``ax (dt x + dk y) + ay (dk x + dt y)`` and the phase in
    front of it ``1j (t ax + k ay) x``. Its scratch is the two derivative
    outputs, free until the end, and ``ax``, which the reflectivity
    derivatives overwrite. One flat gather per derivative then permutes
    it back to cell order.
    """
    t, k, x, y = work.t_plane, work.k_plane, work.x, work.y
    ax, ay, d_phases, phase_grad, refl_grad, gather, layer_views = work.adjoint
    np.copyto(work.state, cotangent.T)
    for t1, t2, k1, k2, p, q, top, bot, e0, e1, ax1, ax2, ay1, ay2 in reversed(layer_views):
        ax2[...] = top
        ay2[...] = bot
        _mix(t2, ax2, k2, ay2, p, q, out=p)
        np.multiply(p, e0, out=ax1)
        _mix(k2, ax2, t2, ay2, p, q, out=ay1)
        _mix(t1, ax1, k1, ay1, p, q, out=p)
        np.multiply(p, e1, out=top)
        _mix(k1, ax1, t1, ay1, p, q, out=bot)
    dt, dk = 0.5 / work.t, -0.5j / np.sqrt(1.0 - work.refl)
    # the derivative buffers are free until the takes fill them
    u, v = phase_grad.reshape(x.shape), refl_grad.reshape(x.shape)
    _mix(t, ax, k, ay, u, v, out=u)
    np.multiply(1j, u, out=v)
    # coupler(r1) follows phase(phi), coupler(r2) phase(theta)
    np.multiply(v, x, out=d_phases[::-1])
    _mix(dt, x, dk, y, u, v, out=u)
    np.multiply(ax, u, out=v)
    _mix(dk, x, dt, y, u, ax, out=u)
    np.multiply(ay, u, out=ax)
    np.add(v, ax, out=ax)
    # mode="clip" takes straight into ``out``; the indices are in range
    np.take(d_phases.reshape(-1), gather, out=phase_grad.reshape(-1), mode="clip")
    np.take(ax.reshape(-1), gather, out=refl_grad.reshape(-1), mode="clip")
    return phase_grad, refl_grad


def _mesh_cell_sequence(m: int) -> list[int]:
    """Top-mode sequence of the rectangular nulling scheme (application order)."""
    right: list[int] = []
    left: list[int] = []
    for i in range(m - 1):
        if i % 2 == 0:
            for j in range(i + 1):
                right.append(i - j)
        else:
            for j in range(i + 1):
                left.append(m - 2 - i + j)
    return right + left[::-1]


@dataclass
class MeshPhases:
    """Exact mesh realization of a unitary: cell phases plus output phases."""

    layout: MeshLayout
    phases: np.ndarray
    output_phases: np.ndarray

    def unitary(self) -> ModeUnitary:
        return self.layout.unitary(self.phases, output_phases=self.output_phases)


def clements_decompose(unitary: ModeUnitary, layout: MeshLayout | None = None) -> MeshPhases:
    """Exact rectangular decomposition of ``unitary``.

    Returns cell phases in layout order plus the residual output phase
    layer; the round trip reconstructs the matrix to about 1e-12.
    """
    m = unitary.m
    if layout is None:
        layout = MeshLayout(m)
    if layout.m != m:
        raise ValueError("layout size does not match unitary")
    u = unitary.matrix.astype(complex).copy()

    right_ops: list[tuple[int, float, float]] = []
    left_ops: list[tuple[int, float, float]] = []
    for i in range(m - 1):
        if i % 2 == 0:
            for j in range(i + 1):
                row, col = m - 1 - j, i - j
                theta, phi = _null_with_columns(u, row, col)
                right_ops.append((col, theta, phi))
        else:
            for j in range(i + 1):
                row, col = m - 1 - i + j, j
                theta, phi = _null_with_rows(u, row, col)
                left_ops.append((row - 1, theta, phi))

    diag = np.diag(u).copy()
    converted: list[tuple[int, float, float]] = []
    for p, theta, phi in reversed(left_ops):
        diag, op = _push_diagonal_through(p, theta, phi, diag)
        converted.append(op)

    ordered = right_ops + converted
    phases = np.zeros(layout.n_logical)
    for c, (p, theta, phi) in enumerate(ordered):
        if p != layout.cells[c]:
            raise RuntimeError("cell ordering mismatch in decomposition")
        phases[2 * c] = theta
        phases[2 * c + 1] = phi
    output_phases = np.angle(diag)

    result = MeshPhases(layout, phases, output_phases)
    check = result.unitary().matrix
    err = np.max(np.abs(check - unitary.matrix))
    if not err <= RECONSTRUCTION_ATOL:
        raise RuntimeError(f"decomposition round trip failed (error {err:.3e})")
    return result


def _null_with_columns(u: np.ndarray, row: int, col: int) -> tuple[float, float]:
    """Right-multiply by a cell inverse on columns (col, col+1) to zero u[row, col]."""
    a, b = u[row, col], u[row, col + 1]
    theta = 2.0 * np.arctan2(np.abs(b), np.abs(a))
    phi = float(np.angle(-a * np.conj(b))) if abs(a) > 0 and abs(b) > 0 else 0.0
    block = _cell_matrix(theta, phi).conj().T
    u[:, col : col + 2] = u[:, col : col + 2] @ block
    return theta, phi


def _null_with_rows(u: np.ndarray, row: int, col: int) -> tuple[float, float]:
    """Left-multiply by a cell on rows (row-1, row) to zero u[row, col]."""
    x, y = u[row - 1, col], u[row, col]
    theta = 2.0 * np.arctan2(np.abs(x), np.abs(y))
    phi = float(np.angle(y * np.conj(x))) if abs(x) > 0 and abs(y) > 0 else 0.0
    block = _cell_matrix(theta, phi)
    u[row - 1 : row + 1, :] = block @ u[row - 1 : row + 1, :]
    return theta, phi


def _push_diagonal_through(
    p: int, theta: float, phi: float, diag: np.ndarray
) -> tuple[np.ndarray, tuple[int, float, float]]:
    """Rewrite cell(theta, phi)^dagger @ diag as diag' @ cell(theta', phi') on pair p."""
    if not np.all(np.isfinite([theta, phi, *diag[p : p + 2]])):
        raise RuntimeError("diagonal commutation failed: non-finite phase or diagonal")
    d = np.diag(diag[p : p + 2].astype(complex))
    m2 = _cell_matrix(theta, phi).conj().T @ d
    theta_new, phi_new, psi, chi = _cell_angles(m2)
    g = np.exp(1j * np.array([psi, chi]))
    new_diag = diag.copy()
    new_diag[p : p + 2] = g
    block = np.diag(g) @ _cell_matrix(theta_new, phi_new)
    if not np.max(np.abs(block - m2)) <= 1e-9:
        raise RuntimeError("diagonal commutation failed")
    return new_diag, (p, theta_new, phi_new)


# ---------------------------------------------------------------------------
# Fidelity and imperfection-aware compilation


def fidelity(target: ModeUnitary | np.ndarray, implemented: ModeUnitary | np.ndarray) -> float:
    """|Tr(U_target^dag U_impl)|^2 / (m Tr(U_impl^dag U_impl))."""
    u = target.matrix if isinstance(target, ModeUnitary) else np.asarray(target)
    v = implemented.matrix if isinstance(implemented, ModeUnitary) else np.asarray(implemented)
    if u.shape != v.shape:
        raise ValueError("shape mismatch")
    m = u.shape[0]
    num = np.abs(np.trace(u.conj().T @ v)) ** 2
    den = m * np.real(np.trace(v.conj().T @ v))
    return float(num / den)


def _optimal_gauges(target: np.ndarray, implemented: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Input/output phase layers maximizing fidelity to the target.

    Per-mode phases at the chip boundary are unobservable in photon
    counting, so compilation is free to choose them. With ``W = U * conj(T)``
    (elementwise) the dressed overlap is ``Tr(D_in T^dag D_out U) = d_out . W
    d_in``, so alternating updates solve one side against ``W`` at a time:
    ``d_out = phase(conj(W d_in))`` and ``d_in = phase(conj(d_out W))``,
    and each step's score is the sum of the magnitudes it aligned. A side
    whose entry of ``W d_in`` or ``d_out W`` vanishes keeps phase 0 there.
    Both update orders run for up to ``GAUGE_ITERATIONS`` steps and the
    better result wins.
    """
    w = implemented * target.conj()
    ones = np.ones(w.shape[0], dtype=complex)
    best: tuple[float, np.ndarray, np.ndarray] | None = None
    for out_first in (True, False):
        d_in = d_out = ones
        score = -1.0
        for step in range(GAUGE_ITERATIONS):
            update_out = (step % 2 == 0) == out_first
            diag = w @ d_in if update_out else d_out @ w
            size = np.abs(diag)
            phase = np.divide(diag.conj(), size, out=ones.copy(), where=size > 1e-15)
            if update_out:
                d_out = phase
            else:
                d_in = phase
            new_score = float(size.sum())
            if step > 2 and new_score - score < 1e-14:
                score = new_score
                break
            score = new_score
        if best is None or score > best[0]:
            best = (score, d_out, d_in)
    return np.angle(best[1]), np.angle(best[2])


def gauge_fidelity(target: ModeUnitary | np.ndarray, implemented: ModeUnitary | np.ndarray) -> float:
    """Fidelity maximized over free input/output phase layers (:func:`_optimal_gauges`)."""
    u = target.matrix if isinstance(target, ModeUnitary) else np.asarray(target)
    v = implemented.matrix if isinstance(implemented, ModeUnitary) else np.asarray(implemented)
    out, inn = _optimal_gauges(u, v)
    return fidelity(u, np.exp(1j * out)[:, None] * v * np.exp(1j * inn)[None, :])


@dataclass
class CompilationResult:
    """What a compile found: the logical ``phases`` of its layout, the
    ``fidelity`` they reach on its couplers (:func:`gauge_fidelity`) and
    the ``restarts_used`` to find them.

    ``phases`` are the settings to program a chip with; the benchmark
    reads ``fidelity`` and its tracer ``restarts_used``.  The boundary
    phase layers are not kept: photon counting cannot see them, and
    :func:`_optimal_gauges` recomputes them from ``phases``.
    """

    phases: np.ndarray
    fidelity: float
    restarts_used: int


def _gauge_objective_and_grad(
    actuated: np.ndarray, layout: MeshLayout, refl: np.ndarray, target: np.ndarray,
    rows: np.ndarray, work: _Workspace,
) -> tuple[float, np.ndarray]:
    """Negative gauge fidelity and its gradient over actuated phases.

    ``rows`` holds the m identity rows and ``work`` the sweep workspace of
    m rows under one phase vector that the evaluation writes into. The
    boundary phase layers solve an inner maximization, so at their
    optimum the fidelity gradient reduces to the partial derivative
    through the cell chain (envelope argument): one adjoint sweep seeded
    with the gauge-weighted target.
    """
    m = layout.m
    phases = layout.phases_from_actuated(actuated)
    rows_out, work = _forward_sweep(layout, rows, phases, refl, work)
    out, inn = _optimal_gauges(target, rows_out.T)
    # Row j of the sweep output is column j of the unitary, so
    # z = Tr(D_in T^dag D_out U) = sum(weight * rows_out).
    weight = np.exp(1j * inn)[:, None] * target.conj().T * np.exp(1j * out)[None, :]
    z = np.sum(weight * rows_out)
    d_phases, _ = _adjoint_sweep(work, weight)
    grad = 2.0 * np.real(np.conj(z) * d_phases.sum(axis=0)) / m**2
    value = float(np.abs(z) ** 2) / m**2
    return -value, -layout.actuated_from_phases(grad)


def _corrected_phases(layout: MeshLayout, ideal_phases: np.ndarray, refl: np.ndarray) -> np.ndarray:
    """Logical phases that rebuild each ideal cell on its own couplers ``refl``.

    The error-corrected decomposition of Bandyopadhyay, Hamerly and
    Englund (Optica 8, 1247, 2021). On couplers (r1, r2), with
    ``a = sqrt(r1 r2)``, ``b = sqrt((1-r1)(1-r2))``, ``c = sqrt((1-r1) r2)``
    and ``d = sqrt(r1 (1-r2))`` (so ``cd = ab``), a cell is
    ``M00 = e^{i phi} (a e^{i theta} - b)``, ``M01 = i (c e^{i theta} + d)``
    and ``M11 = a - b e^{i theta}``. Its split fixes theta through
    ``|M00|^2 = (a-b)^2 + 4ab sin^2(theta/2)`` and
    ``|M01|^2 = (c-d)^2 + 4ab cos^2(theta/2)``; each part is clipped at 0,
    so a split the couplers cannot reach goes to the nearest one they
    can (the arccos of ``(a^2 + b^2 - |M00|^2) / 2ab`` clipped to
    [-1, 1], without its loss of digits near 0 and pi). Where ``ab`` is 0
    theta cannot move the split and keeps its ideal value. Psi, chi and
    phi then match the phases of W01, W11 and W00, where W is the ideal
    balanced block (:func:`_cell_matrix`).

    The cells are walked in light order with one phase debt per mode: a
    cell realizes ``diag(e^{-i psi}, e^{-i chi}) W``, so the next cell on
    a mode takes W with that mode's column rephased by ``-debt``. The
    debts left at the end are output gauge, and a pinned phi on an
    untouched input mode is input gauge; the compile's optimal gauges
    absorb both. With r = 0.5 everywhere this gives ``ideal_phases`` back.
    """
    r1, r2 = refl[:, 0], refl[:, 1]
    a, b = np.sqrt(r1 * r2), np.sqrt((1.0 - r1) * (1.0 - r2))
    c, d = np.sqrt((1.0 - r1) * r2), np.sqrt(r1 * (1.0 - r2))
    ideal_theta, ideal_phi = ideal_phases[0::2], ideal_phases[1::2]
    # W00, W01 and W11 of every ideal block: a = b = c = d = 1/2
    e0 = np.exp(1j * ideal_theta)
    w00, w01, w11 = 0.5 * np.exp(1j * ideal_phi) * (e0 - 1.0), 0.5j * (e0 + 1.0), 0.5 * (1.0 - e0)
    sin_half = np.sqrt(np.maximum(np.abs(w00) ** 2 - (a - b) ** 2, 0.0))
    cos_half = np.sqrt(np.maximum(np.abs(w01) ** 2 - (c - d) ** 2, 0.0))
    theta = np.where(a * b > 0.0, 2.0 * np.arctan2(sin_half, cos_half), ideal_theta)
    e = np.exp(1j * theta)
    # psi, chi and psi + phi of every cell with no debt on its modes
    psi0 = np.angle(w01) - np.angle(1j * (c * e + d))
    chi0 = np.angle(w11) - np.angle(a - b * e)
    phi0 = np.angle(w00) - np.angle(a * e - b)
    phases = np.empty_like(ideal_phases)
    phases[0::2] = theta
    debt = np.zeros(layout.m)
    for cell, p in enumerate(layout.cells):
        psi = psi0[cell] - debt[p + 1]
        phases[2 * cell + 1] = phi0[cell] - debt[p] - psi
        debt[p], debt[p + 1] = -psi, debt[p + 1] - chi0[cell]
    return phases


def compile_with_imperfections(
    target: ModeUnitary,
    reflectivities: np.ndarray,
    layout: MeshLayout | None = None,
    max_restarts: int = 20,
    rng: np.random.Generator | int = 0,
    maxiter: int = 500,
) -> CompilationResult:
    """Fit mesh phases so the imperfect mesh implements ``target``.

    Seeds a quasi-Newton refinement from the error-corrected
    decomposition (:func:`_corrected_phases`): the ideal rectangular
    solution with each cell re-solved, in light order, for its own
    couplers. It retries from perturbed seeds until
    ``COMPILE_STOP_FIDELITY`` is reached, ``COMPILE_PATIENCE``
    consecutive restarts stop improving, or ``max_restarts`` seeds are
    exhausted. Boundary phase layers are chosen in closed form at every
    step.
    """
    from scipy.optimize import minimize

    if max_restarts < 1:
        raise ValueError(f"max_restarts must be at least 1, got {max_restarts}")
    if layout is None:
        layout = MeshLayout(target.m)
    refl = layout._reflectivity_table(np.asarray(reflectivities, dtype=float))
    rng = _seeded_rng(rng)

    ideal = clements_decompose(target, layout)
    seed = layout.actuated_from_phases(_corrected_phases(layout, ideal.phases, refl))
    tmat = target.matrix
    m = layout.m
    args = (layout, refl, tmat, np.eye(m, dtype=complex), _Workspace(layout, m, False))

    best_x = None
    best_f = np.inf
    restarts = 0
    stale = 0
    for attempt in range(max_restarts):
        restarts = attempt + 1
        x0 = seed if attempt == 0 else seed + rng.normal(0.0, 0.05 * attempt, size=seed.shape)
        res = minimize(
            _gauge_objective_and_grad, x0, args=args, jac=True, method="L-BFGS-B",
            options={"maxiter": maxiter},
        )
        # relative to the best 1 - F, which is inf before the first attempt
        if 1.0 + res.fun < (1.0 - COMPILE_PROGRESS) * (1.0 + best_f):
            stale = 0
        else:
            stale += 1
        if res.fun < best_f:
            best_f = res.fun
            best_x = res.x
        if -best_f >= COMPILE_STOP_FIDELITY or stale >= COMPILE_PATIENCE:
            break

    phases = layout.phases_from_actuated(np.mod(best_x, 2.0 * np.pi))
    return CompilationResult(
        phases=phases,
        fidelity=gauge_fidelity(tmat, layout._matrix(phases, refl)),
        restarts_used=restarts,
    )


def two_mode_gate_elements(
    v: np.ndarray, mode_a: int, mode_b: int
) -> list[CircuitElement]:
    """Element sequence realizing an arbitrary 2x2 unitary on two modes.

    Layout: input phase, balanced coupler, internal phase, balanced
    coupler, then an output phase on each mode.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    if not np.max(np.abs(v.conj().T @ v - np.eye(2))) <= 1e-10:
        raise ValueError("matrix is not unitary")
    theta, phi, psi, chi = _cell_angles(v)
    elements: list[CircuitElement] = [
        PhaseShifter(mode_a, phi),
        DirectionalCoupler(mode_a, mode_b, 0.5),
        PhaseShifter(mode_a, theta),
        DirectionalCoupler(mode_a, mode_b, 0.5),
        PhaseShifter(mode_a, psi),
        PhaseShifter(mode_b, chi),
    ]
    return elements


def unitary_to_elements(
    unitary: ModeUnitary | np.ndarray, modes: Sequence[int]
) -> list[CircuitElement]:
    """Element sequence embedding a k-mode unitary on the given modes.

    The rectangular decomposition (:func:`clements_decompose`) on
    ``MeshLayout(k)`` gives cells and output phases on modes 0..k-1;
    mode i of that mesh is relabelled ``modes[i]``, so the sequence
    reproduces the matrix on ``modes`` and leaves all other modes alone.
    A 1-mode unitary is one phase.  The modes need not be adjacent or
    sorted.
    """
    u = unitary if isinstance(unitary, ModeUnitary) else ModeUnitary(np.asarray(unitary))
    modes = list(map(operator.index, modes))
    if len(modes) != u.m or len(set(modes)) != u.m:
        raise ValueError(f"need {u.m} distinct modes, got {modes}")
    if u.m == 1:
        return [PhaseShifter(modes[0], float(np.angle(u.matrix[0, 0])))]
    cells = clements_decompose(u, MeshLayout(u.m))
    circuit = cells.layout.circuit(cells.phases, output_phases=cells.output_phases)
    return [
        PhaseShifter(modes[e.mode], e.phase)
        if isinstance(e, PhaseShifter)
        else DirectionalCoupler(modes[e.mode_a], modes[e.mode_b], e.reflectivity)
        for e in circuit.elements
    ]
