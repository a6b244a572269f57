"""Electrical layer: voltage-phase model, transpilation and calibration.

The chip maps voltages to phases through phi = A V^2 + b where A couples
every heater to every phase (thermal crosstalk) and b collects static
offsets. Calibration fits A, b, coupler reflectivities and relative
output losses from intensity measurements alone. The measurements are one
:class:`IntensityData` record of arrays, K rows of drive voltages, input
mode and output intensities, and every reader works on its arrays whole.

One batched transpiler (``_transpile``) inverts the phase model for a
whole stack of phase targets: every round of its branch search solves
all rows still searching at once. :func:`voltages_from_phases` is its
one-row case and the programming benchmark feeds it blocks of targets;
the forward model forms ``A V^2 + b`` for a whole voltage stack at once.
Both stacked forms match the per-vector ``solve`` and matrix-vector
product bit for bit, so no result depends on how the rows were batched.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from lopsim.fock import ModeUnitary, _seeded_rng
from lopsim.mesh import MeshLayout, _Workspace, _adjoint_sweep, _forward_sweep

__all__ = [
    "HardwareModel",
    "IntensityData",
    "TranspilationError",
    "phases_from_voltages",
    "voltages_from_phases",
    "unitary_at_voltages",
    "generate_measurements",
    "calibrate",
    "crosstalk_free_baseline",
    "held_out_tvd",
    "benchmark_tvd",
    "TvdStatistics",
]

DEFAULT_SELF_HEATING = 0.034
DEFAULT_V_MAX = 14.0

#: Ground-truth spreads of :meth:`HardwareModel.synthetic`: crosstalk and
#: self-heating in rad/V^2, offsets in rad, coupler reflectivities, and
#: the largest relative output loss.
SYNTHETIC_CROSSTALK_STD = 5e-4
SYNTHETIC_SELF_HEATING_STD = 0.001
SYNTHETIC_OFFSET_MEAN = 0.1
SYNTHETIC_OFFSET_STD = 1.2
SYNTHETIC_REFLECTIVITY_MEAN = 0.567
SYNTHETIC_REFLECTIVITY_STD = 0.006
SYNTHETIC_LOSS_SPREAD = 0.15

#: Relative spread of the detection gain in :func:`generate_measurements`.
MEASUREMENT_NOISE = 0.01

#: Branch-search rounds of the transpiler before it gives up on a row.
TRANSPILE_MAX_ROUNDS = 200


class TranspilationError(ValueError):
    """No feasible voltage branch exists for the requested phases."""


@dataclass
class HardwareModel:
    """Crosstalk model of one chip.

    ``a`` has units rad/V^2 and shape (P, P) over the actuated phases of
    ``MeshLayout(m)`` (P = 126 at m = 12, whose six input-side external
    phases are pinned; every phase otherwise), ``b`` is the static
    offset in rad, ``reflectivities`` holds the two coupler values of
    every cell and ``output_losses`` the relative output transmissions
    (scaled so the best mode is 1).
    """

    m: int
    a: np.ndarray
    b: np.ndarray
    reflectivities: np.ndarray
    output_losses: np.ndarray
    v_max: float = DEFAULT_V_MAX

    def __post_init__(self) -> None:
        # the model's arrays are the first four fitted blocks of its layout
        fields = ("a", "b", "reflectivities", "output_losses")
        for name, (shape, _) in zip(fields, _blocks(self.layout())):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.shape != shape:
                raise ValueError(f"expected {name} of shape {shape}, got {value.shape}")
            setattr(self, name, value)
        if not (np.all(np.isfinite(self.a)) and np.all(np.isfinite(self.b))):
            raise ValueError("crosstalk matrix and offsets must be finite")
        if not np.all(np.diag(self.a) > 0):
            raise ValueError("self-heating coefficients must be positive")
        if not np.all((self.reflectivities >= 0) & (self.reflectivities <= 1)):
            raise ValueError("reflectivities must lie in [0, 1]")
        if not np.all((self.output_losses > 0) & (self.output_losses <= 1 + 1e-9)):
            raise ValueError("output losses must lie in (0, 1]")
        if not (np.isfinite(self.v_max) and self.v_max > 0):
            raise ValueError(f"v_max must be a finite positive voltage, got {self.v_max}")

    def layout(self) -> MeshLayout:
        return MeshLayout(self.m)

    @classmethod
    def prior(cls, m: int) -> "HardwareModel":
        """Nominal pre-calibration model: no crosstalk, balanced couplers."""
        layout = MeshLayout(m)
        p = layout.n_actuated
        return cls(
            m=m,
            a=np.eye(p) * DEFAULT_SELF_HEATING,
            b=np.zeros(p),
            reflectivities=np.full((layout.n_cells, 2), 0.5),
            output_losses=np.ones(m),
        )

    @classmethod
    def synthetic(cls, m: int, rng: np.random.Generator | int) -> "HardwareModel":
        """Random ground-truth chip for simulation studies (``SYNTHETIC_*`` spreads)."""
        rng = _seeded_rng(rng)
        layout = MeshLayout(m)
        p = layout.n_actuated
        a = rng.normal(0.0, SYNTHETIC_CROSSTALK_STD, size=(p, p))
        np.fill_diagonal(a, rng.normal(DEFAULT_SELF_HEATING, SYNTHETIC_SELF_HEATING_STD, size=p))
        b = np.mod(rng.normal(SYNTHETIC_OFFSET_MEAN, SYNTHETIC_OFFSET_STD, size=p), 2.0 * np.pi)
        refl = rng.normal(
            SYNTHETIC_REFLECTIVITY_MEAN, SYNTHETIC_REFLECTIVITY_STD, size=(layout.n_cells, 2)
        )
        refl = np.clip(refl, 0.05, 0.95)
        losses = 1.0 - rng.uniform(0.0, SYNTHETIC_LOSS_SPREAD, size=m)
        losses = losses / losses.max()
        return cls(m=m, a=a, b=b, reflectivities=refl, output_losses=losses)


@dataclass(frozen=True, eq=False)
class IntensityData:
    """Intensity measurements of one chip as arrays, one row per measurement.

    ``voltages`` (K, P) are the drive voltages, ``input_modes`` (K,) the
    mode each row's light enters and ``intensities`` (K, m) the powers
    seen at the m outputs. Refuses arrays that disagree on K, and an input
    mode that is not an integer (``TypeError``) or lies outside ``[0, m)``.
    """

    voltages: np.ndarray
    input_modes: np.ndarray
    intensities: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (("voltages", float), ("input_modes", None), ("intensities", float)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        volts, inputs, powers = self.voltages, self.input_modes, self.intensities
        shapes = volts.shape, inputs.shape, powers.shape
        if [len(shape) for shape in shapes] != [2, 1, 2] or len({s[0] for s in shapes}) != 1:
            raise ValueError(
                f"expected voltages (K, P), input_modes (K,) and intensities (K, m), got {shapes}"
            )
        if not np.issubdtype(inputs.dtype, np.integer):
            raise TypeError(f"input modes must be integers, got {inputs.dtype}")
        outside = inputs[(inputs < 0) | (inputs >= powers.shape[1])]
        if outside.size:
            raise ValueError(f"input mode {outside[0]} out of range for m={powers.shape[1]}")


def phases_from_voltages(voltages: np.ndarray, hw: HardwareModel) -> np.ndarray:
    """Actuated phases ``A V^2 + b`` of one voltage vector or a stack (..., P) of them."""
    voltages = np.asarray(voltages, dtype=float)
    if voltages.shape[-1:] != hw.b.shape:
        raise ValueError(f"expected {hw.b.shape[0]} voltages, got {voltages.shape}")
    _check_drive_range(voltages, hw)
    # A stack of matrix-vector products: each row matches hw.a @ row bit for bit.
    return np.matmul(hw.a, (voltages * voltages)[..., None])[..., 0] + hw.b


def voltages_from_phases(phi_target: np.ndarray, hw: HardwareModel) -> np.ndarray:
    """Voltages realizing ``phi_target`` modulo 2 pi on every shifter.

    The one-row case of the batched transpiler: solves A w + b = phi +
    2 pi k for w = V^2, raising the integer branch of any shifter whose
    square landed negative until the whole vector is feasible, and
    raises :class:`TranspilationError` saying why when no branch is.
    """
    phi_target = np.asarray(phi_target, dtype=float)
    if phi_target.shape != hw.b.shape:
        raise ValueError("phase vector does not match the model size")
    if not np.all(np.isfinite(phi_target)):
        raise ValueError("phase vector has a non-finite entry")
    voltages, errors = _transpile(phi_target[None], hw)
    if errors:
        raise TranspilationError(errors[0])
    return voltages[0]


def _transpile(phi: np.ndarray, hw: HardwareModel) -> tuple[np.ndarray, dict[int, str]]:
    """Branch search of :func:`voltages_from_phases` on every row of ``phi`` (N, P) at once.

    Each round solves the rows still searching with one stacked
    ``solve``, which matches a per-row ``solve`` bit for bit; a row leaves
    the search once its squares are feasible or it fails. Returns the
    voltages (N, P), meaningless on failed rows, and the failure message
    of each failed row by row index.
    """
    w_cap = hw.v_max**2
    n = phi.shape[0]
    rows = np.arange(n)
    k = np.ceil((hw.b - phi) / (2.0 * np.pi))
    flips = np.zeros_like(k)
    squares = np.zeros_like(phi)
    errors: dict[int, str] = {}
    for _ in range(TRANSPILE_MAX_ROUNDS):
        if not rows.size:
            break
        w = np.linalg.solve(hw.a[None], (phi[rows] + 2.0 * np.pi * k - hw.b)[..., None])[..., 0]
        finite = np.all(np.isfinite(w), axis=1)
        negative = w < -1e-12
        over = w > w_cap + 1e-9
        done = finite & ~(negative | over).any(axis=1)
        stuck = finite & ~done & (flips > 8).any(axis=1)
        for i in np.flatnonzero(~finite):
            errors[int(rows[i])] = "the phase model gives a non-finite voltage solution"
        for i in np.flatnonzero(stuck):
            errors[int(rows[i])] = (
                f"no feasible voltage branch for shifters {np.flatnonzero(flips[i] > 8).tolist()} "
                f"(2 pi window exceeds the {w_cap:.0f} V^2 range)"
            )
        squares[rows[done]] = w[done]
        go = finite & ~done & ~stuck
        rows, k, flips, w = rows[go], k[go], flips[go], w[go]
        negative, over = negative[go], over[go]
        k[negative] += 1.0
        k[over & ~negative] -= 1.0
        flips[negative | over] += 1.0
    for i, row in enumerate(rows.tolist()):
        bad = np.flatnonzero((w[i] < -1e-12) | (w[i] > w_cap + 1e-9))
        errors[row] = f"branch search did not converge for shifters {bad.tolist()}"
    voltages = np.sqrt(np.clip(squares, 0.0, w_cap))
    residual = phases_from_voltages(voltages, hw) - phi
    residual = np.abs((residual + np.pi) % (2.0 * np.pi) - np.pi).max(axis=1)
    for row in np.flatnonzero(~(residual <= 1e-6)).tolist():
        errors.setdefault(row, f"transpilation residual {residual[row]:.2e} rad")
    return voltages, errors


def unitary_at_voltages(
    hw: HardwareModel, layout: MeshLayout, voltages: np.ndarray
) -> ModeUnitary:
    """Transfer matrix the chip implements at the given drive voltages."""
    _check_layout(hw, layout)
    actuated = phases_from_voltages(voltages, hw)
    return layout.unitary(layout.phases_from_actuated(actuated), hw.reflectivities)


def _check_drive_range(voltages: np.ndarray, hw: HardwareModel) -> None:
    if not np.all((voltages >= 0) & (voltages <= hw.v_max + 1e-9)):
        raise ValueError("voltages outside [0, v_max]")


def _check_layout(hw: HardwareModel, layout: MeshLayout, data: IntensityData | None = None) -> None:
    """Refuse a model, and a record when given, that do not fit ``layout``,
    and a record driven outside ``[0, hw.v_max]``, so every reader of a
    record refuses the same ones."""
    if layout.m != hw.m or layout.n_actuated != hw.b.shape[0]:
        raise ValueError("hardware model does not match the layout")
    if data is None:
        return
    if data.voltages.shape[1:] + data.intensities.shape[1:] != (hw.b.size, hw.m):
        raise ValueError("intensity data do not match the layout")
    _check_drive_range(data.voltages, hw)


def _logical_phases(hw: HardwareModel, layout: MeshLayout, volts) -> np.ndarray:
    """Logical mesh phases (B, n_logical) of a voltage stack (B, P), range-checked at once."""
    return layout.phases_from_actuated(phases_from_voltages(volts, hw))


def _intensities(
    hw: HardwareModel, layout: MeshLayout, phases: np.ndarray, inputs
) -> np.ndarray:
    """Lossy output powers (B, m) of one-hot inputs under per-row logical phases."""
    rows = np.eye(layout.m, dtype=complex)[inputs]
    out = _forward_sweep(layout, rows, phases, hw.reflectivities)[0]
    return hw.output_losses * np.abs(out) ** 2


def _tvd(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise total variation distance after normalizing each row."""
    p = p / p.sum(axis=1, keepdims=True)
    q = q / q.sum(axis=1, keepdims=True)
    return 0.5 * np.sum(np.abs(p - q), axis=1)


def generate_measurements(
    hw: HardwareModel, layout: MeshLayout, n: int, rng: np.random.Generator | int
) -> IntensityData:
    """``n`` rows of random-drive intensity data with multiplicative detection noise.

    Row i drives every shifter uniformly in ``[0, v_max]`` and feeds mode
    ``i % m``; it records the lossy output powers, each times a gain
    ``1 + MEASUREMENT_NOISE * N(0, 1)`` and clipped at 0.
    """
    _check_layout(hw, layout)
    rng = _seeded_rng(rng)
    volts = np.empty((n, hw.b.shape[0]))
    gains = np.empty((n, hw.m))
    for i in range(n):
        volts[i] = rng.uniform(0.0, hw.v_max, size=hw.b.shape[0])
        gains[i] = 1.0 + MEASUREMENT_NOISE * rng.standard_normal(hw.m)
    inputs = np.arange(n) % hw.m
    clean = _intensities(hw, layout, _logical_phases(hw, layout, volts), inputs)
    return IntensityData(volts, inputs, np.clip(clean * gains, 0.0, None))


# ---------------------------------------------------------------------------
# Calibration


def _blocks(layout: MeshLayout) -> list[tuple[tuple[int, ...], tuple]]:
    """``(shape, L-BFGS bounds)`` of each fitted block in packing order: A (per
    normalized drive), b, reflectivities, relative output losses, intensity scale."""
    p, free = layout.n_actuated, (None, None)
    return [
        ((p, p), free), ((p,), free), ((layout.n_cells, 2), (0.01, 0.99)),
        ((layout.m,), (1e-3, 1.0)), ((), (1e-6, None)),
    ]


def _pack(*blocks) -> np.ndarray:
    return np.concatenate([np.ravel(block) for block in blocks])


def _unpack(x: np.ndarray, layout: MeshLayout) -> list[np.ndarray]:
    shapes = [shape for shape, _ in _blocks(layout)]
    ends = np.cumsum([math.prod(shape) for shape in shapes])[:-1]
    return [part.reshape(shape) for part, shape in zip(np.split(x, ends), shapes)]


def _objective(
    x: np.ndarray, layout: MeshLayout, w: np.ndarray, data: IntensityData,
    rows: np.ndarray, work: _Workspace,
) -> tuple[float, np.ndarray]:
    """Mean squared intensity error on ``data`` and its gradient (reverse mode).

    ``w`` holds the squared voltages of ``data`` in the units of the packed A,
    ``rows`` the one-hot input rows, and ``work`` the sweep workspace of
    ``len(rows)`` rows with per-row phases that the evaluation writes into.
    """
    a, b, refl, losses, scale = _unpack(x, layout)
    refl_c = np.clip(refl, 1e-4, 1.0 - 1e-4)
    phases = layout.phases_from_actuated(w @ a.T + b)
    out = _forward_sweep(layout, rows, phases, refl_c, work)[0]
    power = np.abs(out) ** 2
    pred = scale * losses[None, :] * power
    res = pred - data.intensities
    value = float(np.sum(res * res)) / len(w)
    d_pred = 2.0 * res / len(w)
    d_losses = np.sum(d_pred * scale * power, axis=0)
    d_scale = float(np.sum(d_pred * losses[None, :] * power))
    adj = (d_pred * scale * losses[None, :]) * np.conj(out)
    d_phases, d_r = _adjoint_sweep(layout, work, adj)
    d_phi_act = layout.actuated_from_phases(2.0 * np.real(d_phases))
    d_refl = 2.0 * np.real(d_r.sum(axis=0))
    return value, _pack(d_phi_act.T @ w, d_phi_act.sum(axis=0), d_refl, d_losses, d_scale)


def calibrate(
    data: IntensityData, layout: MeshLayout, initial: HardwareModel | None = None,
    maxiter: int = 20000,
) -> HardwareModel:
    """Fit a full crosstalk model to the intensity measurements in ``data``.

    Optimizes A, b, every coupler reflectivity, relative output losses
    and one nuisance intensity scale by quasi-Newton descent on the mean
    squared intensity error, with gradients from a reverse-mode sweep of
    the mesh simulation. Voltages are normalized to the ``v_max`` of the
    prior (``initial`` or the nominal one), which the fit keeps, so the
    crosstalk block is as well scaled as the offsets. A record with no
    rows returns the prior.
    """
    from scipy.optimize import minimize

    prior = initial if initial is not None else HardwareModel.prior(layout.m)
    _check_layout(prior, layout, data)
    n_rows = len(data.input_modes)
    if not n_rows:
        return prior
    w_scale = prior.v_max**2
    x0 = _pack(prior.a * w_scale, prior.b, prior.reflectivities, prior.output_losses, 1.0)
    if n_rows * layout.m < x0.size:
        warnings.warn(
            f"{n_rows} measurements for {x0.size} parameters; "
            "fit is underdetermined and covariances are unreliable",
            stacklevel=2,
        )
    res = minimize(
        _objective,
        x0,
        args=(
            layout,
            (data.voltages * data.voltages) / w_scale,
            data,
            np.eye(layout.m, dtype=complex)[data.input_modes],
            _Workspace(layout, n_rows, True),
        ),
        jac=True,
        method="L-BFGS-B",
        bounds=[bound for shape, bound in _blocks(layout) for _ in range(math.prod(shape))],
        options={"maxiter": maxiter, "maxfun": maxiter + 5000, "ftol": 1e-14, "gtol": 1e-11},
    )
    a, b, refl, losses, _ = _unpack(res.x, layout)
    return HardwareModel(
        m=layout.m,
        a=a / w_scale,
        b=np.mod(b, 2.0 * np.pi),
        reflectivities=np.clip(refl, 1e-4, 1.0 - 1e-4),
        output_losses=losses / losses.max(),
        v_max=prior.v_max,
    )


def crosstalk_free_baseline(hw: HardwareModel) -> HardwareModel:
    """Per-shifter view of a chip: true self-heating and offsets, no crosstalk.

    This mirrors what single-heater fringe scans recover before any
    global model fit: diagonal response only, nominal couplers, no loss
    information.
    """
    return replace(
        HardwareModel.prior(hw.m), a=np.diag(np.diag(hw.a)), b=hw.b.copy(), v_max=hw.v_max
    )


def held_out_tvd(hw: HardwareModel, data: IntensityData, layout: MeshLayout) -> float:
    """Mean over the rows of ``data`` of the TVD between ``hw``'s normalized
    predicted intensities and the normalized observed ones."""
    _check_layout(hw, layout, data)
    if not len(data.input_modes):
        raise ValueError("held_out_tvd needs at least one measurement")
    pred = _intensities(hw, layout, _logical_phases(hw, layout, data.voltages), data.input_modes)
    return float(np.mean(_tvd(pred, data.intensities)))


@dataclass
class TvdStatistics:
    mean: float
    tvds: np.ndarray = field(repr=False)


def benchmark_tvd(
    hw_est: HardwareModel,
    hw_true: HardwareModel,
    layout: MeshLayout,
    n_configs: int = 300,
    seed: int = 0,
) -> TvdStatistics:
    """Programming benchmark: intended versus realized output distributions.

    For each random phase target the estimated model picks drive
    voltages; the true chip then runs at those voltages. The TVD between
    the intended intensity distribution (estimated model at the exact
    target phases) and the realized one measures how faithful the
    estimated model is. Targets are drawn in blocks and transpiled
    together; the first ``n_configs`` feasible ones in draw order are
    kept, the same targets one draw per candidate would give, and at most
    ``50 * n_configs`` candidates are drawn.
    """
    _check_layout(hw_est, layout)
    _check_layout(hw_true, layout)
    if n_configs < 1:
        raise ValueError(f"n_configs must be at least 1, got {n_configs}")
    rng = _seeded_rng(seed)
    cap = 50 * n_configs
    targets = np.empty((n_configs, layout.n_actuated))
    volts = np.empty_like(targets)
    found = attempts = 0
    while found < n_configs:
        block = min(n_configs - found, cap - attempts)
        if block == 0:
            raise TranspilationError("too many infeasible phase configurations")
        phi = rng.uniform(0.0, 2.0 * np.pi, size=(block, layout.n_actuated))
        voltages, errors = _transpile(phi, hw_est)
        feasible = np.ones(block, dtype=bool)
        feasible[list(errors)] = False
        kept = slice(found, found + int(feasible.sum()))
        targets[kept], volts[kept] = phi[feasible], voltages[feasible]
        found, attempts = kept.stop, attempts + block
    inputs = np.arange(n_configs) % layout.m
    intended = _intensities(hw_est, layout, layout.phases_from_actuated(targets), inputs)
    realized = _intensities(hw_true, layout, _logical_phases(hw_true, layout, volts), inputs)
    tvds = _tvd(intended, realized)
    return TvdStatistics(mean=float(tvds.mean()), tvds=tvds)
