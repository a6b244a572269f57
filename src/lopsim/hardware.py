"""Electrical layer: voltage-phase model, transpilation and calibration.

The chip maps voltages to phases through phi = A V^2 + b where A couples
every heater to every phase (thermal crosstalk) and b collects static
offsets. Calibration fits A, b, coupler reflectivities and relative
output losses from intensity measurements alone.

One batched transpiler (``_transpile``) inverts the phase model for a
whole stack of phase targets: every round of its branch search solves
all rows still searching at once. :func:`voltages_from_phases` is its
one-row case and the programming benchmark feeds it blocks of targets;
the forward model forms ``A V^2 + b`` for a whole voltage stack at once.
Both stacked forms match the per-vector ``solve`` and matrix-vector
product bit for bit, so no result depends on how the rows were batched.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from lopsim.fock import ModeUnitary, _seeded_rng
from lopsim.mesh import MeshLayout, _adjoint_sweep, _forward_sweep

__all__ = [
    "HardwareModel",
    "IntensityMeasurement",
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
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        self.reflectivities = np.asarray(self.reflectivities, dtype=float)
        self.output_losses = np.asarray(self.output_losses, dtype=float)
        layout = self.layout()
        p = layout.n_actuated
        if self.a.shape != (p, p):
            raise ValueError(f"expected A of shape {(p, p)}, got {self.a.shape}")
        if self.b.shape != (p,):
            raise ValueError(f"expected b of shape {(p,)}, got {self.b.shape}")
        if self.reflectivities.shape != (layout.n_cells, 2):
            raise ValueError("reflectivity table does not match the layout")
        if self.output_losses.shape != (self.m,):
            raise ValueError("need one output loss per mode")
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


@dataclass(frozen=True)
class IntensityMeasurement:
    """Applied voltages plus the normalized intensities seen at the outputs."""

    voltages: tuple[float, ...]
    input_mode: int
    intensities: tuple[float, ...]


def phases_from_voltages(voltages: np.ndarray, hw: HardwareModel) -> np.ndarray:
    """Actuated phases ``A V^2 + b`` of one voltage vector or a stack (..., P) of them."""
    voltages = np.asarray(voltages, dtype=float)
    if voltages.shape[-1:] != hw.b.shape:
        raise ValueError(f"expected {hw.b.shape[0]} voltages, got {voltages.shape}")
    if not np.all((voltages >= 0) & (voltages <= hw.v_max + 1e-9)):
        raise ValueError("voltages outside [0, v_max]")
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


def _check_layout(hw: HardwareModel, layout: MeshLayout) -> None:
    if layout.m != hw.m or layout.n_actuated != hw.b.shape[0]:
        raise ValueError("hardware model does not match the layout")


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
    hw: HardwareModel,
    layout: MeshLayout,
    n: int,
    rng: np.random.Generator | int,
    noise: float = 0.01,
    scale: float = 1.0,
) -> list[IntensityMeasurement]:
    """Random-drive intensity data with multiplicative detection noise."""
    _check_layout(hw, layout)
    rng = _seeded_rng(rng)
    volts = np.empty((n, hw.b.shape[0]))
    gains = np.empty((n, hw.m))
    for i in range(n):
        volts[i] = rng.uniform(0.0, hw.v_max, size=hw.b.shape[0])
        gains[i] = 1.0 + noise * rng.standard_normal(hw.m)
    inputs = [i % hw.m for i in range(n)]
    clean = scale * _intensities(hw, layout, _logical_phases(hw, layout, volts), inputs)
    noisy = np.clip(clean * gains, 0.0, None)
    return [
        IntensityMeasurement(tuple(v), input_mode, tuple(row))
        for v, input_mode, row in zip(volts, inputs, noisy)
    ]


# ---------------------------------------------------------------------------
# Calibration


@dataclass
class _Batch:
    w: np.ndarray
    inputs: np.ndarray
    y: np.ndarray


def _pack(a, b, refl, losses, scale):
    return np.concatenate(
        [a.ravel(), b, refl.ravel(), losses, np.array([scale])]
    )


def _unpack(x: np.ndarray, p: int, n_cells: int, m: int):
    i = 0
    a = x[i : i + p * p].reshape(p, p)
    i += p * p
    b = x[i : i + p]
    i += p
    refl = x[i : i + 2 * n_cells].reshape(n_cells, 2)
    i += 2 * n_cells
    losses = x[i : i + m]
    i += m
    scale = x[i]
    return a, b, refl, losses, scale


def _objective(
    x: np.ndarray, layout: MeshLayout, batch: _Batch
) -> tuple[float, np.ndarray]:
    """Mean squared intensity error and its gradient (reverse mode)."""
    m = layout.m
    p = layout.n_actuated
    n_cells = layout.n_cells
    a, b, refl, losses, scale = _unpack(x, p, n_cells, m)
    refl_c = np.clip(refl, 1e-4, 1.0 - 1e-4)
    n_batch = batch.w.shape[0]

    phases = layout.phases_from_actuated(batch.w @ a.T + b)
    rows = np.eye(m, dtype=complex)[batch.inputs]
    out, tape = _forward_sweep(layout, rows, phases, refl_c)
    power = np.abs(out) ** 2
    pred = scale * losses[None, :] * power
    res = pred - batch.y
    value = float(np.sum(res * res)) / n_batch

    d_pred = 2.0 * res / n_batch
    d_losses = np.sum(d_pred * scale * power, axis=0)
    d_scale = float(np.sum(d_pred * losses[None, :] * power))
    adj = (d_pred * scale * losses[None, :]) * np.conj(out)
    d_phases, d_r = _adjoint_sweep(layout, tape, adj)
    d_phi_act = layout.actuated_from_phases(2.0 * np.real(d_phases))
    d_refl = 2.0 * np.real(d_r.sum(axis=0))
    d_a = d_phi_act.T @ batch.w
    d_b = d_phi_act.sum(axis=0)
    grad = _pack(d_a, d_b, d_refl, d_losses, d_scale)
    return value, grad


def calibrate(
    measurements: list[IntensityMeasurement],
    layout: MeshLayout,
    initial: HardwareModel | None = None,
    maxiter: int = 20000,
) -> HardwareModel:
    """Fit a full crosstalk model to intensity measurements.

    Optimizes A, b, every coupler reflectivity, relative output losses
    and one nuisance intensity scale by quasi-Newton descent on the mean
    squared intensity error, with gradients from a reverse-mode sweep of
    the mesh simulation. Voltages are normalized to the ``v_max`` of the
    prior (``initial`` or the nominal one), which the fit keeps, so the
    crosstalk block is as well scaled as the offsets.
    """
    from scipy.optimize import minimize

    prior = initial if initial is not None else HardwareModel.prior(layout.m)
    _check_layout(prior, layout)
    if not measurements:
        return prior
    p = layout.n_actuated
    n_params = p * p + p + 2 * layout.n_cells + layout.m + 1
    if len(measurements) * layout.m < n_params:
        warnings.warn(
            f"{len(measurements)} measurements for {n_params} parameters; "
            "fit is underdetermined and covariances are unreliable",
            stacklevel=2,
        )

    w_scale = prior.v_max**2
    volts = np.array([mm.voltages for mm in measurements])
    batch = _Batch(
        w=(volts * volts) / w_scale,
        inputs=np.array([mm.input_mode for mm in measurements]),
        y=np.array([mm.intensities for mm in measurements]),
    )
    x0 = _pack(
        prior.a * w_scale, prior.b, prior.reflectivities, prior.output_losses, 1.0
    )
    bounds = (
        [(None, None)] * (p * p + p)
        + [(0.01, 0.99)] * (2 * layout.n_cells)
        + [(1e-3, 1.0)] * layout.m
        + [(1e-6, None)]
    )
    res = minimize(
        _objective,
        x0,
        args=(layout, batch),
        jac=True,
        method="L-BFGS-B",
        bounds=bounds,
        options={"maxiter": maxiter, "maxfun": maxiter + 5000, "ftol": 1e-14, "gtol": 1e-11},
    )
    a, b, refl, losses, _ = _unpack(res.x, p, layout.n_cells, layout.m)
    losses = losses / losses.max()
    return HardwareModel(
        m=layout.m,
        a=a / w_scale,
        b=np.mod(b, 2.0 * np.pi),
        reflectivities=np.clip(refl, 1e-4, 1.0 - 1e-4),
        output_losses=losses,
        v_max=prior.v_max,
    )


def crosstalk_free_baseline(hw: HardwareModel) -> HardwareModel:
    """Per-shifter view of a chip: true self-heating and offsets, no crosstalk.

    This mirrors what single-heater fringe scans recover before any
    global model fit: diagonal response only, nominal couplers, no loss
    information.
    """
    return HardwareModel(
        m=hw.m,
        a=np.diag(np.diag(hw.a)),
        b=hw.b.copy(),
        reflectivities=np.full_like(hw.reflectivities, 0.5),
        output_losses=np.ones(hw.m),
        v_max=hw.v_max,
    )


def held_out_tvd(
    hw: HardwareModel, measurements: list[IntensityMeasurement], layout: MeshLayout
) -> float:
    """Mean TVD between normalized predicted and observed intensities."""
    _check_layout(hw, layout)
    if not measurements:
        raise ValueError("held_out_tvd needs at least one measurement")
    phases = _logical_phases(hw, layout, [mm.voltages for mm in measurements])
    pred = _intensities(hw, layout, phases, [mm.input_mode for mm in measurements])
    obs = np.array([mm.intensities for mm in measurements]).reshape(pred.shape)
    return float(np.mean(_tvd(pred, obs)))


@dataclass
class TvdStatistics:
    mean: float
    std: float
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
    return TvdStatistics(mean=float(tvds.mean()), std=float(tvds.std()), tvds=tvds)
