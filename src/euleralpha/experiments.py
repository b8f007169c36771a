"""
Experiment harness: run configuration, initial conditions, persisted runs,
and the headline parameter sweeps (vanishing viscosity, alpha -> 0 Euler
limit, splitting-order study).

Configuration is flat key=value text (one per line, ``#`` comments),
mirrored 1:1 by CLI flags; a flag overrides the file. Runs are fully
deterministic: a (config, seed) pair produces byte-identical diagnostics
CSV and snapshot files on a fixed platform.

Sweep distances are reported two ways: L2 on the prognostic field q and
the H^1_alpha-weighted norm on the velocity; fitted log-log slopes always
come with their residual. Observed convergence rates (e.g. the O(nu) rate
of the vanishing-viscosity sweep) are empirical findings of this harness,
not guaranteed rates.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import time
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .dynamics import (
    SimState,
    compute_diagnostics,
    energy_hats,
    state_from_omega,
    velocity_columns,
    vorticity_values,
)
from .integrators import SCHEMES, CflViolation, NumericsFailure, advance, integrate
from .output import DiagnosticsLog, snapshot_name, write_manifest, write_snapshot
from .spectral import TorusGrid, l2_norm

IC_NAMES = ("single_mode", "taylor_green", "random_bandlimited")

#: largest accepted grid size: by arithmetic, at n = 4096 one grid and one state take
#: about 0.17 GiB (rhs_factors 85 MiB, state 85 MiB; the grid keeps no (n, n) table);
#: traced at n = 1024, an RHS adds 28 n^2 B (0.44 GiB at 4096), an RK4 step 44 n^2 B and a
#: single-mode or Taylor-Green initial state 40 n^2 B (samples 8, complex copy 16, axis-1 pass 16)
MAX_N = 4096

#: largest accepted step count t_final / dt, compared as floats (an overflow is inf)
MAX_STEPS = 1e8


class ConfigError(ValueError):
    """Invalid run configuration (bad key, value, or combination)."""


def _check_alpha(alpha: float, n: int) -> None:
    """ConfigError unless (1 + alpha^2 k^2) k^2 at k^2 = n^2/2, the full spectrum's largest, is
    finite: it bounds rhs_factors' (ky <= kmax) and the snapshots' Helmholtz multiplier."""
    try:
        k2 = n**2 / 2
        finite = math.isfinite((1.0 + alpha**2 * k2) * k2)
    except OverflowError:
        finite = False
    if not finite:
        raise ConfigError(f"alpha={alpha} is too large for n={n}: alpha^2 n^4 / 4 overflows")


def _is_finite_number(v) -> bool:
    """An int, float or numpy integer/floating scalar, not a bool, that ``math.isfinite`` accepts."""
    try:
        return (not isinstance(v, bool) and isinstance(v, (int, float, np.integer, np.floating))
                and math.isfinite(v))
    except OverflowError:  # an int beyond the float range
        return False


def _finite_entries(name: str, values) -> tuple:
    """``values`` as a tuple; ConfigError naming ``name`` unless it iterates finite numbers."""
    if not (np.iterable(values) and all(map(_is_finite_number, values := tuple(values)))):
        raise ConfigError(f"{name} entries must be finite numbers, got {values!r}")
    return values


@dataclass(frozen=True)
class RunConfig:
    """One run of the solver, fully specified."""

    n: int = 64
    alpha: float = 0.25
    nu: float = 0.0
    dt: float = 1e-3
    t_final: float = 1.0
    scheme: str = "rk4"
    ic: str = "random_bandlimited"
    ic_kx: int = 2
    ic_ky: int = 0
    ic_band: int = 4
    ic_energy: float = 1.0
    ic_amplitude: float = 1.0
    seed: int = 0
    out: Optional[str] = None
    save_every: int = 100
    diag_every: int = 10
    workers: int = 1
    nu_list: tuple = ()
    alpha_list: tuple = ()
    dt_list: tuple = ()

    def validate(self) -> "RunConfig":
        for name, v in vars(self).items():
            if name in _INT_KEYS and (isinstance(v, bool) or not isinstance(v, numbers.Integral)):
                raise ConfigError(f"{name} must be an integer, got {v!r}")
        if not (8 <= self.n <= MAX_N and self.n % 2 == 0):
            raise ConfigError(f"n must be even, >= 8 and <= {MAX_N} (the size cap), got {self.n}")
        for name in _FLOAT_KEYS:
            v = getattr(self, name)
            if not _is_finite_number(v):
                raise ConfigError(f"{name} must be a finite number, got {v!r}")
        for name in _LIST_KEYS:
            _finite_entries(name, getattr(self, name))
        if self.alpha < 0 or self.nu < 0:
            raise ConfigError("alpha and nu must be >= 0")
        _check_alpha(self.alpha, self.n)
        if self.dt <= 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.t_final < 0:
            raise ConfigError(f"t_final must be >= 0, got {self.t_final}")
        if self.t_final / self.dt > MAX_STEPS:
            raise ConfigError(f"t_final / dt = {self.t_final / self.dt:.6g} steps exceeds "
                              f"the cap of {MAX_STEPS:g} steps")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if self.ic not in IC_NAMES:
            raise ConfigError(f"unknown ic {self.ic!r}; expected one of {IC_NAMES}")
        if self.save_every < 1 or self.diag_every < 1:
            raise ConfigError("save_every and diag_every must be >= 1")
        if not (0 <= self.seed < 2**64):
            raise ConfigError("seed must be a 64-bit unsigned integer")
        if self.ic_band < 1:
            raise ConfigError(f"ic_band must be >= 1, got {self.ic_band}")
        if self.ic_energy <= 0:
            raise ConfigError(f"ic_energy must be positive, got {self.ic_energy}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.out is not None and not (isinstance(self.out, str) and self.out.strip()):
            raise ConfigError(f"out must name a directory as a non-empty str, got {self.out!r}")
        if self.out is not None and "\0" in self.out:
            raise ConfigError(f"out must not contain a NUL character, got {self.out!r}")
        return self

    def replace(self, **changes) -> "RunConfig":
        return dataclasses.replace(self, **changes)


_INT_KEYS = ("n", "seed", "save_every", "diag_every", "workers", "ic_kx", "ic_ky", "ic_band")
_FLOAT_KEYS = ("alpha", "nu", "dt", "t_final", "ic_energy", "ic_amplitude")
_STR_KEYS = ("scheme", "ic", "out")
_LIST_KEYS = ("nu_list", "alpha_list", "dt_list")
CONFIG_KEYS = _INT_KEYS + _FLOAT_KEYS + _STR_KEYS + _LIST_KEYS


def _coerce(key: str, raw):
    if not isinstance(raw, str):
        return raw
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _LIST_KEYS:
            return tuple(map(float, raw.split(","))) if raw.strip() else ()
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    return raw


def parse_config_text(text: str) -> dict:
    """Parse flat ``key = value`` lines; ``#`` starts a comment."""
    entries: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def load_config(path=None, overrides: Optional[dict] = None) -> RunConfig:
    """Build a validated RunConfig from an optional file plus overrides."""
    entries: dict = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8-sig")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
        entries.update(parse_config_text(text))
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown key {key!r}")
        entries[key] = value
    typed = {key: _coerce(key, value) for key, value in entries.items()}
    return RunConfig(**typed).validate()


def config_entries(cfg: RunConfig) -> dict:
    """Flat key=value echo of a config (lists comma-joined)."""
    out = {}
    for key in CONFIG_KEYS:
        value = getattr(cfg, key)
        if key in _LIST_KEYS:
            value = ",".join(repr(float(v)) for v in value)
        out[key] = value
    return out


# ---------------------------------------------------------------------------
# initial conditions

def make_omega0(cfg: RunConfig, grid: TorusGrid) -> np.ndarray:
    """
    The retained block, columns ky = 0..kmax, of the configured initial vorticity's spectrum.

    ``random_bandlimited`` draws independent unit-normal real/imag parts on
    the modes 1 <= |k|_inf <= ic_band, Hermitian-symmetrizes, zeroes the
    mean, and rescales so the H^1_alpha energy (measured with cfg.alpha)
    equals ic_energy exactly.

    Too large an amplitude or energy gives non-finite coefficients, with no
    warning; :func:`_initial_state` rejects them at the run's alpha.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.ic == "random_bandlimited":
            K = cfg.ic_band
            if K > grid.kmax_dealias:
                raise ConfigError(f"ic_band={K} outside the dealiased band of n={grid.n}")
            omega_hat = _random_band_hat(grid, K, cfg.seed)
            return omega_hat * np.sqrt(cfg.ic_energy / _omega_energy(grid, omega_hat, cfg.alpha))
        x, y = grid.x[:, None], grid.x[None, :]
        if cfg.ic == "single_mode":
            k = (cfg.ic_kx, cfg.ic_ky)
            if max(abs(k[0]), abs(k[1])) > grid.kmax_dealias or k == (0, 0):
                raise ConfigError(f"single_mode wavevector {k} outside the resolved band")
            field = cfg.ic_amplitude * np.cos(k[0] * x + k[1] * y)
        else:  # taylor_green
            field = cfg.ic_amplitude * 2.0 * np.cos(x) * np.cos(y)
        # fft2's own passes (axis 1, then axis 0 column by column), so the same bits on the block
        return np.fft.fft(np.fft.fft(field, axis=1)[:, : grid.kmax_dealias + 1], axis=0)


def _random_band_hat(grid: TorusGrid, K: int, seed: int) -> np.ndarray:
    """Block of unit-normal real/imag parts on 1 <= |k|_inf <= K, Hermitian, mean zero."""
    rng = np.random.default_rng(seed)
    shape = (2 * K + 1, 2 * K + 1)
    draw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    draw = 0.5 * (draw + np.conj(draw[::-1, ::-1]))  # kx, ky = -K..K: mode -k reversed
    draw[K, K] = 0.0
    omega_hat = np.zeros((grid.n, grid.kmax_dealias + 1), dtype=np.complex128)
    omega_hat[np.arange(-K, K + 1) % grid.n, : K + 1] = draw[:, K:]
    return omega_hat


def _omega_energy(grid: TorusGrid, omega_hat: np.ndarray, alpha: float) -> float:
    q = state_from_omega(grid, omega_hat, alpha).columns
    return energy_hats(grid, *velocity_columns(grid, q, alpha), alpha)


def make_initial_condition(cfg: RunConfig, grid: Optional[TorusGrid] = None) -> SimState:
    """
    Initial SimState of :func:`make_omega0`'s vorticity, checked by :func:`_initial_state`;
    ConfigError if a random one's t = 0 energy misses ic_energy by 1e-12 (it underflowed).
    """
    return _checked_omega0(cfg, grid or TorusGrid(cfg.n))[1]


def _checked_omega0(cfg: RunConfig, grid: TorusGrid) -> tuple[np.ndarray, SimState]:
    """:func:`make_omega0`'s vorticity and the checked initial state it gives at cfg."""
    omega_hat = make_omega0(cfg, grid)
    state = _initial_state(cfg, grid, omega_hat)
    if cfg.ic == "random_bandlimited":
        u = velocity_columns(grid, state.columns, cfg.alpha)
        if not abs(energy_hats(grid, *u, cfg.alpha) - cfg.ic_energy) <= 1e-12 * cfg.ic_energy:
            raise ConfigError(f"ic_energy={cfg.ic_energy} underflows at alpha={cfg.alpha}, n={grid.n}")
    return omega_hat, state


def _initial_state(cfg: RunConfig, grid: TorusGrid, omega_hat: np.ndarray) -> SimState:
    """
    q_hat = (1 - alpha^2 Lap) omega_hat at cfg; ConfigError unless sum |q_hat|^2 on its
    columns, the largest sum the t = 0 row forms, is finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        state = state_from_omega(grid, omega_hat, cfg.alpha, nu=cfg.nu)
    if not math.isfinite(np.vdot(state.columns, state.columns).real):
        name = "ic_energy" if cfg.ic == "random_bandlimited" else "ic_amplitude"
        raise ConfigError(f"{name}={getattr(cfg, name)} is too large for n={grid.n}: "
                          "the initial state overflows")
    return state


# ---------------------------------------------------------------------------
# persisted runs

def run(cfg: RunConfig, omega_hat: Optional[np.ndarray] = None) -> SimState:
    """
    Integrate the configured problem, writing diagnostics CSV, snapshots,
    and a run manifest into ``cfg.out``. Returns the final state.

    It starts from ``omega_hat`` through :func:`_initial_state`, else from
    :func:`make_initial_condition`; either's ConfigError precedes ``cfg.out``.

    A run stopped by :class:`CflViolation`, :class:`NumericsFailure` or
    ``FloatingPointError`` still writes the rows logged so far, and a
    manifest with ``status = failed``, ``failed_at_t`` and ``reason``;
    the exception is then re-raised.
    """
    cfg.validate()
    if cfg.out is None:
        raise ConfigError("run requires an output directory (out)")
    started = time.perf_counter()
    grid = TorusGrid(cfg.n)
    state = (make_initial_condition(cfg, grid) if omega_hat is None
             else _initial_state(cfg, grid, omega_hat))
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    log = DiagnosticsLog()
    try:
        for step, state in advance(state, cfg.t_final, cfg.dt, cfg.scheme):
            # the terminal state is always recorded, even off-cadence
            last = state.t == cfg.t_final
            if step % cfg.diag_every == 0 or last:
                log.rows.append(compute_diagnostics(state, cfg.dt))
            if step % cfg.save_every == 0 or last:
                write_snapshot(out_dir / snapshot_name(step), grid.n, state.alpha, state.nu,
                               state.t, vorticity_values(state))
    except (CflViolation, NumericsFailure, FloatingPointError) as exc:
        # a FloatingPointError carries no time: it came from the last state
        failed_at_t = getattr(exc, "t", state.t)
        _write_record(out_dir, cfg, log, started,
                      status="failed", failed_at_t=failed_at_t, reason=str(exc))
        raise
    _write_record(out_dir, cfg, log, started)
    return state


def _write_record(out_dir: Path, cfg: RunConfig, log: DiagnosticsLog, started: float, **failure):
    """The diagnostics CSV and the manifest; ``failure`` entries end a failed run's manifest."""
    log.write(out_dir / "diagnostics.csv")
    entries = dict(config_entries(cfg))
    entries["code_version"] = __version__
    entries["wall_time_s"] = f"{time.perf_counter() - started:.3f}"
    entries.update(failure)
    write_manifest(out_dir / "manifest.txt", entries)


# ---------------------------------------------------------------------------
# sweeps

@dataclass(frozen=True)
class SweepResult:
    """Distances to a reference run over a swept parameter, with a log-log fit."""

    parameter: str
    values: tuple
    distances_q: tuple   # L2 distance on q
    distances_u: tuple   # H^1_alpha-weighted distance on u
    slope: float         # least-squares slope of log d_q vs log value
    residual: float      # RMS residual of that fit (log units)


def _loglog_fit(values: Sequence[float], dists: Sequence[float]) -> tuple[float, float]:
    pairs = [(v, d) for v, d in zip(values, dists) if v > 0 and d > 0]
    if len(pairs) < 2:
        return float("nan"), float("nan")
    lv = np.log([p[0] for p in pairs])
    ld = np.log([p[1] for p in pairs])
    slope, intercept = np.polyfit(lv, ld, 1)
    resid = ld - (slope * lv + intercept)
    return float(slope), float(np.sqrt(np.mean(resid**2)))


def _terminal_q(cfg: RunConfig, omega_hat: np.ndarray) -> np.ndarray:
    """Sweep member: integrate one configuration from omega0's block, return its final block."""
    if cfg.out is not None:
        return run(cfg, omega_hat=omega_hat).columns
    state = _initial_state(cfg, TorusGrid(cfg.n), omega_hat)
    return integrate(state, cfg.t_final, cfg.dt, cfg.scheme).columns


def _map_members(configs, grid: TorusGrid, omega_hat: np.ndarray, labels, workers: int):
    """
    Check each member's config and initial state, then run them; a labeled failure aborts the rest.

    A pool takes the members longest first (most steps t_final / dt, equal lengths in list
    order: Graham's LPT rule), so that the sweep ends with its longest member. The first
    failure cancels the members not yet started; results and failures are read in list order.
    """
    def _collect(labeled_calls):
        out = []
        for label, call in labeled_calls:
            try:
                out.append(call())
            except (ConfigError, CflViolation, NumericsFailure, FloatingPointError,
                    BrokenProcessPool) as exc:
                exc.args = (f"sweep member {label} failed: {exc}",)
                raise
        return out

    _collect(zip(labels, (c.validate for c in configs)))
    _collect(zip(labels, (functools.partial(_initial_state, c, grid, omega_hat) for c in configs)))
    if workers <= 1:
        return _collect(zip(labels, (functools.partial(_terminal_q, c, omega_hat)
                                     for c in configs)))
    longest_first = sorted(range(len(configs)), key=lambda i: configs[i].t_final / configs[i].dt,
                           reverse=True)
    # under fork the pool starts all its workers at the first submit
    with ProcessPoolExecutor(max_workers=min(workers, len(configs))) as pool:
        futures = [None] * len(configs)
        for i in longest_first:
            futures[i] = pool.submit(_terminal_q, configs[i], omega_hat)
        try:
            for f in wait(futures, return_when=FIRST_EXCEPTION).not_done:
                f.cancel()
            return _collect((label, f.result) for label, f in zip(labels, futures)
                            if not f.cancelled())
        finally:
            for f in futures:
                f.cancel()


def _u_distance(grid: TorusGrid, qa, alpha_a, qb, alpha_b, weight_alpha) -> float:
    ux, uy = velocity_columns(grid, qa, alpha_a) - velocity_columns(grid, qb, alpha_b)
    return math.sqrt(2.0 * energy_hats(grid, ux, uy, weight_alpha))


def short_repr(v: float) -> str:
    """``{v:g}`` if that reads back as v, else the shortest repr that does: distinct values differ."""
    short = f"{v:g}"
    return short if float(short) == v else repr(float(v))


def _sweep_values(cfg: RunConfig, name: str, values: Sequence[float], positive=True) -> tuple:
    """
    ``values`` as floats once ``cfg`` is valid; ConfigError unless they are non-empty,
    finite, positive (>= 0 if not ``positive``) and strictly descending: every sweep's rules.
    """
    cfg.validate()
    values = tuple(map(float, _finite_entries(name, values)))
    if not values or any(v <= 0 if positive else v < 0 for v in values):
        raise ConfigError(f"{name} must be non-empty and {'positive' if positive else '>= 0'}")
    if any(b >= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"{name} must be strictly descending")
    return values


def _sweep(cfg: RunConfig, groups, reference, workers: int) -> list[SweepResult]:
    """
    Run each group's ``(label, dirname, config)`` members, one per value, and the reference
    from one shared omega0, checked at cfg. A group ``(parameter, values, members, filename)``
    gets its members' distances (at their own alpha, weighted by cfg.alpha), fit and summary CSV.
    """
    runs = [*(m for group in groups for m in group[2]), reference]
    configs = [
        c.replace(out=None if cfg.out is None else str(Path(cfg.out) / dirname))
        for _, dirname, c in runs
    ]
    grid = TorusGrid(cfg.n)
    omega_hat = _checked_omega0(cfg, grid)[0]
    *q_members, q_ref = _map_members(configs, grid, omega_hat, [r[0] for r in runs], workers)
    alpha_ref = reference[2].alpha
    results = []
    for parameter, values, members, filename in groups:
        qs, q_members = q_members[: len(members)], q_members[len(members):]
        d_q = tuple(l2_norm(grid, qm - q_ref) for qm in qs)
        d_u = tuple(
            _u_distance(grid, qm, c.alpha, q_ref, alpha_ref, cfg.alpha)
            for qm, (_, _, c) in zip(qs, members)
        )
        results.append(SweepResult(parameter, values, d_q, d_u, *_loglog_fit(values, d_q)))
        _write_sweep_summary(cfg, results[-1], filename)
    return results


def sweep_nu(cfg: RunConfig, nu_list: Sequence[float], workers: int = 1) -> SweepResult:
    """
    Vanishing-viscosity sweep: distance of each viscous terminal state to
    the inviscid (nu = 0) reference from the identical initial condition.
    """
    nu_list = _sweep_values(cfg, "nu_list", nu_list)
    members = [(f"nu={short_repr(v)}", f"nu_{short_repr(v)}", cfg.replace(nu=v)) for v in nu_list]
    reference = ("nu=0 (reference)", "nu_0", cfg.replace(nu=0.0))
    return _sweep(cfg, [("nu", nu_list, members, "sweep_summary.csv")], reference, workers)[0]


def sweep_alpha(cfg: RunConfig, alpha_list: Sequence[float], workers: int = 1) -> SweepResult:
    """
    alpha -> 0 sweep against the classical Euler reference (alpha = 0),
    inviscid, from the identical initial velocity field. Each member forms
    its own q0 = (1 - alpha^2 Lap) omega0 from the shared omega0.
    """
    alpha_list = _sweep_values(cfg, "alpha_list", alpha_list, positive=False)
    for v in alpha_list:
        _check_alpha(v, cfg.n)
    members = [(f"alpha={short_repr(v)}", f"alpha_{short_repr(v)}", cfg.replace(alpha=v, nu=0.0))
               for v in alpha_list]
    reference = ("alpha=0 (reference)", "alpha_0", cfg.replace(alpha=0.0, nu=0.0))
    return _sweep(cfg, [("alpha", alpha_list, members, "sweep_summary.csv")], reference, workers)[0]


def splitting_order_study(
    cfg: RunConfig, dt_list: Sequence[float], workers: int = 1
) -> dict[str, SweepResult]:
    """
    Observed convergence orders of the product-formula steppers (and RK4
    self-convergence) against an RK4 reference at min(dt_list)/16.
    """
    dt_list = _sweep_values(cfg, "dt_list", dt_list)
    if len(dt_list) < 3 or any(abs(a / b - 2.0) > 1e-9 for a, b in zip(dt_list, dt_list[1:])):
        raise ConfigError("dt_list needs at least 3 positive entries, dyadic descending "
                          "(each entry half the last)")
    if cfg.nu <= 0:
        raise ConfigError("splitting order study requires nu > 0")
    schemes = ("lie_trotter", "strang", "rk4")
    groups = [
        (f"dt[{s}]", dt_list,
         [(f"{s} dt={short_repr(dt)}", f"split_{s}_dt_{short_repr(dt)}",
           cfg.replace(scheme=s, dt=dt)) for dt in dt_list],
         f"sweep_summary_{s}.csv")
        for s in schemes
    ]
    dt_ref = min(dt_list) / 16.0
    reference = ("reference", "split_reference", cfg.replace(scheme="rk4", dt=dt_ref))
    return dict(zip(schemes, _sweep(cfg, groups, reference, workers)))


def _write_sweep_summary(cfg: RunConfig, result: SweepResult, filename: str):
    if cfg.out is None:
        return
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"# parameter = {result.parameter}"]
    lines.append(f"# slope = {result.slope!r}")
    lines.append(f"# residual = {result.residual!r}")
    lines.append("value,distance_q_l2,distance_u_h1alpha")
    for v, dq, du in zip(result.values, result.distances_q, result.distances_u):
        lines.append(f"{float(v)!r},{float(dq)!r},{float(du)!r}")
    (out_dir / filename).write_text("\n".join(lines) + "\n")
