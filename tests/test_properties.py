"""
Property-based contracts over random grids, parameters and fields.

Examples are drawn deterministically (``derandomize=True``), so a run is
reproducible, and capped so the suite stays fast.
"""

import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from euleralpha.checks import cross_form_residual, semigroup_error
from euleralpha.dynamics import (
    SimState,
    _max_speed,
    compute_diagnostics,
    omega_from_q,
    rhs_columns,
    state_from_omega,
    velocity_columns,
)
from euleralpha.experiments import (
    CONFIG_KEYS,
    IC_NAMES,
    ConfigError,
    RunConfig,
    load_config,
    make_initial_condition,
)
from euleralpha.integrators import SCHEMES, STEPPERS, CflViolation, step_rk4
from euleralpha.output import read_snapshot, write_snapshot
from euleralpha.particles import _BLOCK, _block_buffers, eval_velocity_at
from euleralpha.spectral import TorusGrid, dealias, l2_inner, l2_norm

from conftest import (
    direct_diagnostics,
    direct_l2_inner,
    direct_rhs,
    direct_step,
    direct_velocity_sum,
    full_rhs,
    hermitian_defect,
    max_speed,
    nd_max_speed,
    random_spectrum,
    square_tables,
    stream_from_omega,
    velocity_hats_from_q,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)


@st.composite
def states(draw, max_nu=0.1):
    """A state on an even n in [8, 64]: any alpha, nu up to max_nu, seed and band up to n/2."""
    n = 2 * draw(st.integers(4, 32))
    alpha = draw(st.floats(0.0, 1.0))
    nu = draw(st.floats(0.0, max_nu))
    band = draw(st.integers(1, n // 2))
    seed = draw(st.integers(0, 2**32 - 1))
    grid = TorusGrid(n)
    return SimState(grid, random_spectrum(grid, band, seed), alpha, nu=nu)


@PROPERTY
@given(states())
def test_rhs_contract(state):
    out = rhs_columns(state, state.columns)
    expected = direct_rhs(state)
    scale = np.abs(expected).max()
    w = state.grid.kmax_dealias + 1
    assert np.abs(out - expected[:, :w]).max() <= 1e-12 * scale
    assert out[0, 0] == 0.0
    assert not out[~square_tables(state.grid)[1][:, :w]].any()
    assert hermitian_defect(full_rhs(state)) <= 1e-13 * scale


@PROPERTY
@given(st.sampled_from((8, 16, 32, 64)), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1),
       st.floats(0.0, 0.1))
def test_column_diagnostics_match_full_spectrum(n, alpha, seed, dt):
    # every diagnostic and the L2 inner product of two fields, read from the
    # retained columns of dealiased states, against the full-spectrum sums
    grid = TorusGrid(n)
    state, other = (state_from_omega(grid, random_spectrum(grid, n // 2, seed + i), alpha)
                    for i in range(2))
    got, expected = compute_diagnostics(state, dt), direct_diagnostics(state, dt)
    assert (got.t, got.mean_q) == (expected.t, expected.mean_q) == (0.0, 0.0)
    for name in ("energy", "casimir2", "enstrophy", "max_u", "cfl"):
        assert abs(getattr(got, name) - getattr(expected, name)) <= 1e-13 * getattr(expected, name)
    f, g = state.q_hat, other.q_hat
    scale = np.sqrt(direct_l2_inner(grid, f, f) * direct_l2_inner(grid, g, g))
    assert abs(l2_inner(grid, f, g) - direct_l2_inner(grid, f, g)) <= 1e-13 * scale


@PROPERTY
@given(st.integers(4, 32).map(lambda h: 2 * h),
       st.integers(0, 3 * _BLOCK), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_off_grid_velocity_matches_full_spectrum_sum(n, m, alpha, seed):
    # any marker count, so any number of whole blocks and any tail, at
    # unwrapped points up to 50 from the origin, on a full-band state
    grid = TorusGrid(n)
    state = state_from_omega(grid, random_spectrum(grid, n // 2, seed), alpha)
    hats = velocity_hats_from_q(grid, state.q_hat, alpha)
    scale = max(np.abs(np.fft.ifft2(h).real).max() for h in hats)
    pts = np.random.default_rng(seed).uniform(-50.0, 50.0, (m, 2))
    vals = eval_velocity_at(grid, velocity_columns(grid, state.columns, alpha), pts)
    assert vals.shape == (m, 2) and vals.dtype == np.float64
    assert np.abs(vals - direct_velocity_sum(grid, hats, pts)).max(initial=0.0) <= 1e-13 * scale


@PROPERTY
@given(st.sampled_from([(16, 32), (32, 16)]),
       st.lists(st.tuples(st.integers(0, 3 * _BLOCK), st.integers(0, 2**32 - 1)), min_size=1, max_size=4))
def test_reused_workspace_gives_one_shot_results(sizes, calls):
    # the cached block buffers, poisoned with NaN before each call, serve calls
    # of any marker count (tail blocks and fewer than _BLOCK markers included)
    # on grids whose n alternates, each on another field: nothing left from an
    # earlier call may reach a result, which must equal that of a call on
    # fresh buffers bit for bit
    args, fresh = [], []
    for i, (m, seed) in enumerate(calls):
        grid = TorusGrid(sizes[i % 2])
        state = state_from_omega(grid, random_spectrum(grid, grid.n // 2, seed), 0.25)
        pts = np.random.default_rng(seed).uniform(-50.0, 50.0, (m, 2))
        args.append((grid, velocity_columns(grid, state.columns, 0.25), pts))
        _block_buffers.cache_clear()
        fresh.append(eval_velocity_at(*args[-1]))
    for (grid, cols, pts), expected in zip(args, fresh):
        for buf in _block_buffers(grid.kmax_dealias + 1):
            buf.fill(np.nan)
        assert np.array_equal(eval_velocity_at(grid, cols, pts), expected)


@PROPERTY
@given(states(max_nu=0.0))
def test_cross_form_identity(state):
    # both forms dealias q first, so the identity holds for any band
    residual, rhs = cross_form_residual(state)
    assert l2_norm(state.grid, residual) <= 1e-10 * l2_norm(state.grid, rhs)


@PROPERTY
@given(states(max_nu=1.0), st.floats(0.0, 2.0), st.floats(0.0, 2.0))
def test_diffusion_semigroup_law(state, s, t):
    assert semigroup_error(state, s, t) <= 1e-14


@settings(PROPERTY, max_examples=300)
@given(states(max_nu=0.0))
def test_inviscid_rhs_conserves_energy_and_casimir(state):
    # dE/dt = Re <psi, dq/dt> and d(int q^2 / 2)/dt = Re <q, dq/dt> vanish
    # for the dealiased product; worst of 200 draws: 9.8e-17 and 1.3e-16
    grid = state.grid
    rhs = full_rhs(state)
    psi = stream_from_omega(grid, omega_from_q(grid, state.q_hat, state.alpha))
    norm = np.linalg.norm(rhs)
    for field in (psi, state.q_hat):
        rate = abs(np.vdot(field, rhs).real)
        assert rate <= 1e-14 * np.linalg.norm(field) * norm


@PROPERTY
@given(states(), st.floats(0.05, 0.45), st.sampled_from(SCHEMES))
def test_steps_match_full_spectrum_oracle(state, cfl, scheme):
    # a CFL number below the limit for the dealiased velocity, which every
    # scheme checks; diffusion is a convolution with a probability measure,
    # so the splitting schemes' diffused velocity is no faster
    dealiased = state.replace(columns=dealias(state.grid, state.columns))
    dt = cfl * state.grid.h / max_speed(dealiased)
    assert np.array_equal(STEPPERS[scheme](state, dt).q_hat, direct_step(scheme, state, dt))


# -- the max speed: the max of u_x^2 + u_y^2, then hypot near it, is hypot's max

SPECIALS = (0.0, -0.0, np.inf, -np.inf, np.nan)


@st.composite
def velocity_samples(draw):
    """
    Grid fields (free, free, u_x, u_y) of a few points. Entries come from two pools
    of at most four values, each scaled by a power of ten in [1e-300, 1e300], often
    one whose squares are subnormal or near overflow, so ties are common and one
    field can mix magnitudes whose squares overflow and underflow; a field can be
    all zeros, and can carry inf and NaN entries.
    """
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    pools = []
    for _ in range(2):
        scale = 10.0 ** draw(st.one_of(st.integers(-300, 300), st.integers(-164, -154),
                                       st.integers(152, 154)))
        pools += [v * scale for v in draw(st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=4))]
    values = np.zeros((4, *shape))
    if not draw(st.booleans()) or draw(st.booleans()):  # a quarter of the draws: all zeros
        values[2:] = draw(arrays(np.float64, (2, *shape), elements=st.sampled_from(pools)))
    for _ in range(draw(st.integers(0, 2))):
        values[(draw(st.sampled_from((2, 3))), draw(st.integers(0, shape[0] - 1)),
                draw(st.integers(0, shape[1] - 1)))] = draw(st.sampled_from(SPECIALS))
    return values


# squares that round to 0 + 0 at the faster point and to the least subnormal at the
# slower one: a peak that is not normal does not order the points
SUBNORMAL_INVERSION = np.array([[[0.0, 0.0]]] * 2 + [[[1.556e-162, 1.587e-162]], [[1.556e-162, 0.0]]])
# normal squares whose rounded sums order two points against their hypot: the
# points within 1e-12 of the peak are all compared
ROUNDING_INVERSION = np.array([[[0.0, 0.0]]] * 2 + [[[0.5765465278118631, 0.7718840077376707]],
                                                   [[0.7769487419180353, 0.5833098018195517]]])


@settings(PROPERTY, max_examples=500)
@given(velocity_samples())
@example(SUBNORMAL_INVERSION)
@example(ROUNDING_INVERSION)
def test_max_speed_is_the_max_of_hypot_bit_for_bit(values):
    expected = float(np.hypot(values[2], values[3]).max())
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # squares that overflow do not warn
        got = _max_speed(values[2], values[3], values[0].copy())
    assert struct.pack("<d", got) == struct.pack("<d", expected)


@PROPERTY
@given(states(), st.floats(0.6, 4.0))
def test_cfl_violation_carries_the_hypot_cfl(state, cfl):
    # the CFL number a rejected step reports is hypot's max speed times dt / h
    state = state.replace(columns=dealias(state.grid, state.columns))
    speed = nd_max_speed(state)
    assume(speed > 0.0)
    dt = cfl * state.grid.h / speed
    try:
        step_rk4(state, dt)
    except CflViolation as err:
        assert err.cfl == speed * dt / state.grid.h
    else:
        raise AssertionError("a CFL number above the limit was accepted")


# -- snapshots: every finite float64 comes back with the same bits

# -0.0 and subnormals drawn often, besides any finite float
finite_floats = st.one_of(
    st.sampled_from((-0.0, 5e-324, -5e-324, 2.2250738585072009e-308)),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(PROPERTY, max_examples=200)
@given(arrays(np.float64, st.integers(1, 8).map(lambda n: (n, n)), elements=finite_floats),
       finite_floats, finite_floats, finite_floats)
def test_snapshot_round_trip_is_bit_exact(omega, alpha, nu, time):
    # compares bytes: checks.snapshot_roundtrip_error compares values, and
    # -0.0 == 0.0 as values
    n = omega.shape[0]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "snap.eaf"
        write_snapshot(path, n, alpha, nu, time, omega)
        snap = read_snapshot(path)
    assert snap.n == n
    assert snap.omega.tobytes() == omega.astype("<f8").tobytes()
    header = struct.Struct("<3d")
    assert header.pack(snap.alpha, snap.nu, snap.time) == header.pack(alpha, nu, time)


# -- configuration: parse and validate only. A valid RunConfig may have
# n = 4096, whose grid and state take 1.14 GiB, so nothing here builds a
# grid, runs or opens a pool from one.

CONFIG = settings(derandomize=True, database=None, deadline=None, max_examples=50)

_TYPED_VALUES = {
    int: st.one_of(st.integers(-4, 200), st.integers(-2**70, 2**70)).map(str),
    float: st.one_of(st.floats(0.0, 2.0), st.floats()).map(repr),
    tuple: st.lists(st.one_of(st.floats(0.0, 1.0), st.floats()).map(repr), max_size=4)
    .map(",".join),
}


def config_value(key):
    """Any short string, or a value of the key's own type, often a valid one."""
    default = getattr(RunConfig(), key)
    typed = _TYPED_VALUES.get(type(default), st.sampled_from(SCHEMES + IC_NAMES + ("out",)))
    return st.one_of(typed, st.text(max_size=12))


config_line = st.sampled_from(CONFIG_KEYS).flatmap(
    lambda key: config_value(key).map(lambda value: f"{key} = {value}")
)
config_texts = st.one_of(st.lists(config_line, max_size=8).map("\n".join), st.text(max_size=40))
config_overrides = st.lists(st.sampled_from(CONFIG_KEYS), unique=True, max_size=8).flatmap(
    lambda keys: st.fixed_dictionaries({key: config_value(key) for key in keys})
)


def assert_config_or_error(build):
    """``build()`` returns a RunConfig or raises ConfigError; any other exception fails."""
    try:
        assert isinstance(build(), RunConfig)
    except ConfigError:
        pass


@CONFIG
@given(st.one_of(config_texts.map(str.encode), st.binary(max_size=40)))
def test_config_file_gives_config_or_config_error(content):
    # load_config reads the file and hands its text to parse_config_text
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_bytes(content)
        assert_config_or_error(lambda: load_config(path))


@CONFIG
@given(config_overrides)
def test_config_overrides_give_config_or_config_error(overrides):
    assert_config_or_error(lambda: load_config(None, overrides))


# -- initial conditions: small grids only, with magnitudes up to the float range


def powers_of_ten(low, high):
    return st.floats(low, high).map(lambda e: 10.0**e)


@st.composite
def initial_configs(draw):
    """
    A RunConfig on n in {8, 16, 32} with alpha, energy and amplitude up to
    overflow; a third of the draws are random initial conditions from the
    corner alpha >= 8.3e107, ic_energy <= 6.1e-98, where the rescale to
    ic_energy underflows.
    """
    n = draw(st.sampled_from((8, 16, 32)))
    corner = draw(st.integers(0, 2)) == 0
    return RunConfig(
        n=n,
        alpha=draw(powers_of_ten(107.92, 155.0) if corner
                   else st.one_of(st.just(0.0), powers_of_ten(-3.0, 155.0))),
        nu=draw(st.sampled_from((0.0, 0.05))),
        ic="random_bandlimited" if corner else draw(st.sampled_from(IC_NAMES)),
        ic_kx=draw(st.integers(0, 3)),
        ic_ky=draw(st.integers(0, 3)),
        ic_band=draw(st.integers(1, n // 2)),
        # 10**308.3 is not a float
        ic_energy=draw(powers_of_ten(-200.0, -97.22) if corner else powers_of_ten(-200.0, 308.25)),
        ic_amplitude=draw(st.sampled_from((1.0, -1.0))) * draw(powers_of_ten(-100.0, 154.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@PROPERTY
@given(initial_configs())
def test_validated_config_gives_config_error_or_usable_state(cfg):
    # one rule decides: a state make_initial_condition returns has a t = 0
    # diagnostics row and a first step (or a CflViolation) with no warning
    try:
        cfg.validate()
    except ConfigError:
        assume(False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            state = make_initial_condition(cfg)
        except ConfigError:
            return
        diagnostics = compute_diagnostics(state, cfg.dt)
        try:
            step_rk4(state, cfg.dt)
        except CflViolation:
            pass
    if cfg.ic == "random_bandlimited":
        assert abs(diagnostics.energy - cfg.ic_energy) <= 1e-12 * cfg.ic_energy
