"""
Property-based contracts over random grids, parameters and fields.

Examples are drawn deterministically (``derandomize=True``), so a run is
reproducible, and capped so the suite stays fast.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from euleralpha.checks import cross_form_residual, semigroup_error
from euleralpha.dynamics import SimState, max_speed, omega_from_q, rhs_vorticity
from euleralpha.experiments import (
    CONFIG_KEYS,
    IC_NAMES,
    ConfigError,
    RunConfig,
    load_config,
)
from euleralpha.integrators import SCHEMES, STEPPERS
from euleralpha.spectral import TorusGrid, dealias, l2_norm, stream_from_omega

from conftest import direct_rhs, direct_step, hermitian_defect, random_spectrum

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
    out = rhs_vorticity(state)
    expected = direct_rhs(state)
    scale = np.abs(expected).max()
    assert np.abs(out - expected).max() <= 1e-12 * scale
    assert out[0, 0] == 0.0
    assert not out[~state.grid.dealias_mask].any()
    assert hermitian_defect(out) <= 1e-13 * scale


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
    rhs = rhs_vorticity(state)
    psi = stream_from_omega(grid, omega_from_q(grid, state.q_hat, state.alpha))
    norm = np.linalg.norm(rhs)
    for field in (psi, state.q_hat):
        rate = abs(np.vdot(field, rhs).real)
        assert rate <= 1e-14 * np.linalg.norm(field) * norm


@PROPERTY
@given(states(), st.floats(0.05, 0.45), st.sampled_from(SCHEMES))
def test_steps_match_full_spectrum_oracle(state, cfl, scheme):
    # a CFL number below the limit for the state's velocity and for the
    # dealiased one, which rk4 checks instead
    dealiased = state.replace(q_hat=dealias(state.grid, state.q_hat))
    dt = cfl * state.grid.h / max(max_speed(state), max_speed(dealiased))
    assert np.array_equal(STEPPERS[scheme](state, dt).q_hat, direct_step(scheme, state, dt))


# -- configuration: parse and validate only. A drawn n = 10**9 is a valid
# RunConfig, so nothing here builds a grid, runs or opens a pool from one.

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
