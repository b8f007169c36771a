"""
Property-based contracts over random grids, parameters and fields.

Examples are drawn deterministically (``derandomize=True``), so a run is
reproducible, and capped so the suite stays fast.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from euleralpha.checks import cross_form_residual, semigroup_error
from euleralpha.dynamics import SimState, rhs_vorticity
from euleralpha.spectral import TorusGrid, l2_norm

from conftest import direct_rhs, hermitian_defect, random_spectrum

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
