"""
Tests for the steppers: exact decay, semigroup laws, splitting behavior,
convergence orders, CFL rejection, and the integrate driver.
"""

import pickle

import numpy as np
import pytest

from euleralpha import integrators
from euleralpha.checks import conservation_drifts, semigroup_error, single_mode_decay_error
from euleralpha.dynamics import SimState, omega_from_q, state_from_omega
from euleralpha.integrators import (
    CFL_LIMIT,
    CflViolation,
    NumericsFailure,
    SCHEMES,
    STEPPERS,
    advance,
    diffusion_semigroup,
    integrate,
    step_lie_trotter,
    step_rk4,
)
from euleralpha.spectral import TorusGrid, dealias, l2_norm

from conftest import (
    cfl_number, direct_step, max_speed, mesh, random_spectrum, random_state, transported_state,
)


def single_shell(grid, alpha, nu=0.0):
    return state_from_omega(grid, np.fft.fft2(np.cos(2 * mesh(grid)[0])), alpha, nu=nu)


def omega_amplitude(state):
    return np.fft.ifft2(omega_from_q(state.grid, state.q_hat, state.alpha)).real.max()


def observed_order(dts, errors):
    slope, _ = np.polyfit(np.log(dts), np.log(errors), 1)
    return slope


class TestLoopChecks:
    # the time loop's own input checks, shared by every driver
    @pytest.mark.parametrize("dt, t_final", [
        (0.0, 0.5), (-0.01, 0.5), (np.nan, 0.5), (np.inf, 0.5), (0.1, np.nan), (0.1, np.inf),
    ])
    def test_rejects_bad_dt_and_t_final(self, grid16, dt, t_final):
        state = random_state(grid16, alpha=0.2, seed=9)
        with pytest.raises(ValueError, match="dt must be|t_final must be"):
            list(advance(state, t_final, dt))
        with pytest.raises(ValueError, match="dt must be|t_final must be"):
            integrate(state, t_final, dt)

    def test_rejects_unknown_scheme(self, grid16):
        state = random_state(grid16, alpha=0.2, seed=9)
        with pytest.raises(ValueError, match="expected one of") as err:
            list(advance(state, 0.5, 0.1, scheme="euler"))
        assert str(SCHEMES) in str(err.value)
        with pytest.raises(ValueError, match="expected one of"):
            integrate(state, 0.5, 0.1, scheme="euler")


@pytest.mark.parametrize("exc, fields", [
    (CflViolation(12.73, CFL_LIMIT, 0.25), ("cfl", "limit", "t")),
    (NumericsFailure(0.375), ("t",)),
])
def test_numerics_exceptions_survive_pickling(exc, fields):
    # a sweep member's exception is pickled back from its pool worker
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is type(exc) and str(copy) == str(exc)
    assert all(getattr(copy, f) == getattr(exc, f) for f in fields)


class TestStepRk4:
    def test_zero_state_only_time_advances(self, grid16):
        state = state_from_omega(grid16, np.zeros((16, 16), dtype=complex), 0.4)
        out = step_rk4(state, 0.1)
        assert out.t == pytest.approx(0.1)
        assert not out.columns.any()

    def test_single_shell_viscous_decay(self, grid32):
        # omega(t) = exp(-nu k^2 t / (1 + a^2 k^2)) cos(2x); factor exp(-0.02)
        state = single_shell(grid32, alpha=0.5, nu=0.01)
        for _ in range(100):
            state = step_rk4(state, 0.01)
        exact = np.exp(-0.02)
        assert abs(omega_amplitude(state) - exact) / exact <= 1e-9

    def test_local_order_from_step_halving(self, grid32):
        # one dt step vs two dt/2 steps differ at O(dt^5): slope >= 3.8 observed
        state = random_state(grid32, alpha=0.25, nu=0.01, seed=1)
        dts = (0.08, 0.04, 0.02, 0.01)
        errs = []
        for dt in dts:
            one = step_rk4(state, dt)
            two = step_rk4(step_rk4(state, dt / 2), dt / 2)
            errs.append(l2_norm(grid32, one.columns - two.columns))
        assert observed_order(dts, errs) >= 3.8

    def test_cfl_rejection_carries_number(self, grid32):
        state = single_shell(grid32, alpha=0.0)  # max|u| = 1/2
        dt = 1.5 * grid32.h  # cfl = 0.75
        with pytest.raises(CflViolation) as err:
            step_rk4(state, dt)
        assert err.value.cfl == pytest.approx(0.75, rel=1e-12)
        assert err.value.limit == CFL_LIMIT
        assert cfl_number(state, dt) == pytest.approx(0.75, rel=1e-12)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_cfl_rejection_comes_before_the_second_stage(self, grid32, monkeypatch, scheme):
        def later_stage(*args):
            raise AssertionError("a stage after the first ran before the CFL check")

        monkeypatch.setattr(integrators, "rhs_columns", later_stage)
        with pytest.raises(CflViolation):
            STEPPERS[scheme](single_shell(grid32, alpha=0.0, nu=0.01), 1.5 * grid32.h)

    def test_mean_mode_stays_zero(self, grid32):
        state = random_state(grid32, alpha=0.25, nu=0.01, seed=2)
        for stepper in STEPPERS.values():
            out = stepper(state, 1e-2)
            assert out.columns[0, 0] == 0.0


def stepping_states(n, alpha, nu):
    """
    A random band-limited state and the Taylor-Green state, whose fft2 need
    not be Hermitian bit for bit in its ky = 0 column.
    """
    grid = TorusGrid(n)
    X, Y = mesh(grid)
    taylor_green = np.fft.fft2(2.0 * np.cos(X) * np.cos(Y))
    return (random_state(grid, alpha, nu=nu, kmax=min(4, grid.kmax_dealias), seed=n),
            state_from_omega(grid, taylor_green, alpha, nu=nu))


@pytest.mark.parametrize("n", [8, 16, 32, 64])
@pytest.mark.parametrize("alpha", [0.0, 0.3])
@pytest.mark.parametrize("nu", [0.0, 0.05])
class TestRetainedColumnSteps:
    """The steppers' stages on the retained columns against the full-spectrum oracle."""

    def test_steps_equal_full_spectrum_oracle(self, n, alpha, nu):
        for state in stepping_states(n, alpha, nu):
            dt = 0.2 * state.grid.h / max_speed(state)
            for scheme, step in STEPPERS.items():
                # the second step starts from a state the update assembled
                expected = state
                for _ in range(2):
                    q_hat = direct_step(scheme, expected, dt)
                    expected = expected.replace(columns=q_hat[:, : expected.columns.shape[1]])
                assert np.array_equal(step(step(state, dt), dt).q_hat, q_hat), scheme

    def test_cfl_violation_carries_cfl_number(self, n, alpha, nu):
        # every scheme reports the CFL number of the state its RK4 body steps:
        # for the splitting schemes, the state diffused over dt or dt/2, whose
        # speed also sets dt so that diffusion leaves the step above the limit
        for state in stepping_states(n, alpha, nu):
            for scheme, step in STEPPERS.items():
                dt = 0.6 * state.grid.h / max_speed(state)
                dt = 0.6 * state.grid.h / max_speed(transported_state(scheme, state, dt))
                with pytest.raises(CflViolation) as err:
                    step(state, dt)
                assert err.value.cfl == cfl_number(transported_state(scheme, state, dt), dt), scheme
                assert err.value.t == state.t


def test_cfl_reads_the_velocity_each_scheme_steps_with():
    # A user-built state with energy outside the dealias mask: every scheme
    # checks the dealiased velocity its first transport stage moves q with.
    grid = TorusGrid(16)
    state = SimState(grid, random_spectrum(grid, 8, seed=0), 0.3, nu=0.05)
    dealiased = state.replace(columns=dealias(grid, state.columns))
    dt = 1.0 / (cfl_number(state, 1.0) + cfl_number(dealiased, 1.0))
    assert cfl_number(dealiased, dt) < CFL_LIMIT < cfl_number(state, dt)
    for scheme, step in STEPPERS.items():
        assert np.array_equal(step(state, dt).q_hat, direct_step(scheme, state, dt)), scheme
        with pytest.raises(CflViolation) as err:
            step(state, 2.0 * dt)
        expected = cfl_number(transported_state(scheme, dealiased, 2.0 * dt), 2.0 * dt)
        assert err.value.cfl == expected != cfl_number(state, 2.0 * dt), scheme


class TestDiffusionSemigroup:
    def test_inviscid_identity(self, grid16):
        state = random_state(grid16, alpha=0.3, nu=0.0, seed=3)
        out = diffusion_semigroup(state, 0.5)
        assert np.array_equal(out.columns, state.columns)
        assert out.t == pytest.approx(0.5)

    def test_single_mode_exact_factor(self, grid32):
        state = single_shell(grid32, alpha=0.5, nu=0.01)
        out = diffusion_semigroup(state, 1.0)
        ratio = out.columns[2, 0] / state.columns[2, 0]
        assert abs(ratio - np.exp(-0.02)) <= 1e-14

    def test_semigroup_law(self, grid32):
        state = random_state(grid32, alpha=0.5, nu=0.7, seed=4)
        assert semigroup_error(state, 0.4, 0.7) <= 1e-14

    def test_strict_contraction_of_nonzero_modes(self, grid32):
        state = random_state(grid32, alpha=0.5, nu=0.2, seed=5)
        out = diffusion_semigroup(state, 0.3)
        nz = np.abs(state.columns) > 0
        nz[0, 0] = False
        assert np.all(np.abs(out.columns[nz]) < np.abs(state.columns[nz]))


class TestSplittingSteppers:
    def test_lie_trotter_inviscid_equals_rk4(self, grid32):
        state = random_state(grid32, alpha=0.25, nu=0.0, seed=6)
        a = step_lie_trotter(state, 5e-3)
        b = step_rk4(state, 5e-3)
        assert np.abs(a.columns - b.columns).max() <= 1e-15 * np.abs(b.columns).max()

    def test_single_shell_splitting_exact(self, grid32):
        # diagonal commuting sub-flows: the splitting is exact on one shell
        state = single_shell(grid32, alpha=0.5, nu=0.01)
        for _ in range(100):
            state = step_lie_trotter(state, 0.01)
        exact = np.exp(-0.02)
        assert abs(omega_amplitude(state) - exact) / exact <= 1e-12

    def test_observed_orders(self, grid32):
        # generic viscous problem: first order for Lie-Trotter, second for Strang
        state = random_state(grid32, alpha=0.25, nu=0.05, seed=7)
        t_final = 0.25
        ref = integrate(state, t_final, 0.25e-3)
        dts = (0.025, 0.0125, 0.00625)
        for scheme, window in (("lie_trotter", (0.8, 1.2)), ("strang", (1.8, 2.2))):
            errs = []
            for dt in dts:
                out = integrate(state, t_final, dt, scheme)
                errs.append(l2_norm(grid32, out.columns - ref.columns))
            order = observed_order(dts, errs)
            assert window[0] <= order <= window[1], (scheme, order, errs)


class TestIntegrate:
    def test_rejects_backward_target(self, grid16):
        state = random_state(grid16, alpha=0.2, seed=9).replace(t=1.0)
        with pytest.raises(ValueError):
            integrate(state, 0.5, 0.1)

    def test_final_partial_step_lands_exactly(self, grid32):
        state = single_shell(grid32, alpha=0.5, nu=0.01)
        out = integrate(state, 0.25, 0.1)
        assert out.t == 0.25
        # advance yields every step, the shortened last one included
        steps = list(advance(state, 0.25, 0.1))
        assert [k for k, _ in steps] == [0, 1, 2, 3] and steps[-1][1].t == 0.25
        assert integrate(state, state.t, 0.1) is state  # a zero span takes no step

    def test_single_shell_decay_through_driver(self, grid32):
        assert single_mode_decay_error(grid32, 0.5, 0.01, 0.01, 1.0, "rk4") <= 1e-9

    def test_nan_state_aborts(self, grid16):
        state = random_state(grid16, alpha=0.2, nu=0.0, seed=10)
        bad = state.replace(columns=state.columns * np.nan)
        with pytest.raises(NumericsFailure):
            list(advance(bad, 1.0, 0.1))

    def test_energy_drift_tiny_over_unit_time(self, grid32):
        state = random_state(grid32, alpha=0.25, seed=11)
        energy_drift, _, _ = conservation_drifts(state, 1.0, 2e-3, every=500)
        assert energy_drift <= 1e-8

    def test_drifts_include_the_off_cadence_final_state(self, grid32):
        # viscous decay makes every drift grow step by step, so the largest
        # is the final state's (step 5, off the every-2 cadence)
        state = random_state(grid32, alpha=0.25, nu=0.05, seed=11)
        every_step = conservation_drifts(state, 0.05, 0.01, every=1)
        assert every_step[0] > 0.0 and every_step[1] > 0.0
        assert conservation_drifts(state, 0.05, 0.01, every=2) == every_step


class TestTimeReversal:
    @pytest.mark.parametrize("scheme", ["rk4", "lie_trotter", "strang"])
    def test_inviscid_reversal_recovers_ic(self, grid32, scheme):
        state = random_state(grid32, alpha=0.25, seed=12)
        fwd = integrate(state, 0.5, 2e-3, scheme)
        rev = fwd.replace(columns=-fwd.columns, t=0.0)
        back = integrate(rev, 0.5, 2e-3, scheme)
        err = l2_norm(grid32, -back.columns - state.columns) / l2_norm(grid32, state.columns)
        assert err <= 1e-10
