"""
Tests for the spectral core: grid, transforms, multipliers, dealiasing.
"""

import numpy as np
import pytest

from euleralpha import spectral
from euleralpha.spectral import (
    TorusGrid,
    ddx,
    ddy,
    dealias,
    dealias_table,
    grid_pass,
    helmholtz,
    helmholtz_table,
    integral,
    inverse_helmholtz,
    k2_table,
    l2_norm,
    laplacian,
    rhs_factors,
)

from euleralpha.checks import helmholtz_pair_residuals, transform_residuals
from euleralpha.dynamics import leray_project_hats

from conftest import hermitian_defect, inverse_transform, mesh, random_band_hat, square_tables


class TestTorusGrid:
    def test_rejects_odd_and_small_sizes(self):
        for bad in (7, 6, 15, 0, -8):
            with pytest.raises(ValueError):
                TorusGrid(bad)

    def test_wavenumber_layout(self, grid32):
        assert grid32.kx[0] == 0.0
        assert grid32.kx[1] == 1.0
        assert grid32.kx[16] == -16.0  # Nyquist wraps negative
        assert grid32.kx[-1] == -1.0
        assert grid32.h == pytest.approx(2 * np.pi / 32)

    def test_dealias_mask_two_thirds_rule(self, grid32):
        # n=32: keep |k| <= 10 (strictly below 32/3)
        mask = dealias_table(grid32, 32)
        assert grid32.kmax_dealias == 10
        assert mask[10, 0]
        assert not mask[11, 0]
        assert not mask[0, 16]  # Nyquist always masked

    def test_mask_symmetric_under_k_negation(self, grid32):
        n = grid32.n
        idx = (-np.arange(n)) % n
        mask = dealias_table(grid32, n)
        assert np.array_equal(mask, mask[np.ix_(idx, idx)])

    def test_block_mask_is_its_row_mask(self):
        # every retained column has ky <= kmax < n/3, so on the block the 2/3 mask
        # is |kx| < n/3, the dealias_rows the RHS pass masks the block with
        for n in range(8, 1025, 2):
            grid = TorusGrid(n)
            w = grid.kmax_dealias + 1
            assert np.array_equal(dealias_table(grid, w),
                                  np.broadcast_to(grid.dealias_rows, (n, w)))
            assert grid.dealias_rows.shape == (n, 1)
            assert np.array_equal(grid.dealias_rows[:, 0], np.abs(grid.kx) < n / 3)
            assert np.array_equal(grid.kept, np.abs(grid.kx) < n / 3)

    def test_nyquist_always_masked(self):
        for n in (8, 12, 24, 64):
            mask = dealias_table(TorusGrid(n), n)
            assert not mask[n // 2, :].any()
            assert not mask[:, n // 2].any()

    def test_holds_no_array_of_n_squared_elements(self):
        # the grid keeps per-axis vectors and the buffer of rhs_factors on the
        # retained block, and no array of n^2 or more elements
        for n in (8, 64, 1024):
            grid = TorusGrid(n)
            w = grid.kmax_dealias + 1
            held = {name: a for name, a in vars(grid).items() if isinstance(a, np.ndarray)}
            held.update(rhs_factors=grid._rhs_factors[1])
            assert set(held) == {"x", "kx", "kx2", "DX", "DY", "kept", "dealias_rows",
                                 "rhs_factors"}
            assert all(a.size < n * n for a in held.values())
            assert held["rhs_factors"].shape == (2, n, w)
            assert all(max(a.shape) == a.size == n for name, a in held.items()
                       if name != "rhs_factors")
            vectors = 8 * n * 3 + 16 * n * 2 + n * 2  # x, kx, kx2; DX, DY; kept, dealias_rows
            assert sum(a.nbytes for a in held.values()) == 8 * 2 * n * w + vectors
            assert np.array_equal(grid.x, 2.0 * np.pi * np.arange(n) / n)
            assert np.array_equal(grid.kx2, grid.kx**2)


class TestPerCallTables:
    """The (n, w) tables a multiplier forms per call are the full tables' column slices, bit for bit."""

    TABLES = {
        "k2": (lambda grid, w: k2_table(grid, w), lambda k2, mask: k2),
        "helmholtz": (lambda grid, w: helmholtz_table(grid, w, 0.3),
                      lambda k2, mask: 1.0 + 0.3**2 * k2),
        "dealias": (lambda grid, w: dealias_table(grid, w), lambda k2, mask: mask),
    }

    @pytest.mark.parametrize("name", TABLES)
    def test_tables_are_full_table_slices(self, name):
        per_call, full_table = self.TABLES[name]
        for n in range(8, 1025, 2):
            grid = TorusGrid(n)
            full = full_table(*square_tables(grid))
            for w in sorted({1, grid.kmax_dealias + 1, n // 2 + 1, n}):
                table, expected = per_call(grid, w), full[:, :w]
                assert table.shape == (n, w) and table.dtype == full.dtype
                bits = np.int64 if full.dtype == np.float64 else np.bool_
                assert np.array_equal(table.view(bits), expected.view(bits)), (n, w)


class TestTransforms:
    """numpy's unnormalized fft2, the transform convention every spectral array follows."""

    def test_zero_field(self, grid16):
        assert not np.fft.fft2(np.zeros((16, 16))).any()

    def test_single_harmonic_two_modes(self, grid16):
        F = np.fft.fft2(np.cos(mesh(grid16)[0]))
        nonzero = np.argwhere(np.abs(F) > 1e-9)
        assert {tuple(ij) for ij in nonzero} == {(1, 0), (15, 0)}
        assert np.abs(F[1, 0]) == pytest.approx(np.abs(F[15, 0]))
        assert np.abs(F[1, 0]) == pytest.approx(16**2 / 2)

    def test_roundtrip_random_field(self, grid32):
        f = np.fft.ifft2(random_band_hat(grid32, 9, seed=3)).real
        roundtrip, _ = transform_residuals(f)
        assert roundtrip <= 1e-12
        inverse_transform(np.fft.fft2(f))  # raises unless the coefficients are Hermitian

    def test_parseval(self, grid32):
        f = np.fft.ifft2(random_band_hat(grid32, 9, seed=4)).real
        _, parseval = transform_residuals(f)
        assert parseval <= 1e-12

    def test_single_mode_pair_reconstructs_cosine(self, grid16):
        F = np.zeros((16, 16), dtype=complex)
        F[2, 0] = 16**2 / 2
        F[14, 0] = 16**2 / 2
        f = inverse_transform(F)
        assert np.abs(f - np.cos(2 * mesh(grid16)[0])).max() <= 1e-13

    @staticmethod
    def blocked_pass(block, rows, monkeypatch, keep=2):
        """grid_pass of a copy of ``block`` in blocks of ``rows`` rows: the rows it was
        handed, stacked, and its result for the product of the first ``keep`` fields."""
        c, n, _ = block.shape
        monkeypatch.setattr(spectral, "_BLOCK_SAMPLES", c * n * rows)
        seen = []

        def product(values):
            seen.append(values.copy())
            return values[:keep] * values[keep : 2 * keep]

        out = grid_pass(block.copy(), product)
        return np.concatenate(seen, axis=1), out, len(seen)

    @pytest.mark.parametrize("n", [32, 512])
    def test_column_passes_equal_the_nd_transforms(self, n, monkeypatch):
        # in any blocking, the pass hands over irfft2's rows and returns the block of
        # rfft2 of the product, bit for bit: the 1D passes are the nd transforms' own
        rng = np.random.default_rng(n)
        w = TorusGrid(n).kmax_dealias + 1
        block = rng.standard_normal((4, n, w)) + 1j * rng.standard_normal((4, n, w))
        values = np.fft.irfft2(block, s=(n, n))
        expected = np.fft.rfft2(values[:2] * values[2:])[..., :w]
        for rows, blocks in ((1, n), (5, -(-n // 5)), (n, 1), (2 * n, 1)):
            seen, out, count = self.blocked_pass(block, rows, monkeypatch)
            assert count == blocks
            assert seen.tobytes() == values.tobytes()
            assert out.shape == expected.shape and out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [8, 32, 512])
    def test_passes_in_the_callers_memory_keep_the_bits(self, n, monkeypatch):
        # the pass consumes the spectra it is given and allocates its result, and with
        # no product it returns None
        rng = np.random.default_rng(n)
        w = TorusGrid(n).kmax_dealias + 1
        block = rng.standard_normal((4, n, w)) + 1j * rng.standard_normal((4, n, w))
        expected = np.fft.rfft2(np.fft.irfft2(block[:1], s=(n, n)))[..., :w]
        for rows in (3, n):
            monkeypatch.setattr(spectral, "_BLOCK_SAMPLES", 4 * n * rows)
            spent = block.copy()
            out = grid_pass(spent, lambda values: values[:1])
            assert not np.shares_memory(out, spent)
            assert out.tobytes() == expected.tobytes()
            assert grid_pass(block.copy(), lambda values: None) is None

    def test_inverse_rejects_non_hermitian(self, grid16):
        F = np.zeros((16, 16), dtype=complex)
        F[3, 1] = 1.0  # no conjugate partner
        with pytest.raises(ValueError, match="Hermitian"):
            inverse_transform(F)


class TestMultipliers:
    def test_laplacian_eigenfunction(self, grid16):
        F = np.fft.fft2(np.cos(2 * mesh(grid16)[0]))
        lap = inverse_transform(laplacian(grid16, F))
        assert np.abs(lap - (-4.0) * np.cos(2 * mesh(grid16)[0])).max() <= 1e-12

    def test_helmholtz_filter_closed_form(self, grid16):
        # 1/(1 + 0.25 * 4) = 1/2 on the k=(2,0) shell
        F = np.fft.fft2(np.cos(2 * mesh(grid16)[0]))
        filtered = inverse_transform(inverse_helmholtz(grid16, F, alpha=0.5))
        assert np.abs(filtered - 0.5 * np.cos(2 * mesh(grid16)[0])).max() <= 1e-13

    def test_multipliers_commute(self, grid32):
        F = random_band_hat(grid32, 9, seed=7)
        a = inverse_helmholtz(grid32, laplacian(grid32, F), 0.7)
        b = laplacian(grid32, inverse_helmholtz(grid32, F, 0.7))
        assert np.abs(a - b).max() <= 1e-13 * np.abs(a).max()

    def test_hermitian_preserved_through_chain(self, grid32):
        F = random_band_hat(grid32, 8, seed=8)
        out = ddy(grid32, ddx(grid32, helmholtz(grid32, dealias(grid32, F), 0.3)))
        assert hermitian_defect(out) <= 1e-9 * (1 + np.abs(out).max())


class TestHelmholtzPair:
    def test_alpha_zero_is_identity(self, grid16):
        F = random_band_hat(grid16, 5, seed=9)
        assert np.array_equal(helmholtz(grid16, F, 0.0), F)
        assert np.array_equal(inverse_helmholtz(grid16, F, 0.0), F)

    def test_diagonal_mode_closed_form(self, grid16):
        # (1 + 1*2) = 3 on the k=(1,1) shell
        X, Y = mesh(grid16)
        f = np.cos(X + Y)
        out = inverse_transform(helmholtz(grid16, np.fft.fft2(f), alpha=1.0))
        assert np.abs(out - 3.0 * f).max() <= 1e-12

    @pytest.mark.parametrize("alpha", [0.0, 0.1, 1.0, 10.0])
    def test_inverse_pair(self, grid32, alpha):
        F = random_band_hat(grid32, 10, seed=10)
        inverse_of_filter, _ = helmholtz_pair_residuals(grid32, F, alpha)
        assert inverse_of_filter <= 1e-13


class TestStreamFromOmega:
    """The stream-function factor rhs_factors(grid, alpha)[0] on the retained columns ky = 0..kmax."""

    @staticmethod
    def stream(grid, q_hat, alpha):
        return q_hat[:, : grid.kmax_dealias + 1] * rhs_factors(grid, alpha)[0]

    def test_closed_form(self, grid16):
        # q = (1 + 4 alpha^2) cos(2x) -> omega = cos(2x) -> psi = cos(2x)/4
        for alpha in (0.0, 0.5):
            q_hat = np.fft.fft2((1.0 + 4.0 * alpha**2) * np.cos(2 * mesh(grid16)[0]))
            psi = np.fft.irfft2(self.stream(grid16, q_hat, alpha), s=(16, 16))
            assert np.abs(psi - np.cos(2 * mesh(grid16)[0]) / 4.0).max() <= 1e-13

    def test_zero_maps_to_zero(self, grid16):
        assert not self.stream(grid16, np.zeros((16, 16), dtype=complex), 0.5).any()

    def test_inverse_pair_with_laplacian(self, grid32):
        # -Lap psi = (1 - alpha^2 Lap)^-1 q, with the width-generic multipliers
        q_hat = random_band_hat(grid32, 9, seed=11)[:, : grid32.kmax_dealias + 1]
        for alpha in (0.0, 0.7):
            back = -laplacian(grid32, self.stream(grid32, q_hat, alpha))
            omega = inverse_helmholtz(grid32, q_hat, alpha)
            assert np.abs(back - omega).max() <= 1e-12 * np.abs(omega).max()


class TestGuardedK2:
    @pytest.mark.parametrize("n", [8, 32])
    def test_divisions_match_per_call_guard(self, n):
        # the projection on the wavenumber vectors gives the bits of the
        # (n, n) meshes with the guard np.where(K2 == 0, 1, K2)
        grid = TorusGrid(n)
        KX, KY = np.meshgrid(grid.kx, grid.kx, indexing="ij")
        k2 = square_tables(grid)[0]
        k2 = np.where(k2 == 0.0, 1.0, k2)
        rng = np.random.default_rng(n)
        w = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2)]
        kdotw = (KX * w[0] + KY * w[1]) / k2
        px, py = w[0] - KX * kdotw, w[1] - KY * kdotw
        px[0, 0], py[0, 0] = w[0][0, 0], w[1][0, 0]
        got = leray_project_hats(grid, w[0], w[1])
        assert np.array_equal(got[0], px) and np.array_equal(got[1], py)


class TestColumnBlocks:
    """Every multiplier on a leading block of columns ky = 0..w-1 is the full result's block."""

    OPERATORS = {
        "ddx": ddx,
        "ddy": ddy,
        "laplacian": laplacian,
        "dealias": dealias,
        "helmholtz": lambda grid, f: helmholtz(grid, f, 0.3),
        "inverse_helmholtz": lambda grid, f: inverse_helmholtz(grid, f, 0.3),
        "leray_project_hats": lambda grid, f: np.stack(leray_project_hats(grid, *f)),
    }

    @pytest.mark.parametrize("n", [8, 32])
    @pytest.mark.parametrize("name", OPERATORS)
    def test_block_equals_full_result(self, n, name):
        grid = TorusGrid(n)
        op = self.OPERATORS[name]
        rng = np.random.default_rng(n)
        # two stacked fields: the leading axis is the pair leray_project_hats takes
        f = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
        full = op(grid, f)
        for w in (grid.kmax_dealias + 1, n // 2 + 1, n):
            assert np.array_equal(op(grid, f[..., :w]), full[..., :w])


class TestDealias:
    def test_low_band_unchanged(self, grid32):
        F = random_band_hat(grid32, 8, seed=12)  # inside |k| <= n/4
        outside = np.abs(grid32.kx) > 8
        F[outside[:, None] | outside[None, :]] = 0.0
        assert np.array_equal(dealias(grid32, F), F)

    def test_nyquist_mode_zeroed(self, grid32):
        F = np.zeros((32, 32), dtype=complex)
        F[16, 0] = 1.0
        assert not dealias(grid32, F).any()

    def test_idempotent(self, grid32):
        F = random_band_hat(grid32, 15, seed=13)
        once = dealias(grid32, F)
        assert np.array_equal(dealias(grid32, once), once)


class TestIntegrals:
    def test_integral_of_constant(self, grid16):
        F = np.fft.fft2(np.full((16, 16), 2.5))
        assert integral(grid16, F) == pytest.approx(2.5 * (2 * np.pi) ** 2)

    def test_l2_norm_closed_form(self, grid16):
        # int cos^2(2x) dx dy = (2pi)^2 / 2
        F = np.fft.fft2(np.cos(2 * mesh(grid16)[0]))
        assert l2_norm(grid16, F) == pytest.approx(np.sqrt(2.0 * np.pi**2), rel=1e-13)
