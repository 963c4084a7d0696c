import math

import numpy as np
import pytest
import scipy.special

from prolate import dpss, lowrank
from prolate.dpss import default_subspace_dim, transition_window, unfold
from prolate.fft_kernels import PartialFourier, nearest_odd_integer
from prolate.lowrank import (
    _FOURIER_TERMS,
    FourierFactor,
    SpectralFactor,
    adi_rank,
    adi_shifts,
    bandwidth_shift_factor,
    cfadi_solve,
    fourier_correction_factor,
    hilbert_factor,
    jacobi_dn,
    pinv_correction,
    projection_correction,
    sinc_alias_factor,
    correction_rank_budget,
    taylor_widths,
    tikhonov_correction,
)

from oracles import (
    bandwidth_shift_dense,
    diag_lyapunov_dense,
    eig_dense,
    eig_extended,
    factor_dense,
    factor_halves,
    fourier_analysis_extended,
    fourier_projector_dense,
    fourier_synthesis_extended,
    hilbert_matrix_dense,
    kernel_dense,
    kernel_mismatch_dense,
    needs_extended,
    norm2,
    pinv_oracle,
    projection_oracle,
    prolate_dense,
    shift_quality,
    sinc_alias_dense,
    tikhonov_oracle,
)


class TestAdiRank:
    def test_unit_case(self):
        assert adi_rank(1.0, 1.0) == 1

    def test_hilbert_grid_point(self):
        # kappa = 2*1024 - 1 with the pi-split tolerance for eps = 1e-6
        delta_h = 4 * math.pi * 1e-6 / 15
        assert adi_rank(2 * 1024 - 1, delta_h / math.pi) == 16

    def test_monotone(self):
        kappas = [1.0, 3.0, 10.0, 1e3, 1e6]
        deltas = [1.0, 1e-2, 1e-6, 1e-12]
        for d in deltas:
            ranks = [adi_rank(k, d) for k in kappas]
            assert ranks == sorted(ranks)
        for k in kappas:
            ranks = [adi_rank(k, d) for d in deltas]
            assert ranks == sorted(ranks)

    def test_domain(self):
        with pytest.raises(ValueError):
            adi_rank(0.5, 0.1)
        with pytest.raises(ValueError):
            adi_rank(2.0, 1.5)


class TestAdiShifts:
    def test_degenerate_interval(self):
        assert np.allclose(adi_shifts(2.0, 2.0, 4), 2.0)

    def test_elliptic_matches_scipy_dn(self):
        kappa = 2047.0
        one_minus_m = 1 / kappa**2
        k_val = scipy.special.ellipkm1(one_minus_m)
        u = np.linspace(0.05, 0.95, 9) * k_val
        got = jacobi_dn(u, one_minus_m)
        want = scipy.special.ellipj(u, 1 - one_minus_m)[2]
        assert np.abs(got - want).max() <= 1e-9

    def test_shift_quality_bound(self):
        # the rational function built from elliptic shifts meets the rank certificate
        for n, delta in [(64, 1e-4), (256, 1e-6), (1024, 1e-9)]:
            a, b = 0.5, n - 0.5
            r = adi_rank(2 * n - 1, delta)
            shifts = adi_shifts(a, b, r)
            assert shift_quality(a, b, shifts) <= delta

    def test_shifts_inside_interval(self):
        shifts = adi_shifts(0.5, 511.5, 12)
        assert np.all(shifts >= 0.5 - 1e-12) and np.all(shifts <= 511.5 + 1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            adi_shifts(-1.0, 2.0, 3)
        with pytest.raises(ValueError):
            adi_shifts(1.0, 2.0, 0)


class TestCfadi:
    def test_scalar_exact(self):
        z = cfadi_solve(np.array([2.0]), np.array([3.0]), np.array([2.0]))
        assert z @ z.T == pytest.approx(np.array([[9 / 4]]), abs=1e-15)

    def test_shape(self):
        z = cfadi_solve(np.arange(8) + 0.5, np.ones(8), adi_shifts(0.5, 7.5, 5))
        assert z.shape == (8, 5)

    def test_hilbert_setup_matches_dense_lyapunov(self):
        n = 8
        a = np.arange(n) + 0.5
        b = np.ones(n)
        x = diag_lyapunov_dense(a, b)
        z = cfadi_solve(a, b, adi_shifts(0.5, n - 0.5, 30))
        assert norm2(x - z @ z.T) <= 1e-10

    def test_error_identity(self):
        # X - ZZ' equals phi(A) X phi(A)' for diagonal A
        n = 48
        a = np.linspace(1.0, 9.0, n)
        b = np.cos(np.arange(n) * 0.7)
        shifts = adi_shifts(1.0, 9.0, 6)
        z = cfadi_solve(a, b, shifts)
        x = diag_lyapunov_dense(a, b)
        phi = np.ones(n)
        for p in shifts:
            phi *= (a - p) / (a + p)
        want = (phi[:, None] * x) * phi[None, :]
        assert np.abs((x - z @ z.T) - want).max() <= 1e-10

    def test_domain(self):
        with pytest.raises(ValueError):
            cfadi_solve(np.array([-1.0]), np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            cfadi_solve(np.array([1.0]), np.array([1.0]), np.array([-1.0]))


class TestHilbertFactor:
    def test_scalar_exact(self):
        z = hilbert_factor(1, 0.02)
        assert z @ z.T == pytest.approx(np.array([[1.0]]), abs=1e-15)

    def test_bound_and_rank(self):
        n = 256
        delta_h = 4 * math.pi * 1e-6 / 15
        z = hilbert_factor(n, delta_h)
        h = hilbert_matrix_dense(n)
        assert norm2(h - z @ z.T) <= delta_h
        assert z.shape[1] == adi_rank(2 * n - 1, delta_h / math.pi)

    def test_norm_below_pi(self):
        for n in (16, 64, 256):
            assert norm2(hilbert_matrix_dense(n)) <= math.pi


class TestSincAliasFactor:
    def test_zero_diagonal(self):
        fac = sinc_alias_factor(32, 1e-6)
        assert np.abs(np.diag(kernel_dense(fac))).max() <= 1e-15

    def test_antisymmetry(self):
        m = kernel_dense(sinc_alias_factor(24, 1e-8))
        assert np.abs(m + m.T).max() <= 1e-14

    def test_dense_bound(self):
        n, tol = 64, 7e-6 / 30
        fac = sinc_alias_factor(n, tol)
        assert norm2(sinc_alias_dense(n) - kernel_dense(fac)) <= tol

    @pytest.mark.parametrize("n", [32, 128, 256])
    @pytest.mark.parametrize("eps", [1e-3, 1e-9])
    def test_frobenius_truncation_bound(self, n, eps):
        tol = 7 * eps / 30
        fac = sinc_alias_factor(n, tol)
        err = np.linalg.norm(sinc_alias_dense(n) - kernel_dense(fac), "fro")
        assert err <= fac.frobenius_bound
        assert fac.frobenius_bound == pytest.approx(
            2 / (3 * math.pi) * 4.0 ** (-(fac.rank // 2)), rel=1e-12
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            sinc_alias_factor(16, 0.9)  # above 8/(3 pi)


class TestBandwidthShiftFactor:
    def test_exact_odd_count_gives_zero(self):
        n, w = 64, 33 / 128  # 2nw = 33 already odd
        w_prime = nearest_odd_integer(2 * n * w) / (2 * n)
        assert w_prime == w
        fac = bandwidth_shift_factor(n, w, w_prime, 1e-6)
        assert np.abs(kernel_dense(fac)).max() == 0.0

    def test_symmetry(self):
        n, w = 48, 0.25
        w_prime = nearest_odd_integer(2 * n * w) / (2 * n)
        m = kernel_dense(bandwidth_shift_factor(n, w, w_prime, 1e-8))
        assert np.abs(m - m.T).max() <= 1e-14

    def test_dense_bound(self):
        n, w = 64, 0.25
        w_prime = nearest_odd_integer(2 * n * w) / (2 * n)
        tol = 7e-6 / 30
        fac = bandwidth_shift_factor(n, w, w_prime, tol)
        assert norm2(bandwidth_shift_dense(n, w, w_prime) - kernel_dense(fac)) <= tol

    @pytest.mark.parametrize("n", [32, 128, 256])
    @pytest.mark.parametrize("eps", [1e-3, 1e-9])
    def test_frobenius_truncation_bound(self, n, eps):
        w = 0.25
        w_prime = nearest_odd_integer(2 * n * w) / (2 * n)
        tol = 7 * eps / 30
        fac = bandwidth_shift_factor(n, w, w_prime, tol)
        err = np.linalg.norm(bandwidth_shift_dense(n, w, w_prime) - kernel_dense(fac), "fro")
        assert err <= fac.frobenius_bound
        r = (fac.rank + 1) // 2
        assert fac.frobenius_bound == pytest.approx(1.5 * (math.pi / 6) ** (2 * r), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            bandwidth_shift_factor(16, 0.25, 0.4, 1e-6)  # w' too far from w


class TestStructuralIdentity:
    @pytest.mark.parametrize("w", [0.25, 1 / 16])
    def test_phase_conjugation_reproduces_difference(self, w):
        # the two modulated kernels recombine into B - FF* entrywise
        n = 32
        w_prime = nearest_odd_integer(2 * n * w) / (2 * n)
        idx = np.arange(n)
        da = np.diag(np.exp(2j * np.pi * w_prime * idx))
        db = np.diag(np.exp(1j * np.pi * (w + w_prime) * idx))
        a0 = kernel_mismatch_dense(n)
        b0 = bandwidth_shift_dense(n, w, w_prime)
        lhs = (da @ a0 @ da.conj().T - da.conj() @ a0 @ da) / 2j
        lhs += (db @ b0 @ db.conj().T + db.conj() @ b0 @ db) / 2
        rhs = prolate_dense(n, w) - fourier_projector_dense(PartialFourier(n, w))
        assert np.abs(lhs - rhs).max() <= 1e-10

    def test_hilbert_unfolding(self):
        # A0 = (H J - J H) / pi + A1
        n = 24
        h = hilbert_matrix_dense(n)
        hj = h[:, ::-1]
        jh = h[::-1, :]
        got = (hj - jh) / math.pi + sinc_alias_dense(n)
        assert np.abs(got - kernel_mismatch_dense(n)).max() <= 1e-13


class TestFourierCorrectionFactor:
    @pytest.mark.parametrize(
        "n,w,eps",
        [(64, 0.25, 1e-3), (64, 1 / 16, 1e-6), (256, 0.25, 1e-9), (256, 1 / 16, 1e-9)],
    )
    def test_certified_bound_and_rank(self, n, w, eps):
        fac = fourier_correction_factor(n, w, eps)
        b = prolate_dense(n, w)
        ff = fourier_projector_dense(PartialFourier(n, w))
        assert norm2(b - ff - factor_dense(fac)) <= eps
        assert fac.rank <= correction_rank_budget(n, eps)

    @pytest.mark.parametrize("n,eps", [(64, 1e-3), (2**16, 1e-6)])
    def test_one_basis_serves_both_taylor_blocks(self, n, eps):
        # both Taylor bases are (m/n)^j, which n fixes: the factor keeps z and the two coefficient matrices,
        # and the odd and the even terms read the leading columns of the one basis no array holds
        w = 0.25
        w_prime = nearest_odd_integer(2 * n * w) / (2 * n)
        odd, even = sinc_alias_factor(n, 7 * eps / 30), bandwidth_shift_factor(n, w, w_prime, 7 * eps / 30)
        fac = fourier_correction_factor(n, w, eps)
        z = fac.z
        assert isinstance(fac, FourierFactor) and fac.arrays == (z, fac.ca, fac.cb) and fac.n == n
        assert (odd.rank, even.rank) == taylor_widths(eps) and (odd.n, even.n) == (n, n)
        assert [np.array_equal(c, k.coeffs) for c, k in zip((fac.ca, fac.cb), (odd, even))] == [True, True]
        taylor = [t[0] for t in _FOURIER_TERMS if t[0] is not None]
        assert sorted(len((fac.ca, fac.cb)[t]) for t in taylor) == sorted([odd.rank] * 2 + [even.rank] * 2)
        assert fac.rank == 4 * z.shape[1] + 2 * odd.rank + 2 * even.rank

    def test_domain(self):
        with pytest.raises(ValueError):
            fourier_correction_factor(64, 0.25, 0.7)

    def test_widths_are_capped_where_factorials_leave_float_range(self):
        # the even block's last coefficient divides by rb!, and 171! overflows a float
        assert taylor_widths(1.1e-47) == (156, 169)
        for eps in (1.09e-47, 1e-50, 1e-300):
            with pytest.raises(ValueError, match="even Taylor block"):
                taylor_widths(eps)
            with pytest.raises(ValueError, match="even Taylor block"):
                fourier_correction_factor(64, 0.25, eps)
            with pytest.raises(ValueError, match="even Taylor block"):
                bandwidth_shift_factor(64, 0.25, 33 / 128, 7 * eps / 30)
        fac = fourier_correction_factor(64, 0.25, 1.1e-47)
        assert [len(fac.ca), len(fac.cb)] == [156, 169] and np.all(np.isfinite(fac.cb))


class TestProjectionCorrection:
    def test_empty_transition_set(self):
        n, w, eps = 64, 0.25, 0.49
        k = default_subspace_dim(n, w)
        if transition_window(n, w, eps, 1 - eps)[1].size == 0:
            u = projection_correction(n, w, eps, k)
            assert u.rank == 0
            b = prolate_dense(n, w)
            assert norm2(projection_oracle(n, w, k) - b) <= eps

    def test_dense_bound(self):
        n, w, eps = 256, 0.25, 1e-6
        u = projection_correction(n, w, eps, 128)
        b = prolate_dense(n, w)
        assert norm2(projection_oracle(n, w, 128) - (b + factor_dense(u))) <= eps

    def test_block_structure(self):
        # g keeps the below-split pairs (positive) and pushes the rest out (negative), in Slepian index order
        for n in (256, 257):
            k = default_subspace_dim(n, 0.25)
            start, lams, block = transition_window(n, 0.25, 1e-6, 1 - 1e-6)
            u = projection_correction(n, 0.25, 1e-6, k)
            n2 = k - start
            assert isinstance(u, SpectralFactor) and u.lead == start % 2
            assert np.all(u.weights[:n2] > 0) and np.all(u.weights[n2:] < 0)
            assert np.array_equal(u.weights, np.concatenate([1 - lams[:n2], -lams[n2:]]))
            # the block stands for the full-row V diag(g) V^T
            vecs = unfold(block, start + np.arange(lams.size), n)
            full = (vecs * u.weights) @ vecs.T
            assert np.abs(factor_dense(u) - full).max() <= 1e-15

    @pytest.mark.parametrize("n", [256, 257])
    def test_a_records_block_is_its_windows_columns(self, n):
        # one copy of the window: column-major, in a map of its own, its halves views of it
        k = default_subspace_dim(n, 0.25)
        start, _, block = transition_window(n, 0.25, 1e-6, 1 - 1e-6)
        u = projection_correction(n, 0.25, 1e-6, k)
        assert u.block.shape == ((n + 1) // 2, u.rank) and u.block.flags.f_contiguous
        assert np.array_equal(u.block, block) and not np.shares_memory(u.block, block)
        assert u.arrays == (u.weights, u.block)
        assert all(np.shares_memory(half, u.block) for half in u.halves if half.size)

    def test_a_warm_build_maps_only_its_record(self, mapped_bytes):
        # the window is a view of the plan's block: the record's block is the build's one copy of it
        n, w, eps = 2**14, 0.25, 1e-6
        dpss.slepian_plan.cache_clear()
        transition_window(n, w, eps, 1 - eps)
        before = mapped_bytes()
        u = projection_correction(n, w, eps, default_subspace_dim(n, w))
        assert u.rank > 0
        assert mapped_bytes() - before <= u.block.nbytes + 2**16


class TestPinvCorrection:
    def test_dense_bound(self):
        n, w, eps = 256, 0.25, 1e-6
        k = default_subspace_dim(n, w)
        u = pinv_correction(n, w, eps, k)
        b = prolate_dense(n, w)
        assert norm2(pinv_oracle(n, w, k) - (b + factor_dense(u))) <= 3 * eps

    def test_below_split_column_norms(self):
        n, w, eps = 256, 0.25, 1e-6
        k = default_subspace_dim(n, w)
        start, lams, _ = transition_window(n, w, eps, 1 - eps)
        u = pinv_correction(n, w, eps, k)
        lam2 = lams[:k - start]
        left, _ = factor_halves(u)
        got = np.sum(left[:, : lam2.size] ** 2, axis=0)
        assert np.allclose(got, 1 / lam2 - lam2, rtol=1e-10)

    def test_empty_transition_set(self):
        n, w, eps = 64, 0.25, 0.49
        k = default_subspace_dim(n, w)
        if transition_window(n, w, eps, 1 - eps)[1].size == 0:
            u = pinv_correction(n, w, eps, k)
            assert u.rank == 0
            b = prolate_dense(n, w)
            assert norm2(pinv_oracle(n, w, k) - b) <= 3 * eps


class TestTikhonovCorrection:
    def test_eigenvector_action(self):
        n, w, eps, alpha = 128, 0.25, 1e-6, 1e-2
        u = tikhonov_correction(n, w, eps, alpha)
        lams, vecs = eig_dense(n, w)
        b = prolate_dense(n, w)
        for j in (0, n // 2, n - 1):
            x = vecs[:, j]
            got = b @ x / (1 + alpha) + u.apply(x)
            want = lams[j] / (lams[j] ** 2 + alpha) * x
            assert np.linalg.norm(got - want) <= 2e-6

    def test_dense_bound(self):
        n, w, eps, alpha = 128, 0.25, 1e-6, 1e-2
        u = tikhonov_correction(n, w, eps, alpha)
        b = prolate_dense(n, w)
        assert norm2(tikhonov_oracle(n, w, alpha) - (b / (1 + alpha) + factor_dense(u))) <= eps

    def test_huge_alpha_empty_set(self):
        n, w, eps, alpha = 64, 0.25, 1e-3, 1e6
        u = tikhonov_correction(n, w, eps, alpha)
        assert u.rank == 0
        b = prolate_dense(n, w)
        assert norm2(tikhonov_oracle(n, w, alpha) - b / (1 + alpha)) <= eps

    def test_mild_slope_keeps_float64_path(self, monkeypatch):
        # alpha = 1e-2 caps the weight's slope near 100, so float64 quotients
        # suffice and the factor is the one the double-precision path builds
        def refuse(*args, **kwargs):
            raise AssertionError("extended-precision refinement taken")

        monkeypatch.setattr(lowrank, "refine_window", refuse)
        assert tikhonov_correction(512, 0.25, 1e-9, 1e-2).rank > 0

    @needs_extended
    @pytest.mark.parametrize("n,w", [(64, 0.25), (64, 1.0 / 16.0), (256, 0.25)])
    def test_low_edge_decided_on_refined_eigenvalues(self, n, w):
        # lo = 1e-17 sits below the float64 quotient noise; at (64, 1/4) the
        # float64 window drops an eigenvalue above it
        eps, alpha = 1e-9, 1e-8
        lams, _ = eig_extended(n, w)
        lo = alpha * (1 + alpha) * eps
        want = int(np.count_nonzero((lams > lo) & (lams < 1 - eps / 3)))
        assert tikhonov_correction(n, w, eps, alpha).rank == want

    def test_weights_nonnegative(self):
        u = tikhonov_correction(256, 0.25, 1e-6, 1e-2)
        assert np.all(np.isfinite(u.block))
        # symmetric factor: one block of leading halves without coefficient matrices, a nonnegative weight
        assert isinstance(u, SpectralFactor)
        assert np.all(u.weights >= 0)


class TestLowRankFactor:
    def test_apply_matches_dense(self, rng):
        # a spectral record, odd column first, and a modulated record with reversed halves and
        # coefficient matrices on one basis, on real and complex input, against the dense matrix
        # of their terms, at odd and even n
        def draw(shape, cplx):
            out = rng.standard_normal(shape)
            return out + 1j * rng.standard_normal(shape) if cplx else out

        factors = []
        for n in (15, 16):
            block = draw(((n + 1) // 2, 5), False)
            block[n // 2:, ::2] = 0.0  # the odd columns' middle row at odd n
            factors += [SpectralFactor(n, 1, block, draw(5, False)),
                        FourierFactor(0.2, draw((n, 3), False), draw((2, 2), False), draw((4, 4), False))]
        for f in factors:
            n = f.n
            left, right = factor_halves(f)
            for x_cplx in (False, True):
                x, c = draw(n, x_cplx), draw(f.rank, x_cplx)
                assert np.allclose(f.apply(x), (left @ right.conj().T) @ x)
                assert np.allclose(f.adjoint_apply(x), right.conj().T @ x)
                assert np.allclose(f.synthesize(c), left @ c)
            if isinstance(f, SpectralFactor):
                assert not np.iscomplexobj(f.apply(draw(n, False)))

    def test_zero_width(self, rng):
        for n in (1, 8, 9):
            f = SpectralFactor(n, 1, np.zeros(((n + 1) // 2, 0)), np.zeros(0))
            assert f.rank == 0
            for x in (rng.standard_normal(n), rng.standard_normal(n) + 1j):
                assert np.linalg.norm(f.apply(x)) == 0.0 and f.apply(x).shape == (n,)

    def test_shape_mismatch(self):
        two = np.zeros((2, 2))
        for n, lead, block, g in [
            (4, 0, two, np.zeros(3)),  # one weight per column
            (4, 0, two, np.zeros((1, 2))),
            (5, 0, two, np.zeros(2)),  # odd n: the block holds the middle row too
            (4, 0, np.zeros(2), np.zeros(2)),  # one 2-D block
            (4, 2, two, np.zeros(2)),  # a lead parity of 0 or 1
        ]:
            with pytest.raises(ValueError):
                SpectralFactor(n, lead, block, g)
        z, square = np.zeros((4, 1)), np.zeros((2, 2))
        for w, block, coefs in [
            (0.25, z, (np.zeros((2, 1)), square)),  # coefficient matrices are square
            (0.25, z, (square, np.zeros((3, 2)))),
            (0.25, np.zeros(4), (square, square)),  # z is one block of n rows
            (0.0, z, (square, square)),  # a half-bandwidth in (0, 1/2)
            (0.5, z, (square, square)),
        ]:
            with pytest.raises(ValueError):
                FourierFactor(w, block, *coefs)


    def test_wrong_inputs_raise(self, rng):
        # a FourierFactor cut an x of length n + 1 or n + 2 to its first n entries, a SpectralFactor dropped the
        # imaginary part of complex coefficients into a real out, and a FourierFactor into a real out failed in numpy
        n = 32
        spectral = projection_correction(n, 0.25, 1e-6, default_subspace_dim(n, 0.25))
        for f in (spectral, fourier_correction_factor(n, 0.25, 1e-6)):
            for size in (n - 1, n + 1, n + 2):
                for call in (f.apply, f.adjoint_apply):
                    with pytest.raises(ValueError, match=f"expected a length-{n} vector, got shape \\({size},\\)"):
                        call(rng.standard_normal(size))
            for size in (f.rank - 1, f.rank + 1):
                with pytest.raises(ValueError, match=f"expected {f.rank} coefficients, got shape \\({size},\\)"):
                    f.synthesize(rng.standard_normal(size))
            c = rng.standard_normal(f.rank) + 1j * rng.standard_normal(f.rank)
            for size in (n - 1, n + 1):
                with pytest.raises(ValueError, match=f"expected a length-{n} vector"):
                    f.synthesize(c, out=np.zeros(size, complex))
            real_out = np.zeros(n)
            for coef in (c, c.real) if isinstance(f, FourierFactor) else (c,):
                with pytest.raises(ValueError, match="expected a complex out"):
                    f.synthesize(coef, out=real_out)
            assert not real_out.any()
        # what stays valid: real coefficients into a real or a complex out of a spectral record
        c = rng.standard_normal(spectral.rank)
        assert np.array_equal(spectral.synthesize(c, out=np.zeros(n, complex)).real, spectral.synthesize(c))

    def test_holds_read_only_views(self, rng):
        # a factor cannot be changed through what it holds, and the caller's arrays keep their flags
        n = 16
        block, g, z, ca, cb = (rng.standard_normal(shape) for shape in ((8, 3), 3, (n, 2), (2, 2), (3, 3)))
        block, z = np.asfortranarray(block), np.asfortranarray(z)
        for f in (SpectralFactor(n, 0, block, g), FourierFactor(0.25, z, ca, cb)):
            assert not any(a.flags.writeable for a in f.arrays)
        assert all(a.flags.writeable for a in (block, g, z, ca, cb))


class TestFourierTiles:
    """The Fourier correction's products run over row tiles of z and of a Pascal-shifted local basis."""

    def test_each_factor_forms_its_tilings_once(self, monkeypatch, rng):
        # one module cache of two entries missed on every call once two factorizations took turns; at n = 300
        # both directions tile by n/4, so each factor forms one tiling
        formed = []
        tiling = lowrank._tiling
        monkeypatch.setattr(lowrank, "_tiling", lambda *args: formed.append(args) or tiling(*args))
        factors = [fourier_correction_factor(300, w, 1e-6) for w in (0.25, 1 / 16)]
        x = rng.standard_normal(300)
        for _ in range(5):
            for f in factors:
                f.apply(x)
        assert len(formed) == 2 and len(set(formed)) == 2

    @pytest.mark.parametrize("n, tilings", [(2**14, 1), (2**16, 2)])
    def test_directions_of_one_tile_length_share_a_tiling(self, n, tilings, rng):
        # up to n = 2^14 the analysis and the synthesis tiles are both n/4 rows long, and the two equal tilings
        # (1.08 MB each at 2^14) are one; a round trip gives the bytes of tilings formed per direction
        f = fourier_correction_factor(n, 0.25, 1e-6)
        width = max(len(f.ca), len(f.cb))
        per_direction = FourierFactor(f.w, f.z, f.ca, f.cb)
        per_direction._tiles = lambda cap: per_direction._tilings.setdefault(
            cap, lowrank._tiling(n, f.w, width, min(cap, max(64, n // 4), n)))
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got, want = (g.synthesize(g.adjoint_apply(x)) for g in (f, per_direction))
        assert len(f._tilings) == tilings and len(per_direction._tilings) == 2
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("tile", [64, 96])
    @pytest.mark.parametrize("tiles,rows", [(0, 1), (0, 2), (0, 3), (0, 81), (1, -1), (1, 0), (1, 1), (3, 5)])
    def test_tile_edges_match_dense(self, tile, tiles, rows, monkeypatch, rng):
        # a tile of L rows for both directions; n = tiles L + rows at the tile edges and across several tiles
        monkeypatch.setattr(lowrank, "_ANALYSIS_TILE", tile)
        monkeypatch.setattr(lowrank, "_SYNTHESIS_TILE", tile)
        n = tiles * tile + rows
        f = fourier_correction_factor(n, 0.2, 1e-6)
        dense, (left, right) = factor_dense(f), factor_halves(f)
        for cplx in (False, True):
            x = rng.standard_normal(n) + (1j * rng.standard_normal(n) if cplx else 0.0)
            c = rng.standard_normal(f.rank) + (1j * rng.standard_normal(f.rank) if cplx else 0.0)
            for got, want in ((f.apply(x), dense @ x), (f.adjoint_apply(x), right.conj().T @ x),
                              (f.synthesize(c), left @ c)):
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), (n, cplx)

    def test_synthesize_adds_into_out(self, rng):
        f = fourier_correction_factor(300, 0.25, 1e-6)
        c = rng.standard_normal(f.rank) + 1j * rng.standard_normal(f.rank)
        start = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        out = start.copy()
        assert f.synthesize(c, out=out) is out
        assert np.allclose(out, start + f.synthesize(c), rtol=0, atol=1e-14 * np.abs(out).max())

    @needs_extended
    @pytest.mark.parametrize("n", [2**14, 2**16])
    def test_exact_phases_hold_double_precision(self, n, rng):
        # phases from exactly reduced turns: no error that grows with n (the unreduced products read
        # 1.2e-12 at 2^14 and 8.0e-12 at 2^16) against the extended-precision terms
        f = fourier_correction_factor(n, 0.25, 1e-6)
        for cplx in (False, True):
            x = rng.standard_normal(n) + (1j * rng.standard_normal(n) if cplx else 0.0)
            c = rng.standard_normal(f.rank) + (1j * rng.standard_normal(f.rank) if cplx else 0.0)
            for got, want in ((f.synthesize(c), fourier_synthesis_extended(f, c)),
                              (f.adjoint_apply(x), fourier_analysis_extended(f, x))):
                assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want), (n, cplx)
