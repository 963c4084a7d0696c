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
    hilbert_rank,
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
    fourier_correction_eight_terms,
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
from strategies import hilbert_rank_step


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

    def test_landen_descent_stops_where_c_stops_shrinking(self):
        # c = (a - b) / 2 stalled at half an ulp of a (1.39e-17, a = 0.13) above the old stop |c| <= 1e-17 a, and
        # the sequence ran to its cap of 64 for 1,207 of these n
        ns = list(range(2, 5001)) + [2**p + d for p in range(13, 21) for d in (-1, 0, 1)]
        assert max(len(lowrank._agm_sequence((0.5 / (n - 0.5)) ** 2)[0]) for n in ns) <= 12

    def test_jacobi_dn_at_modulus_zero_is_one(self):
        # m = 0 takes no Landen step: dn(u | 0) = 1
        u = np.linspace(-3.0, 3.0, 7)
        assert np.array_equal(jacobi_dn(u, 1.0), np.ones_like(u))

    def test_jacobi_dn_rejects_a_complementary_parameter_outside_the_unit_interval(self):
        for one_minus_m in (0.0, -0.5, 1.5, math.nan):
            with pytest.raises(ValueError, match=r"complementary parameter must lie in \(0, 1\]"):
                jacobi_dn(0.5, one_minus_m)

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

    @pytest.mark.parametrize("n", [1024, 2**14])
    @pytest.mark.parametrize("eps", [1e-6, 1e-9])
    def test_in_place_columns_are_the_recurrence_bit_for_bit(self, n, eps):
        # each column is formed in its row through one workspace, in the recurrence's order of operations
        a, b = np.arange(n) + 0.5, np.ones(n)
        p = adi_shifts(0.5, n - 0.5, adi_rank(2 * n - 1, 4 * eps / 15))
        want = [math.sqrt(2.0 * p[0]) / (a + p[0]) * b]
        for k in range(1, p.size):
            want.append(math.sqrt(p[k] / p[k - 1]) * (a - p[k - 1]) / (a + p[k]) * want[-1])
        assert np.array_equal(cfadi_solve(a, b, p), np.array(want).T)

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
        [(64, 0.25, 1e-3), (64, 1 / 16, 1e-6), (256, 0.25, 1e-9), (256, 1 / 16, 1e-9), (300, 0.37, 1e-3)],
    )
    def test_certified_bound_and_rank(self, n, w, eps):
        # at (300, 0.37) the float 2nw is 222.0, a tie rounded up to q = 223, while the exact 2nw lies just below
        # 222: an oracle that took q from the exact w read 411 eps here
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
        assert [len((fac.ca, fac.cb)[t]) for t in taylor] == [odd.rank, even.rank]
        assert fac.rank == 4 * z.shape[1] + 2 * odd.rank + 2 * even.rank

    @pytest.mark.parametrize("n,w,eps", [(256, 0.25, 1e-6), (257, 0.1, 1e-9), (300, 0.37, 1e-3), (999, 0.2, 1e-6),
                                         (1000, 0.25, 1e-9)])
    def test_four_real_terms_are_the_eight_complex_ones(self, n, w, eps):
        # twice the real part of one member of each conjugate pair is the pair: the factor's four real terms
        # against the eight complex outer products, both built densely from z, ca, cb and the exact phases; the
        # local phase table holds cos and sin of each step once
        f = fourier_correction_factor(n, w, eps)
        assert len(_FOURIER_TERMS) == 4 and len(f._tiles[3]) == 4
        reference = fourier_correction_eight_terms(f)
        assert np.abs(reference.imag).max() <= 1e-15
        assert norm2(factor_dense(f) - reference.real) <= 1e-15

    def test_domain(self):
        with pytest.raises(ValueError):
            fourier_correction_factor(64, 0.25, 0.7)

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 1025, 2**16])
    def test_hilbert_rank_counts_the_columns_it_builds(self, n):
        # the FSLT loader caps a factorization's rebuild by hilbert_rank before building anything; here on
        # either side of two steps of adi_rank's ceiling too, where 4 eps / 15 and the factor's (4 pi / 15) eps / pi
        # round apart about once in six steps
        eps = [0.49, 1e-3, 1e-9, 1e-20, 1e-40]
        for r in (hilbert_rank(n, 1e-6), hilbert_rank(n, 1e-30)):
            step = hilbert_rank_step(n, r)
            eps += [step, float(np.nextafter(step, 0.0))]
        for e in eps:
            assert hilbert_rank(n, e) == fourier_correction_factor(n, 0.25, e).z.shape[1], e

    def test_a_tolerance_whose_taylor_share_is_subnormal_is_refused(self):
        with pytest.raises(ValueError, match="7/30 of it a normal float, got 1e-308"):
            taylor_widths(1e-308)

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
        # the window itself, no copy of it: a column-major view of the plan's block, its halves views of it
        k = default_subspace_dim(n, 0.25)
        start, _, block = transition_window(n, 0.25, 1e-6, 1 - 1e-6)
        u = projection_correction(n, 0.25, 1e-6, k)
        assert u.block.shape == ((n + 1) // 2, u.rank) and u.block.flags.f_contiguous
        assert np.array_equal(u.block, block) and np.shares_memory(u.block, block)
        assert u.arrays == (u.weights, u.block)
        assert all(np.shares_memory(half, u.block) for half in u.halves if half.size)

    def test_a_warm_build_maps_only_its_record(self, mapped_bytes):
        # the window is a view of the plan's block, and the record keeps that view: a warm build copies no column
        n, w, eps = 2**14, 0.25, 1e-6
        dpss.slepian_plan.cache_clear()
        transition_window(n, w, eps, 1 - eps)
        before = mapped_bytes()
        u = projection_correction(n, w, eps, default_subspace_dim(n, w))
        assert u.rank > 0
        assert mapped_bytes() - before <= 2**16


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

    def test_weight_is_never_negative_on_the_unit_interval(self):
        # rounding is monotone, so fl(lam^2 + alpha) <= fl(1 + alpha) and the difference of the two quotients is
        # +0 or more: lam linear, log-spaced down to 1e-320 and up to 1 - 1e-17, alpha from 5e-324 to 1.7e308
        lams = np.concatenate([np.linspace(0.0, 1.0, 20001), np.logspace(-320, 0, 20000),
                               1.0 - np.logspace(-17, -1, 20000)])
        for alpha in [5e-324, 1e-300, 1e-200, 1e-100, *np.logspace(-30, 30, 13), 1e100, 1e300, 1.7e308]:
            weights = lowrank._tikhonov_weight(lams, alpha)
            assert weights.min() == 0.0 and not np.signbit(weights).any(), alpha


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
            # real in, real out for both kinds
            x, c = draw(n, False), draw(f.rank, False)
            assert [np.iscomplexobj(y) for y in (f.apply(x), f.adjoint_apply(x), f.synthesize(c))] == [False] * 3

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
        # a FourierFactor cut an x of length n + 1 or n + 2 to its first n entries, and a SpectralFactor dropped the
        # imaginary part of complex coefficients into a real out; complex coefficients into a real out raise for
        # both kinds, real ones into a real out are valid for both
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
            with pytest.raises(ValueError, match="expected a complex out"):
                f.synthesize(c, out=real_out)
            assert not real_out.any()
            # what stays valid: real coefficients into a real or a complex out
            assert f.synthesize(c.real, out=real_out) is real_out
            assert np.array_equal(f.synthesize(c.real, out=np.zeros(n, complex)).real, real_out)
            assert np.array_equal(f.synthesize(c.real), real_out)

    def test_synthesize_adds_through_views_of_out(self, rng):
        # each core adds c's real rows into views of out: a strided complex out receives exactly the sum a fresh
        # out gets, and real c leaves a complex out's imaginary part as it was, for both kinds
        n = 32
        spectral = projection_correction(n, 0.25, 1e-6, default_subspace_dim(n, 0.25))
        for f in (spectral, fourier_correction_factor(n, 0.25, 1e-6)):
            c = rng.standard_normal(f.rank) + 1j * rng.standard_normal(f.rank)
            buffer = np.zeros(2 * n, complex)
            assert f.synthesize(c, out=buffer[::2]).base is buffer
            assert np.array_equal(buffer[::2], f.synthesize(c)) and not buffer[1::2].any()
            start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            out = start.copy()
            f.synthesize(c.real, out=out)
            assert np.array_equal(out.imag, start.imag)
            assert np.allclose(out.real, start.real + f.synthesize(c.real), rtol=0, atol=1e-14 * np.abs(out).max())

    def test_holds_read_only_views(self, rng):
        # a factor cannot be changed through what it holds, and the caller's arrays keep their flags
        n = 16
        block, g, z, ca, cb = (rng.standard_normal(shape) for shape in ((8, 3), 3, (n, 2), (2, 2), (3, 3)))
        block, z = np.asfortranarray(block), np.asfortranarray(z)
        for f in (SpectralFactor(n, 0, block, g), FourierFactor(0.25, z, ca, cb)):
            assert not any(a.flags.writeable for a in f.arrays)
        assert all(a.flags.writeable for a in (block, g, z, ca, cb))


def _assert_products_match_dense(f, rng):
    """f's apply, adjoint_apply and synthesize on real and complex input, each within 1e-13 of the dense factor."""
    n, dense, (left, right) = f.n, factor_dense(f), factor_halves(f)
    for cplx in (False, True):
        x = rng.standard_normal(n) + (1j * rng.standard_normal(n) if cplx else 0.0)
        c = rng.standard_normal(f.rank) + (1j * rng.standard_normal(f.rank) if cplx else 0.0)
        for got, want in ((f.apply(x), dense @ x), (f.adjoint_apply(x), right.conj().T @ x),
                          (f.synthesize(c), left @ c)):
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), (n, cplx)


class TestFourierTiles:
    """The Fourier correction's products run over row tiles of z and of a Pascal-shifted local basis."""

    def test_each_factor_forms_its_tilings_once(self, monkeypatch, rng):
        # one module cache of two entries missed on every call once two factorizations took turns
        formed = []
        tiling = lowrank._tiling
        monkeypatch.setattr(lowrank, "_tiling", lambda *args: formed.append(args) or tiling(*args))
        factors = [fourier_correction_factor(300, w, 1e-6) for w in (0.25, 1 / 16)]
        x = rng.standard_normal(300)
        for _ in range(5):
            for f in factors:
                f.apply(x)
        assert len(formed) == 2 and len(set(formed)) == 2

    @pytest.mark.parametrize("n", [2**14, 2**16])
    def test_a_factor_forms_exactly_one_tiling(self, n, monkeypatch, rng):
        # both directions tile by 4096 rows; a copy whose synthesis tiles by n/4 rows, as it once did (a second
        # tiling of 3.8 MB at 2^16, one tiling at 2^14), gives the same round trip to rounding
        f = fourier_correction_factor(n, 0.25, 1e-6)
        formed, tiling = [], lowrank._tiling
        monkeypatch.setattr(lowrank, "_tiling", lambda *args: formed.append(args[3]) or tiling(*args))
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got = f.synthesize(f.adjoint_apply(x))
        f.apply(x)
        assert formed == [4096]
        analysis, synthesis = (FourierFactor(f.w, f.z, f.ca, f.cb) for _ in range(2))
        analysis._tiles, synthesis._tiles = (tiling(n, f.w, max(len(f.ca), len(f.cb)), t) for t in (4096, n // 4))
        want = synthesis.synthesize(analysis.adjoint_apply(x))
        assert np.abs(got - want).max() <= 2e-16 * np.abs(want).max()

    @pytest.mark.parametrize("tile", [64, 96])
    @pytest.mark.parametrize("tiles,rows", [(0, 1), (0, 2), (0, 3), (0, 81), (1, -1), (1, 0), (1, 1), (3, 5)])
    def test_tile_edges_match_dense(self, tile, tiles, rows, monkeypatch, rng):
        # a tile of L rows; n = tiles L + rows at the tile edges and across several tiles
        monkeypatch.setattr(lowrank, "_TILE", tile)
        _assert_products_match_dense(fourier_correction_factor(tiles * tile + rows, 0.2, 1e-6), rng)

    @pytest.mark.parametrize("n,w,eps", [(300, 0.37, 1e-3), (257, 0.1, 1e-9)])
    def test_products_match_dense_across_bandwidths(self, n, w, eps, rng):
        # (300, 0.37): the float 2nw is the even 222.0 and the factor takes q = 223, the exact 2nw lies just below
        # 222; the dense factor of an oracle that took q = 221 from the exact w stood 0.41 (2-norm) away from it
        _assert_products_match_dense(fourier_correction_factor(n, w, eps), rng)

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
