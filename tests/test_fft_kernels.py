import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from prolate.fft_kernels import (
    PartialFourier,
    ToeplitzOperator,
    nearest_odd_integer,
    prolate_column,
)

from oracles import (
    circulant_half_spectrum,
    dirichlet_projector_dense,
    fourier_columns_dense,
    fourier_projector_dense,
    needs_extended,
    norm2,
    prolate_dense,
    toeplitz_dense,
)


@pytest.mark.parametrize(
    "x,want",
    [(32.0, 33), (30.0, 31), (31.2, 31), (32.6, 33), (0.3, 1), (33.0, 33), (34.9, 35)],
)
def test_nearest_odd_integer(x, want):
    assert nearest_odd_integer(x) == want


def _sine_errors(col, w, offsets):
    """|col[m] pi m - sin(2 pi w m)| at each offset m, against a 40-digit mpmath sine."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        exact = [mpmath.sin(2 * mpmath.pi * mpmath.mpf(w) * int(m)) for m in offsets]
        return np.array([float(abs(mpmath.mpf(np.format_float_scientific(col[m], unique=True)) * mpmath.pi * int(m) - x))
                         for m, x in zip(offsets, exact)])


# offsets up to 2^16, where an unreduced float64 argument 2 pi w m is off by up to 1e-13
_LARGE_OFFSETS = np.random.default_rng(5).integers(2**15, 2**16, 40)


class TestProlateColumnExtended:
    """prolate_column in np.longdouble."""

    @needs_extended
    @pytest.mark.parametrize("w", [0.1, 1.0 / 3.0])
    def test_sines_reduced_from_the_exact_product(self, w):
        col = prolate_column(2**16, w, np.longdouble)
        assert _sine_errors(col, w, _LARGE_OFFSETS).max() <= 16 * np.finfo(np.longdouble).eps

    @pytest.mark.parametrize("w", [0.01, 0.25, 0.3, 0.49])
    def test_rounds_to_float64_symbol(self, w):
        col = prolate_column(300, w, np.longdouble)
        assert col.dtype == np.longdouble
        # both reduce w*m from its exact product: the float64 column is its rounding, to a few ulps
        assert np.max(np.abs(col.astype(float) - prolate_column(300, w))) <= 4e-16


class TestProlateSymbol:
    """prolate_column in float64, its default dtype."""

    @pytest.mark.parametrize("w", [0.1, 0.25, 1.0 / 3.0, 0.45])
    def test_sines_reduced_from_the_exact_product(self, w):
        col = prolate_column(2**16, w)
        assert col.dtype == np.float64
        assert _sine_errors(col, w, _LARGE_OFFSETS).max() <= 1e-15

    def test_diagonal_value(self):
        for w in (0.1, 0.25, 0.49):
            assert prolate_column(4, w)[0] == 2 * w
            assert prolate_column(4, w, np.longdouble)[0] == 2 * np.longdouble(w)

    def test_closed_form_entry(self):
        # sin(pi/2)/pi at offset one for w = 1/4
        for dtype in (np.float64, np.longdouble):
            assert prolate_column(2, 0.25, dtype)[1] == pytest.approx(1.0 / math.pi, abs=1e-15)

    def test_matches_entrywise_formula(self):
        got = toeplitz_dense(prolate_column(64, 0.25))
        assert np.abs(got - prolate_dense(64, 0.25)).max() < 1e-15

    def test_bounded_by_diagonal(self):
        for n, w in [(16, 0.1), (64, 0.25), (33, 0.47)]:
            for dtype in (np.float64, np.longdouble):
                col = prolate_column(n, w, dtype)
                assert col.shape == (n,) and np.all(np.abs(col) <= 2 * w + 1e-15)

    def test_rejects_bad_domain(self):
        for dtype in (np.float64, np.longdouble):
            with pytest.raises(ValueError):
                prolate_column(0, 0.25, dtype)
            for w in (0.0, 0.5, -0.1, 0.7):
                with pytest.raises(ValueError):
                    prolate_column(8, w, dtype)


class TestToeplitzOperator:
    def test_identity_symbol(self, rng):
        col = np.zeros(16)
        col[0] = 1.0
        op = ToeplitzOperator(col)
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        assert np.linalg.norm(op.apply(x) - x) < 1e-14

    def test_rejects_bad_column(self):
        for col in (np.zeros(0), np.zeros((2, 2)), np.array([1.0, np.nan]), np.array([np.inf])):
            with pytest.raises(ValueError):
                ToeplitzOperator(col)

    def test_two_by_two_prolate(self):
        op = ToeplitzOperator(prolate_column(2, 0.25))
        got = op.apply(np.array([1.0, 0.0]))
        assert got[0].real == pytest.approx(0.5, abs=1e-15)
        assert got[1].real == pytest.approx(1.0 / math.pi, abs=1e-15)

    def test_matches_dense_multiply(self, rng):
        col = prolate_column(128, 0.25)
        op = ToeplitzOperator(col)
        x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        dense = toeplitz_dense(col)
        assert np.linalg.norm(op.apply(x) - dense @ x) <= 1e-12 * np.linalg.norm(x)

    @pytest.mark.parametrize("n", [3, 17, 64, 257, 1024])
    def test_dense_agreement_grid(self, n, rng):
        col = prolate_column(n, 0.21)
        op = ToeplitzOperator(col)
        dense = toeplitz_dense(col)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.linalg.norm(op.apply(x) - dense @ x) <= 1e-10 * np.linalg.norm(x)

    def test_apply_block_matches_apply(self, rng):
        op = ToeplitzOperator(prolate_column(48, 0.3))
        block = rng.standard_normal((48, 5))
        # row-major, and column-major as the transition window passes it
        for x in (block, np.asfortranarray(block)):
            got = op.apply_block(x)
            assert got.shape == (48, 5)
            for j in range(5):
                assert np.linalg.norm(got[:, j] - op.apply(block[:, j])) < 1e-13

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_half_spectrum_owns_its_values(self, dtype):
        # the real part of the complex transform as a view kept the whole transform alive, twice the bytes; the
        # applies' stack is the one copy: L values, at n = 1000 L = 2000
        spec = ToeplitzOperator(prolate_column(1000, 0.25, dtype))._spectra
        assert spec.flags.owndata and spec.flags.c_contiguous and spec.base is None
        assert spec.dtype == dtype and spec.nbytes == np.dtype(dtype).itemsize * 2000
        # the DCT-I of the padded column is the embedded circulant's spectrum, to the last bit, at every length
        for n in (1, 2, 3, 5, 64, 65, 100, 129, 255, 256, 257, 1000, 1025, 4095):
            col = prolate_column(n, 0.3, dtype)
            op = ToeplitzOperator(col)
            m, want = op.fft_len // 2, circulant_half_spectrum(col, op.fft_len)
            assert np.array_equal(op._spectra, np.stack([want[:m], want[m:0:-1]])[:, None] / (2 * op.fft_len)), n

    @needs_extended
    def test_keeps_a_float_columns_precision(self, rng):
        # float64 stays float64, a longdouble column applies in longdouble, and any other column becomes float64
        assert ToeplitzOperator(prolate_column(8, 0.25))._spectra.dtype == np.float64
        assert ToeplitzOperator([1, 0, 0])._spectra.dtype == np.float64
        col = prolate_column(64, 0.3, np.longdouble)
        op = ToeplitzOperator(col)
        assert op._spectra.dtype == np.longdouble
        x = rng.standard_normal((64, 3)).astype(np.longdouble)
        got = op.apply_block(x)
        dense = col[np.abs(np.subtract.outer(np.arange(64), np.arange(64)))]
        assert got.dtype == np.longdouble
        assert np.abs(got - dense @ x).max() <= 64 * np.finfo(np.longdouble).eps * np.abs(x).max()

    def test_real_path_matches_complex_path(self, rng):
        col = prolate_column(257, 0.23)
        op = ToeplitzOperator(col)
        x = rng.standard_normal(257)
        real_out = op.apply_real(x)
        assert not np.iscomplexobj(real_out)
        out = op.apply(x)
        assert not np.iscomplexobj(out) and np.array_equal(out, real_out)
        # complex input is the same kernel on its real and imaginary parts, to the last bit
        for n in (1, 2, 256, 257):
            other = ToeplitzOperator(prolate_column(n, 0.23))
            a, b = rng.standard_normal(n), rng.standard_normal(n)
            assert np.array_equal(other.apply(a + 1j * b), other.apply_real(a) + 1j * other.apply_real(b)), n
        assert np.linalg.norm(real_out - toeplitz_dense(col) @ x) <= 1e-12 * np.linalg.norm(x)
        # an input narrower than the column is transformed in the column's precision
        x32 = x.astype(np.float32)
        assert op.apply(x32).dtype == np.float64 and np.array_equal(op.apply(x32), op.apply(x32.astype(float)))

    def test_real_path_rejects_complex(self):
        op = ToeplitzOperator(prolate_column(8, 0.25))
        with pytest.raises(ValueError):
            op.apply_real(np.zeros(8, dtype=complex))
        with pytest.raises(ValueError):
            op.apply_block(np.zeros((8, 2), dtype=complex))

    def test_dimension_mismatch(self):
        op = ToeplitzOperator(prolate_column(8, 0.25))
        with pytest.raises(ValueError):
            op.apply(np.zeros(9))
        with pytest.raises(ValueError):
            op.apply_real(np.zeros(9))
        for block in (np.zeros((9, 2)), np.zeros(8)):
            with pytest.raises(ValueError, match=r"expected an \(8, m\) block, got shape"):
                op.apply_block(block)

    def test_embedding_length(self):
        # twice n rounded up to even and then to a 2-3-5-smooth length: each half about the centre, an odd n's
        # padded by one zero, fits in L/2, and a power of two n keeps L = 2n
        for n, length in ((1, 4), (2, 4), (3, 8), (4, 8), (5, 12), (13, 30), (100, 200), (128, 256), (129, 270),
                          (2**16, 2**17), (2**16 + 1, 131220), (81920, 163840), (98304, 196608)):
            assert ToeplitzOperator.embedding_length(n) == length, n
            if n <= 2**10:
                assert ToeplitzOperator(np.ones(n)).fft_len == length, n

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    @pytest.mark.parametrize("w", [0.02, 0.25, 1.0 / 3.0, 0.45])
    def test_parity_halves_match_dense(self, w, dtype, rng):
        # the reference sums pairwise: a longdouble matmul's sequential sums are off by up to 14 eps max|x| at
        # n = 4096.  Worst measured error in units of eps max|x|, over every n and w here and three seeds: 3.2 in
        # float64, 3.1 in longdouble
        bound = 16 * np.finfo(dtype).eps
        for n in [*range(1, 41), 255, 256, 257, 1000, 4095, 4096, 2**14 + 1]:
            col = prolate_column(n, w, dtype)
            op = ToeplitzOperator(col)
            # beyond n = 1000, rows at both ends, about the centre and at random
            rows = np.arange(n) if n <= 1000 else np.unique(
                np.r_[0:8, n // 2 - 4:n // 2 + 4, n - 8:n, rng.integers(0, n, 24)])
            dense = toeplitz_dense(col, rows)
            x = rng.standard_normal((n, 3)).astype(dtype)
            z = x[:, 0] + 1j * x[:, 1]
            block = np.stack([np.sum(dense * v, axis=1) for v in x.T], axis=1)
            for label, got, want in (("real", op.apply_real(x[:, 0]), block[:, 0]),
                                     ("complex", op.apply(z), np.sum(dense * z, axis=1)),
                                     ("block", op.apply_block(x), block),
                                     ("column-major block", op.apply_block(np.asfortranarray(x)), block)):
                assert got.dtype == want.dtype and got.shape == (n,) + want.shape[1:], (n, label)
                err = np.abs(got[rows] - want).max()
                assert err <= bound * np.abs(x).max(), (n, label, err / np.finfo(dtype).eps)

    def test_apply_allocates_a_few_vectors(self, rng):
        # traced bytes of one apply in n doubles at n = 2^14 = L/2, its output included: the stacked halves (two
        # per real row) and the output read 3.0 for real x and 6.0 for complex x; the rfft pair read 4.0 and 7.0
        n = 2**14
        op = ToeplitzOperator(prolate_column(n, 0.25))
        x = rng.standard_normal(n)
        for v, bound in ((x, 3.5), (x + 1j * rng.standard_normal(n), 6.5)):
            op.apply(v)
            tracemalloc.start()
            try:
                op.apply(v)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * 8 * n, (v.dtype, peak / (8 * n))

    def test_shared_across_threads(self, rng):
        # two threads applying one operator get the sequential results, to the last bit
        n = 4096
        op = ToeplitzOperator(prolate_column(n, 0.25))
        x, y, block = rng.standard_normal(n), rng.standard_normal(n), rng.standard_normal((n, 4))
        calls = (lambda: op.apply_real(x), lambda: op.apply(x + 1j * y), lambda: op.apply_block(block))
        want = [call() for call in calls]
        agreed = [[], []]

        def run(out):
            for _ in range(50):
                out.append(all(np.array_equal(call(), w) for call, w in zip(calls, want)))

        threads = [threading.Thread(target=run, args=(out,)) for out in agreed]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert agreed == [[True] * 50] * 2

    def test_linearity(self, rng):
        op = ToeplitzOperator(prolate_column(64, 0.25))
        x, y = rng.standard_normal(64), rng.standard_normal(64)
        lhs = op.apply(2.5 * x - 1.25 * y)
        rhs = 2.5 * op.apply(x) - 1.25 * op.apply(y)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * (np.linalg.norm(x) + np.linalg.norm(y))


class TestPartialFourier:
    def test_column_count_is_nearest_odd(self):
        pf = PartialFourier(64, 0.25)
        assert pf.num_cols == 33  # 2nw = 32, tie rounds up
        assert pf.num_cols == 2 * 64 * pf.w_prime
        pf = PartialFourier(64, 0.2)
        assert pf.num_cols == 25  # 2nw = 25.6

    def test_odd_count_invariant(self):
        # fl(2n w) <= n for w < 1/2, so the count never passes n: at the widest w, every n <= 5000 and 2^k +- 3
        # for k < 80, which float(n) rounds beyond 2^53
        widest = float(np.nextafter(0.5, 0.0))
        cases = [(17, 0.3), (64, 1 / 16), (101, 0.49), (6, 0.05)]
        cases += [(n, widest) for n in [*range(1, 5001), *(2**k + d for k in range(2, 80) for d in (-3, 3))]]
        for n, w in cases:
            pf = PartialFourier(n, w)
            assert pf.num_cols % 2 == 1
            assert 1 <= pf.num_cols <= n

    def test_adjoint_zero(self):
        pf = PartialFourier(32, 0.25)
        assert np.linalg.norm(pf.adjoint(np.zeros(32))) == 0.0

    def test_adjoint_on_own_columns(self):
        pf = PartialFourier(64, 0.25)
        cols = fourier_columns_dense(pf)
        for j in (0, 16, 32):
            got = pf.adjoint(cols[:, j])
            want = np.zeros(pf.num_cols)
            want[j] = 1.0
            assert np.linalg.norm(got - want) <= 1e-12

    def test_adjoint_matches_dense(self, rng):
        for n in (64, 81, 257):
            pf = PartialFourier(n, 0.25)
            cols = fourier_columns_dense(pf)
            x = rng.standard_normal(n)
            for x in (x, x + 1j * rng.standard_normal(n)):
                assert np.linalg.norm(pf.adjoint(x) - cols.conj().T @ x) <= 1e-12 * np.linalg.norm(x)

    def test_apply_zero(self):
        pf = PartialFourier(32, 0.25)
        assert np.linalg.norm(pf.apply(np.zeros(pf.num_cols, dtype=complex))) == 0.0

    def test_apply_matches_dense(self, rng):
        for n in (64, 81, 257):
            pf = PartialFourier(n, 0.25)
            cols = fourier_columns_dense(pf)
            c = rng.standard_normal(pf.num_cols) + 1j * rng.standard_normal(pf.num_cols)
            assert np.linalg.norm(pf.apply(c) - cols @ c) <= 1e-12 * np.linalg.norm(c)

    def test_projector_idempotent_and_hermitian(self):
        for n, w in [(64, 0.25), (256, 0.25), (100, 0.13)]:
            ff = fourier_projector_dense(PartialFourier(n, w))
            assert norm2(ff @ ff - ff) <= 1e-10
            assert norm2(ff - ff.conj().T) <= 1e-12

    def test_projection_idempotent_fast_path(self, rng):
        pf = PartialFourier(64, 0.25)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        once = pf.apply(pf.adjoint(x))
        twice = pf.apply(pf.adjoint(once))
        assert np.linalg.norm(twice - once) <= 1e-12 * np.linalg.norm(x)

    def test_trace_counts_columns(self):
        for n, w in [(64, 0.25), (128, 1 / 16)]:
            pf = PartialFourier(n, w)
            tr = float(np.trace(fourier_projector_dense(pf)).real)
            assert tr == pytest.approx(pf.num_cols, rel=1e-8)

    def test_projector_matches_dirichlet_formula(self):
        pf = PartialFourier(32, 0.25)
        got = fourier_projector_dense(pf)
        want = dirichlet_projector_dense(32, pf.w_prime)
        assert np.abs(got.real - want).max() <= 1e-12
        assert np.abs(got.imag).max() <= 1e-12

    def test_dimension_mismatch(self):
        pf = PartialFourier(32, 0.25)
        with pytest.raises(ValueError):
            pf.adjoint(np.zeros(31))
        with pytest.raises(ValueError):
            pf.apply(np.zeros(pf.num_cols + 1))
