import dataclasses
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

from prolate import dpss
from prolate.dpss import FULL_BASIS_MAX_N, unfold
from prolate.fourier_ext import (
    FourierExtensionConfig,
    SyntheticTarget,
    _exact_pairs,
    _grid_blocks,
    _quad_coeffs,
    _reconstruct,
    run_fourier_extension,
)
from prolate.lowrank import SpectralFactor

from oracles import (
    eigvals_dense,
    factor_dense,
    grid_spectrum_sampled,
    needs_extended,
    norm2,
    pinv_oracle,
    tikhonov_oracle,
)

U = np.finfo(float).eps

# rel_rms rows for m_values=(16, 40), seed 3, computed with the target sampled
# node by node and a dense reconstruction basis; the blocked grid sums may
# move them by rounding only
PINNED_ROWS = {
    (16, "fourier"): 0.2058093932012574,
    (16, "ext_exact_pinv"): 0.13757261018049396,
    (16, "ext_fast_pinv"): 0.13757261018335462,
    (16, "ext_exact_tik"): 0.1358277964437912,
    (16, "ext_fast_tik"): 0.13582779644364265,
    (40, "fourier"): 0.11682546816760647,
    (40, "ext_exact_pinv"): 0.06705438230815897,
    (40, "ext_fast_pinv"): 0.06705438233500868,
    (40, "ext_exact_tik"): 0.06694258699828695,
    (40, "ext_fast_tik"): 0.06694258699819747,
}


def small_target(seed=3, n_bumps=5):
    """SyntheticTarget.draw's target with n_bumps bumps in place of its 500, drawn in the same order."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return SyntheticTarget(slope=5.0, offset=0.0, amps=rng.uniform(-1.0, 1.0, n_bumps),
                           centers=rng.uniform(-1.0, 1.0, n_bumps), widths=rng.uniform(1e-3, 1e-1, n_bumps))


def constant_target(value):
    return dataclasses.replace(SyntheticTarget.constant(), offset=value)


def assert_matches_sampled_fft(target, start, step, count, q, m_max):
    """spectrum_on_grid within rounding of the FFT of the target sampled node by node, in units of U."""
    got = target.spectrum_on_grid(start, step, count, q, m_max)
    want = grid_spectrum_sampled(target, start, step, count, q, m_max)
    assert got.shape == (m_max + 1,)
    # the FFT's rounding, about log2 q units of the samples' l1 norm; a geometric series' rounding, a few units of
    # its untruncated sum 2|a| (w / step + 1); and node rounding, which moves a bump's exponents by u |t - c| / w
    reach = abs(start) + step * count
    untruncated = 2.0 * np.abs(target.amps) * (target.widths / step + 1.0)
    on_grid = np.minimum(untruncated, count * np.abs(target.amps))
    l1 = count * (abs(target.offset) + abs(target.slope) * reach) + on_grid.sum()
    tol = 8 * U * ((math.log2(q) + 2) * l1
                   + np.sum(untruncated + on_grid * (reach + np.abs(target.centers)) / target.widths))
    # and underflow, which no relative term covers: each product or quotient may add |eta| <= 2^-1075 (Higham,
    # Accuracy and Stability, 2nd ed., section 2.1), per sample and butterfly on the FFT's side and per frequency
    # and series on the closed form's, whose quotients by 1 - z (|1 - z| >= 4 m / q) magnify it up to q^2 / 16
    bumps = target.amps.size
    sampled_ops = count * (3 * bumps + 2) + 2 * q * (math.log2(q) + 1)
    closed_ops = (m_max + 1) * 16 * (bumps + 1) * (1 + q * q / 16)
    tol += (sampled_ops + closed_ops) / 2 * 2.0**-1074  # 2.0**-1075 itself rounds to zero
    assert np.abs(got - want).max() <= tol


class TestQuadrature:
    @pytest.mark.parametrize("half_period", [1.0, 1.5])
    def test_against_adaptive_quadrature(self, half_period):
        # trapezoid-quadrature coefficients vs scipy adaptive integration of the
        # same integrand; q matches the production length scale, where the
        # trapezoid error of the kinked target sits below 1e-8
        target = small_target()
        q = 1 << 18
        m_max = 6
        f_at_1 = float(target(np.array([1.0]))[0])
        got = _quad_coeffs(target, q, m_max, half_period, f_at_1)
        scale = 1.0 / math.sqrt(2 * half_period)
        for m in (-m_max, -1, 0, 2, m_max):
            re, _ = scipy.integrate.quad(
                lambda t: target(np.array([t]))[0] * math.cos(math.pi * m * t / half_period),
                -1, 1, limit=400)
            im, _ = scipy.integrate.quad(
                lambda t: -target(np.array([t]))[0] * math.sin(math.pi * m * t / half_period),
                -1, 1, limit=400)
            want = scale * complex(re, im)
            assert abs(got[m + m_max] - want) <= 5e-7 * max(1.0, abs(want))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_closed_form_sums_match_sampled_fft(self, data):
        # the closed-form grid sums against the FFT of the target sampled node by node; q runs from count to
        # 2 count, as on the quadrature grids (count = q at period 2, 2q/3 + 1 at period 3)
        count = data.draw(st.sampled_from([1, 2, 3, 1 << 12]) | st.integers(1, 1 << 12), label="count")
        q = data.draw(st.integers(count, 2 * count) | st.just(1 << (count - 1).bit_length()), label="q")
        m_max = data.draw(st.integers(0, min(q // 2, 100)), label="m_max")
        start = data.draw(st.floats(-2.0, 1.0), label="start")
        step = data.draw(st.floats(1e-7, 4.0 / count), label="step")  # step / w down to 1e-6, as at q = 2^22
        last = count - 1
        # centers on nodes, in the cells of J = -1 and J = last (one side of the bump empty), beyond [-1, 1], in it
        node = st.integers(-1, count).map(lambda j: start + step * j)
        cell = st.sampled_from([-1, last]).flatmap(
            lambda j: st.floats(0.0, 1.0, exclude_max=True).map(lambda u: start + step * (j + u)))
        outside = st.floats(1.0, 3.0, exclude_min=True) | st.floats(-3.0, -1.0, exclude_max=True)
        k = 0 if data.draw(st.booleans(), label="constant") else data.draw(st.integers(0, 8), label="bumps")
        target = SyntheticTarget(
            slope=0.0 if k == 0 else data.draw(st.floats(-5.0, 5.0), label="slope"),
            offset=data.draw(st.floats(-2.0, 2.0), label="offset"),
            amps=np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=k, max_size=k), label="amps")),
            centers=np.array(data.draw(st.lists(node | cell | outside | st.floats(-1.0, 1.0), min_size=k,
                                                max_size=k), label="centers")),
            widths=np.array(data.draw(st.lists(st.sampled_from([1e-3, 1e-1]) | st.floats(1e-3, 1e-1),
                                               min_size=k, max_size=k), label="widths")),
        )
        assert_matches_sampled_fft(target, start, step, count, q, m_max)

    @pytest.mark.parametrize("m_max", [1, 3, 8, 9, 80])
    def test_closed_form_sums_at_the_edges_of_the_turn_tables(self, m_max):
        # z^{jm} is z^{jBa} z^{jb} with m = a B + b, B = isqrt(m_max) + 1: the tables end on m_max at 1, 3, 8 and 80
        # and run past it at 9; bumps sit in the cells of J = -1 and J = last (each with one empty side), on a node
        # and beyond the grid, as on the m = 40 extension grid, and 250 more make three passes of bumps at m_max = 80
        q = 1 << 13
        step, count = 3.0 / q, int(2.0 / (3.0 / q)) + 1
        last = count - 1
        edges = [-1.0 - 0.5 * step, -1.0 - 0.01 * step, -1.0 + step * (last + 0.5), -1.0 + step * (last + 0.99),
                 -1.0 + 100 * step, 2.5]
        many = small_target(seed=m_max, n_bumps=250)
        target = SyntheticTarget(slope=5.0, offset=0.5, amps=np.append([1.0, -0.7, 0.9, -0.4, 0.6, 0.8], many.amps),
                                 centers=np.append(edges, many.centers),
                                 widths=np.append([1e-3, 1e-1, 1e-2, 1e-3, 1e-1, 1e-2], many.widths))
        assert_matches_sampled_fft(target, -1.0, step, count, q, m_max)

    def test_closed_form_sums_of_a_subnormal_constant_are_within_underflow(self):
        # a draw the relative terms alone refused: the sums were one subnormal ulp (4.9e-324) from the FFT's
        assert_matches_sampled_fft(constant_target(2.225073858507e-311), 0.0, 0.5, 6, 8, 1)

    @pytest.mark.parametrize("start, step, center", [(0.0, 1e-7, 0), (0.0, 1e-7, 2048), (-1.0, 1e-7, 4095),
                                                     (0.0, 1e-5, 2048), (0.0, 1e-4, 100)])
    def test_closed_form_sums_keep_their_digits_as_step_over_width_vanishes(self, start, step, center):
        # one wide bump on a grid much shorter than it: 1 - e^{-x} taken as 1 - (its rounded value) would cost
        # about u / x relative, 290 u * w / step at step = 1e-7, where the bound allows 16.5
        target = SyntheticTarget(slope=0.0, offset=0.0, amps=np.array([1.0]), centers=np.array([start + step * center]),
                                 widths=np.array([0.1]))
        assert_matches_sampled_fft(target, start, step, 4096, 4096, 100)

    def test_constant_series_coefficients_exact(self):
        target = constant_target(2.0)
        q = 1 << 10
        got = _quad_coeffs(target, q, 4, 1.0, 2.0)
        want = np.zeros(9, dtype=complex)
        want[4] = 2.0 * math.sqrt(2.0)  # only the zero-frequency term survives
        assert np.abs(got - want).max() <= 1e-12


class TestConfig:
    def test_fft_length_rule(self):
        cfg = FourierExtensionConfig()
        assert cfg.fft_length(1) == 1 << 13
        assert cfg.fft_length(40) == 1 << 18
        assert cfg.fft_length(640) == 1 << 22

    def test_validation(self):
        for t_ext in (0.9, math.nan, math.inf):
            with pytest.raises(ValueError, match="extension half-period must be finite and exceed 1"):
                FourierExtensionConfig(t_ext=t_ext)
        for pinv_threshold in (2.0, 0.0, 1e-6, 1.0 - 1e-6, math.nan):
            with pytest.raises(ValueError, match=r"cutoff .* must lie inside \(1e-05, 0.99999\)"):
                FourierExtensionConfig(pinv_threshold=pinv_threshold)
        # the fast operators' checks, made before any work; the tolerance's first, as it bounds the cutoff
        for fast_eps in (0.0, 0.5, 2.0, -1e-5, math.nan):
            with pytest.raises(ValueError, match=r"tolerance must lie in \(0, 1/2\)"):
                FourierExtensionConfig(fast_eps=fast_eps)
        for alpha in (0.0, -1e-8, math.nan, math.inf):
            with pytest.raises(ValueError, match="regularization weight must be positive and finite"):
                FourierExtensionConfig(alpha=alpha)
        FourierExtensionConfig(fast_eps=1e-3, pinv_threshold=2e-3, alpha=1e300)
        # a str, complex, None, array or Decimal raised TypeError at the range check; any real is stored as a float
        messages = {"t_ext": "extension half-period", "fast_eps": "tolerance must lie in",
                    "pinv_threshold": "cutoff .* must lie inside", "alpha": "regularization weight"}
        for field, message in messages.items():
            good = getattr(FourierExtensionConfig(), field)
            for bad in (str(good), complex(good), None, np.array([good]), Decimal(str(good))):
                with pytest.raises(ValueError, match=message):
                    FourierExtensionConfig(**{field: bad})
            for real in (np.float32(good), Fraction(good)):
                value = getattr(FourierExtensionConfig(**{field: real}), field)
                assert type(value) is float and value == float(real), field
        with pytest.raises(ValueError):
            FourierExtensionConfig(m_values=(0,))
        for m_values in ((), (8.0,), (40, 80.5)):
            with pytest.raises(ValueError, match="nonempty sequence of integers"):
                FourierExtensionConfig(m_values=m_values)
        for eval_points in (1, 64.5, 100.0):
            with pytest.raises(ValueError, match="evaluation grid"):
                FourierExtensionConfig(eval_points=eval_points)
        FourierExtensionConfig(m_values=(np.int64(8),), eval_points=np.int64(64))
        # rejected before any quadrature: the exact solvers would hold all 4097 Slepian vectors
        with pytest.raises(ValueError, match="at most 2047"):
            FourierExtensionConfig(m_values=(40, 2048))
        FourierExtensionConfig(m_values=((FULL_BASIS_MAX_N - 1) // 2,))


class TestSyntheticTarget:
    def test_draw_and_constant(self):
        # the experiment's target: 500 bumps on a slope of 5 from the generator's first draws; and f = 1
        target = SyntheticTarget.draw(np.random.default_rng(np.random.SeedSequence(3)))
        assert target.slope == 5.0 and target.offset == 0.0 and target.amps.size == 500
        assert np.array_equal(target.amps[:5], small_target(seed=3).amps)
        assert np.array_equal(SyntheticTarget.constant()(np.array([-1.0, 0.5])), np.ones(2))

    def test_chunked_evaluation_matches_direct(self):
        t = np.linspace(-1, 1, 70001)
        target = small_target(seed=1, n_bumps=130)
        got = target(t)
        want = target.offset + target.slope * t
        for a, mu, s in zip(target.amps, target.centers, target.widths):
            want = want + a * np.exp(-np.abs(t - mu) / s)
        assert np.abs(got - want).max() <= 1e-12

    def test_constant(self):
        target = constant_target(3.5)
        assert np.array_equal(target(np.array([-1.0, 0.3, 1.0])), np.full(3, 3.5))
        count = 515
        assert count % _grid_blocks(-1.0, 0.01, count).shape[1]  # the last block is padded
        assert np.array_equal(target.on_grid(-1.0, 0.01, count), np.full(count, 3.5))

    @pytest.mark.parametrize("target", [constant_target(3.5), small_target(seed=1, n_bumps=130)],
                             ids=["constant", "bumps"])
    def test_call_keeps_the_shape_of_t(self, target):
        t = np.linspace(-1.2, 1.2, 12).reshape(3, 4)
        want = np.array([target(np.array([v]))[0] for v in t.ravel()]).reshape(3, 4)
        got = target(t)
        assert isinstance(got, np.ndarray) and got.shape == (3, 4)
        assert np.abs(got - want).max() <= 1e-14
        for scalar in (0.3, np.float64(0.3), np.array(0.3)):
            got = target(scalar)
            assert isinstance(got, np.ndarray) and got.shape == ()
            assert abs(got - target(np.array([0.3]))[0]) <= 1e-14

    def test_call_memory_is_bounded(self):
        # the benchmark's sampling of the m = 40 extension grid, 174,763 nodes x 500 bumps: evaluated a
        # chunk of nodes at a time in one buffer of about 2^20 doubles (8.4 MB), where a (65,536 x 64)
        # temporary per ufunc took 33.5 MB each
        target = SyntheticTarget.draw(np.random.default_rng(np.random.SeedSequence(0)))
        h = 3.0 / (1 << 18)
        nodes = -1.0 + h * np.arange(int(math.floor(2.0 / h)) + 1)
        assert nodes.size == 174_763
        tracemalloc.start()
        try:
            target(nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6, peak

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_on_grid_matches_call(self, data):
        # the blocked sums against direct evaluation at the same rounded nodes; the counts around powers
        # of 2 are where the block length changes
        count = data.draw(st.sampled_from([0, 1, 2, 3, 4, 255, 256, 511, 512, 513, 1023, 1024])
                          | st.integers(2, 1543), label="count")
        start = data.draw(st.floats(-2.0, 1.0), label="start")
        step = data.draw(st.floats(1e-5, 4.0 / max(count, 1)), label="step")
        length = _grid_blocks(start, step, count).shape[1]
        node = st.integers(0, max(count - 1, 0)).map(lambda j: start + step * j)
        edge = (st.sampled_from([count - 1, count])
                | st.integers(0, count // length + 1).flatmap(
                    lambda b: st.sampled_from([b * length, b * length - 1]))).map(lambda j: start + step * j)
        outside = st.floats(1.0, 3.0, exclude_min=True) | st.floats(-3.0, -1.0, exclude_max=True)
        centers = data.draw(st.lists(node | edge | outside | st.floats(-1.0, 1.0), max_size=8), label="centers")
        k = len(centers)
        target = SyntheticTarget(
            slope=data.draw(st.floats(-5.0, 5.0), label="slope"),
            offset=data.draw(st.floats(-2.0, 2.0), label="offset"),
            amps=np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=k, max_size=k), label="amps")),
            centers=np.array(centers),
            widths=np.array(data.draw(st.lists(st.floats(1e-3, 1e-1), min_size=k, max_size=k), label="widths")),
        )
        nodes = start + step * np.arange(count)
        got = target.on_grid(start, step, count)
        want = target(nodes)
        assert got.shape == (count,)
        # node rounding moves each exponent by about u * max|t| / w_k; sums add k + 2 roundings
        reach = abs(start) + step * (count + length)
        amps = np.abs(target.amps)
        tol = (np.sum(amps * 16 * U * (reach / target.widths + 1))
               + (k + 4) * U * (amps.sum() + abs(target.offset) + abs(target.slope) * reach))
        assert np.abs(got - want).max(initial=0.0) <= tol

    def test_on_grid_matches_call_at_full_size(self):
        target = small_target(seed=1, n_bumps=130)
        h = 3.0 / (1 << 16)
        count = int(math.floor(2.0 / h)) + 1
        got = target.on_grid(-1.0, h, count)
        assert np.abs(got - target(-1.0 + h * np.arange(count))).max() <= 1e-12

    @pytest.mark.parametrize("start, step, count", [
        *(pytest.param(0.0, step, count, id=f"{step}-{count}")
          for step, count in [(0.0, 10), (-0.1, 10), (math.nan, 10), (0.1, -1), (math.inf, 3)]),
        *(pytest.param(start, 0.1, 10, id=f"start={start}") for start in (math.nan, math.inf, -math.inf)),
    ])
    def test_on_grid_rejects_bad_grid(self, start, step, count):
        with pytest.raises(ValueError):
            small_target().on_grid(start, step, count)


class TestReconstruct:
    @pytest.mark.parametrize("m_max", [1, 8, 80, 640])
    @pytest.mark.parametrize("half_period", [1.0, 1.5])
    def test_blocked_matches_dense_basis(self, m_max, half_period):
        # the sums at -m fold onto those at m as conjugates, m_max = 1 the smallest fold
        rng = np.random.default_rng(m_max)
        coeffs = rng.standard_normal(2 * m_max + 1) + 1j * rng.standard_normal(2 * m_max + 1)
        count = 10_000
        step = 2.0 / (count - 1)
        t = -1.0 + step * np.arange(count)
        basis = np.exp(1j * math.pi * np.outer(t, np.arange(-m_max, m_max + 1)) / half_period)
        want = np.real(basis @ coeffs) / math.sqrt(2.0 * half_period)
        got = _reconstruct(coeffs, m_max, half_period, -1.0, step, count)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_rows_share_one_table(self):
        # a block of coefficient rows reconstructs as each row alone
        rng = np.random.default_rng(5)
        coeffs = rng.standard_normal((4, 81)) + 1j * rng.standard_normal((4, 81))
        got = _reconstruct(coeffs, 40, 1.5, -1.0, 2.0 / 9999, 10_000)
        assert got.shape == (4, 10_000)
        for row, c in zip(got, coeffs):
            assert np.abs(row - _reconstruct(c, 40, 1.5, -1.0, 2.0 / 9999, 10_000)).max() <= 1e-13


class TestExactPairs:
    @needs_extended
    def test_exact_tikhonov_map_matches_extended_oracle(self):
        # the weight's slope reaches 1/alpha = 1e8, so the eigenvalues need extended precision
        n, w, alpha = 81, 1.0 / 3.0, 1e-8
        lams, block = _exact_pairs(n, w)
        got = factor_dense(SpectralFactor(n, 0, block, lams / (lams**2 + alpha)))
        assert norm2(got - tikhonov_oracle(n, w, alpha)) <= 1e-10

    def test_exact_pinv_map_matches_oracle(self):
        # the pairs at or above the experiment's default cutoff 1e-4, weighted 1/lambda
        n, w = 81, 1.0 / 3.0
        lams, block = _exact_pairs(n, w)
        k = int(np.count_nonzero(lams >= 1e-4))
        got = factor_dense(SpectralFactor(n, 0, block[:, :k], 1.0 / lams[:k]))
        want = pinv_oracle(n, w, k)
        assert norm2(got - want) <= 1e-10 * norm2(want)

    def test_full_descending_orthonormal_basis(self):
        n, w = 41, 1.0 / 3.0
        lams, block = _exact_pairs(n, w)
        assert block.shape == ((n + 1) // 2, n) and lams.shape == (n,)
        vecs = unfold(block, np.arange(n), n)
        assert np.abs(vecs.T @ vecs - np.eye(n)).max() <= 1e-13
        assert np.abs(lams - eigvals_dense(n, w)).max() <= 1e-14

    @pytest.mark.parametrize("n", [1024, 1025])
    def test_pairs_are_the_plans_block_and_no_n_by_n_array_is_made(self, n, mapped_bytes):
        # with the pairs solved, the quotients and both exact solves unfold at most a few columns at a time: they
        # peaked at 0.16 (n = 1024) and 0.29 (1025, twice the transform length) of the n^2 x 8 bytes, 8.4 MB here,
        # that the whole basis unfolded takes
        w = 1.0 / 3.0
        dpss.slepian_plan.cache_clear()
        dpss.slepian_plan(n, w).pairs(0, n - 1)
        y, solved = np.random.default_rng(n).standard_normal(n) * (1.0 + 1.0j), mapped_bytes()
        tracemalloc.start()
        try:
            lams, block = _exact_pairs(n, w)
            for g in (1.0 / lams[:n // 3], lams / (lams**2 + 1e-8)):
                SpectralFactor(n, 0, block[:, :g.size], g).apply(y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = dpss.slepian_plan(n, w)._held[1]
        assert np.shares_memory(block, held) and not block.flags.writeable and block.shape == ((n + 1) // 2, n)
        assert peak + mapped_bytes() - solved < n * n * 8 / 2, (peak, mapped_bytes() - solved)


class TestRunExtension:
    def test_row_schema(self):
        rows = run_fourier_extension(FourierExtensionConfig(m_values=(8,)), seed=2)
        assert [meth for _, meth, _, _ in rows] == [
            "fourier", "ext_exact_pinv", "ext_fast_pinv", "ext_exact_tik", "ext_fast_tik",
        ]
        for _, _, rel, sec in rows:
            assert np.isfinite(rel) and rel >= 0 and sec >= 0

    def test_rows_pinned_and_repeatable(self):
        cfg = FourierExtensionConfig(m_values=(16, 40))
        rows = run_fourier_extension(cfg, seed=3)
        again = run_fourier_extension(cfg, seed=3)
        assert [row[:3] for row in rows] == [row[:3] for row in again]
        got = {(m, meth): rel for m, meth, rel, _ in rows}
        assert got.keys() == PINNED_ROWS.keys()
        for key, want in PINNED_ROWS.items():
            assert abs(got[key] - want) <= 1e-12 * want, key

    def test_only_the_evaluation_grid_is_sampled(self, monkeypatch):
        # the quadrature sums are closed forms: past the evaluation grid the target is sampled at f(1) and at
        # each family's two end nodes per rung, where sampling the quadrature grids took 873,814 nodes here
        nodes = []
        call, on_grid = SyntheticTarget.__call__, SyntheticTarget.on_grid
        monkeypatch.setattr(SyntheticTarget, "__call__", lambda self, t: nodes.append(np.size(t)) or call(self, t))
        monkeypatch.setattr(SyntheticTarget, "on_grid",
                            lambda self, start, step, count: nodes.append(count) or on_grid(self, start, step, count))
        config = FourierExtensionConfig(m_values=(40, 80))
        run_fourier_extension(config, seed=1)
        assert sum(nodes) <= config.eval_points + 1 + 4 * len(config.m_values), nodes

    def test_error_decreases_with_order(self):
        rows = run_fourier_extension(FourierExtensionConfig(m_values=(16, 64)), seed=4)
        rel = {(m, meth): r for m, meth, r, _ in rows}
        assert rel[(64, "ext_exact_pinv")] < rel[(16, "ext_exact_pinv")]
        assert rel[(64, "fourier")] < rel[(16, "fourier")]
