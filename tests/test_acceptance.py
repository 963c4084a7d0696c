"""Acceptance suite: every release criterion at its pinned tolerance.

Each test prints one summary line "[criterion NN] PASS/FAIL ...".  Run with
``pytest tests/test_acceptance.py -v -s`` to see every line; without ``-s``
the lines still surface for failing criteria.

Criterion 6 includes the (alpha = 1e-8, eps = 1e-9) cells, where the
Tikhonov weight's slope reaches 1/alpha: an eigenvalue error of 1e-16 there
costs the map 1e-8.  The fast build recomputes those eigenvalues in extended
precision, and the oracle judging them is accurate far below eps
(test_oracles.py checks it against a 40-digit mpmath map).  A cell whose
eps lies below FastTikhonov's precision_floor (as everywhere np.longdouble
is no wider than float64) can fail; the report then prints each failing
cell's floor.
"""

import math
import time

import numpy as np
import pytest

from prolate.dpss import transition_window
from prolate.fft_kernels import PartialFourier, nearest_odd_integer
from prolate.fourier_ext import FourierExtensionConfig, run_fourier_extension
from prolate.lowrank import (
    bandwidth_shift_factor,
    fourier_correction_factor,
    hilbert_factor,
    sinc_alias_factor,
    correction_rank_budget,
    tikhonov_correction,
    tikhonov_precision_floor,
    transition_count_budget,
)
from prolate.operators import (
    FastFactorization,
    FastProjector,
    FastPseudoinverse,
    SlepianParams,
)

from oracles import (
    bandwidth_shift_dense,
    dense_slepian_basis,
    dirichlet_projector_dense,
    eig_dense,
    eigvals_dense,
    factor_dense,
    fourier_projector_dense,
    hilbert_matrix_dense,
    kernel_dense,
    kernel_mismatch_dense,
    norm2,
    pinv_oracle,
    projection_oracle,
    prolate_dense,
    sinc_alias_dense,
    tikhonov_oracle,
)

GRID_N = (64, 256, 1024)
GRID_W = (0.25, 1.0 / 16.0)
GRID_EPS = (1e-3, 1e-6, 1e-9)


def _grid():
    for n in GRID_N:
        for w in GRID_W:
            for eps in GRID_EPS:
                yield n, w, eps


def _report(num, name, ok, detail):
    import conftest

    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)


def test_01_circulant_plus_lowrank_split():
    t0 = time.perf_counter()
    worst_dev, worst_slack = 0.0, math.inf
    for n, w, eps in _grid():
        fac = fourier_correction_factor(n, w, eps)
        b = prolate_dense(n, w)
        ff = dirichlet_projector_dense(n, nearest_odd_integer(2 * n * w) / (2 * n))
        dev = norm2(b - ff - factor_dense(fac)) / eps
        budget = correction_rank_budget(n, eps)
        worst_dev = max(worst_dev, dev)
        worst_slack = min(worst_slack, budget - fac.rank)
        assert dev <= 1.0, (n, w, eps, dev)
        assert fac.rank <= budget, (n, w, eps, fac.rank, budget)
    elapsed = time.perf_counter() - t0
    ok = worst_dev <= 1.0 and worst_slack >= 0 and elapsed < 120.0
    _report(1, "circulant+low-rank split", ok,
            f"worst dev {worst_dev:.3f}*eps, min rank slack {worst_slack:.1f}, {elapsed:.1f}s")
    assert elapsed < 120.0


def test_02_transition_count_bounds():
    worst_ratio = 0.0
    for n, w, eps in _grid():
        lams = eigvals_dense(n, w)
        count = int(np.count_nonzero((lams > eps) & (lams < 1 - eps)))
        bound = transition_count_budget(n, eps)
        worst_ratio = max(worst_ratio, count / bound)
        assert count <= bound, (n, w, eps, count, bound)
    band = []
    for n in (256, 512, 1024, 2048, 4096):
        lams = eigvals_dense(n, 0.25)
        for eps in (1e-3, 1e-6):
            count = int(np.count_nonzero((lams > eps) & (lams < 1 - eps)))
            asym = 2.0 / math.pi**2 * math.log(n) * math.log(1.0 / eps - 1.0)
            band.append(count / asym)
            assert 0.5 <= count / asym <= 2.0, (n, eps, count, asym)
    _report(2, "transition count bounds", True,
            f"worst count/bound {worst_ratio:.3f}, asymptote ratios in [{min(band):.2f}, {max(band):.2f}]")


def test_03_fast_projector():
    worst = 0.0
    for n, w, eps in _grid():
        params = SlepianParams.create(n, w, eps)
        op = FastProjector.build(params)
        b = prolate_dense(n, w)
        ref = projection_oracle(n, w, params.k)
        dev = norm2(b + factor_dense(op.u) - ref) / eps
        worst = max(worst, dev)
        assert dev <= 1.0, (n, w, eps, dev)
        rng = np.random.default_rng(abs(hash((n, w, eps))) % 2**32)
        for _ in range(20):
            x = rng.standard_normal(n)
            err = np.linalg.norm(op.apply(x) - ref @ x) / (eps * np.linalg.norm(x))
            worst = max(worst, err)
            assert err <= 1.0, (n, w, eps, err)
    _report(3, "fast projector", True, f"worst deviation {worst:.3f}*eps")


def test_04_fast_factorization():
    worst, min_slack = 0.0, math.inf
    for n, w, eps in _grid():
        params = SlepianParams.create(n, w, eps)
        op = FastFactorization.build(params)
        ref = projection_oracle(n, w, params.k)
        assert op.k_prime <= op.k_prime_budget(), (n, w, eps, op.k_prime)
        min_slack = min(min_slack, op.k_prime_budget() - op.k_prime)
        rng = np.random.default_rng(abs(hash((n, w, eps, FastFactorization.kind))) % 2**32)
        for _ in range(20):
            x = rng.standard_normal(n)
            err = np.linalg.norm(op.apply(x) - ref @ x) / (2 * eps * np.linalg.norm(x))
            worst = max(worst, err)
            assert err <= 1.0, (n, w, eps, err)
    _report(4, "fast factorization", True,
            f"worst round-trip {worst:.3f}*2eps, min width slack {min_slack:.1f}")


def test_05_fast_pseudoinverse():
    worst = 0.0
    for n, w, eps in _grid():
        params = SlepianParams.create(n, w, eps)
        op = FastPseudoinverse.build(params)
        b = prolate_dense(n, w)
        ref = pinv_oracle(n, w, params.k)
        dev = norm2(b + factor_dense(op.u) - ref) / (3 * eps)
        worst = max(worst, dev)
        assert dev <= 1.0, (n, w, eps, dev)
    _report(5, "fast pseudoinverse", True, f"worst deviation {worst:.3f}*3eps")


def test_06_fast_tikhonov():
    budget_ok = True
    failures = []
    worst = 0.0
    for n, w, eps in _grid():
        b = prolate_dense(n, w)
        for alpha in (1e-2, 1e-8):
            u5 = tikhonov_correction(n, w, eps, alpha)
            ref = tikhonov_oracle(n, w, alpha)
            dev = norm2(b / (1 + alpha) + factor_dense(u5) - ref)
            lo = alpha * (1 + alpha) * eps
            budget = (8 / math.pi**2 * math.log(8 * n) + 12) * math.log(15 / min(lo, eps / 3))
            if u5.rank > budget:
                budget_ok = False
            worst = max(worst, dev / eps)
            if dev > eps:
                floor = tikhonov_precision_floor(n, w, alpha)
                failures.append(f"(n={n}, w={w:g}, eps={eps:g}, alpha={alpha:g}: dev={dev:.2e}, floor={floor:.1e})")
    ok = not failures and budget_ok
    detail = f"worst deviation {worst:.3f}*eps, ranks within budget {budget_ok}"
    if failures:
        detail += "; cells beyond tolerance: " + ", ".join(failures)
    _report(6, "fast tikhonov", ok, detail)
    assert budget_ok
    assert not failures, f"{len(failures)} cells beyond stated tolerance: {failures}"


def test_07_hilbert_factor():
    worst = 0.0
    for n in GRID_N:
        h = hilbert_matrix_dense(n)
        assert norm2(h) <= math.pi
        for eps in (1e-3, 1e-9):
            delta_h = 4 * math.pi * eps / 15
            z = hilbert_factor(n, delta_h)
            dev = norm2(h - z @ z.T) / delta_h
            worst = max(worst, dev)
            assert dev <= 1.0, (n, eps, dev)
    _report(7, "hilbert low-rank factor", True,
            f"worst deviation {worst:.3f}*delta, norms below pi")


def test_08_taylor_truncation_bounds():
    worst_odd, worst_even = 0.0, 0.0
    for n in (64, 256):
        a1 = sinc_alias_dense(n)
        w = 0.25
        w_prime = nearest_odd_integer(2 * n * w) / (2 * n)
        b0 = bandwidth_shift_dense(n, w, w_prime)
        for eps in GRID_EPS:
            tol = 7 * eps / 30
            odd = sinc_alias_factor(n, tol)
            err = float(np.linalg.norm(a1 - kernel_dense(odd), "fro"))
            worst_odd = max(worst_odd, err / odd.frobenius_bound)
            assert err <= odd.frobenius_bound, (n, eps, err)
            even = bandwidth_shift_factor(n, w, w_prime, tol)
            err = float(np.linalg.norm(b0 - kernel_dense(even), "fro"))
            worst_even = max(worst_even, err / even.frobenius_bound)
            assert err <= even.frobenius_bound, (n, eps, err)
    _report(8, "taylor truncation bounds", True,
            f"worst odd {worst_odd:.3f}, worst even {worst_even:.3f} of the certified bounds")


def test_09_phase_conjugation_identity():
    worst = 0.0
    for n in (16, 32, 64):
        for w in GRID_W:
            w_prime = nearest_odd_integer(2 * n * w) / (2 * n)
            idx = np.arange(n)
            da = np.diag(np.exp(2j * np.pi * w_prime * idx))
            db = np.diag(np.exp(1j * np.pi * (w + w_prime) * idx))
            a0 = kernel_mismatch_dense(n)
            b0 = bandwidth_shift_dense(n, w, w_prime)
            lhs = (da @ a0 @ da.conj().T - da.conj() @ a0 @ da) / 2j
            lhs += (db @ b0 @ db.conj().T + db.conj() @ b0 @ db) / 2
            rhs = prolate_dense(n, w) - fourier_projector_dense(PartialFourier(n, w))
            dev = float(np.abs(lhs - rhs).max())
            worst = max(worst, dev)
            assert dev <= 1e-10, (n, w, dev)
    _report(9, "phase-conjugation identity", True, f"worst entry deviation {worst:.2e} <= 1e-10")


def test_10_slepian_basis_correctness():
    worst_orth, worst_sym, worst_lam = 0.0, 0.0, 0.0
    for n in GRID_N:
        for w in GRID_W:
            s, lams = dense_slepian_basis(n, w)
            orth = float(np.abs(s.T @ s - np.eye(n)).max())
            worst_orth = max(worst_orth, orth)
            assert orth <= 1e-10, (n, w, orth)
            start, tl, _ = transition_window(n, w, -1.0, 2.0)
            assert start == 0 and tl.size == n
            dev = float(np.abs(np.sort(tl)[::-1] - lams).max())
            worst_lam = max(worst_lam, dev)
            assert dev <= 1e-10, (n, w, dev)
        _, lams = dense_slepian_basis(n, 0.25)
        sym = float(np.abs(lams + lams[::-1] - 1.0).max())
        worst_sym = max(worst_sym, sym)
        assert sym <= 1e-8, (n, sym)
    _report(10, "slepian basis correctness", True,
            f"orthonormality {worst_orth:.2e}, symmetry {worst_sym:.2e}, lambda agreement {worst_lam:.2e}")


@pytest.fixture(scope="module")
def extension_rows():
    t0 = time.perf_counter()
    rows = run_fourier_extension(FourierExtensionConfig(), seed=12345)
    return rows, time.perf_counter() - t0


def test_11_fourier_extension(extension_rows):
    rows, elapsed = extension_rows
    rel = {(m, method): r for m, method, r, _ in rows}
    m_values = sorted({m for m, _, _, _ in rows})
    worst_parity = 0.0
    for m in m_values:
        parity = abs(rel[(m, "ext_fast_pinv")] - rel[(m, "ext_exact_pinv")]) / rel[(m, "ext_exact_pinv")]
        worst_parity = max(worst_parity, parity)
        assert parity <= 0.10, (m, parity)
    m_top = m_values[-1]
    factor = rel[(m_top, "fourier")] / rel[(m_top, "ext_exact_pinv")]
    factor_fast = rel[(m_top, "fourier")] / rel[(m_top, "ext_fast_pinv")]
    ok = factor >= 5.0 and factor_fast >= 5.0 and elapsed < 300.0
    _report(11, "fourier extension", ok,
            f"pinv parity {worst_parity:.2e}, series/extension factor {factor:.2f} at m={m_top}, "
            f"{elapsed:.0f}s")
    assert factor >= 5.0 and factor_fast >= 5.0
    assert elapsed < 300.0


def test_12_performance_scaling_report():
    # report-only by design: absolute timings are hardware-specific, so the
    # witnesses are printed and never gate the suite
    rng = np.random.default_rng(2024)

    n = 2**13
    params = SlepianParams.create(n, 0.25, 1e-6)
    op = FastProjector.build(params)
    x = rng.standard_normal(n)
    b = prolate_dense(n, 0.25)
    fast_t = _median_seconds(lambda: op.apply(x), 25)
    dense_t = _median_seconds(lambda: b @ x, 25)
    del b

    times = {}
    for log_n in (14, 16, 18):
        nn = 2**log_n
        p = SlepianParams.create(nn, 0.25, 1e-6)
        o = FastProjector.build(p)
        xx = rng.standard_normal(nn)
        times[log_n] = _median_seconds(lambda: o.apply(xx), 25)
    r1 = times[16] / times[14]
    r2 = times[18] / times[16]
    import conftest

    cross_txt = "OK" if fast_t < dense_t else "EXCEEDS"
    r1_txt = "OK" if r1 <= 6.0 else "EXCEEDS 6"
    r2_txt = "OK" if r2 <= 6.0 else "EXCEEDS 6"
    line = (
        f"[criterion 12] REPORT performance scaling (not gated): "
        f"fast {fast_t*1e3:.2f}ms vs dense {dense_t*1e3:.2f}ms at n=2^13 ({cross_txt}); "
        f"4x apply-time ratios {r1:.2f} 2^14->2^16 ({r1_txt}), {r2:.2f} 2^16->2^18 ({r2_txt})"
    )
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)


def _median_seconds(fn, reps):
    fn()
    fn()
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return float(np.median(out))
