import ctypes
import glob
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from prolate import dpss
from prolate.cli import main
from prolate.dpss import (
    PreconditionViolated,
    commuting_tridiagonal,
    default_subspace_dim,
    quotient_error,
    rayleigh_extended,
    refine_window,
    transition_window,
    unfold,
    vector_error,
)
from prolate.fft_kernels import ToeplitzOperator, prolate_column
from prolate.lowrank import pinv_correction, projection_correction, transition_count_budget
from prolate.operators import FastProjector, SlepianParams

from oracles import (
    chunked_window,
    dense_slepian_basis,
    eig_dense,
    eig_extended,
    eigvals_dense,
    needs_extended,
    prolate_dense,
    rayleigh_lambda,
    tridiagonal_dense,
)
from strategies import window_sequences


class TestCommutingTridiagonal:
    def test_single_point(self):
        diag, off = commuting_tridiagonal(1, 0.3)
        assert diag.shape == (1,) and off.shape == (0,)
        assert diag[0] == 0.0

    def test_entry_formulas(self):
        n, w = 5, 0.1
        diag, off = commuting_tridiagonal(n, w)
        c = math.cos(2 * math.pi * w)
        assert np.allclose(diag, [4 * c, 1 * c, 0.0, 1 * c, 4 * c])
        assert np.allclose(off, [2.0, 3.0, 3.0, 2.0])

    def test_eigenvectors_commute_with_prolate(self):
        n, w = 32, 0.25
        diag, off = commuting_tridiagonal(n, w)
        import scipy.linalg

        _, vecs = scipy.linalg.eigh_tridiagonal(diag, off)
        b = prolate_dense(n, w)
        for j in range(n):
            v = vecs[:, j]
            lam = float(v @ (b @ v))
            assert np.linalg.norm(b @ v - lam * v) <= 1e-8

    def test_rayleigh_values_match_dense_spectrum(self):
        # thresholds outside [0, 1] force the window to cover the whole spectrum
        n, w = 64, 0.25
        start, lams, _ = transition_window(n, w, -1.0, 2.0)
        assert start == 0 and lams.size == n
        dense = eigvals_dense(n, w)
        assert np.abs(np.sort(lams)[::-1] - dense).max() <= 1e-10


class TestParitySplit:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3, 4, 5]) | st.integers(1, 300),
        w=st.sampled_from([1e-4, 1e-3, 0.499, 0.4999]) | st.floats(1e-4, 0.4999),
    )
    def test_vectors_match_full_size_solve(self, n, w):
        # every Slepian vector, from the half-size solves, against the full-size
        # bisection/inverse-iteration solve, up to sign; both carry an error of
        # about u ||T|| / gap (measured at most 0.72 of it for n <= 511)
        diag, off = tridiagonal_dense(n, w)
        vals, full = scipy.linalg.eigh_tridiagonal(diag, off, lapack_driver="stebz")
        vals, full = vals[::-1], full[:, ::-1]
        start, lams, block = transition_window(n, w, -1.0, 2.0)
        assert start == 0 and block.shape == ((n + 1) // 2, n)
        vecs = unfold(block, np.arange(n), n)
        dev = np.minimum(np.abs(vecs - full).max(axis=0), np.abs(vecs + full).max(axis=0))
        diffs = np.abs(np.diff(vals))
        gap = np.minimum(np.append(diffs, np.inf), np.insert(diffs, 0, np.inf))
        norm = np.abs(diag).max() + 2.0 * np.abs(off).max(initial=0.0)
        eps = np.finfo(float).eps
        assert np.all(dev <= 16.0 * eps * (1.0 + norm / gap))

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 100, 101])
    @pytest.mark.parametrize("w", [1e-3, 0.1, 0.25, 0.499])
    def test_parity_spectra_interlace(self, n, w):
        # descending even and odd spectra alternate, even first, and together
        # are the full tridiagonal's spectrum
        (d_even, e_even), (d_odd, e_odd) = dpss._parity_tridiagonals(n, w)
        assert d_even.size == (n + 1) // 2 and d_odd.size == n // 2
        merged = np.empty(n)
        merged[0::2] = scipy.linalg.eigvalsh_tridiagonal(d_even, e_even)[::-1]
        if n > 1:
            merged[1::2] = scipy.linalg.eigvalsh_tridiagonal(d_odd, e_odd)[::-1]
        assert np.all(np.diff(merged) <= 0.0)
        diag, off = tridiagonal_dense(n, w)
        full = scipy.linalg.eigvalsh_tridiagonal(diag, off)[::-1]
        assert np.abs(merged - full).max() <= 1e-12 * max(1.0, np.abs(full).max())


_PAIRS = [(1e-3, 1 - 1e-3), (1e-6, 1 - 1e-6), (1e-9, 1 - 1e-9), (1.01e-8, 1 - 1e-6 / 3), (0.3, 0.4), (-1.0, 2.0)]
_BELOW_FLOOR = [(1e-17, 1 - 1e-9), (1e-40, 1 - 1e-6)]


def _count_bisections(monkeypatch, tols=None):
    """A list that gets, per window solve (dpss._bisect call), the number of pairs it solved (and tols its bisection
    tolerance)."""
    calls = []
    solve = dpss._bisect

    def counted(d, e, il, iu, tol, out=None):
        result = solve(d, e, il, iu, tol, out)
        calls.append(result[1].shape[1])
        if tols is not None:
            tols.append(tol)
        return result

    monkeypatch.setattr(dpss, "_bisect", counted)
    return calls


class TestPredictedWindow:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 33, 64, 100, 256, 777, 1024])
    @pytest.mark.parametrize("w", [0.003, 1.0 / 16.0, 0.25, 0.45, 0.499])
    def test_same_window_as_chunked_expansion(self, n, w):
        for lo, hi in _PAIRS + _BELOW_FLOOR:
            start, lams, _ = transition_window(n, w, lo, hi)
            ref_start, ref_count = chunked_window(n, w, lo, hi)
            assert start == ref_start, (lo, hi)
            if lo >= quotient_error(n, w) or lo < 0.0:
                assert lams.size == ref_count, (lo, hi)
            else:
                # below the noise floor the edge falls wherever a noisy quotient
                # first reaches lo: both searches must end inside the noise band
                dense = eigvals_dense(n, w)
                for stop in (start + lams.size, ref_start + ref_count):
                    assert stop == n or dense[stop] <= lo + 2.0 * quotient_error(n, w), (lo, hi)

    def test_fallback_expansion_when_prediction_falls_short(self, monkeypatch):
        # a prediction of one index forces growth on both sides
        n, w, lo, hi = 1024, 0.25, 1e-9, 1 - 1e-9
        want_start, want_lams, want_vecs = transition_window(n, w, lo, hi)
        center = dpss.default_subspace_dim(n, w)
        monkeypatch.setattr(dpss, "_predicted_range", lambda *args: (center, center))
        dpss.slepian_plan.cache_clear()
        calls = _count_bisections(monkeypatch)
        start, lams, vecs = transition_window(n, w, lo, hi)
        assert len(calls) > 2
        assert (start, lams.size) == (want_start, want_lams.size) == chunked_window(n, w, lo, hi)
        assert np.abs(lams - want_lams).max() <= quotient_error(n, w)
        assert np.abs(vecs - want_vecs).max() <= 1e-12

    def test_pair_cap(self, monkeypatch):
        # the cap holds for the predicted range and for the fallback's growth
        dpss.slepian_plan.cache_clear()
        monkeypatch.setattr(dpss, "_MAX_PAIRS", 10)
        with pytest.raises(RuntimeError, match="exceeded 10 eigenpairs"):
            transition_window(64, 0.25, -1.0, 2.0)
        monkeypatch.setattr(dpss, "_predicted_range", lambda *args: (32, 32))
        with pytest.raises(RuntimeError, match="exceeded 10 eigenpairs"):
            transition_window(256, 0.25, 1e-9, 1 - 1e-9)

    @pytest.mark.parametrize("w, lo, hi", [
        (0.25, 1e-6, 1 - 1e-6), (1.0 / 16.0, 1e-9, 1 - 1e-9), (0.25, 1.01e-8, 1 - 1e-6 / 3),
    ])
    def test_benchmark_point_makes_two_solves(self, monkeypatch, w, lo, hi):
        dpss.slepian_plan.cache_clear()
        calls = _count_bisections(monkeypatch)
        _, lams, _ = transition_window(2**14, w, lo, hi)
        assert lams.size > 0 and len(calls) <= 2


# the three benchmark windows at n = 2^14 (projector, projector, Tikhonov thresholds), then w = 0.02 and 1/16
_ISOLATION_POINTS = [
    (2**14, 0.25, 1e-6, 1 - 1e-6), (2**14, 1.0 / 16.0, 1e-9, 1 - 1e-9), (2**14, 0.25, 1.01e-8, 1 - 1e-6 / 3),
    (4096, 0.02, 1e-12, 1 - 1e-12), (2**14, 0.02, 1e-9, 1 - 1e-9), (1024, 1.0 / 16.0, -1.0, 2.0),
    (4096, 0.25, 1e-9, 1 - 1e-9),
]


def _full_precision(monkeypatch):
    """Make every window solve (dpss._bisect call) bisect to full precision, whatever tol it is passed."""
    solve = dpss._bisect
    monkeypatch.setattr(dpss, "_bisect", lambda d, e, il, iu, tol, out=None: solve(d, e, il, iu, 0.0, out))


class TestIsolatedBisection:
    @pytest.mark.parametrize("n, w, lo, hi", _ISOLATION_POINTS)
    def test_vectors_match_a_full_precision_solve(self, monkeypatch, n, w, lo, hi):
        # within TestParitySplit's bound 16 u (1 + ||T|| / gap), gap the full tridiagonal's, and within
        # vector_error: that bound passed a 10x looser isolation at every point, with vectors 28 (whole spectrum)
        # and 60 (4096, 1/4) vector_error away; here they read at most 0.65 of it
        dpss.slepian_plan.cache_clear()
        start, lams, vecs = transition_window(n, w, lo, hi)
        with monkeypatch.context() as m:
            _full_precision(m)
            dpss.slepian_plan.cache_clear()
            want_start, want_lams, want_vecs = transition_window(n, w, lo, hi)
        assert (start, lams.size) == (want_start, want_lams.size)
        diag, off = tridiagonal_dense(n, w)
        first, last = max(start - 1, 0), min(start + lams.size, n - 1)
        vals = scipy.linalg.eigvalsh_tridiagonal(diag, off, select="i", select_range=(n - 1 - last, n - 1 - first))[::-1]
        diffs = np.abs(np.diff(vals))
        gap = np.minimum(np.append(diffs, np.inf), np.insert(diffs, 0, np.inf))[start - first:][:lams.size]
        norm = np.abs(diag).max() + 2.0 * np.abs(off).max(initial=0.0)
        dev = np.abs(vecs - want_vecs).max(axis=0)
        assert np.all(dev <= 16.0 * np.finfo(float).eps * (1.0 + norm / gap))
        # a column is the leading half of a vector: the whole vector moves by at most sqrt(2) times as much
        assert np.all(math.sqrt(2.0) * np.linalg.norm(vecs - want_vecs, axis=0) <= vector_error(n, w))
        assert np.abs(lams - want_lams).max() <= quotient_error(n, w)

    def test_too_large_a_gap_estimate_falls_back_to_full_precision(self, monkeypatch):
        n, w, lo, hi = 4096, 0.25, 1e-9, 1 - 1e-9
        with monkeypatch.context() as m:
            _full_precision(m)
            dpss.slepian_plan.cache_clear()
            want = transition_window(n, w, lo, hi)
        monkeypatch.setattr(dpss, "_gap_estimate", lambda n, w: 1e3 * n * n)
        dpss.slepian_plan.cache_clear()
        tols = []
        calls = _count_bisections(monkeypatch, tols)
        got = transition_window(n, w, lo, hi)
        # each parity: the loose solve, rejected, then the full-precision one
        assert len(calls) == 4 and tols[0] > 0.0 and tols[1] == 0.0 and tols[2] > 0.0 and tols[3] == 0.0
        assert got[0] == want[0] and np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])

    def test_failed_loose_solve_falls_back_to_full_precision(self, monkeypatch):
        n, w, lo, hi = 1024, 0.25, 1e-9, 1 - 1e-9
        dpss.slepian_plan.cache_clear()
        want = transition_window(n, w, lo, hi)
        solve = dpss._bisect

        def failing(d, e, il, iu, tol, out=None):
            if tol > 0.0:
                raise np.linalg.LinAlgError("eigenvectors failed to converge")
            return solve(d, e, il, iu, tol, out)

        monkeypatch.setattr(dpss, "_bisect", failing)
        dpss.slepian_plan.cache_clear()
        got = transition_window(n, w, lo, hi)
        assert got[0] == want[0] and got[1].size == want[1].size
        assert np.abs(got[1] - want[1]).max() <= quotient_error(n, w) and np.abs(got[2] - want[2]).max() <= 1e-12

    @pytest.mark.parametrize("w, eps", [(0.25, 1e-6), (1.0 / 16.0, 1e-9)])
    def test_benchmark_points_bisect_loosely_without_fallback(self, monkeypatch, w, eps):
        # a projector window, then the wider Tikhonov one (alpha = 1e-2) grown from it
        dpss.slepian_plan.cache_clear()
        tols = []
        calls = _count_bisections(monkeypatch, tols)
        transition_window(2**14, w, eps, 1 - eps)
        transition_window(2**14, w, 1e-2 * (1 + 1e-2) * eps, 1 - eps / 3)
        assert 2 <= len(calls) <= 6 and all(t > 0.0 for t in tols)

    def test_gap_estimate_is_below_every_same_parity_gap(self):
        for n in [2, 3, 4, 5, 9, 16, 33, 100, 257, 1024]:
            for w in [1e-4, 0.003, 0.02, 1.0 / 16.0, 0.25, 0.45, 0.4999]:
                for d, e in dpss._parity_tridiagonals(n, w):
                    if d.size > 1:
                        assert np.diff(scipy.linalg.eigvalsh_tridiagonal(d, e)).min() >= dpss._gap_estimate(n, w)

    def test_isolation_check_sees_outer_neighbours(self):
        (d, e), _ = dpss._parity_tridiagonals(512, 0.25)
        vals = scipy.linalg.eigvalsh_tridiagonal(d, e)
        gap = np.diff(vals).min()
        assert dpss._isolated(d, e, vals[100:110], gap) and dpss._isolated(d, e, vals[100:101], gap)
        assert not dpss._isolated(d, e, vals[100:110], 1.01 * (vals[101] - vals[100]))
        # the ends of the spectrum have one outer neighbour each, seen only by the Sturm count
        assert dpss._isolated(d, e, vals[:1], 0.99 * (vals[1] - vals[0]))
        assert not dpss._isolated(d, e, vals[:1], 1.01 * (vals[1] - vals[0]))
        assert dpss._isolated(d, e, vals[-1:], 0.99 * (vals[-1] - vals[-2]))
        assert not dpss._isolated(d, e, vals[-1:], 1.01 * (vals[-1] - vals[-2]))


class TestBisect:
    # halves of 1 and 2 rows (n = 2, 3), 257 (n = 514, 515) and more than _THREAD_HALF rows (n = 8200, 8201)
    @pytest.mark.parametrize("n", [2, 3, 514, 515, 8200, 8201])
    def test_matches_scipys_wrapper_bit_for_bit(self, n):
        gap = dpss._gap_estimate(n, 0.25)
        for d, e in dpss._parity_tridiagonals(n, 0.25):
            h, mid = d.size, d.size // 2
            for il, iu in {(0, 0), (h - 1, h - 1), (mid, mid), (max(mid - 10, 0), min(mid + 10, h - 1)), (0, h - 1)}:
                if iu - il > 40:
                    continue
                for tol in (0.0, dpss._ISOLATION * gap):
                    want = scipy.linalg.eigh_tridiagonal(d, e, tol=tol, select="i", select_range=(il, iu))
                    got = dpss._bisect(d, e, il, iu, tol)
                    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), (h, il, iu, tol)

    def test_writes_into_the_array_it_is_given(self):
        (d, e), _ = dpss._parity_tridiagonals(1024, 0.25)
        out = np.empty((d.size, 5), order="F")
        vals, vecs = dpss._bisect(d, e, 250, 254, 0.0, out)
        want = scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(250, 254))
        assert np.shares_memory(vecs, out) and np.array_equal(vecs, want[1]) and np.array_equal(vals, want[0])

    def test_a_failing_call_raises_what_scipys_wrapper_raises(self):
        (d, e), _ = dpss._parity_tridiagonals(64, 0.25)
        d = np.where(np.arange(d.size) == 3, np.nan, d)
        with pytest.raises(np.linalg.LinAlgError):
            scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(3, 6), check_finite=False)
        with pytest.raises(np.linalg.LinAlgError, match="dstebz"):
            dpss._bisect(d, e, 3, 6, 0.0)


class _Overlay:
    """A module with some attributes replaced, the others read through: how the benchmark's tracer wraps dpss.scipy."""

    def __init__(self, real, **replaced):
        self.__dict__.update(replaced)
        self._real = real

    def __getattr__(self, attr):
        return getattr(self._real, attr)


def _record_solves(monkeypatch):
    """A list that gets the keyword arguments of each eigh_tridiagonal call dpss makes, through a dpss.scipy overlay,
    and those of the eigh_tridiagonal call that each dpss._bisect call equals."""
    calls, solve, bisect = [], scipy.linalg.eigh_tridiagonal, dpss._bisect

    def recorded(*args, **kwargs):
        calls.append(kwargs)
        return solve(*args, **kwargs)

    def recorded_bisection(d, e, il, iu, tol, out=None):
        calls.append({"tol": tol, "select": "i", "select_range": (il, iu)})
        return bisect(d, e, il, iu, tol, out)

    monkeypatch.setattr(dpss, "scipy", _Overlay(scipy, linalg=_Overlay(scipy.linalg, eigh_tridiagonal=recorded)))
    monkeypatch.setattr(dpss, "_bisect", recorded_bisection)
    return calls


def _bisect_whole_halves(monkeypatch, n, w):
    """Solve a whole parity half as any other range: bisection to isolation, then inverse iteration."""
    solve, tol = scipy.linalg.eigh_tridiagonal, dpss._ISOLATION * dpss._gap_estimate(n, w)

    def bisect(d, e, **kwargs):
        if kwargs.get("lapack_driver") == "stevd":
            return solve(d, e, tol=tol, select="i", select_range=(0, d.size - 1))
        return solve(d, e, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", bisect)


class TestWholeSpectrum:
    @pytest.mark.parametrize("n", [17, 80, 81, 160, 161, 1023, 1024])
    @pytest.mark.parametrize("w", [0.02, 0.25, 1.0 / 3.0, 0.45])
    def test_divide_and_conquer_matches_bisection(self, monkeypatch, n, w):
        block, lams = dpss.SlepianPlan(n, w).pairs(0, n - 1)
        with monkeypatch.context() as m:
            _bisect_whole_halves(m, n, w)
            want_block, want_lams = dpss.SlepianPlan(n, w).pairs(0, n - 1)
        # a column is the leading half of a vector: the whole vector moves by at most sqrt(2) times as much
        assert math.sqrt(2.0) * np.linalg.norm(block - want_block, axis=0).max() <= vector_error(n, w)
        assert np.abs(lams - want_lams).max() <= quotient_error(n, w)
        for eps in (1e-3, 1e-6, 1e-9):
            assert dpss._window_edges(lams, eps, 1 - eps) == dpss._window_edges(want_lams, eps, 1 - eps), eps
        assert np.count_nonzero(lams >= 1e-4) == np.count_nonzero(want_lams >= 1e-4)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("w", [1e-13, 1e-30, 1e-300])
    def test_one_row_halves_at_a_tiny_bandwidth_give_finite_pairs(self, n, w):
        # the inverse step's shift, a fraction of the gap estimate, fell within half an ulp of a 1 x 1 half's
        # eigenvalue: a singular solve, nan vectors and nan quotients
        block, lams = dpss.SlepianPlan(n, w).pairs(0, n - 1)
        vecs = unfold(block, np.arange(n), n)
        assert np.all(np.isfinite(lams)) and np.abs(vecs.T @ vecs - np.eye(n)).max() <= 1e-15

    @pytest.mark.parametrize("n", [80, 81])
    def test_all_pairs_take_one_divide_and_conquer_call_per_parity(self, monkeypatch, n):
        calls = _record_solves(monkeypatch)
        dpss.SlepianPlan(n, 0.25).pairs(0, n - 1)
        assert calls == [{"lapack_driver": "stevd"}] * 2

    def test_a_benchmark_window_bisects(self, monkeypatch):
        dpss.slepian_plan.cache_clear()
        calls = _record_solves(monkeypatch)
        transition_window(4096, 0.25, 1e-6, 1 - 1e-6)
        assert calls and all(c.get("select") == "i" and "lapack_driver" not in c for c in calls)

    def test_only_a_request_lacking_more_than_the_share_solves_every_pair(self, monkeypatch):
        n = 100
        plan = dpss.SlepianPlan(n, 0.25)
        calls = _record_solves(monkeypatch)
        # 30 pairs are not more than _WHOLE_SHARE of n, and a request overlapping them lacks 30 more
        for first, last, held in ((35, 64, range(35, 65)), (20, 79, range(20, 80))):
            block, lams = plan.pairs(first, last)
            assert plan.held == held and calls and all(c.get("select") == "i" for c in calls)
            calls.clear()
        whole, whole_lams = plan.pairs(0, n - 1)
        assert plan.held == range(n) and calls == [{"lapack_driver": "stevd"}] * 2
        # the pairs held before keep their bits
        assert np.array_equal(whole[:, 20:80], block) and np.array_equal(whole_lams[20:80], lams)

    def test_memory_for_a_whole_spectrum_is_refused_before_it_is_allocated(self, monkeypatch):
        # at n = 1024 all pairs need about 10.7 MB with divide and conquer's two 512 x 512 matrices and workspace,
        # 6.5 MB counted as bisection's vectors: 8 MiB refuses them, and any request that would solve them, but
        # not a window of 100 pairs
        n = 1024
        plan = dpss.SlepianPlan(n, 0.25)

        def refused(*args, **kwargs):
            raise AssertionError("allocated before the memory check")

        with monkeypatch.context() as m:
            m.setattr(dpss.os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2048}.get)
            m.setattr(dpss, "mapped_rows", refused)
            m.setattr(scipy.linalg, "eigh_tridiagonal", refused)
            m.setattr(dpss, "_bisect", refused)
            for first, last in ((0, n - 1), (300, 699)):
                with pytest.raises(MemoryError, match=f"n={n} solving {n} pairs"):
                    plan.pairs(first, last)
            m.undo()
            m.setattr(dpss.os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2048}.get)
            assert plan.pairs(462, 561)[1].size == 100


class TestSlepianPlan:
    def test_repeat_and_superset_windows_solve_only_what_is_missing(self, monkeypatch):
        n, w, eps = 4096, 0.25, 1e-6
        dpss.slepian_plan.cache_clear()
        calls = _count_bisections(monkeypatch)
        first = transition_window(n, w, eps, 1.0 - eps)
        assert len(calls) <= 2
        calls.clear()
        again = transition_window(n, w, eps, 1.0 - eps)
        assert calls == []
        assert again[0] == first[0] and np.array_equal(again[1], first[1]) and np.array_equal(again[2], first[2])
        # the Tikhonov thresholds of FastTikhonov.build (alpha = 1e-2) widen the window inside the held pairs
        # [2029, 2067]: the window [2034, 2064] is a view of the held block
        plan = dpss.slepian_plan(n, w)
        held, (_, block, _) = plan.held, plan._held
        start, lams, vecs = transition_window(n, w, 1e-2 * (1.0 + 1e-2) * eps, 1.0 - eps / 3.0)
        assert start < first[0] and lams.size > first[1].size
        assert calls == [] and plan.held == held and np.shares_memory(vecs, block)
        # smaller alphas end the window at 2067 and 2074, where the high-index side's edge is not held:
        # only that side is solved, [5, 5] and [9, 8] pairs (the whole predicted range solved one more
        # pair below the held ones)
        for alpha, solved in ((1e-4, [5, 5]), (1e-8, [9, 8])):
            dpss.slepian_plan.cache_clear()
            transition_window(n, w, eps, 1.0 - eps)
            plan = dpss.slepian_plan(n, w)
            held = plan.held
            calls.clear()
            start, lams, _ = transition_window(n, w, alpha * (1.0 + alpha) * eps, 1.0 - eps / 3.0)
            assert start + lams.size >= held.stop
            assert calls == solved and plan.held.start == held.start and plan.held.stop == held.stop + sum(solved)

    @settings(max_examples=200, deadline=None)
    @given(window_sequences())
    # at w = 1/4 and odd n, lam_k + lam_(n-1-k) = 1 puts lam_7 at 1/2 exactly for n = 15: the all-pairs solve read
    # 0.5 + 2.2e-16 and the predicted-range solve 0.5 - 1.1e-16, so hi = 1/2 started the window at 8 or at 7
    @example((15, 0.25, None, [(-0.5, 1.0), (-0.5, 0.5)]))
    # the first window holds 7 of 64 pairs and the second solves all of them: where that solve replaced the held
    # pairs, a quotient at the noise floor fell to lo = 0 inside them, so the held pairs seemed to bracket its edge
    @example((64, 0.0010000000000000002, None, [(0.0001, 1.0), (0.0, 1.0)]))
    # a cold window (0.1, 0.99999) whose odd half was bisected only to isolation returned index 27's vector 907x
    # vector_error off, 1.19e-12 from the warm window of the whole-spectrum pairs
    @example((64, 0.22011605627059908, None, [(-0.5, -0.5), (-0.5, 1.0), (0.1, 0.99999)]))
    def test_windows_from_held_pairs_match_cold_solves(self, case):
        # each window of a sequence, after pairs held from a range near its prediction and from the windows
        # before it, against a solve on an empty plan; where the held pairs it starts from (those overlapping its
        # prediction) bracket its edges it solves nothing.
        # A threshold at 0 or 1, inside the noise floor there, or within twice the floor of an eigenvalue puts
        # its edge wherever a noisy quotient first crosses it, which depends on the solve that produced the
        # quotient (a cold plan does the same after other windows): both edges must then lie in the noise band,
        # and the shared pairs must agree
        n, w, held, windows = case
        floor = quotient_error(n, w)
        cold = []
        for lo, hi in windows:
            dpss.slepian_plan.cache_clear()
            cold.append(transition_window(n, w, lo, hi))
        dpss.slepian_plan.cache_clear()
        plan = dpss.slepian_plan(n, w)
        if held is not None:
            side, gap, length = held
            low, high = dpss._predicted_range(n, w, *windows[0])
            first = low - gap - length + 1 if side == "low" else high + gap
            if max(first, 0) <= min(first + length - 1, n - 1):
                plan.pairs(max(first, 0), min(first + length - 1, n - 1))
        with pytest.MonkeyPatch.context() as m:
            calls = _count_bisections(m)
            for (lo, hi), (start, lams, block) in zip(windows, cold):
                have = plan.held
                calls.clear()
                got = transition_window(n, w, lo, hi)
                low, high = dpss._predicted_range(n, w, lo, hi)
                bracketed = max(got[0] - 1, 0) in have and min(got[0] + got[1].size, n - 1) in have
                if bracketed and have[0] <= high and low <= have[-1]:
                    assert calls == [], (lo, hi, have)
                dense = eigvals_dense(n, w) if lo < hi and hi > 0.0 and lo < 1.0 else None
                noisy_lo, noisy_hi = (dense is not None and 0.0 <= t <= 1.0
                                      and (min(t, 1.0 - t) < floor or np.abs(dense - t).min() <= 2.0 * floor)
                                      for t in (lo, hi))
                # every quotient lies above lo (so pinv_correction's 1/lam is finite), and below hi where no noisy
                # quotient can cross it
                assert np.all(got[1] > lo) and (noisy_hi or np.all(got[1] < hi)), (lo, hi)
                if noisy_lo or noisy_hi:
                    for first, stop in ((start, start + lams.size), (got[0], got[0] + got[1].size)):
                        if noisy_hi:
                            assert first == 0 or dense[first - 1] >= hi - 2.0 * floor, (lo, hi)
                            assert first == n or dense[first] < hi + 2.0 * floor, (lo, hi)
                        else:
                            assert first == start, (lo, hi)
                        if noisy_lo:
                            assert stop == n or dense[stop] <= lo + 2.0 * floor, (lo, hi)
                            assert stop == first or dense[stop - 1] > lo - 2.0 * floor, (lo, hi)
                    first, stop = max(start, got[0]), min(start + lams.size, got[0] + got[1].size)
                    start, lams, block = first, lams[first - start:stop - start], block[:, first - start:stop - start]
                    got = first, got[1][first - got[0]:stop - got[0]], got[2][:, first - got[0]:stop - got[0]]
                assert (got[0], got[1].size) == (start, lams.size), (lo, hi)
                assert np.abs(got[1] - lams).max(initial=0.0) <= floor
                assert np.abs(got[2] - block).max(initial=0.0) <= 1e-12

    def test_window_matches_a_cold_solve_after_other_windows(self):
        n, w = 1024, 1.0 / 16.0
        dpss.slepian_plan.cache_clear()
        cold = transition_window(n, w, 1e-9, 1 - 1e-9)
        for lo, hi in [(0.3, 0.4), (1e-3, 1 - 1e-3), (1e-12, 1 - 1e-12), (1e-9, 1 - 1e-9)]:
            transition_window(n, w, lo, hi)
        warm = transition_window(n, w, 1e-9, 1 - 1e-9)
        assert warm[0] == cold[0] and warm[1].size == cold[1].size
        assert np.abs(warm[1] - cold[1]).max() <= quotient_error(n, w)
        assert np.abs(warm[2] - cold[2]).max() <= 1e-12

    def test_rayleigh_block_is_transformed_a_few_columns_at_a_time(self, mapped_bytes):
        # in blocks of 8 n m bytes: the whole window transformed at once peaked at 4.5; with full rows in a map of
        # their own, temporaries over the whole range (the scaled halves, the sign fix's |V| and mask) took 2.6, a
        # pass per block 2.25.  The halves' map is half a block, and the quotients transform _BLOCK_COLS halves at a
        # time in one workspace
        n, m = 2**14, 64
        first = n // 2 - m // 2
        plan = dpss.SlepianPlan(n, 0.25)
        tracemalloc.start()
        try:
            block, lams = plan._solve(first, first + m - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak + mapped_bytes() < 2.5 * 8 * n * m, (peak, mapped_bytes())
        assert np.abs(lams - rayleigh_extended(block, first + np.arange(m), n, 0.25)).max() <= 8 * 2.0**-52

    @pytest.mark.parametrize("n, w, first, last", [(n, w, 0, n - 1) for n in (1, 2, 3, 4, 65, 600)
                                                     for w in (5e-324, 1e-13, 0.25, 0.4999)] + [(1030, 0.25, 400, 600)])
    def test_every_column_has_an_entry_above_the_sign_tolerance(self, n, w, first, last):
        # _fix_signs reads the first such entry: a column is the leading half of a unit vector, so its squares sum
        # to at least 1/2 and one entry is at least 1/sqrt(n + 1)
        block, _ = dpss.SlepianPlan(n, w).pairs(first, last)
        assert np.all(np.sum(block**2, axis=0) >= 0.5 - 1e-12)
        least = (1.0 - 1e-12) / math.sqrt(n + 1)
        assert least > dpss._SIGN_TOL and np.all(np.abs(block).max(axis=0) >= least)

    @pytest.mark.parametrize("n", [255, 256])
    def test_held_pairs_are_one_block_of_leading_halves(self, n):
        # the plan holds ceil(n/2) entries per pair, 8 x ceil(n/2) x pairs bytes, and no full-length row
        dpss.slepian_plan.cache_clear()
        transition_window(n, 0.25, 1e-9, 1 - 1e-9)
        transition_window(n, 0.25, 1e-12, 1 - 1e-3)
        plan = dpss.slepian_plan(n, 0.25)
        first, block, lams = plan._held
        assert block.shape == ((n + 1) // 2, lams.size) and block.flags.f_contiguous
        assert block.nbytes == 8 * ((n + 1) // 2) * lams.size
        held = [a for a in vars(plan).values() if isinstance(a, np.ndarray)] + [block, lams]
        assert all(n not in a.shape for a in held)
        # its columns are the leading halves of Slepian vectors, zero at the middle of an odd vector at odd n
        vecs = unfold(block, first + np.arange(lams.size), n)
        assert np.array_equal(vecs[:(n + 1) // 2], block)
        assert np.abs(prolate_dense(n, 0.25) @ vecs - vecs * lams).max() <= 1e-13
        assert np.abs(vecs.T @ vecs - np.eye(lams.size)).max() <= 1e-12
        if n % 2:
            assert not np.any(block[-1, (1 - first) % 2::2])

    def test_holds_one_point(self):
        dpss.slepian_plan.cache_clear()
        plan = dpss.slepian_plan(64, 0.25)
        assert dpss.slepian_plan(64, 0.25) is plan
        other = dpss.slepian_plan(65, 0.25)
        assert dpss.slepian_plan.cache_info().currsize == 1
        assert dpss.slepian_plan(65, 0.25) is other and dpss.slepian_plan(64, 0.25) is not plan

    def test_stored_arrays_are_read_only(self):
        dpss.slepian_plan.cache_clear()
        transition_window(256, 0.25, 1e-6, 1 - 1e-6)
        plan = dpss.slepian_plan(256, 0.25)
        _, rows, lams = plan._held
        rows_view, lams_view = plan.pairs(120, 130)
        stored = [rows, lams, rows_view, lams_view, plan.b_op._spectra]
        stored += [a for pair in plan.tridiagonals for a in pair]
        for a in stored:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0.0

    def test_a_window_is_read_only_and_a_second_call_returns_equal_arrays(self):
        n, w, lo, hi = 256, 0.25, 1e-6, 1 - 1e-6
        dpss.slepian_plan.cache_clear()
        start, lams, vecs = transition_window(n, w, lo, hi)
        for a in (lams, vecs):
            with pytest.raises(ValueError):
                a[...] = 0.5
        again = transition_window(n, w, lo, hi)
        assert again[0] == start
        assert np.array_equal(again[1], lams) and np.array_equal(again[2], vecs)

    def test_windows_and_refined_windows_are_views_of_the_plan(self):
        # the plan is the only holder of the pairs, also of those a refinement extends the window by
        n, w, lo = 256, 0.25, 1e-6
        dpss.slepian_plan.cache_clear()
        start, lams, vecs = transition_window(n, w, lo, 1 - lo)
        _, rows, held = dpss.slepian_plan(n, w)._held
        assert np.shares_memory(lams, held) and np.shares_memory(vecs, rows)
        flagged = np.zeros(lams.size, bool)
        flagged[-1] = True
        refined_lams, refined = refine_window(n, w, start, lams, vecs, flagged, lo, extend=True)
        assert refined.shape == ((n + 1) // 2, refined_lams.size) and refined_lams.size > 0
        assert np.shares_memory(refined, dpss.slepian_plan(n, w)._held[1])
        for a in (lams, vecs, refined):
            assert not a.flags.writeable

    def test_what_memory_cannot_hold_is_refused_before_it_is_allocated(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("allocated before the memory check")

        dpss.slepian_plan.cache_clear()
        plan = dpss.slepian_plan(256, 0.25)
        monkeypatch.setattr(dpss, "prolate_column", refused)
        monkeypatch.setattr(dpss, "mapped_rows", refused)
        # n = 2^40 needs terabytes for the plan alone, on any machine
        with pytest.raises(MemoryError, match="n=1099511627776 solving"):
            transition_window(2**40, 0.25, 1e-3, 1 - 1e-3)
        # 256 KiB of memory: all 256 pairs at n = 256 need about 430 KiB (block, eigensolver vectors, workspace)
        monkeypatch.setattr(dpss.os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 64}.get)
        with pytest.raises(MemoryError, match="n=256 solving 256 pairs"):
            plan.pairs(0, 255)

    @pytest.mark.parametrize("error", [AttributeError, ValueError, OSError])
    def test_a_platform_that_reports_no_memory_refuses_nothing(self, monkeypatch, error):
        def unreported(name):
            raise error(name)

        monkeypatch.setattr(dpss.os, "sysconf", unreported)
        assert dpss._require_memory(2**40, 2**40) is None

    @pytest.mark.parametrize("n", [257, 258])
    def test_a_window_is_a_column_major_view_of_the_half_block(self, n):
        dpss.slepian_plan.cache_clear()
        start, lams, block = transition_window(n, 0.25, 1e-6, 1 - 1e-6)
        held_first, held, _ = dpss.slepian_plan(n, 0.25)._held
        assert block.shape == ((n + 1) // 2, lams.size) and block.flags.f_contiguous and not block.flags.writeable
        assert np.shares_memory(block, held)
        assert np.array_equal(block, held[:, start - held_first:start - held_first + lams.size])


class TestParsevalQuotients:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 64, 65, 100, 129, 255, 256])
    def test_half_quadratic_forms_match_the_dense_form(self, n, rng):
        # one DCT or DST per half covers every case of n's and the vector's parity; 20 columns run two chunks
        w = 0.3
        parity = rng.integers(0, 2 if n > 1 else 1, 20)
        block = rng.standard_normal(((n + 1) // 2, parity.size))
        if n % 2:
            block[-1, parity == 1] = 0.0
        vecs = unfold(block, parity, n)
        want = np.einsum("ij,ij->j", vecs, prolate_dense(n, w) @ vecs)
        got = ToeplitzOperator(prolate_column(n, w)).half_quadratic_forms(np.asfortranarray(block), parity)
        assert np.all(np.abs(got - want) <= 1e-14 * np.einsum("ij,ij->j", vecs, vecs))

    @needs_extended
    @pytest.mark.parametrize("n", [255, 256, 4095, 4096])
    @pytest.mark.parametrize("w", [0.02, 0.25, 0.45])
    def test_plan_quotients_match_the_extended_ones(self, n, w):
        plan = dpss.SlepianPlan(n, w)
        centre = default_subspace_dim(n, w)
        for first in (centre - 6, centre - 5):
            block, lams = plan._solve(first, first + 11)
            assert np.abs(lams - rayleigh_extended(block, first + np.arange(12), n, w)).max() <= 8 * 2.0**-52

    @needs_extended
    @pytest.mark.parametrize("n", [255, 256])
    def test_a_longdouble_operator_gives_longdouble_forms(self, n):
        # the workspace takes the operator's dtype, so rayleigh_extended's operator can go through the same transforms
        start, lams, block = transition_window(n, 0.25, 1e-12, 1 - 1e-12)
        index = start + np.arange(lams.size)
        got = ToeplitzOperator(prolate_column(n, 0.25, np.longdouble)).half_quadratic_forms(block, index)
        vecs = unfold(block, index, n).astype(np.longdouble)
        assert got.dtype == np.longdouble
        want = rayleigh_extended(block, index, n, 0.25)
        assert np.abs(got / np.einsum("ij,ij->j", vecs, vecs) - want).max() <= 2.0**-53


def _scipy_openblas():
    """scipy's bundled OpenBLAS, found without the library's own lookup."""
    pattern = os.path.join(os.path.dirname(scipy.__file__), os.pardir, "scipy.libs", "libscipy_openblas*")
    return next(lib for lib in map(ctypes.CDLL, glob.glob(pattern)) if hasattr(lib, "openblas_set_num_threads_local"))


@pytest.fixture
def blas_threads():
    """blas_threads() reads scipy's OpenBLAS thread count, blas_threads(k) sets it; restored after the test."""
    setter = dpss._openblas_thread_setter()
    if setter is None:
        pytest.skip("scipy does not run its bundled OpenBLAS")
    original = setter(1)
    setter(original)

    def threads(k=None):
        previous = setter(1 if k is None else k)
        if k is None:
            setter(previous)
        return previous

    yield threads
    setter(original)


class TestSolveThreads:
    def test_solves_run_on_one_thread_and_restore_the_count(self, monkeypatch, blas_threads):
        blas_threads(2)
        want = blas_threads()
        seen = []
        solve = dpss._bisect

        def watched(*args):
            seen.append(blas_threads())
            return solve(*args)

        monkeypatch.setattr(dpss, "_bisect", watched)
        dpss.slepian_plan.cache_clear()
        transition_window(256, 0.25, 1e-6, 1 - 1e-6)
        assert seen and set(seen) == {1}
        assert blas_threads() == want

    def test_both_threads_solve_on_one_blas_thread(self, monkeypatch, blas_threads):
        # at n = 2^14 both halves have 8192 rows: the odd one is solved on a second thread, made usable here
        blas_threads(2)
        pool = _scipy_openblas().scipy_openblas_get_num_threads
        seen, solve = [], dpss._bisect

        def watched(*args):
            seen.append((threading.get_ident(), pool()))
            return solve(*args)

        monkeypatch.setattr(dpss, "_bisect", watched)
        monkeypatch.setattr(dpss.os, "sched_getaffinity", lambda pid: {0, 1})
        dpss.slepian_plan.cache_clear()
        transition_window(2**14, 0.25, 1e-6, 1 - 1e-6)
        assert len({ident for ident, _ in seen}) == 2 and {threads for _, threads in seen} == {1}
        assert pool() == 2

    def test_sections_nest(self, blas_threads):
        blas_threads(2)
        want = blas_threads()
        with dpss._one_blas_thread:
            with dpss._one_blas_thread:
                assert blas_threads() == 1
            assert blas_threads() == 1
        assert blas_threads() == want

    def test_scipys_pool_reads_one_thread_inside_and_its_count_after(self, blas_threads):
        # through the library's own getter rather than the setter's return value; the guard sets only scipy's
        # bundled OpenBLAS, the one scipy.linalg's LAPACK runs on
        pool = _scipy_openblas().scipy_openblas_get_num_threads
        blas_threads(2)
        want = pool()
        assert want == blas_threads()
        with dpss._one_blas_thread:
            assert pool() == 1
        assert pool() == want

    def test_without_a_loadable_openblas_the_sections_do_nothing(self, monkeypatch, tmp_path):
        # a library that does not load is skipped, and with none left there is no setter to call
        fake = tmp_path / "libscipy_openblas-fake.so"
        fake.write_bytes(b"not a shared library")
        monkeypatch.setattr(dpss.glob, "glob", lambda pattern: [str(fake)])
        dpss._openblas_thread_setter.cache_clear()
        try:
            assert dpss._openblas_thread_setter() is None
            with dpss._one_blas_thread:
                assert dpss._one_blas_thread._open == 0
        finally:
            dpss._openblas_thread_setter.cache_clear()

    def test_window_does_not_depend_on_the_thread_count(self, blas_threads):
        # at n = 2^15 the half-size tridiagonals are long enough for OpenBLAS to split level-1 BLAS
        windows = []
        for k in (1, 2):
            blas_threads(k)
            dpss.slepian_plan.cache_clear()
            windows.append(transition_window(2**15, 0.25, 1e-6, 1 - 1e-6))
        (start1, lams1, vecs1), (start2, lams2, vecs2) = windows
        assert start1 == start2 and np.array_equal(lams1, lams2) and np.array_equal(vecs1, vecs2)


def _usable_cpus(monkeypatch, count):
    """Make count CPUs usable as dpss sees them."""
    monkeypatch.setattr(dpss.os, "sched_getaffinity", lambda pid: set(range(count)))


def _on_worker():
    return threading.current_thread() is not threading.main_thread()


class TestParityThreads:
    """Both parity halves at once: n >= 8191 puts at least _THREAD_HALF rows in each."""

    @pytest.mark.parametrize("n", [2**14, 2**14 + 1])
    def test_same_block_and_quotients_as_one_thread(self, monkeypatch, n):
        solvers, solve = [], dpss._bisect

        def watched(*args):
            solvers.append(threading.get_ident())
            return solve(*args)

        monkeypatch.setattr(dpss, "_bisect", watched)
        center = default_subspace_dim(n, 0.25)
        pairs = {}
        for cpus in (2, 1):
            _usable_cpus(monkeypatch, cpus)
            solvers.clear()
            pairs[cpus] = dpss.SlepianPlan(n, 0.25).pairs(center - 15, center + 15)
            assert len(set(solvers)) == cpus
        assert np.array_equal(pairs[1][0], pairs[2][0]) and np.array_equal(pairs[1][1], pairs[2][1])

    def test_small_halves_whole_halves_and_one_parity_stay_on_one_thread(self, monkeypatch):
        _usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(dpss.concurrent.futures, "ThreadPoolExecutor", None)
        dpss.SlepianPlan(8190, 0.25).pairs(4080, 4110)  # halves of 4095 rows
        dpss.SlepianPlan(2**14, 0.25).pairs(8190, 8190)  # the even parity only
        monkeypatch.setattr(dpss, "_THREAD_HALF", 1)
        dpss.SlepianPlan(64, 0.25).pairs(0, 63)  # both halves whole

    def test_a_failed_loose_solve_on_the_second_thread_is_retried_at_full_precision(self, monkeypatch):
        n, first, last = 2**14, 8170, 8210
        want = dpss.SlepianPlan(n, 0.25).pairs(first, last)[0]
        with monkeypatch.context() as m:
            _full_precision(m)
            exact = dpss.SlepianPlan(n, 0.25).pairs(first, last)[0]
        calls, solve = [], dpss._bisect

        def failing(d, e, il, iu, tol, out=None):
            calls.append((_on_worker(), tol))
            if _on_worker() and tol > 0.0:
                raise np.linalg.LinAlgError("eigenvectors failed to converge")
            return solve(d, e, il, iu, tol, out)

        monkeypatch.setattr(dpss, "_bisect", failing)
        _usable_cpus(monkeypatch, 2)
        got = dpss.SlepianPlan(n, 0.25).pairs(first, last)[0]
        worker = [tol for on_worker, tol in calls if on_worker]
        assert len(worker) == 2 and worker[0] > 0.0 and worker[1] == 0.0
        # the odd columns (first is even) as the full-precision solve's, the even ones as the loose solve's
        assert np.array_equal(got[:, 1::2], exact[:, 1::2]) and np.array_equal(got[:, ::2], want[:, ::2])

    def test_an_error_on_the_second_thread_reaches_the_caller_and_leaves_no_thread(self, monkeypatch):
        solve = dpss._bisect

        def failing(*args):
            if _on_worker():
                raise np.linalg.LinAlgError("eigenvectors failed to converge")
            return solve(*args)

        monkeypatch.setattr(dpss, "_bisect", failing)
        _usable_cpus(monkeypatch, 2)
        before = threading.active_count()
        with pytest.raises(np.linalg.LinAlgError, match="failed to converge"):
            dpss.SlepianPlan(2**14, 0.25).pairs(8170, 8210)
        assert threading.active_count() == before

    def test_no_thread_outlives_a_build(self, monkeypatch):
        _usable_cpus(monkeypatch, 2)
        dpss.slepian_plan.cache_clear()
        before = threading.active_count()
        FastProjector.build(SlepianParams.create(2**14, 0.25, 1e-6))
        assert threading.active_count() == before


class TestRayleighLambda:
    def test_identity_symbol_gives_one(self, rng):
        col = np.zeros(32)
        col[0] = 1.0
        op = ToeplitzOperator(col)
        v = rng.standard_normal(32)
        v /= np.linalg.norm(v)
        assert rayleigh_lambda(v, op) == pytest.approx(1.0, abs=1e-12)

    def test_extreme_slepian_vectors(self):
        n, w = 64, 0.25
        dense_lams, dense_vecs = eig_dense(n, w)
        op = ToeplitzOperator(prolate_column(n, w))
        assert rayleigh_lambda(dense_vecs[:, 0], op) == pytest.approx(dense_lams[0], abs=1e-10)
        assert rayleigh_lambda(dense_vecs[:, -1], op) == pytest.approx(dense_lams[-1], abs=1e-10)

    def test_rejects_non_unit_vector(self):
        op = ToeplitzOperator(prolate_column(8, 0.25))
        with pytest.raises(ValueError):
            rayleigh_lambda(np.full(8, 0.9), op)


def _window(n, w, eps):
    """The transition window (start, lams, vecs) of eigenvalues in (eps, 1 - eps)."""
    return transition_window(n, w, eps, 1.0 - eps)


class TestTransitionEigenpairs:
    """The window (eps, 1 - eps) and its split at k, as the projector and pinv corrections take them."""

    def test_count_matches_dense_and_bound(self):
        n, w, eps = 256, 0.25, 1e-3
        _, lams, _ = _window(n, w, eps)
        dense = eigvals_dense(n, w)
        want = int(np.count_nonzero((dense > eps) & (dense < 1 - eps)))
        assert lams.size == want
        assert lams.size <= transition_count_budget(n, eps)

    def test_wide_tolerance_can_be_empty(self):
        n, w, eps = 64, 0.25, 0.499
        _, lams, _ = _window(n, w, eps)
        dense = eigvals_dense(n, w)
        want = int(np.count_nonzero((dense > eps) & (dense < 1 - eps)))
        assert lams.size == want
        if want == 0:
            k = default_subspace_dim(n, w)
            assert projection_correction(n, w, eps, k).rank == 0
            assert pinv_correction(n, w, eps, k).rank == 0

    def test_postconditions(self):
        n, w, eps = 128, 0.25, 1e-6
        k = default_subspace_dim(n, w)
        start, lams, _ = _window(n, w, eps)
        assert np.all((lams > eps) & (lams < 1 - eps))
        assert start <= k <= start + lams.size
        # the pairs below k are pulled up to one, the rest pushed down to zero
        cut = k - start
        weights = projection_correction(n, w, eps, k).weights
        assert np.array_equal(weights, np.concatenate([1 - lams[:cut], -lams[cut:]]))
        dense = eigvals_dense(n, w)
        want = int(np.count_nonzero((dense > eps) & (dense < 1 - eps)))
        assert lams.size == want

    def test_transition_vectors_orthogonal(self):
        start, lams, block = _window(512, 0.25, 1e-6)
        vecs = unfold(block, start + np.arange(lams.size), 512)
        gram = vecs.T @ vecs
        assert np.abs(gram - np.eye(lams.size)).max() <= 1e-8

    def test_split_respects_k(self):
        n, w, eps, k = 256, 0.25, 1e-6, 128
        start, lams, _ = _window(n, w, eps)
        for correction in (projection_correction, pinv_correction):
            u = correction(n, w, eps, k)
            below = np.count_nonzero(u.weights > 0)
            assert u.rank == lams.size and below == k - start
            assert np.all(u.weights[below:] < 0)

    def test_bad_split_rejected(self):
        for correction in (projection_correction, pinv_correction):
            for k in (0, 64):
                with pytest.raises(PreconditionViolated, match=r"k=\d+ violates the split condition"):
                    correction(64, 0.25, 1e-3, k)

    def test_deterministic(self):
        a, b = _window(128, 0.25, 1e-6), _window(128, 0.25, 1e-6)
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])
        assert np.array_equal(a[2], b[2])

    def test_sign_convention(self):
        # first entry beyond the sign tolerance is positive in every vector
        for vecs in (_window(128, 0.25, 1e-6)[2], dense_slepian_basis(64, 0.25)[0]):
            for j in range(vecs.shape[1]):
                col = vecs[:, j]
                lead = np.flatnonzero(np.abs(col) > 1e-12)[0]
                assert col[lead] > 0

    def test_count_helper_agrees(self, capsys):
        # `prolate gap-count` counts the window the corrections are built from
        assert main(["gap-count", "--n", "128", "--w", "0.25", "--eps", "1e-6"]) == 0
        count = int(capsys.readouterr().out.splitlines()[1].split(",")[3])
        assert count == _window(128, 0.25, 1e-6)[1].size == projection_correction(128, 0.25, 1e-6, 64).rank


class TestDenseSlepianBasis:
    def test_two_by_two_closed_form(self):
        _, lams = dense_slepian_basis(2, 0.25)
        assert lams[0] == pytest.approx(0.5 + 1 / math.pi, abs=1e-14)
        assert lams[1] == pytest.approx(0.5 - 1 / math.pi, abs=1e-14)

    def test_orthonormal_and_reconstructs(self):
        n, w = 256, 0.25
        s, lams = dense_slepian_basis(n, w)
        assert np.abs(s.T @ s - np.eye(n)).max() <= 1e-10
        b = prolate_dense(n, w)
        assert np.linalg.norm(b - (s * lams) @ s.T, 2) <= 1e-8
        assert np.all(np.diff(lams) <= 1e-12)

    def test_quarter_band_eigenvalue_symmetry(self):
        for n in (32, 128):
            _, lams = dense_slepian_basis(n, 0.25)
            assert np.abs(lams + lams[::-1] - 1.0).max() <= 1e-8

    def test_guard(self):
        with pytest.raises(ValueError):
            dense_slepian_basis(5000, 0.25)


class TestAsymptoticBand:
    def test_count_within_factor_two(self):
        for n in (256, 1024):
            for eps in (1e-3, 1e-6):
                count = _window(n, 0.25, eps)[1].size
                asym = 2.0 / math.pi**2 * math.log(n) * math.log(1.0 / eps - 1.0)
                assert asym / 2 <= count <= 2 * asym


def test_default_subspace_dim_rounds_half_up():
    assert default_subspace_dim(64, 0.25) == 32
    assert default_subspace_dim(63, 0.25) == 32  # 31.5 rounds up
    assert default_subspace_dim(10, 0.26) == 5  # 5.2 rounds down


def test_eigenvalues_clamp_within_tolerance_and_raise_beyond():
    got = dpss._clamp_eigenvalues(np.array([0.5, -1e-13, 1.0 + 1e-13, -0.0, 1.0, math.nan]))
    assert np.array_equal(got, [0.5, 0.0, 1.0, -0.0, 1.0, math.nan], equal_nan=True)
    assert math.copysign(1.0, got[3]) == -1.0  # a -0.0 estimate passes as it is
    for lams, first_beyond in (([0.5, 1.0 + 2e-12, -1.0], 1.0 + 2e-12), ([-2e-12], -2e-12)):
        with pytest.raises(ValueError, match=f"eigenvalue estimate {first_beyond} outside"):
            dpss._clamp_eigenvalues(np.array(lams))


def _rayleigh_unfolded(vecs, n, w):
    """rayleigh_extended as it took full columns: vecs' quotients against the longdouble Toeplitz apply,
    _BLOCK_COLS columns at a time, rounded to float64 and clamped."""
    b_op = ToeplitzOperator(prolate_column(n, w, np.longdouble))
    out = np.empty(vecs.shape[1])
    for j in range(0, vecs.shape[1], dpss._BLOCK_COLS):
        v = vecs[:, j:j + dpss._BLOCK_COLS].astype(np.longdouble)
        out[j:j + dpss._BLOCK_COLS] = np.einsum("ij,ij->j", v, b_op.apply_block(v)) / np.einsum("ij,ij->j", v, v)
    return np.clip(out, 0.0, 1.0)


class TestExtendedQuotients:
    @needs_extended
    @pytest.mark.parametrize("w", [0.25, 1.0 / 16.0, 0.45])
    def test_quotient_errors_within_estimates(self, w):
        n = 256
        start, lams, block = transition_window(n, w, 1e-17, 1.0 - 1e-9)
        ref = eig_extended(n, w)[0][start:start + lams.size].astype(float)
        assert np.max(np.abs(lams - ref)) <= quotient_error(n, w)
        got = rayleigh_extended(block, start + np.arange(lams.size), n, w)
        # the refined values are rounded to float64, hence the relative term
        assert np.all(np.abs(got - ref) <= quotient_error(n, w, extended=True) + 2.0**-52 * ref)

    @pytest.mark.parametrize("n", [255, 256])
    def test_half_block_quotients_match_unfolded_columns(self, n):
        # the half columns, unfolded a few at a time, give the quotients of the whole unfolded columns bit for bit,
        # also for a scattered selection of both parities such as refine_window flags
        w = 0.25
        start, lams, block = transition_window(n, w, 1e-17, 1.0 - 1e-9)
        assert lams.size > 2 * dpss._BLOCK_COLS
        picks = [np.arange(lams.size), np.flatnonzero(np.arange(lams.size) % 3 != 1)]
        for cols in picks:
            got = rayleigh_extended(block[:, cols], start + cols, n, w)
            assert np.array_equal(got, _rayleigh_unfolded(unfold(block[:, cols], start + cols, n), n, w))

    @needs_extended
    def test_extended_edge_reaches_past_float64_window(self):
        # a threshold far below every noise floor: refinement extends the
        # window until an eigenvalue falls to the extended noise floor
        n, w, lo = 128, 0.25, 1e-40
        start, lams, vecs = transition_window(n, w, lo, 1.0 - 1e-6)
        flagged = np.ones(lams.size, bool)
        got_lams, got_vecs = refine_window(n, w, start, lams, vecs, flagged, lo, extend=True)
        ref = eig_extended(n, w)[0].astype(float)
        floor = quotient_error(n, w, extended=True)
        assert got_vecs.shape == ((n + 1) // 2, got_lams.size)
        assert np.all(got_lams > floor)
        assert ref[start + got_lams.size] <= 2 * floor
