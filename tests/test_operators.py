import math
import mmap
import struct
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings

from prolate.dpss import (
    PreconditionViolated,
    default_subspace_dim,
    slepian_plan,
    transition_window,
    unfold,
)
from prolate.fft_kernels import PartialFourier, ToeplitzOperator
from prolate.lowrank import (
    SpectralFactor,
    correction_rank_budget,
    hilbert_rank,
    taylor_widths,
    tikhonov_precision_floor,
    transition_count_budget,
)
from prolate.operators import (
    MAX_EMPTY_N,
    BadMagicError,
    FactorFileError,
    FastFactorization,
    FastProjector,
    FastPseudoinverse,
    FastTikhonov,
    PrecisionFloorWarning,
    SlepianParams,
    TruncatedFileError,
    UnsupportedVersionError,
    load_operator,
    operator_from_bytes,
    operator_to_bytes,
    save_operator,
)

from oracles import (
    eig_dense,
    factor_halves,
    needs_extended,
    pinv_oracle,
    projection_oracle,
    tikhonov_oracle,
)
from strategies import (
    HEADER_LENGTH,
    build_requests,
    fslt_bytes,
    hilbert_rank_step,
    middle_row_offsets,
    small_fslt_files,
    version_2_projector,
    with_version,
)


class TestSlepianParams:
    def test_derived_fields(self):
        p = SlepianParams.create(64, 0.25, 1e-6)
        assert p.k == 32

    def test_k_override(self):
        p = SlepianParams.create(64, 0.25, 1e-6, k=30)
        assert p.k == 30

    def test_validation(self):
        for bad in [(0, 0.25, 1e-6), (8, 0.6, 1e-6), (8, 0.25, 0.7), (8, 0.25, -1e-3)]:
            with pytest.raises(ValueError):
                SlepianParams.create(*bad)
        with pytest.raises(ValueError):
            SlepianParams.create(8, 0.25, 1e-6, k=9)

    def test_rejects_non_integral_n_and_k(self):
        # a float n or k passed create and failed inside the build with a TypeError
        for n in (64.5, 64.0, "64"):
            with pytest.raises(ValueError, match="signal length n must be an integer"):
                SlepianParams.create(n, 0.25, 1e-6)
        for k in (32.0, 31.5):
            with pytest.raises(ValueError, match="subspace dimension k must be an integer"):
                SlepianParams.create(64, 0.25, 1e-6, k=k)

    @pytest.mark.parametrize("field, value", [(field, bad) for field, good in (("w", 0.25), ("epsilon", 1e-6))
                                              for bad in (str(good), complex(good), None, np.array([good]),
                                                          Decimal(str(good)))])
    def test_rejects_w_and_epsilon_that_are_not_real(self, field, value):
        # a str, complex, None or array raised TypeError at the range check, and a Decimal passed it and failed
        # inside the build
        args = {"w": 0.25, "epsilon": 1e-6, field: value}
        message = "half-bandwidth must lie in" if field == "w" else "tolerance must lie in"
        with pytest.raises(ValueError, match=message):
            SlepianParams.create(64, args["w"], args["epsilon"])

    @pytest.mark.parametrize("w, eps", [(np.float32(0.1), np.float32(1e-6)), (Fraction(1, 4), Fraction(1, 10**6)),
                                        (np.float16(0.25), 1e-6), (0.25, np.float64(1e-6))])
    def test_stores_any_real_w_and_epsilon_as_a_float(self, w, eps):
        p = SlepianParams.create(64, w, eps)
        assert type(p.w) is float and type(p.epsilon) is float and (p.w, p.epsilon) == (float(w), float(eps))

    def test_a_float32_w_factorization_reloads_bit_identically(self, rng):
        # kept as float32, w rounded bandwidth_shift_factor's (w - w') to float32 while the header stored its
        # float64 value, and the reload was 2.0e-7 away at |x| = 64
        n = 4099
        op = FastFactorization.build(SlepianParams.create(n, np.float32(0.1), 1e-6))
        back = operator_from_bytes(operator_to_bytes(op))
        for x in (rng.standard_normal(n), rng.standard_normal(n) + 1j * rng.standard_normal(n)):
            assert np.array_equal(back.compress(x), op.compress(x)) and np.array_equal(back.apply(x), op.apply(x))

    def test_accepts_numpy_integers(self):
        p = SlepianParams.create(np.int64(64), 0.25, 1e-6, k=np.int32(30))
        assert (p.n, p.k) == (64, 30) and type(p.n) is int and type(p.k) is int
        assert FastProjector.build(p).u.rank == FastProjector.build(SlepianParams.create(64, 0.25, 1e-6, k=30)).u.rank


class TestBuildSignatures:
    def test_each_kind_takes_its_own_arguments(self):
        # the projector and pinv builds ignored a second argument, and the Tikhonov build without alpha failed
        # inside the correction; now Python's own argument check refuses both
        params = SlepianParams.create(64, 0.25, 1e-3)
        for cls in (FastProjector, FastFactorization, FastPseudoinverse):
            with pytest.raises(TypeError, match="positional argument"):
                cls.build(params, 0.5)
        with pytest.raises(TypeError, match="missing 1 required positional argument: 'alpha'"):
            FastTikhonov.build(params)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(request=build_requests())
    @example(request=(64.5, 0.25, 1e-6, None, 1e-2))  # built until a TypeError deep in the eigensolve
    @example(request=(64, 0.25, 1e-6, 32.0, 1e-2))  # likewise, at slicing the window
    @example(request=(np.int64(64), 0.25, 1e-6, np.int64(32), 5e-324))
    def test_every_kind_builds_finite_or_refuses(self, request):
        # across and beyond the ranges of n, w, eps, k and alpha: a finite map for real and complex input, or a
        # ValueError (PreconditionViolated is one)
        n, w, eps, k, alpha = request
        builds = [lambda p: FastProjector.build(p), lambda p: FastFactorization.build(p),
                  lambda p: FastPseudoinverse.build(p), lambda p: FastTikhonov.build(p, alpha)]
        for build in builds:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PrecisionFloorWarning)
                try:
                    op = build(SlepianParams.create(n, w, eps, k=k))
                except ValueError:
                    continue
            x = np.random.default_rng(0).standard_normal((2, op.params.n))
            for y in (x[0], x[0] + 1j * x[1]):
                out = op.apply(y)
                assert out.shape == y.shape and np.all(np.isfinite(out)), (op.kind, request)


class TestFastProjector:
    def test_zero_maps_to_zero(self):
        op = FastProjector.build(SlepianParams.create(64, 0.25, 1e-6))
        assert np.linalg.norm(op.apply(np.zeros(64))) == 0.0

    def test_top_vector_is_fixed_point(self):
        n, w, eps = 256, 0.25, 1e-6
        op = FastProjector.build(SlepianParams.create(n, w, eps))
        _, vecs = eig_dense(n, w)
        s0 = vecs[:, 0]
        assert np.linalg.norm(op.apply(s0) - s0) <= eps

    def test_random_vectors_match_oracle(self, rng):
        n, w, eps = 256, 0.25, 1e-6
        op = FastProjector.build(SlepianParams.create(n, w, eps))
        ref = projection_oracle(n, w, op.params.k)
        for _ in range(5):
            x = rng.standard_normal(n)
            assert np.linalg.norm(op.apply(x) - ref @ x) <= eps * np.linalg.norm(x)

    def test_real_input_real_output(self, rng):
        op = FastProjector.build(SlepianParams.create(64, 0.25, 1e-6))
        out = op.apply(rng.standard_normal(64))
        assert not np.iscomplexobj(out)
        out_c = op.apply(rng.standard_normal(64) + 0j)
        assert np.iscomplexobj(out_c)

    def test_linearity(self, rng):
        op = FastProjector.build(SlepianParams.create(64, 0.25, 1e-6))
        x, y = rng.standard_normal(64), rng.standard_normal(64)
        lhs = op.apply(1.5 * x - 0.5 * y)
        rhs = 1.5 * op.apply(x) - 0.5 * op.apply(y)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * (np.linalg.norm(x) + np.linalg.norm(y))

    def test_approximate_idempotence(self, rng):
        n, w, eps = 256, 0.25, 1e-6
        op = FastProjector.build(SlepianParams.create(n, w, eps))
        x = rng.standard_normal(n)
        once = op.apply(x)
        assert np.linalg.norm(op.apply(once) - once) <= 3 * eps * np.linalg.norm(x)

    def test_invalid_split_fails_loudly(self):
        with pytest.raises(PreconditionViolated):
            FastProjector.build(SlepianParams.create(64, 0.25, 1e-6, k=2))

    def test_dimension_mismatch(self):
        op = FastProjector.build(SlepianParams.create(32, 0.25, 1e-3))
        with pytest.raises(ValueError):
            op.apply(np.zeros(33))

    @pytest.mark.parametrize("w", [1e-13, 1e-30, 1e-300])
    def test_the_default_projector_and_pinv_build_at_n_2_and_a_tiny_bandwidth(self, w):
        # nan Slepian pairs failed every comparison with the window's thresholds: both builds raised
        # PreconditionViolated
        params = SlepianParams.create(2, w, 1e-6)
        for op in (FastProjector.build(params), FastPseudoinverse.build(params)):
            assert np.all(np.isfinite(op.apply(np.array([1.0, -2.0])))), op.kind


class TestFastFactorization:
    def test_coefficient_length(self):
        op = FastFactorization.build(SlepianParams.create(256, 0.25, 1e-3))
        c = op.compress(np.zeros(256))
        assert c.shape == (op.k_prime,)
        assert op.k_prime == op.pf.num_cols + op.l.rank + op.u.rank

    def test_budget(self):
        for eps in (1e-3, 1e-9):
            op = FastFactorization.build(SlepianParams.create(256, 0.25, eps))
            assert op.k_prime <= op.k_prime_budget()

    @pytest.mark.parametrize("n, w, eps", [(64, 0.25, 1e-3), (255, 0.1, 1e-9), (1000, 1 / 3, 1e-12)])
    def test_budget_is_the_frame_and_the_two_correction_budgets(self, n, w, eps):
        # the frame's ceil(2nw) columns, then the Fourier and the spectral correction's budgets, which sum to the
        # paper's (12/pi^2 log(8n) + 18) log(15/eps) on top of the frame
        budget = FastFactorization.build(SlepianParams.create(n, w, eps)).k_prime_budget()
        parts = math.ceil(2 * n * w) + correction_rank_budget(n, eps) + transition_count_budget(n, eps)
        paper = math.ceil(2 * n * w) + (12 / math.pi**2 * math.log(8 * n) + 18) * math.log(15 / eps)
        assert budget == pytest.approx(parts, rel=1e-15, abs=0) and budget == pytest.approx(paper, rel=1e-15, abs=0)

    def test_zero_round_trip(self):
        op = FastFactorization.build(SlepianParams.create(64, 0.25, 1e-3))
        assert np.linalg.norm(op.decompress(np.zeros(op.k_prime, dtype=complex))) == 0.0

    def test_round_trip_matches_projection(self, rng):
        n, w, eps = 256, 0.25, 1e-6
        op = FastFactorization.build(SlepianParams.create(n, w, eps))
        ref = projection_oracle(n, w, op.params.k)
        for _ in range(5):
            x = rng.standard_normal(n)
            out = op.apply(x)
            assert np.linalg.norm(out - ref @ x) <= 2 * eps * np.linalg.norm(x)
            assert np.linalg.norm(out.imag) <= 2 * eps * np.linalg.norm(x)

    def test_tolerance_beyond_the_taylor_widths_is_a_value_error(self):
        # below about 1.09e-47 the even Taylor block would need 171!, beyond float range; it fails before the
        # eigensolve, whose window at 2^16 would otherwise pass its pair cap first
        for n in (48, 2**16):
            with pytest.raises(ValueError, match="even Taylor block of width 181"):
                FastFactorization.build(SlepianParams.create(n, 0.25, 1e-50))
        with pytest.warns(PrecisionFloorWarning):
            op = FastFactorization.build(SlepianParams.create(48, 0.25, 1.1e-47))
        assert [len(op.l.ca), len(op.l.cb)] == [156, 169]


class TestFastPseudoinverse:
    def test_zero(self):
        op = FastPseudoinverse.build(SlepianParams.create(64, 0.25, 1e-6))
        assert np.linalg.norm(op.apply(np.zeros(64))) == 0.0

    def test_top_vector_scaling(self):
        n, w, eps = 256, 0.25, 1e-6
        op = FastPseudoinverse.build(SlepianParams.create(n, w, eps))
        lams, vecs = eig_dense(n, w)
        s0 = vecs[:, 0]
        assert np.linalg.norm(op.apply(s0) - s0 / lams[0]) <= 3 * eps

    def test_random_vectors_match_oracle(self, rng):
        n, w, eps = 256, 0.25, 1e-6
        op = FastPseudoinverse.build(SlepianParams.create(n, w, eps))
        ref = pinv_oracle(n, w, op.params.k)
        for _ in range(5):
            y = rng.standard_normal(n)
            assert np.linalg.norm(op.apply(y) - ref @ y) <= 3 * eps * np.linalg.norm(y)

    def test_cutoff_constructor(self):
        n, w = 129, 1 / 3
        op = FastPseudoinverse.build_with_cutoff(n, w, 1e-5, 1e-4)
        lams, _ = eig_dense(n, w)
        assert op.params.k == int(np.count_nonzero(lams >= 1e-4))

    @pytest.mark.parametrize("n, w, eps, cutoff, message", [
        (81.5, 1 / 3, 1e-5, 1e-4, "signal length n must be an integer"),
        (0, 1 / 3, 1e-5, 1e-4, "signal length must be positive"),
        *((81, w, 1e-5, 1e-4, "half-bandwidth must lie in") for w in (0.7, 0.0, math.nan)),
        *((81, 1 / 3, eps, 1e-4, "tolerance must lie in") for eps in (2.0, math.nan)),
        *((81, 1 / 3, 1e-5, cutoff, "cutoff .* must lie inside") for cutoff in (1e-6, 1.0, math.nan)),
    ])
    def test_cutoff_constructor_validates_before_the_window_solve(self, monkeypatch, n, w, eps, cutoff, message):
        # n, w and eps get SlepianParams' checks, then the cutoff its own, before transition_window runs
        monkeypatch.setattr("prolate.operators.transition_window", lambda *args: pytest.fail("the window was solved"))
        with pytest.raises(ValueError, match=message):
            FastPseudoinverse.build_with_cutoff(n, w, eps, cutoff)


class TestFastTikhonov:
    def test_eigenvector_action(self):
        n, w, eps, alpha = 128, 0.25, 1e-6, 1e-2
        op = FastTikhonov.build(SlepianParams.create(n, w, eps), alpha)
        lams, vecs = eig_dense(n, w)
        x = vecs[:, 5]
        want = lams[5] / (lams[5] ** 2 + alpha) * x
        assert np.linalg.norm(op.apply(x) - want) <= 2 * eps

    def test_random_vectors_match_oracle(self, rng):
        # the small-alpha regime from the extension experiment
        n, w, eps, alpha = 256, 0.25, 1e-5, 1e-8
        op = FastTikhonov.build(SlepianParams.create(n, w, eps), alpha)
        ref = tikhonov_oracle(n, w, alpha)
        for _ in range(5):
            y = rng.standard_normal(n)
            assert np.linalg.norm(op.apply(y) - ref @ y) <= eps * np.linalg.norm(y)

    def test_rejects_bad_alpha(self):
        for alpha in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="regularization weight must be positive and finite"):
                FastTikhonov.build(SlepianParams.create(64, 0.25, 1e-3), alpha)
            with pytest.raises(ValueError, match="regularization weight must be positive and finite"):
                tikhonov_precision_floor(64, 0.25, alpha)

    @pytest.mark.parametrize("alpha", ["1e-2", 1e-2 + 0j, None, np.array([1e-2]), Decimal("1e-2")])
    def test_rejects_alpha_that_is_not_real(self, alpha):
        with pytest.raises(ValueError, match="regularization weight must be positive and finite"):
            FastTikhonov.build(SlepianParams.create(64, 0.25, 1e-3), alpha)

    def test_stores_a_real_alpha_as_a_float(self):
        params = SlepianParams.create(64, 0.25, 1e-3)
        for alpha in (np.float32(1e-2), Fraction(1, 100)):
            op = FastTikhonov.build(params, alpha)
            assert type(op.alpha) is float and op.alpha == float(alpha)
            assert operator_to_bytes(operator_from_bytes(operator_to_bytes(op))) == operator_to_bytes(op)

    @pytest.mark.parametrize("eps", [0.1, 1e-5])
    def test_huge_alpha_builds_or_is_a_value_error(self, eps, rng):
        # the window's low edge alpha (1 + alpha) eps passes 1 - eps/3 long before alpha nears the float limit;
        # squaring that edge, or alpha itself in the precision floor, overflowed from alpha near 1e39
        x = rng.standard_normal(64)
        for alpha in (1e39, 1e78, 1e155, 1e308):
            try:
                op = FastTikhonov.build(SlepianParams.create(64, 0.25, eps), alpha)
            except ValueError:
                continue
            assert op.u.rank == 0 and np.all(np.isfinite(op.apply(x))) and 0.0 <= op.precision_floor < eps

    def test_tiny_alpha_builds_with_a_floor_warning(self, rng):
        # the weight's slope divided by the square of lambda^2 + alpha, which underflowed to zero from alpha
        # near 1e-162; down to the least subnormal the map now builds, its floor far above eps
        x = rng.standard_normal(64)
        for alpha in (1e-170, 1e-300, 5e-324):
            with pytest.warns(PrecisionFloorWarning):
                op = FastTikhonov.build(SlepianParams.create(64, 0.25, 1e-3), alpha)
            assert op.u.rank == 21 and np.all(np.isfinite(op.apply(x))), alpha

    def test_warns_below_precision_floor(self):
        params = SlepianParams.create(256, 0.25, 1e-9)
        with pytest.warns(PrecisionFloorWarning):
            op = FastTikhonov.build(params, 1e-14)
        assert op.precision_floor > params.epsilon
        assert operator_from_bytes(operator_to_bytes(op)).precision_floor == op.precision_floor

    @needs_extended
    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize("w", [0.25, 1.0 / 16.0])
    def test_small_alpha_acceptance_cells_reach_eps(self, n, w):
        # the alpha = 1e-8, eps = 1e-9 cells of acceptance criterion 6
        with warnings.catch_warnings():
            warnings.simplefilter("error", PrecisionFloorWarning)
            op = FastTikhonov.build(SlepianParams.create(n, w, 1e-9), 1e-8)
        assert op.precision_floor < op.error_bound


class TestPrecisionFloor:
    @pytest.mark.parametrize("cls", [FastProjector, FastPseudoinverse, FastFactorization])
    def test_warns_at_or_below_quotient_floor(self, cls):
        params = SlepianParams.create(4096, 0.25, 1e-14)
        with pytest.warns(PrecisionFloorWarning, match={1: "projector", 2: "factorization", 3: "pinv"}[cls.kind]):
            op = cls.build(params)
        assert op.precision_floor >= params.epsilon

    def test_build_with_cutoff_warns(self):
        with pytest.warns(PrecisionFloorWarning, match="pinv"):
            FastPseudoinverse.build_with_cutoff(4096, 0.25, 1e-14, 0.5)

    def test_silent_above_the_floor(self):
        params = SlepianParams.create(4096, 0.25, 1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            built = [cls.build(params) for cls in (FastProjector, FastPseudoinverse, FastFactorization)]
            built.append(FastPseudoinverse.build_with_cutoff(4096, 0.25, 1e-6, 0.5))
        for op in built:
            assert op.precision_floor < op.error_bound


def _apply(op, x):
    return op.decompress(op.compress(x)) if op.kind == 2 else op.apply(x)


class TestSharedPlan:
    """Builds at one (n, w) share the solved pairs and still equal cold builds."""

    @pytest.mark.parametrize("n, w, eps", [(256, 0.25, 1e-6), (2**14, 0.25, 1e-6), (2**14, 1.0 / 16.0, 1e-9)])
    def test_warm_builds_equal_cold_builds(self, n, w, eps, rng):
        params = SlepianParams.create(n, w, eps)
        kinds = {
            "projector": lambda: FastProjector.build(params),
            "tikhonov": lambda: FastTikhonov.build(params, 1e-2),
            "pinv": lambda: FastPseudoinverse.build(params),
            "factorization": lambda: FastFactorization.build(params),
        }
        cold = {}
        for name, build in kinds.items():
            slepian_plan.cache_clear()
            cold[name] = build()
        # the benchmark's order: the projector first, the rest reusing its pairs
        slepian_plan.cache_clear()
        warm = {name: build() for name, build in kinds.items()}
        warm["projector again"] = kinds["projector"]()
        cold["projector again"] = cold["projector"]
        for name, op in warm.items():
            if name != "tikhonov":
                assert operator_to_bytes(op) == operator_to_bytes(cold[name]), name
        tik, tik_cold = warm["tikhonov"], cold["tikhonov"]
        assert tik.u.rank == tik_cold.u.rank
        assert np.abs(tik.u.weights - tik_cold.u.weights).max() <= 1e-12 * np.abs(tik_cold.u.weights).max()
        for x in (rng.standard_normal(n), rng.standard_normal(n) + 1j * rng.standard_normal(n)):
            want = tik_cold.apply(x)
            assert np.linalg.norm(tik.apply(x) - want) <= 1e-12 * np.linalg.norm(want)

    def test_any_order_within_rounding(self, rng):
        n, w, eps = 1024, 0.25, 1e-6
        params = SlepianParams.create(n, w, eps)
        builds = [lambda: FastTikhonov.build(params, 1e-2), lambda: FastPseudoinverse.build(params),
                  lambda: FastFactorization.build(params), lambda: FastProjector.build(params)]
        cold = []
        for build in builds:
            slepian_plan.cache_clear()
            cold.append(build())
        slepian_plan.cache_clear()
        x = rng.standard_normal(n)
        for build, ref in zip(builds, cold):
            op = build()
            assert [f.rank for f in op.corrections()] == [f.rank for f in ref.corrections()]
            want = _apply(ref, x)
            assert np.linalg.norm(_apply(op, x) - want) <= 1e-12 * np.linalg.norm(want)

    def test_records_view_the_plans_block_and_outlive_its_snapshot(self, rng):
        # the four kinds kept at one (n, w) hold no block of their own; a projector built before a Tikhonov at
        # alpha = 1e-8 replaces the snapshot, and before the plan moves to another (n, w), keeps its own bits
        n, w = 4099, 0.25
        params = SlepianParams.create(n, w, 1e-6)
        slepian_plan.cache_clear()
        ops = [FastProjector.build(params), FastFactorization.build(params), FastPseudoinverse.build(params),
               FastTikhonov.build(params, 1e-2)]
        plan = slepian_plan(n, w)
        held = plan.held
        assert all(np.shares_memory(op.u.block, plan.pairs(held[0], held[-1])[0]) for op in ops)
        projector, xs = ops[0], (rng.standard_normal(n), rng.standard_normal(n) + 1j * rng.standard_normal(n))
        want = [projector.apply(x) for x in xs], bytes(operator_to_bytes(projector))
        FastTikhonov.build(params, 1e-8)
        assert slepian_plan(n, w) is plan and plan.held != held
        assert not np.shares_memory(projector.u.block, plan.pairs(plan.held[0], plan.held[-1])[0])
        del ops, plan
        for stage in ("grown", "evicted"):
            got = [projector.apply(x) for x in xs], bytes(operator_to_bytes(projector))
            assert all(map(np.array_equal, got[0], want[0])) and got[1] == want[1], stage
            slepian_plan(n + 2, w)


def test_all_operators_linear(rng):
    params = SlepianParams.create(96, 0.25, 1e-6)
    ops = [
        FastProjector.build(params),
        FastFactorization.build(params),
        FastPseudoinverse.build(params),
        FastTikhonov.build(params, 1e-2),
    ]
    x, y = rng.standard_normal(96), rng.standard_normal(96)
    for op in ops:
        lhs = op.apply(0.7 * x + 2.0 * y)
        rhs = 0.7 * op.apply(x) + 2.0 * op.apply(y)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * (np.linalg.norm(x) + np.linalg.norm(y))


def test_concurrent_application_is_safe(rng):
    from concurrent.futures import ThreadPoolExecutor

    op = FastProjector.build(SlepianParams.create(512, 0.25, 1e-6))
    xs = [rng.standard_normal(512) for _ in range(16)]
    serial = [op.apply(x) for x in xs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(op.apply, xs))
    for a, b in zip(serial, threaded):
        assert np.array_equal(a, b)


def _blocks(f):
    """The arrays of a correction whose rows follow n: a SpectralFactor's parity halves, a FourierFactor's z."""
    return f.halves if isinstance(f, SpectralFactor) else (f.z,)


def test_applies_copy_no_factor(rng):
    # a stored block copied (conjugated, reversed, folded, modulated or upcast
    # to complex) on the way would alone take at least the smallest block's
    # size in memory during the call; the Toeplitz and partial Fourier parts
    # hold no block, and their transforms' workspace outgrows a parity half
    n = 2048
    params = SlepianParams.create(n, 0.25, 1e-6)
    built = [FastProjector.build(params), FastFactorization.build(params), FastPseudoinverse.build(params),
             FastTikhonov.build(params, 1e-2)]
    x = rng.standard_normal(n)
    xc = x + 1j * rng.standard_normal(n)
    cases = []
    for op in built:
        for f in op.corrections():
            for v in (x, xc):
                c = f.adjoint_apply(v)
                calls = [("apply", lambda f=f, v=v: f.apply(v)), ("adjoint_apply", lambda f=f, v=v: f.adjoint_apply(v)),
                         ("synthesize", lambda f=f, c=c: f.synthesize(c))]
                cases += [(f"{op.kind} rank {f.rank} {name} {v.dtype}", call, f) for name, call in calls]
    for label, call, f in cases:
        bound = min(b.nbytes for b in _blocks(f))
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (label, peak, bound)


_WINDOWS = {"empty": (0.1, 0.49), "narrow": (0.25, 0.3), "wide": (0.25, 1e-6)}


class TestParityHalves:
    """The spectral records keep the leading rows of each vector; every kind still meets its bound."""

    @pytest.mark.parametrize("n", [1, 2, 3, 81, 161, 256, 257])
    @pytest.mark.parametrize("window", sorted(_WINDOWS))
    def test_every_kind_within_its_bound(self, n, window, rng):
        w, eps = _WINDOWS[window]
        params = SlepianParams.create(n, w, eps)
        built = [FastProjector.build(params), FastFactorization.build(params), FastPseudoinverse.build(params),
                 FastTikhonov.build(params, 1e-2)]
        exact = {1: projection_oracle(n, w, params.k), 2: projection_oracle(n, w, params.k),
                 3: pinv_oracle(n, w, params.k), 4: tikhonov_oracle(n, w, 1e-2)}
        for op in built:
            reloaded = operator_from_bytes(operator_to_bytes(op))
            for x in (rng.standard_normal(n), rng.standard_normal(n) + 1j * rng.standard_normal(n)):
                got = _apply(op, x)
                assert np.linalg.norm(got - exact[op.kind] @ x) <= op.error_bound * np.linalg.norm(x), op.kind
                assert np.array_equal(_apply(reloaded, x), got)

    @pytest.mark.parametrize("n", [65, 100, 129, 1000, 1025])
    @pytest.mark.parametrize("w, eps", [(0.25, 1e-6), (1.0 / 16.0, 1e-9)])
    def test_every_kind_within_its_bound_off_a_power_of_two(self, n, w, eps, rng):
        # the circulant embedding is twice a 2-3-5-smooth length here (L = 144, 200, 270, 2000 and 2160, where a
        # power of two took 256, 256, 512, 2048 and 4096); judged against the float64 dense oracles
        alpha, params = 1e-2, SlepianParams.create(n, w, eps)
        lams, vecs = eig_dense(n, w)
        exact = {1: projection_oracle(n, w, params.k), 2: projection_oracle(n, w, params.k),
                 3: pinv_oracle(n, w, params.k), 4: (vecs * (lams / (lams**2 + alpha))) @ vecs.T}
        for op in (FastProjector.build(params), FastFactorization.build(params), FastPseudoinverse.build(params),
                   FastTikhonov.build(params, alpha)):
            for x in (rng.standard_normal(n), rng.standard_normal(n) + 1j * rng.standard_normal(n)):
                assert np.linalg.norm(_apply(op, x) - exact[op.kind] @ x) <= op.error_bound * np.linalg.norm(x)

    def test_windows_reach_every_parity_mix(self):
        # the grid above holds empty windows, windows of one parity only (either one) and mixed ones
        mixes = set()
        for n in (1, 2, 3, 81, 161, 256, 257):
            for w, eps in _WINDOWS.values():
                params = SlepianParams.create(n, w, eps)
                for op in (FastProjector.build(params), FastTikhonov.build(params, 1e-2)):
                    even, odd = (b.shape[1] for b in op.u.halves)
                    mixes.add((even > 0, odd > 0))
        assert mixes == {(False, False), (True, False), (False, True), (True, True)}

    def test_agree_with_full_rows_from_the_plan(self, rng):
        # apply, compress and decompress against V diag(g) V^T with the full rows of V unfolded from slepian_plan
        n, w, eps, alpha = 2**14, 0.25, 1e-6, 1e-2
        params = SlepianParams.create(n, w, eps)
        start = transition_window(n, w, eps, 1 - eps)[0]
        tikhonov_start = transition_window(n, w, alpha * (1 + alpha) * eps, 1 - eps / 3)[0]
        built = [(FastProjector.build(params), start), (FastPseudoinverse.build(params), start),
                 (FastTikhonov.build(params, alpha), tikhonov_start), (FastFactorization.build(params), start)]
        x = rng.standard_normal(n)
        for op, first in built:
            g = np.asarray(op.u.weights)
            v = unfold(slepian_plan(n, w).pairs(first, first + g.size - 1)[0], first + np.arange(g.size), n)
            assert op.u.block.shape == ((n + 1) // 2, g.size)
            for y in (x, x + 1j * rng.standard_normal(n)):
                if op.kind == 2:
                    nf, nl = op.pf.num_cols, op.l.rank
                    c = op.compress(y)
                    want = np.concatenate([op.pf.adjoint(y), op.l.adjoint_apply(y), np.sqrt(np.abs(g)) * (v.T @ y)])
                    assert np.linalg.norm(c - want) <= 1e-14 * np.linalg.norm(want)
                    want = (op.pf.apply(c[:nf]) + op.l.synthesize(c[nf:nf + nl])
                            + v @ (np.sign(g) * np.sqrt(np.abs(g)) * c[nf + nl:]))
                    got = op.decompress(c)
                else:
                    want = op.b_op.apply(y) / (1.0 + op.alpha) + v @ (g * (v.T @ y))
                    got = op.apply(y)
                assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want), op.kind


@pytest.fixture(scope="module")
def ops():
    params = SlepianParams.create(96, 0.25, 1e-6)
    return [
        FastProjector.build(params),
        FastFactorization.build(params),
        FastPseudoinverse.build(params),
        FastTikhonov.build(params, 1e-2),
    ]


class TestPersistence:

    def test_round_trip_bytes_identical(self, ops, tmp_path):
        for op in ops:
            path = tmp_path / f"op{op.kind}.fslt"
            save_operator(op, path)
            reloaded = load_operator(path)
            assert operator_to_bytes(reloaded) == path.read_bytes()

    def test_round_trip_apply_bit_exact(self, ops, rng):
        for op in ops:
            reloaded = operator_from_bytes(operator_to_bytes(op))
            x = rng.standard_normal(96)
            assert np.array_equal(op.apply(x), reloaded.apply(x))
            xc = rng.standard_normal(96) + 1j * rng.standard_normal(96)
            assert np.array_equal(op.apply(xc), reloaded.apply(xc))

    def test_header_fields(self, ops):
        blob = operator_to_bytes(ops[3])
        assert blob[:4] == b"FSLT"
        version, = struct.unpack("<I", blob[4:8])
        assert version == 6

    def test_bad_magic(self, ops):
        blob = operator_to_bytes(ops[0])
        with pytest.raises(BadMagicError):
            operator_from_bytes(b"XXXX" + blob[4:])

    def test_unsupported_version(self, ops):
        p = ops[0].params
        # a rank-0 version-1 projector as that version laid it out: unpadded header, a (rank, complex flag) per half
        v1 = (b"FSLT" + struct.pack("<I", 1) + struct.pack("<QdddQB", p.n, p.w, p.epsilon, 0.0, p.k, 1)
              + struct.pack("<d", ops[0].error_bound) + struct.pack("<QB", 0, 0) * 2)
        # and every kind's version-6 file under the version fields of 3, 4, 5 and 99: each older version
        # laid out some record otherwise, so none is read
        older = [with_version(operator_to_bytes(op), v) for op in ops for v in (3, 4, 5, 99)]
        for data in (v1, version_2_projector(p, ops[0].error_bound), *older):
            with pytest.raises(UnsupportedVersionError, match="only version 6"):
                operator_from_bytes(data)

    def test_truncated(self, ops):
        blob = operator_to_bytes(ops[0])
        for cut in (3, 10, len(blob) - 5):
            with pytest.raises(TruncatedFileError):
                operator_from_bytes(blob[:cut])

    def test_trailing_garbage_rejected(self, ops):
        from prolate.operators import FactorFileError

        blob = operator_to_bytes(ops[0])
        with pytest.raises(FactorFileError):
            operator_from_bytes(blob + b"\x00")


@pytest.fixture(scope="module")
def ops256():
    params = SlepianParams.create(256, 0.25, 1e-6)
    return [
        FastProjector.build(params),
        FastFactorization.build(params),
        FastPseudoinverse.build(params),
        FastTikhonov.build(params, 1e-2),
    ]


def _held_arrays(obj, found):
    """ids of the arrays reachable from obj's attributes, past the fast transforms."""
    if isinstance(obj, np.ndarray):
        found.add(id(obj))
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _held_arrays(item, found)
    elif hasattr(obj, "__dict__") and not isinstance(obj, (ToeplitzOperator, PartialFourier, type)):
        for value in vars(obj).values():
            _held_arrays(value, found)
    return found


class TestStructuredFactors:
    def test_factors_list_every_held_array(self, ops256):
        # blocks, coefficient matrices and weights alike, so the factor bytes hide none
        for op in ops256:
            listed = {id(a) for a in op.factors()}
            assert _held_arrays(op, set()) == listed, op.kind
            assert len(listed) == len(op.factors()) == sum(len(f.arrays) for f in op.corrections())

    def test_built_blocks_live_in_maps_of_their_own(self, ops256):
        # a dropped operator then returns its blocks to the system, whatever was allocated after it
        for op in ops256:
            for a in (f.block if isinstance(f, SpectralFactor) else f.z for f in op.corrections()):
                base = a
                while isinstance(base, np.ndarray):
                    base = base.base
                assert a.flags.f_contiguous and isinstance(base, memoryview) and isinstance(base.obj, mmap.mmap)

    @pytest.mark.parametrize("n", [1024, 1025])
    def test_every_built_record_and_z_is_column_major_in_an_anonymous_map(self, n, monkeypatch):
        # the records keep the plan's block (a grown and refined window's too) and the factorization cfadi_solve's
        # z as they are, so none of them lands on the malloc heap
        made, real = [], mmap.mmap

        def recorded(fileno, length, *args, **kwargs):
            mapped = real(fileno, length, *args, **kwargs)
            if fileno == -1:
                made.append(mapped)
            return mapped

        monkeypatch.setattr(mmap, "mmap", recorded)
        slepian_plan.cache_clear()
        params = SlepianParams.create(n, 0.25, 1e-6)
        ops = [FastProjector.build(params), FastFactorization.build(params), FastPseudoinverse.build(params),
               FastTikhonov.build(params, 1e-2), FastTikhonov.build(params, 1e-8)]
        for a in [op.u.block for op in ops] + [ops[1].l.z]:
            base = a
            while isinstance(base, np.ndarray):
                base = base.base
            assert a.flags.f_contiguous and isinstance(base, memoryview) and any(base.obj is m for m in made)

    def test_file_is_header_plus_listed_arrays(self, ops256):
        # every kind: the 64-byte header, the spectral record's two u64 fields, then its weights and block
        # once; the factorization's Fourier correction is held (and listed) but rebuilt, not stored
        for op in ops256:
            assert len(operator_to_bytes(op)) == HEADER_LENGTH + sum(a.nbytes for a in op.u.arrays)
        n, h = 256, 128
        proj, fact = ops256[0], ops256[1]
        even, odd = (b.shape[1] for b in proj.u.halves)
        assert sum(a.nbytes for a in proj.factors()) == 8 * ((even + odd) + h * even + h * odd)
        assert operator_to_bytes(fact)[64:] == operator_to_bytes(proj)[64:]
        z, ra, rb = fact.l.z.shape[1], len(fact.l.ca), len(fact.l.cb)
        assert (ra, rb) == taylor_widths(1e-6) and z == hilbert_rank(n, 1e-6)
        assert sum(a.nbytes for a in fact.l.arrays) == 8 * (n * z + ra * ra + rb * rb)

    def test_ranks_keep_their_meaning(self, ops256):
        # coefficient counts: the columns of the dense halves, and the transition window
        proj, fact = ops256[0], ops256[1]
        assert fact.l.rank == factor_halves(fact.l)[0].shape[1]
        assert proj.u.rank == fact.u.rank == transition_window(256, 0.25, 1e-6, 1 - 1e-6)[1].size

    def test_encode_writes_each_array_once(self):
        op = FastFactorization.build(SlepianParams.create(2**14, 0.25, 1e-6))
        tracemalloc.start()
        try:
            blob = operator_to_bytes(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= len(blob) + 2**20, (peak, len(blob))


@pytest.fixture(scope="module")
def files14():
    params = SlepianParams.create(2**14, 0.25, 1e-6)
    built = [FastProjector.build(params), FastFactorization.build(params), FastPseudoinverse.build(params),
             FastTikhonov.build(params, 1e-2)]
    return [bytes(operator_to_bytes(op)) for op in built]


@pytest.mark.parametrize("kind", [1, 2, 3, 4])
def test_decode_allocates_nothing_in_proportion_to_the_file(files14, kind, mapped_bytes):
    # from bytes the blocks are views of the file; a cold plan's Toeplitz part measured 8.0 x 8n. Only the
    # factorization maps memory: its rebuilt z, r x n x 8 bytes, which the test below bounds by the file
    n, blob = 2**14, files14[kind - 1]
    z_bytes = 8 * n * hilbert_rank(n, 1e-6) if kind == 2 else 0
    slepian_plan.cache_clear()
    tracemalloc.start()
    try:
        op = operator_from_bytes(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op.kind == kind and not any(a.flags.writeable for a in op.factors())
    assert peak + mapped_bytes() <= 10 * 8 * n + 2**16 + z_bytes, (peak, mapped_bytes(), z_bytes)
    assert 10 * 8 * n + 2**16 < len(blob)


def test_built_operators_hold_read_only_arrays():
    # a loaded operator's arrays were read-only and a built one's writable, the shared Toeplitz part's too
    params = SlepianParams.create(256, 0.25, 1e-6)
    built = [FastProjector.build(params), FastFactorization.build(params), FastPseudoinverse.build(params),
             FastTikhonov.build(params, 1e-2)]
    for op in built:
        b_op = getattr(op, "b_op", None)
        held = list(op.factors()) + ([b_op._spectra] if b_op else [])
        assert held and not any(a.flags.writeable for a in held), op.kind


def _factorization_file(n, eps, columns):
    """A version-6 factorization file at (n, 1/4, eps) whose spectral record holds 0 or 1 even column of zeros."""
    head = struct.pack("<4sIQdddQB7xd2Q", b"FSLT", 6, n, 0.25, eps, 0.0, default_subspace_dim(n, 0.25), 2, 2 * eps,
                       0, columns)
    return head + bytes(8 * columns * (1 + (n + 1) // 2))


def test_factorization_rebuild_is_bounded_by_the_file(files14):
    # a factorization file stores only its spectral record; the load rebuilds z, r x n x 8 bytes, within the
    # loader's bound r n <= 8 MAX_EMPTY_N + 16 x (stored values), here by the second term alone
    n, blob = 2**14, files14[1]
    assert operator_from_bytes(blob).l.z.shape[1] * n <= 16 * (len(blob) - HEADER_LENGTH) // 8
    # and by the first alone: an empty file at the cap may name eps = 0.45, whose z is 6 x 2^20 (48 MB)
    op = operator_from_bytes(_factorization_file(MAX_EMPTY_N, 0.45, 0))
    assert op.l.z.shape == (MAX_EMPTY_N, 6) and op.u.rank == 0


def test_rebuild_cap_counts_the_columns_a_load_builds():
    # empty factorization files at n = 2^20 whose eps lies on either side of a step of the Hilbert rank, past the
    # cap: the refusal names lowrank's count, where the loader's own adi_rank(2n - 1, 4 eps / 15) read one fewer
    n = 1 << 20
    step = hilbert_rank_step(n, 128)
    for eps in (step, float(np.nextafter(step, 0.0))):
        with pytest.raises(FactorFileError, match=f"a Hilbert factor of {hilbert_rank(n, eps)} x n"):
            operator_from_bytes(_factorization_file(n, eps, 0))


class TestCorruptFiles:
    def test_corrupt_files_raise_only_file_errors(self):
        # every header field (n, w, eps, alpha, k, kind, bound) and every record header field
        # at extreme bit patterns, then seeded byte flips and truncations
        params = SlepianParams.create(64, 0.25, 1e-3)
        built = [FastProjector.build(params), FastFactorization.build(params), FastPseudoinverse.build(params),
                 FastTikhonov.build(params, 1e-2)]
        blobs = [bytes(operator_to_bytes(op)) for op in built]
        corrupt = [blob[:at] + struct.pack("<Q", value) + blob[at + 8:]
                   for blob in blobs for at in range(8, HEADER_LENGTH, 8)
                   for value in (0, 1, 2, 3, 2**20 + 1, 2**63 - 1, 2**64 - 1)]
        rng = np.random.default_rng(11)
        for _ in range(200):
            blob = bytearray(blobs[rng.integers(len(blobs))])
            blob[rng.integers(len(blob))] = rng.integers(256)
            corrupt += [bytes(blob), bytes(blob[: rng.integers(len(blob))])]
        for blob in corrupt:
            try:
                operator_from_bytes(blob)
            except FactorFileError:
                pass

    @settings(max_examples=1000, deadline=None)
    @given(data=fslt_bytes())
    def test_any_bytes_load_or_raise_a_file_error(self, data):
        try:
            op = operator_from_bytes(data)
        except FactorFileError:
            return
        assert op.kind in (1, 2, 3, 4)
        if op.kind == 4:
            assert 0.0 < op.alpha < math.inf

    def test_header_values_outside_domain_are_file_errors(self):
        blob = bytes(operator_to_bytes(FastTikhonov.build(SlepianParams.create(48, 0.25, 1e-3), 1e-2)))
        for alpha in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(FactorFileError, match="regularization weight"):
                operator_from_bytes(blob[:32] + struct.pack("<d", alpha) + blob[40:])
        # the stored error bound, at offset 56, follows the kind and its padding
        with pytest.raises(FactorFileError, match="error bound disagrees"):
            operator_from_bytes(blob[:56] + struct.pack("<d", math.nan) + blob[64:])

    def test_fields_the_writer_fixes_are_checked(self):
        # alpha (offset 32) is +0.0 bit for bit but for Tikhonov, and the seven bytes after the kind (49-55) are
        # zero: a file that differs there would load without re-encoding to itself
        for kind, blob in enumerate(small_fslt_files(), 1):
            if kind != 4:
                for alpha in (5.0, math.nan, -1.0, -0.0, 5e-324):
                    with pytest.raises(FactorFileError, match="alpha"):
                        operator_from_bytes(blob[:32] + struct.pack("<d", alpha) + blob[40:])
            for at in range(49, 56):
                with pytest.raises(FactorFileError, match="pad"):
                    operator_from_bytes(blob[:at] + b"\x01" + blob[at + 1:])
            assert bytes(operator_to_bytes(operator_from_bytes(blob))) == blob

    def test_rank_zero_header_capped(self):
        n = MAX_EMPTY_N + 1
        head = struct.pack("<QdddQB", n, 0.25, 0.49, 0.0, default_subspace_dim(n, 0.25), 1)
        blob = b"FSLT" + struct.pack("<I", 6) + head + bytes(7) + struct.pack("<d", 0.49) + struct.pack("<QQ", 0, 0)
        tracemalloc.start()
        try:
            with pytest.raises(FactorFileError, match="too large"):
                operator_from_bytes(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_record_fields_are_bounded_before_any_allocation(self):
        # each record field at a hostile value, and factorization headers whose Fourier correction would be
        # large to rebuild: a FactorFileError naming it or the file length, with nothing allocated in
        # proportion to the value
        proj, fact = (bytes(b) for b in small_fslt_files()[:2])
        huge = 2**63 - 1

        def spectral(lead, count):
            return proj[:64] + struct.pack("<QQ", lead, count) + proj[80:]

        lead, count = struct.unpack("<QQ", proj[64:80])
        cases = [
            (spectral(2, count), "neither 0 nor 1"),
            (spectral(huge, count), "neither 0 nor 1"),
            (spectral(lead, count + 1), "truncated"),
            (spectral(lead, huge), "truncated"),
            (spectral(0, 2**32), "truncated"),
            # an eps whose even Taylor width is beyond float factorials, at the header's offset 24
            (fact[:24] + struct.pack("<d", 1e-50) + fact[32:], "even Taylor block"),
            # a Hilbert factor of 178 x 2^20 from no stored column or from one: r n > 8 x 2^20 + 16 x (values);
            # and of 10 x 2^20 from no column, just past the 8 x 2^20 of an empty file
            (_factorization_file(1 << 20, 1.1e-47, 0), "Hilbert factor"),
            (_factorization_file(1 << 20, 1.1e-47, 1), "Hilbert factor"),
            (_factorization_file(1 << 20, 0.05, 0), "Hilbert factor"),
        ]
        for blob, message in cases:
            tracemalloc.start()
            try:
                with pytest.raises(FactorFileError, match=message):
                    operator_from_bytes(blob)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20, message

    def test_non_finite_factor_values_are_file_errors(self):
        # a nan, inf or -inf at the first and the last entry of every stored array of every kind
        for blob in small_fslt_files():
            at = HEADER_LENGTH
            for a in operator_from_bytes(blob).u.arrays:
                for where in {at, at + a.nbytes - 8} if a.size else ():
                    for value in (math.nan, math.inf, -math.inf):
                        bad = blob[:where] + struct.pack("<d", value) + blob[where + 8:]
                        with pytest.raises(FactorFileError, match="not finite"):
                            operator_from_bytes(bad)
                at += a.nbytes
            assert at == len(blob)
        # finite values whose sum overflows still load: two weights of 1.5e308 up front
        proj, at = small_fslt_files()[0], HEADER_LENGTH
        op = operator_from_bytes(proj[:at] + struct.pack("<2d", 1.5e308, 1.5e308) + proj[at + 16:])
        assert list(op.u.weights[:2]) == [1.5e308, 1.5e308]

    def test_middle_row_the_writer_fixes_is_checked(self):
        # at odd n the odd columns' middle row is +-0 in every file the writer makes and read by no factor: any
        # other value there, however small, is a file error that names it
        for blob in small_fslt_files(49):
            op, offsets = operator_from_bytes(blob), middle_row_offsets(blob)
            assert offsets and not np.any(op.u.block[-1, 1 - op.u.lead::2])
            for at in offsets:
                for value in (1.0, -2.5, 5e-324):
                    with pytest.raises(FactorFileError, match=f"holds {value!r} in the middle row"):
                        operator_from_bytes(blob[:at] + struct.pack("<d", value) + blob[at + 8:])
                # the sign of a zero there is not checked: the sign fix writes either
                flipped = operator_from_bytes(blob[:at] + struct.pack("<d", -0.0) + blob[at + 8:])
                assert np.array_equal(flipped.apply(np.arange(49.0)), op.apply(np.arange(49.0)))
        # no even column's middle row, nor any row at even n, is held to a value
        blob = small_fslt_files(49)[0]
        lead, count = struct.unpack_from("<2Q", blob, 64)
        at = HEADER_LENGTH + 8 * (count + 25 * (lead % 2 == 1) + 24)
        assert at not in middle_row_offsets(blob) and middle_row_offsets(small_fslt_files()[0]) == []
        operator_from_bytes(blob[:at] + struct.pack("<d", 0.125) + blob[at + 8:])

    def test_odd_columns_alone_bound_n(self):
        # a window of odd columns only: the halves still name n through their rows
        n, w, eps = 3, 0.25, 0.3
        op = FastProjector.build(SlepianParams.create(n, w, eps))
        assert [b.shape[1] for b in op.u.halves] == [0, 1]
        blob = bytes(operator_to_bytes(op))
        assert np.array_equal(operator_from_bytes(blob).apply(np.arange(3.0)), op.apply(np.arange(3.0)))
        with pytest.raises(TruncatedFileError):
            operator_from_bytes(blob[:8] + struct.pack("<Q", 2**40) + blob[16:])
