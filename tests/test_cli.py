import csv
import io
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from prolate import cli, dpss, operators
from prolate.cli import main, prediction_rhs
from prolate.fourier_ext import FourierExtensionConfig, SyntheticTarget, run_fourier_extension
from prolate.operators import (
    MAX_EMPTY_N,
    FactorFileError,
    FastPseudoinverse,
    SlepianParams,
    operator_from_bytes,
)

from oracles import eig_dense, pinv_oracle, prolate_dense
from strategies import (
    HEADER_LENGTH,
    fslt_bytes,
    middle_row_offsets,
    small_fslt_files,
    version_2_projector,
    with_version,
)


# address-space cap of the subprocesses whose allocations must be refused: room for the interpreter and its imports
_AS_CAP = 2 << 30


def run_cli(args, capsys):
    rc = main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestGapCount:
    def test_rows_and_bound(self, capsys):
        rc, out, _ = run_cli(["gap-count", "--n", "64,128", "--w", "0.25", "--eps", "1e-3,1e-6"], capsys)
        assert rc == 0
        header, rows = parse_csv(out)
        assert header == ["n", "w", "eps", "count", "cor1_bound", "asymptotic"]
        assert len(rows) == 4
        for row in rows:
            assert float(row[3]) <= float(row[4])

    def test_deterministic(self, capsys):
        args = ["gap-count", "--n", "64,256", "--w", "0.25,0.0625", "--eps", "1e-3"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_counts_match_dense(self, capsys):
        rc, out, _ = run_cli(["gap-count", "--n", "256", "--w", "0.25", "--eps", "1e-3,1e-6"], capsys)
        _, rows = parse_csv(out)
        from oracles import eigvals_dense

        lams = eigvals_dense(256, 0.25)
        for row in rows:
            eps = float(row[2])
            want = int(np.count_nonzero((lams > eps) & (lams < 1 - eps)))
            assert int(row[3]) == want

    def test_n_beyond_memory_exits_2_without_allocating(self, capsys, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("allocated before the memory check")

        monkeypatch.setattr(dpss, "SlepianPlan", refused)
        monkeypatch.setattr(dpss, "mapped_rows", refused)
        rc, out, err = run_cli(["gap-count", "--n", str(2**40), "--w", "0.25", "--eps", "1e-3"], capsys)
        assert rc == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("prolate: unable to allocate a Slepian plan at n=1099511627776")
        assert "physical memory" in err and "Traceback" not in err

    @pytest.mark.parametrize("flags, message", [
        (["--n", "64", "--w", "0.9", "--eps", "1e-3"], "half-bandwidths must lie in (0, 1/2)"),
        (["--n", "1"], "signal lengths must be at least 2"),
        (["--eps", "0.7"], "tolerances must lie in (0, 1/2)"),
    ])
    def test_validation_error_exit_code(self, capsys, flags, message):
        rc, out, err = run_cli(["gap-count", *flags], capsys)
        assert rc == 1 and out == "" and err == f"prolate: {message}\n"

    def test_out_file_holds_the_stdout_bytes(self, tmp_path, capsys):
        args = ["gap-count", "--n", "64,96", "--w", "0.25,0.1", "--eps", "1e-3"]
        _, out, _ = run_cli(args, capsys)
        path = tmp_path / "gaps.csv"
        assert run_cli([*args, "--out", str(path)], capsys) == (0, "", "")
        assert path.read_bytes() == out.encode("utf-8")


@pytest.mark.parametrize("command", ["gap-count", "bench", "linear-predict"])
@pytest.mark.parametrize("flags, message", [
    (["--n", "64,1"], "signal lengths must be at least 2"),
    (["--w", "0.25,0.5"], "half-bandwidths must lie in (0, 1/2)"),
    (["--eps", "1e-6,nan"], "tolerances must lie in (0, 1/2)"),
])
def test_every_grid_value_is_checked_before_any_point_runs(capsys, monkeypatch, tmp_path, command, flags, message):
    # a bad last value fails the command with exit 1 before its first, valid point is computed or --out is opened
    def ran(*args, **kwargs):
        raise AssertionError("a grid point ran")

    for name in ("transition_window", "_build_operator", "prediction_rhs"):
        monkeypatch.setattr(cli, name, ran)
    path = tmp_path / "out.csv"
    rc, out, err = run_cli([command, *flags, "--out", str(path)], capsys)
    assert rc == 1 and out == "" and err == f"prolate: {message}\n" and not path.exists()


class TestBench:
    def test_row_shape(self, capsys):
        rc, out, _ = run_cli(
            ["bench", "--n", "64", "--w", "0.25", "--eps", "1e-3", "--trials", "1",
             "--mode", "project", "--mode", "pinv"],
            capsys,
        )
        assert rc == 0
        header, rows = parse_csv(out)
        assert header == ["n", "w", "eps", "mode", "setup_seconds", "apply_seconds"]
        assert len(rows) == 2
        for row in rows:
            assert float(row[4]) > 0 and float(row[5]) > 0

    def test_every_trial_builds_cold(self, capsys, monkeypatch):
        calls = []
        solve = dpss._bisect

        def counted(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(dpss, "_bisect", counted)
        per_trial = {}
        for trials in (1, 3):
            calls.clear()
            rc, _, _ = run_cli(["bench", "--n", "96", "--w", "0.25", "--eps", "1e-3", "--trials", str(trials),
                                "--mode", "project"], capsys)
            assert rc == 0
            per_trial[trials] = len(calls)
        # the untimed build that feeds the apply timing reuses the last trial's pairs
        assert per_trial[1] > 0 and per_trial[3] == 3 * per_trial[1]


class TestLinearPredict:
    def test_rhs_formula(self):
        n, w = 16, 0.25
        b = prediction_rhs(n, w)
        gaps = n - np.arange(n)
        assert np.allclose(b, np.sin(2 * np.pi * w * gaps) / (np.pi * gaps))
        assert np.all(np.abs(b) <= 2 * w)

    @pytest.mark.parametrize("w", [0.25, 0.3])
    def test_rhs_sines_are_reduced_exactly(self, w):
        # b is the prolate column's tail, its sine arguments reduced from the exact product: against 40-digit
        # sines it reads 9e-17 to 1.7e-16 of ||b||, where sin(2 pi w (n - m)) read 3.6e-15 to 4.0e-15 at n = 4096
        import mpmath

        n = 4096
        with mpmath.workdps(40):
            ref = [mpmath.sin(2 * mpmath.pi * mpmath.mpf(w) * g) / (mpmath.pi * g) for g in range(n, 0, -1)]
            err = [float(mpmath.mpf(float(b)) - r) for b, r in zip(prediction_rhs(n, w), ref)]
        assert np.linalg.norm(err) <= 4 * np.finfo(float).eps * np.linalg.norm(np.array(ref, dtype=float))

    def test_fast_solution_matches_dense_oracle(self):
        n, w, eps = 512, 0.25, 1e-6
        b = prediction_rhs(n, w)
        op = FastPseudoinverse.build(SlepianParams.create(n, w, eps))
        a = op.apply(b)
        want = pinv_oracle(n, w, op.params.k) @ b
        assert np.linalg.norm(a - want) <= 3 * eps * np.linalg.norm(b)

    def test_topk_residual_small(self, capsys):
        rc, out, _ = run_cli(["linear-predict", "--n", "256", "--w", "0.25", "--eps", "1e-6"], capsys)
        assert rc == 0
        header, rows = parse_csv(out)
        assert header == ["n", "w", "eps", "coeff_l2", "coeff_linf", "topk_residual"]
        n, w, eps = 256, 0.25, 1e-6
        b_norm = np.linalg.norm(prediction_rhs(n, w))
        assert float(rows[0][5]) <= 3 * eps * b_norm * (1 + 1e-6)

    def test_topk_residual_matches_dense_oracle(self, capsys):
        n, w, eps = 256, 0.25, 1e-6
        rc, out, _ = run_cli(["linear-predict", "--n", str(n), "--w", str(w), "--eps", str(eps)], capsys)
        assert rc == 0
        _, rows = parse_csv(out)
        b = prediction_rhs(n, w)
        op = FastPseudoinverse.build(SlepianParams.create(n, w, eps))
        a = op.apply(b)
        vk = eig_dense(n, w)[1][:, : op.params.k]
        want = np.linalg.norm(vk.T @ (prolate_dense(n, w) @ a - b))
        assert abs(float(rows[0][5]) - want) <= 1e-14

    def test_topk_residual_blank_above_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "FULL_BASIS_MAX_N", 64)
        rc, out, _ = run_cli(["linear-predict", "--n", "64,128", "--w", "0.25", "--eps", "1e-6"], capsys)
        assert rc == 0
        _, rows = parse_csv(out)
        assert rows[0][5] != "" and rows[1][5] == ""


class TestFourierExtension:
    def test_constant_mode(self):
        cfg = FourierExtensionConfig(m_values=(16,), constant_target=True)
        rows = run_fourier_extension(cfg, seed=5)
        by_method = {m: r for _, m, r, _ in rows}
        # the periodic series nails a constant through the quadrature path
        assert by_method["fourier"] <= 1e-8
        # fast and exact stay in lockstep even in the degenerate case
        assert abs(by_method["ext_fast_pinv"] - by_method["ext_exact_pinv"]) <= 0.1 * by_method["ext_exact_pinv"]
        assert abs(by_method["ext_fast_tik"] - by_method["ext_exact_tik"]) <= 0.1 * by_method["ext_exact_tik"]

    def test_small_orders_parity_and_shape(self, capsys):
        rc, out, _ = run_cli(
            ["fourier-ext", "--m", "8,16", "--seed", "7"],
            capsys,
        )
        assert rc == 0
        header, rows = parse_csv(out)
        assert header == ["m", "method", "rel_rms", "seconds"]
        assert len(rows) == 10
        rel = {(int(r[0]), r[1]): float(r[2]) for r in rows}
        for m in (8, 16):
            assert rel[(m, "ext_fast_pinv")] == pytest.approx(rel[(m, "ext_exact_pinv")], rel=0.1)
            assert rel[(m, "ext_fast_tik")] == pytest.approx(rel[(m, "ext_exact_tik")], rel=0.1)
        # the extension pulls ahead of the raw series once the order is not tiny
        assert rel[(16, "ext_exact_pinv")] < rel[(16, "fourier")]

    def test_flags_default_to_the_config_and_set_its_fields(self):
        parser = cli._build_parser()
        assert cli._extension_config(parser.parse_args(["fourier-ext"])) == FourierExtensionConfig()
        flags = ["--m", "8,16", "--t-ext", "2", "--pinv-threshold", "1e-3", "--fast-eps", "1e-6", "--alpha", "1e-4",
                 "--eval-points", "99", "--constant"]
        assert cli._extension_config(parser.parse_args(["fourier-ext", *flags])) == FourierExtensionConfig(
            t_ext=2.0, m_values=(8, 16), pinv_threshold=1e-3, fast_eps=1e-6, alpha=1e-4, eval_points=99,
            constant_target=True)

    @pytest.mark.parametrize("flags, message", [
        (["--fast-eps", "2"], "tolerance must lie in (0, 1/2), got 2.0"),
        (["--pinv-threshold", "1e-6"], "cutoff 1e-06 must lie inside (1e-05, 0.99999)"),
        (["--alpha", "nan"], "regularization weight must be positive and finite, got nan"),
    ])
    def test_bad_operator_settings_exit_before_any_work(self, capsys, monkeypatch, flags, message):
        monkeypatch.setattr(cli, "run_fourier_extension", lambda *args, **kwargs: pytest.fail("the pipeline ran"))
        rc, out, err = run_cli(["fourier-ext", "--m", "8", *flags], capsys)
        assert rc == 1 and out == ""
        assert err == f"prolate: {message}\n"

    def test_a_cutoff_below_the_quotients_noise_gives_finite_rows(self, capsys):
        # below their noise the exact quotients no longer descend: every pair at or above the cutoff was kept, a
        # zero quotient among them, and ext_exact_pinv printed nan with exit 0
        with pytest.warns(operators.PrecisionFloorWarning):
            rc, out, _ = run_cli(["fourier-ext", "--m", "40", "--fast-eps", "1e-300", "--pinv-threshold", "1e-200"],
                                 capsys)
        _, rows = parse_csv(out)
        assert rc == 0 and len(rows) == 5 and all(math.isfinite(float(row[2])) for row in rows), rows

    def test_deterministic_given_seed(self):
        cfg = FourierExtensionConfig(m_values=(8,))
        a = run_fourier_extension(cfg, seed=42)
        b = run_fourier_extension(cfg, seed=42)
        assert [(m, meth, rel) for m, meth, rel, _ in a] == [(m, meth, rel) for m, meth, rel, _ in b]

    def test_target_reproducible_across_calls(self):
        rng1 = np.random.default_rng(np.random.SeedSequence(99))
        rng2 = np.random.default_rng(np.random.SeedSequence(99))
        t1 = SyntheticTarget.draw(rng1)
        t2 = SyntheticTarget.draw(rng2)
        x = np.linspace(-1, 1, 101)
        assert np.array_equal(t1(x), t2(x))


class TestPrecomputeAndLoad:
    def test_round_trip(self, tmp_path, capsys):
        path = tmp_path / "proj.fslt"
        rc, _, err = run_cli(
            ["precompute", "--n", "96", "--w", "0.25", "--eps", "1e-6", "--kind", "project",
             "--out", str(path)],
            capsys,
        )
        assert rc == 0
        assert path.exists()
        rc, out, _ = run_cli(["load-check", str(path)], capsys)
        assert rc == 0
        assert "projector" in out

    def test_all_kinds(self, tmp_path, capsys):
        for kind in ("project", "factorize", "pinv", "tikhonov"):
            path = tmp_path / f"{kind}.fslt"
            rc, _, _ = run_cli(
                ["precompute", "--n", "64", "--w", "0.25", "--eps", "1e-3", "--kind", kind,
                 "--alpha", "0.01", "--out", str(path)],
                capsys,
            )
            assert rc == 0
            rc, _, _ = run_cli(["load-check", str(path)], capsys)
            assert rc == 0

    def test_corrupted_magic_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "op.fslt"
        run_cli(["precompute", "--n", "64", "--w", "0.25", "--eps", "1e-3", "--kind", "project",
                 "--out", str(path)], capsys)
        data = path.read_bytes()
        path.write_bytes(b"ZZZZ" + data[4:])
        rc, _, err = run_cli(["load-check", str(path)], capsys)
        assert rc == 2
        assert "magic" in err

    def test_version_and_truncation_are_io_errors(self, tmp_path, capsys):
        import struct

        path = tmp_path / "op.fslt"
        run_cli(["precompute", "--n", "64", "--w", "0.25", "--eps", "1e-3", "--kind", "project",
                 "--out", str(path)], capsys)
        data = path.read_bytes()
        # rank-0 version-1 and version-2 projectors as those versions laid them out, and this projector
        # and a factorization under the version fields of 3, 4, 5 and 99
        v1 = (b"FSLT" + struct.pack("<I", 1) + struct.pack("<QdddQB", 64, 0.25, 1e-3, 0.0, 32, 1)
              + struct.pack("<d", 1e-3) + struct.pack("<QB", 0, 0) * 2)
        v2 = version_2_projector(SlepianParams.create(64, 0.25, 1e-3), 1e-3)
        older = [with_version(blob, v) for blob in (data, small_fslt_files()[1]) for v in (3, 4, 5, 99)]
        for blob in (v1, v2, *older):
            path.write_bytes(blob)
            rc, _, err = run_cli(["load-check", str(path)], capsys)
            assert rc == 2 and "version" in err and "Traceback" not in err
        path.write_bytes(data[:-16])
        rc, _, err = run_cli(["load-check", str(path)], capsys)
        assert rc == 2 and "truncated" in err

    def test_huge_header_size_is_io_error(self, tmp_path, capsys):
        # a rank-0 record keeps the file at 80 bytes while its header asks for n = 2^40
        import struct

        path = tmp_path / "op.fslt"
        path.write_bytes(b"FSLT" + struct.pack("<I", 6)
                         + struct.pack("<QdddQB7x", 1 << 40, 0.25, 1e-6, 0.0, 0, 1)
                         + struct.pack("<d", 1e-6) + struct.pack("<QQ", 0, 0))
        assert path.stat().st_size == 80
        rc, _, err = run_cli(["load-check", str(path)], capsys)
        assert rc == 2 and "too large" in err

    def test_large_fourier_rebuild_is_io_error(self, tmp_path, capsys):
        # an 80-byte factorization file whose header asks for a 178 x 2^20 Hilbert factor
        import struct

        path = tmp_path / "fact.fslt"
        path.write_bytes(b"FSLT" + struct.pack("<IQdddQB7xd2Q", 6, 1 << 20, 0.25, 1.1e-47, 0.0, 1 << 19, 2,
                                                 2.2e-47, 0, 0))
        rc, _, err = run_cli(["load-check", str(path)], capsys)
        assert rc == 2 and "Hilbert factor" in err and "Traceback" not in err

    def test_rank_zero_header_above_cap_is_io_error(self, tmp_path, capsys):
        # without stored columns the file's length does not bound n, so n is capped
        import struct

        head = struct.pack("<QdddQB", MAX_EMPTY_N + 1, 0.25, 0.49, 0.0, 0, 1)
        path = tmp_path / "op.fslt"
        path.write_bytes(b"FSLT" + struct.pack("<I", 6) + head + bytes(7) + struct.pack("<d", 0.49)
                         + struct.pack("<QQ", 0, 0))
        rc, _, err = run_cli(["load-check", str(path)], capsys)
        assert rc == 2 and "too large" in err

    def test_rebuild_out_of_memory_is_io_error(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "op.fslt"
        run_cli(["precompute", "--n", "64", "--w", "0.25", "--eps", "1e-3", "--kind", "project",
                 "--out", str(path)], capsys)

        def no_memory(n, w):
            raise MemoryError

        monkeypatch.setattr(operators, "slepian_plan", no_memory)
        with pytest.raises(FactorFileError, match="too large"):
            operator_from_bytes(path.read_bytes())
        rc, _, err = run_cli(["load-check", str(path)], capsys)
        assert rc == 2 and "too large" in err and "Traceback" not in err

    def test_describes_each_correction_rank(self, tmp_path, capsys):
        # factor bytes: the spectral weights and halves, 8 x (r + 32 r) at n = 64; the factorization adds z
        # (n x 7) and ca and cb (10 x 10 and 13 x 13)
        want = {
            "project": "projector n=64 w=0.25 eps=0.001 k=32 ranks=[8] factor_bytes=2112 error_bound=0.001",
            "factorize": "factorization n=64 w=0.25 eps=0.001 k=32 ranks=[74,8] factor_bytes=7848 error_bound=0.002",
            "pinv": "pinv n=64 w=0.25 eps=0.001 k=32 ranks=[8] factor_bytes=2112 error_bound=0.003",
            "tikhonov": "tikhonov n=64 w=0.25 eps=0.001 k=32 alpha=0.01 ranks=[11] factor_bytes=2904 error_bound=0.001",
        }
        for kind, line in want.items():
            path = tmp_path / f"{kind}.fslt"
            rc, _, err = run_cli(
                ["precompute", "--n", "64", "--w", "0.25", "--eps", "1e-3", "--kind", kind,
                 "--alpha", "0.01", "--out", str(path)],
                capsys,
            )
            assert rc == 0 and err.strip() == line
            rc, out, _ = run_cli(["load-check", str(path)], capsys)
            assert rc == 0 and out.strip() == line

    def test_bound_one_ulp_off_does_not_round_trip(self, tmp_path, capsys):
        # the loader allows the stored error bound 1e-15 relative, so the file loads but re-encodes differently
        import struct

        path = tmp_path / "op.fslt"
        run_cli(["precompute", "--n", "64", "--w", "0.25", "--eps", "1e-3", "--kind", "project",
                 "--out", str(path)], capsys)
        data = path.read_bytes()
        (bound,) = struct.unpack_from("<d", data, 56)
        path.write_bytes(data[:56] + struct.pack("<d", math.nextafter(bound, math.inf)) + data[64:])
        assert operator_from_bytes(path.read_bytes()).error_bound == bound
        rc, out, err = run_cli(["load-check", str(path)], capsys)
        assert rc == 2 and out == "" and "does not round-trip bit-identically" in err

    def test_header_outside_domain_is_io_error(self, tmp_path, capsys):
        import struct

        path = tmp_path / "op.fslt"
        run_cli(["precompute", "--n", "64", "--w", "0.25", "--eps", "1e-3", "--kind", "project",
                 "--out", str(path)], capsys)
        data = path.read_bytes()
        path.write_bytes(data[:16] + struct.pack("<d", 0.9) + data[24:])  # the header's w
        rc, _, err = run_cli(["load-check", str(path)], capsys)
        assert rc == 2 and "half-bandwidth" in err

    def test_alpha_or_pad_the_writer_fixes_is_io_error(self, tmp_path, capsys):
        # a projector with alpha 5.0 or nan, a factorization with alpha -1.0, and a nonzero pad byte
        import struct

        path = tmp_path / "op.fslt"
        proj, fact = small_fslt_files()[:2]
        cases = [(proj[:32] + struct.pack("<d", alpha) + proj[40:], "alpha") for alpha in (5.0, math.nan)]
        cases += [(fact[:32] + struct.pack("<d", -1.0) + fact[40:], "alpha"), (proj[:52] + b"\x07" + proj[53:], "pad")]
        for blob, field in cases:
            path.write_bytes(blob)
            rc, _, err = run_cli(["load-check", str(path)], capsys)
            assert rc == 2 and field in err and "Traceback" not in err, field

    def test_middle_row_the_writer_fixes_is_io_error(self, tmp_path, capsys):
        # at odd n an odd column's middle row holds +-0 in every file the writer makes
        import struct

        path = tmp_path / "op.fslt"
        for blob in small_fslt_files(49):
            at = middle_row_offsets(blob)[-1]
            path.write_bytes(blob[:at] + struct.pack("<d", 0.25) + blob[at + 8:])
            rc, _, err = run_cli(["load-check", str(path)], capsys)
            assert rc == 2 and "middle row" in err and "0.25" in err and "Traceback" not in err

    def test_non_finite_factor_value_is_io_error(self, tmp_path, capsys):
        # a nan weight and an inf in the block, the array after the weights
        import struct

        path = tmp_path / "op.fslt"
        for kind, blob in enumerate(small_fslt_files(), 1):
            weights = operator_from_bytes(blob).u.weights
            for where, value in ((HEADER_LENGTH, math.nan), (HEADER_LENGTH + weights.nbytes, math.inf)):
                path.write_bytes(blob[:where] + struct.pack("<d", value) + blob[where + 8:])
                rc, _, err = run_cli(["load-check", str(path)], capsys)
                assert rc == 2 and "not finite" in err and "Traceback" not in err, (kind, where)

    def test_huge_or_non_finite_numbers_exit_without_traceback(self, tmp_path, capsys):
        # alpha far past where alpha^2 overflows a float, and extension half-periods that are not finite
        path = tmp_path / "tik.fslt"
        rc, _, err = run_cli(["precompute", "--n", "64", "--w", "0.25", "--eps", "1e-3", "--kind", "tikhonov",
                              "--alpha", "1e308", "--out", str(path)], capsys)
        assert rc == 0 and "ranks=[0]" in err and "Traceback" not in err
        rc, out, err = run_cli(["fourier-ext", "--m", "8", "--alpha", "1e300"], capsys)
        assert rc == 0 and "ext_fast_tik" in out and "Traceback" not in err
        for t_ext in ("nan", "inf"):
            rc, _, err = run_cli(["fourier-ext", "--m", "8", "--t-ext", t_ext], capsys)
            assert rc == 1 and "half-period must be finite" in err and "Traceback" not in err

    def test_tiny_alpha_exits_without_traceback(self, tmp_path, capsys):
        # alpha far below where (lambda^2 + alpha)^2 underflows: the map builds with a precision-floor warning
        path = tmp_path / "tik.fslt"
        with pytest.warns(operators.PrecisionFloorWarning):
            rc, _, err = run_cli(["precompute", "--n", "64", "--w", "0.25", "--eps", "1e-3", "--kind", "tikhonov",
                                  "--alpha", "1e-200", "--out", str(path)], capsys)
        assert rc == 0 and "ranks=[21]" in err and "Traceback" not in err
        rc, out, _ = run_cli(["load-check", str(path)], capsys)
        assert rc == 0 and "alpha=1e-200 ranks=[21]" in out

    def test_tolerance_beyond_the_taylor_widths_is_validation_error(self, tmp_path, capsys):
        # a factorization at eps = 1e-50 needs an even Taylor block whose factorials overflow a float
        path = tmp_path / "fact.fslt"
        rc, _, err = run_cli(["precompute", "--n", "64", "--w", "0.25", "--eps", "1e-50", "--kind", "factorize",
                              "--out", str(path)], capsys)
        assert rc == 1 and "even Taylor block" in err and "Traceback" not in err
        assert not path.exists()

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=fslt_bytes())
    def test_any_unloadable_file_is_io_error_without_traceback(self, tmp_path, capsys, data):
        path = tmp_path / "fuzzed.fslt"
        path.write_bytes(data)
        try:
            operator_from_bytes(data)
            loads = True
        except FactorFileError:
            loads = False
        rc, _, err = run_cli(["load-check", str(path)], capsys)
        assert rc in ((0, 2) if loads else (2,))
        assert "Traceback" not in err and (rc == 0 or err.startswith("prolate: "))

    @pytest.mark.parametrize("argv", [
        ["gap-count", "--n", "1000000000000"],
        ["precompute", "--n", "1000000000000", "--w", "0.25", "--eps", "1e-6", "--kind", "project", "--out", "F"],
        ["fourier-ext", "--m", "1", "--eval-points", "100000000000"],
    ])
    def test_refused_allocation_is_io_error(self, tmp_path, argv):
        # each asks for terabytes: the Slepian plan's memory check refuses the first two, and numpy, under a 2 GB
        # address-space cap, the third, whatever the machine's overcommit setting; nothing is allocated
        pytest.importorskip("resource")
        capped = ("import resource, sys\n"
                  f"resource.setrlimit(resource.RLIMIT_AS, ({_AS_CAP}, {_AS_CAP}))\n"
                  "from prolate.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        done = subprocess.run([sys.executable, "-c", capped, *argv], cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("prolate: ") and "allocate" in done.stderr and "Traceback" not in done.stderr

    def test_missing_file_is_io_error(self, capsys):
        rc, _, _ = run_cli(["load-check", "/no/such/file.fslt"], capsys)
        assert rc == 2

    def test_precompute_requires_out_path(self, capsys):
        rc, _, err = run_cli(
            ["precompute", "--n", "64", "--w", "0.25", "--eps", "1e-3", "--kind", "project"],
            capsys,
        )
        assert rc == 1

    def test_bad_usage_is_validation_error(self, capsys):
        rc, _, _ = run_cli(["bench", "--mode", "warp"], capsys)
        assert rc == 1

    def test_each_subcommand_takes_only_the_options_it_reads(self, capsys):
        for argv in (["gap-count", "--seed", "1"], ["gap-count", "--trials", "2"], ["linear-predict", "--seed", "1"],
                     ["bench", "--seed", "1"], ["fourier-ext", "--dense-guard", "8"], ["bench", "--dense-guard", "8"],
                     ["linear-predict", "--dense-guard", "8"], ["load-check", "--out", "x.csv", "op.fslt"]):
            rc, _, err = run_cli(argv, capsys)
            assert rc == 1 and "unrecognized arguments" in err, argv
        rc, _, err = run_cli(["bench", "--trials", "0"], capsys)
        assert rc == 1 and "trials must be at least 1" in err
