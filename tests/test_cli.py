import csv
import io
import math

import numpy as np
import pytest

from prolate.cli import main, prediction_rhs
from prolate.fourier_ext import FourierExtensionConfig, SyntheticTarget, run_fourier_extension
from prolate.operators import FastPseudoinverse, SlepianParams

from oracles import eig_dense, pinv_oracle, prolate_dense


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

    def test_validation_error_exit_code(self, capsys):
        rc, _, err = run_cli(["gap-count", "--n", "64", "--w", "0.9", "--eps", "1e-3"], capsys)
        assert rc == 1
        assert "half-bandwidth" in err


class TestBench:
    def test_row_shape(self, capsys):
        rc, out, _ = run_cli(
            ["bench", "--n", "64", "--w", "0.25", "--eps", "1e-3", "--trials", "1",
             "--mode", "project", "--mode", "pinv"],
            capsys,
        )
        assert rc == 0
        header, rows = parse_csv(out)
        assert header == ["n", "w", "eps", "mode", "setup_seconds", "apply_seconds", "dense_apply_seconds"]
        assert len(rows) == 2
        for row in rows:
            assert float(row[4]) > 0 and float(row[5]) > 0
            assert row[6] != ""  # below the dense guard

    def test_dense_column_blank_above_guard(self, capsys):
        rc, out, _ = run_cli(
            ["bench", "--n", "128", "--w", "0.25", "--eps", "1e-3", "--trials", "1",
             "--mode", "project", "--dense-guard", "64"],
            capsys,
        )
        assert rc == 0
        _, rows = parse_csv(out)
        assert rows[0][6] == ""


class TestLinearPredict:
    def test_rhs_formula(self):
        n, w = 16, 0.25
        b = prediction_rhs(n, w)
        gaps = n - np.arange(n)
        assert np.allclose(b, np.sin(2 * np.pi * w * gaps) / (np.pi * gaps))
        assert np.all(np.abs(b) <= 2 * w)

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
        path.write_bytes(data[:4] + struct.pack("<I", 2) + data[8:])
        rc, _, err = run_cli(["load-check", str(path)], capsys)
        assert rc == 2 and "version" in err
        path.write_bytes(data[:-16])
        rc, _, err = run_cli(["load-check", str(path)], capsys)
        assert rc == 2 and "truncated" in err

    def test_huge_header_size_is_io_error(self, tmp_path, capsys):
        # rank-0 factors keep the file at 75 bytes while its header asks for n = 2^40
        import struct

        path = tmp_path / "op.fslt"
        path.write_bytes(b"FSLT" + struct.pack("<I", 1)
                         + struct.pack("<QdddQB", 1 << 40, 0.25, 1e-6, 0.0, 0, 1)
                         + struct.pack("<d", 1e-6) + struct.pack("<QB", 0, 0) * 2)
        assert path.stat().st_size == 75
        rc, _, err = run_cli(["load-check", str(path)], capsys)
        assert rc == 2 and "too large" in err

    def test_header_outside_domain_is_io_error(self, tmp_path, capsys):
        import struct

        path = tmp_path / "op.fslt"
        run_cli(["precompute", "--n", "64", "--w", "0.25", "--eps", "1e-3", "--kind", "project",
                 "--out", str(path)], capsys)
        data = path.read_bytes()
        path.write_bytes(data[:16] + struct.pack("<d", 0.9) + data[24:])  # the header's w
        rc, _, err = run_cli(["load-check", str(path)], capsys)
        assert rc == 2 and "half-bandwidth" in err

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
