"""The package's export list and the README's Library section name the same API, every module's export list
resolves, every transform comes from one library, every kind maps real input to real output, and every layer takes
its scalars through one rule."""

import importlib
import pkgutil
import re
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

import prolate
from prolate import FastFactorization, FastProjector, FastPseudoinverse, FastTikhonov, SlepianParams
from prolate.dpss import commuting_tridiagonal, transition_window
from prolate.fft_kernels import PartialFourier, prolate_column
from prolate.lowrank import (
    FourierFactor,
    fourier_correction_factor,
    hilbert_factor,
    pinv_correction,
    projection_correction,
    sinc_alias_factor,
    taylor_widths,
    tikhonov_correction,
    tikhonov_precision_floor,
)

from oracles import pinv_oracle, projection_oracle, tikhonov_oracle

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_lists_exactly_the_exports():
    text = README.read_text(encoding="utf-8")
    para = re.search(r"The package exports exactly these names \(`prolate.__all__`\):(.*?)\n\n", text, re.S)
    assert para, "README Library section has no export list"
    assert re.findall(r"`(\w+)`", para.group(1)) == list(prolate.__all__)


def test_every_export_resolves():
    for name in prolate.__all__:
        assert getattr(prolate, name) is not None, name


def test_every_module_export_resolves():
    modules = [importlib.import_module(f"prolate.{m.name}") for m in pkgutil.iter_modules(prolate.__path__)]
    assert {"dpss", "fft_kernels", "lowrank", "operators"} <= {m.__name__.split(".")[1] for m in modules}
    for module in modules:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_every_transform_is_scipy_fft():
    # before numpy 2.0, numpy.fft computed longdouble input in float64
    modules = (ROOT / "src" / "prolate").glob("*.py")
    assert not [p.name for p in modules if re.search(r"\b(np|numpy)\.fft", p.read_text(encoding="utf-8"))]


@pytest.mark.parametrize("n", [15, 16, 257, 1024])
def test_every_kind_maps_real_to_real_within_its_bound(n):
    # one dtype rule for the four kinds: real in, real out, complex in, complex out, each output within the
    # certified bound of the dense oracle's map; the factorization's k' coefficients are float64 for a real x.
    # Every input computes in np.result_type(x, float64): a bool, integer, float16, float32 or complex64 x is
    # judged against the oracle applied to its float64 cast, and a longdouble x keeps its precision.  At
    # n = 1024 and eps = 1e-9 a float32 x took the factorization about 40 times past its bound (its rfft ran
    # in float32), and a bool x raised numpy's TypeError
    w, alpha = 0.25, 1e-2
    k = SlepianParams.create(n, w, 1e-6).k
    maps = [projection_oracle(n, w, k), projection_oracle(n, w, k), pinv_oracle(n, w, k), tikhonov_oracle(n, w, alpha)]
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    xc = x + 1j * rng.standard_normal(n)
    inputs = (x, xc, x > 0, np.round(4 * x).astype(np.int64), x.astype(np.float16), x.astype(np.float32),
              xc.astype(np.complex64), x.astype(np.longdouble))
    built = []
    for eps in (1e-6, 1e-9):
        params = SlepianParams.create(n, w, eps)
        built += [FastProjector.build(params), FastFactorization.build(params), FastPseudoinverse.build(params),
                  FastTikhonov.build(params, alpha)]
    for op, exact in zip(built, maps * 2):
        for y in inputs:
            y64 = y.astype(np.result_type(y, np.float64))
            if op.kind == 2:
                c = op.compress(y)
                assert c.shape == (op.k_prime,) and c.dtype == y64.dtype
                out = op.decompress(c)
            else:
                out = op.apply(y)
            assert out.dtype == y64.dtype, (op.kind, y.dtype)
            assert np.linalg.norm(out - exact @ y64) <= op.error_bound * np.linalg.norm(y64), (op.kind, y.dtype)
    # an object x returned an object array from three kinds and a str x raised numpy's UFuncTypeError; both fail
    # at the input rule in every kind and in both factor kinds' three methods
    factorization = built[1]
    for bad in (x.astype(object), x.astype(str)):
        calls = [op.apply for op in built[:4]] + [factorization.compress, lambda v: factorization.decompress(
            np.resize(v, factorization.k_prime))]
        for f in (factorization.u, factorization.l):
            calls += [f.apply, f.adjoint_apply, lambda v, f=f: f.synthesize(np.resize(v, f.rank))]
        for call in calls:
            with pytest.raises(ValueError, match="expected a real or complex vector"):
                call(bad)


# each lower-layer entry point with one scalar left open: its w, n, epsilon, tolerance or alpha
_SCALAR_SLOTS = {
    "prolate_column n": lambda v: prolate_column(v, 0.25),
    "prolate_column w": lambda v: prolate_column(64, v),
    "PartialFourier n": lambda v: PartialFourier(v, 0.25),
    "PartialFourier w": lambda v: PartialFourier(64, v),
    "commuting_tridiagonal n": lambda v: commuting_tridiagonal(v, 0.25),
    "commuting_tridiagonal w": lambda v: commuting_tridiagonal(64, v),
    "transition_window n": lambda v: transition_window(v, 0.25, 1e-6, 1.0 - 1e-6),
    "transition_window w": lambda v: transition_window(64, v, 1e-6, 1.0 - 1e-6),
    "hilbert_factor n": lambda v: hilbert_factor(v, 1e-6),
    "hilbert_factor delta_h": lambda v: hilbert_factor(64, v),
    "sinc_alias_factor n": lambda v: sinc_alias_factor(v, 1e-6),
    "sinc_alias_factor tol": lambda v: sinc_alias_factor(64, v),
    "taylor_widths epsilon": lambda v: taylor_widths(v),
    "fourier_correction_factor n": lambda v: fourier_correction_factor(v, 0.25, 1e-6),
    "fourier_correction_factor w": lambda v: fourier_correction_factor(64, v, 1e-6),
    "fourier_correction_factor epsilon": lambda v: fourier_correction_factor(64, 0.25, v),
    "FourierFactor w": lambda v: FourierFactor(v, np.zeros((4, 1)), np.zeros((2, 2)), np.zeros((2, 2))),
    "projection_correction n": lambda v: projection_correction(v, 0.25, 1e-6, 32),
    "projection_correction w": lambda v: projection_correction(64, v, 1e-6, 32),
    "projection_correction epsilon": lambda v: projection_correction(64, 0.25, v, 32),
    "projection_correction k": lambda v: projection_correction(64, 0.25, 1e-6, v),
    "pinv_correction k": lambda v: pinv_correction(64, 0.25, 1e-6, v),
    "tikhonov_correction w": lambda v: tikhonov_correction(64, v, 1e-6, 1e-2),
    "tikhonov_correction epsilon": lambda v: tikhonov_correction(64, 0.25, v, 1e-2),
    "tikhonov_correction alpha": lambda v: tikhonov_correction(64, 0.25, 1e-6, v),
    "tikhonov_precision_floor n": lambda v: tikhonov_precision_floor(v, 0.25, 1e-2),
    "tikhonov_precision_floor w": lambda v: tikhonov_precision_floor(64, v, 1e-2),
    "tikhonov_precision_floor alpha": lambda v: tikhonov_precision_floor(64, 0.25, v),
}


@pytest.mark.parametrize("value", ["0.25", None, 0.25 + 0j, np.array([0.25]), Decimal("0.25")], ids=repr)
@pytest.mark.parametrize("slot", list(_SCALAR_SLOTS))
def test_every_layer_rejects_a_scalar_that_is_not_real(slot, value):
    # the range checks of these layers compared the value by hand: a str, None or complex raised TypeError
    with pytest.raises(ValueError):
        _SCALAR_SLOTS[slot](value)


def test_fourier_correction_factor_stores_a_float32_w_as_a_float():
    # a float32 w was kept as given, and its rounding to the odd column count and the bandwidth shift ran in float32
    w = np.float32(0.1)
    got, want = (fourier_correction_factor(4099, v, 1e-6) for v in (w, float(w)))
    assert type(got.w) is float and got.w == want.w
    for a, b in zip(got.arrays, want.arrays):
        assert np.array_equal(a, b)
    x = np.random.default_rng(4099).standard_normal(4099)
    c = got.adjoint_apply(x)
    assert np.array_equal(c, want.adjoint_apply(x))
    assert np.array_equal(got.synthesize(c), want.synthesize(c))
