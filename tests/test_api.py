"""The package's export list and the README's Library section name the same API, every module's export list
resolves, every transform comes from one library, and every kind maps real input to real output."""

import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import prolate
from prolate import FastFactorization, FastProjector, FastPseudoinverse, FastTikhonov, SlepianParams

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
    # certified bound of the dense oracle's map; the factorization's k' coefficients are float64 for a real x
    w, eps, alpha = 0.25, 1e-6, 1e-2
    params = SlepianParams.create(n, w, eps)
    built = [FastProjector.build(params), FastFactorization.build(params), FastPseudoinverse.build(params),
             FastTikhonov.build(params, alpha)]
    maps = [projection_oracle(n, w, params.k), projection_oracle(n, w, params.k), pinv_oracle(n, w, params.k),
            tikhonov_oracle(n, w, alpha)]
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    for op, exact in zip(built, maps):
        for y in (x, x + 1j * rng.standard_normal(n)):
            if op.kind == 2:
                c = op.compress(y)
                assert c.shape == (op.k_prime,) and c.dtype == (np.complex128 if np.iscomplexobj(y) else np.float64)
                out = op.decompress(c)
            else:
                out = op.apply(y)
            assert out.dtype == (np.complex128 if np.iscomplexobj(y) else np.float64), op.kind
            assert np.linalg.norm(out - exact @ y) <= op.error_bound * np.linalg.norm(y), op.kind
