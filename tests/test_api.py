"""The package's export list and the README's Library section name the same API, every module's export list
resolves, and every transform comes from one library."""

import importlib
import pkgutil
import re
from pathlib import Path

import prolate

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
