"""The package's export list and the README's Library section name the same API."""

import re
from pathlib import Path

import prolate

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_lists_exactly_the_exports():
    text = README.read_text(encoding="utf-8")
    para = re.search(r"The package exports exactly these names \(`prolate.__all__`\):(.*?)\n\n", text, re.S)
    assert para, "README Library section has no export list"
    assert re.findall(r"`(\w+)`", para.group(1)) == list(prolate.__all__)


def test_every_export_resolves():
    for name in prolate.__all__:
        assert getattr(prolate, name) is not None, name
