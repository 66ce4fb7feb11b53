"""The package namespace and the README's examples."""

import contextlib
import io
import re
import types
from pathlib import Path

import signalbox as sb

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_names_every_public_import_once():
    assert len(sb.__all__) == len(set(sb.__all__)) == 78
    for name in sb.__all__:
        assert not name.startswith("_")
        assert not isinstance(getattr(sb, name), types.ModuleType)


def test_readme_python_examples_print_their_comments():
    """Each python block of the README runs, and each print shows its ``# ...`` comment."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 2
    printed = []
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {})
        printed += out.getvalue().splitlines()
    expected = [
        line.split("#", 1)[1].strip()
        for block in blocks
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    assert expected == ["4.0", "1.0", "1.0 False", "1.0"]
    assert printed == expected
