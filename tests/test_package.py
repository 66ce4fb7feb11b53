"""The package namespace and the README's examples."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import signalbox as sb
from signalbox import simplex

README = Path(__file__).resolve().parent.parent / "README.md"
EAGER = {"signalbox.correlation", "signalbox.errors", "signalbox.signaling", "signalbox.simulate"}


def test_all_names_every_public_import_once():
    assert len(sb.__all__) == len(set(sb.__all__)) == 78
    for name in sb.__all__:
        assert not name.startswith("_")
        assert not isinstance(getattr(sb, name), types.ModuleType)


def _submodules_after(script):
    """The signalbox submodules loaded once ``script`` ran in a fresh interpreter."""
    env = dict(os.environ)
    package_root = str(Path(sb.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    code = (
        "import json, sys\nimport signalbox as sb\n"
        + script
        + "\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('signalbox.'))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_classify_loads_neither_quantum_nor_simplex():
    assert _submodules_after("sb.classify(sb.pr_box())") == EAGER


@pytest.mark.parametrize("script", ["sb.lp_min_cost(sb.pr_box())", "sb.simplex.solve_lp"])
def test_first_lp_loads_simplex_only(script):
    assert _submodules_after(script) == EAGER | {"signalbox.simplex"}


def test_first_theta_sweep_loads_quantum():
    assert _submodules_after("sb.theta_sweep(0.9, 1.2, 5)") == EAGER | {"signalbox.quantum"}


def test_sweep_with_its_crossover_never_loads_simplex():
    script = "sb.theta_sweep(1.0, 1.2, 61)\nsb.find_crossover(1.0, 1.2)"
    assert _submodules_after(script) == EAGER | {"signalbox.quantum"}


def test_lazy_names_are_served_and_never_bound():
    """Each lazy name is its submodule's object, looked up afresh, never cached here."""
    lazy = sb._LAZY
    assert len(lazy) == 24 and set(lazy.values()) == {"quantum", "simplex"}
    for name, module in lazy.items():
        assert getattr(sb, name) is getattr(sys.modules[f"signalbox.{module}"], name)
    assert set(sb.__all__) <= set(dir(sb))
    namespace = {}
    exec("from signalbox import *", namespace)
    assert set(sb.__all__) <= set(namespace)
    assert set(vars(sb)).isdisjoint(lazy)
    assert sb.quantum is sys.modules["signalbox.quantum"]
    assert not hasattr(sb, "no_such_name")


def test_wrapper_on_simplex_solve_lp_sees_every_lp(monkeypatch):
    """A wrapper set on ``signalbox.simplex.solve_lp`` sees each ``lp_min_cost``,
    through the package too, and is gone from it once put back."""
    calls = []
    solve = simplex.solve_lp

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(simplex, "solve_lp", counting)
    assert sb.solve_lp is counting
    sb.lp_min_cost(sb.pr_box())
    sb.lp_min_cost(sb.unbalanced_pr(0.3))
    with pytest.raises(sb.InfeasibleError):
        sb.lp_min_cost(sb.tsirelson_signal_box())
    assert len(calls) == 3
    monkeypatch.undo()
    assert sb.solve_lp is solve
    sb.lp_min_cost(sb.pr_box())
    assert len(calls) == 3


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
