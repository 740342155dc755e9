"""The public surface: the package's export list and the demos that use it.

Each demo is loaded from its file, as ``python demos/<name>.py`` runs it,
and its ``main()`` must finish and print.
"""

import importlib.util
from pathlib import Path

import pytest

import berlab

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_every_export_resolves():
    missing = [name for name in berlab.__all__ if not hasattr(berlab, name)]
    assert missing == []
    namespace = {}
    exec("from berlab import *", namespace)
    assert set(berlab.__all__) <= set(namespace)


@pytest.mark.parametrize("name", sorted(p.stem for p in DEMOS.glob("*.py")))
def test_demo_runs(name, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{name}", DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    assert capsys.readouterr().out.strip()
