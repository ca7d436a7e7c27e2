import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import dipole1d

_MODULES = sorted(m.name for m in pkgutil.iter_modules(dipole1d.__path__))


@pytest.mark.parametrize("name", _MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"dipole1d.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_imports_resolve():
    # every `from .module import name` in dipole1d/__init__.py names an
    # attribute of that module which the module also lists in __all__
    tree = ast.parse(Path(dipole1d.__file__).read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    bad = []
    for node in imports:
        module = importlib.import_module(f"dipole1d.{node.module}")
        for alias in node.names:
            if not hasattr(module, alias.name) or alias.name not in module.__all__:
                bad.append(f"{node.module}.{alias.name}")
            elif getattr(dipole1d, alias.asname or alias.name) is not getattr(module, alias.name):
                bad.append(f"{node.module}.{alias.name}")
    assert bad == []
