"""Every export names something, once, and the package imports only exports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import leapsim


def test_every_export_exists_once_and_the_package_imports_only_exports():
    modules = {
        info.name: importlib.import_module(f"leapsim.{info.name}")
        for info in pkgutil.iter_modules(leapsim.__path__)
    }
    exporting = {name: module for name, module in modules.items() if hasattr(module, "__all__")}
    assert {"dist", "errors", "game", "netmodel", "alloc", "hfl", "experiment"} <= set(exporting)
    for name, module in exporting.items():
        missing = [export for export in module.__all__ if not hasattr(module, export)]
        assert missing == [], f"leapsim.{name}.__all__ names what the module lacks"
        assert len(set(module.__all__)) == len(module.__all__), f"leapsim.{name}.__all__ repeats"

    tree = ast.parse(Path(leapsim.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    unexported = [
        f"{module}.{name}" for module, name in imported if name not in exporting[module].__all__
    ]
    assert unexported == [], "leapsim/__init__.py imports names their modules do not export"
