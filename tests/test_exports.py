"""Every ``repro`` module imports, and every name in an ``__all__`` resolves.

A package ``__init__`` re-exports names from its modules. When a module is
deleted, an ``__all__`` entry left behind without its import breaks
``from repro.<package> import *``, and no test that imports by name sees it.
"""

import importlib
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent


def module_names():
    """Dotted names of every module under ``src/repro``."""
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        if parts[-1] == "__main__":
            continue  # runs its CLI when imported
        if parts[-1] == "__init__":
            parts = parts[:-1]
        yield ".".join(parts)


def test_every_module_imports_and_every_export_resolves():
    unresolved = []
    for name in module_names():
        module = importlib.import_module(name)
        unresolved += [
            f"{name}.{attr}"
            for attr in getattr(module, "__all__", ())
            if not hasattr(module, attr)
        ]
    assert unresolved == []
