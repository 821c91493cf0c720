"""Docstring policy for the paper-core, experiments, and faults packages.

Mirrors the ruff pydocstyle configuration in ``pyproject.toml`` (rules
D100/D101/D103 scoped to ``src/repro/core``, ``src/repro/detectors``,
``src/repro/experiments``, ``src/repro/faults``, ``src/repro/obs``,
``src/repro/revocation``, ``src/repro/verify``, and ``src/repro/vec``)
so the policy is enforced in plain pytest runs even where ruff is not
installed. Additionally, every ``repro.core``, ``repro.detectors``,
``repro.faults``, ``repro.obs``, ``repro.revocation``, ``repro.verify``,
and ``repro.vec`` module must
carry a ``Paper section:`` reference line tying it back to the source
paper — the fault models exist to stress specific paper assumptions,
the observability layer to measure them, the conformance harness to
check them, the vectorized kernels to reproduce them bit-for-bit at
speed, the revocation service to scale them, the detector arena to
benchmark successors against them, and the citation is the
map.
"""

import ast
import pathlib

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent
SCOPED_PACKAGES = (
    "core",
    "detectors",
    "experiments",
    "faults",
    "obs",
    "revocation",
    "verify",
    "vec",
)


def _scoped_modules():
    for package in SCOPED_PACKAGES:
        for path in sorted((SRC / package).glob("*.py")):
            yield package, path


MODULES = list(_scoped_modules())


@pytest.mark.parametrize(
    "package,path", MODULES, ids=[f"{pkg}/{p.name}" for pkg, p in MODULES]
)
def test_module_docstring_policy(package, path):
    tree = ast.parse(path.read_text())
    docstring = ast.get_docstring(tree)
    assert docstring, f"{path} has no module docstring (D100)"

    # Public top-level classes and functions must be documented too
    # (D101/D103 in the ruff config).
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_"):
                continue
            assert ast.get_docstring(node), (
                f"{path}: public {node.name!r} has no docstring"
            )

    # Core, faults, obs, revocation, verify, and vec modules
    # additionally cite the paper section they implement, stress,
    # measure, scale, or check.
    if package in (
        "core",
        "detectors",
        "faults",
        "obs",
        "revocation",
        "verify",
        "vec",
    ):
        assert "Paper section:" in docstring, (
            f"{path}: module docstring lacks a 'Paper section:' line"
        )
