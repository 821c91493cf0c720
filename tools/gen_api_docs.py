#!/usr/bin/env python3
"""Generate docs/API.md from module/class/function docstrings.

Dependency-free (stdlib ``ast`` only — the modules are parsed, never
imported), so it runs anywhere CI does. Covers the public surface of:

- ``repro.detectors`` (base, paper, consistency, mahalanobis, noisy)
- ``repro.faults`` (config, models, injector)
- ``repro.obs`` (config, metrics, spans, export, live)
- ``repro.experiments`` (runner, arena, distributed)
- ``repro.revocation`` (service, persistence, replay)
- ``repro.verify`` (oracles, differential, invariants, detectors,
  statgate, cli)
- ``repro.vec`` (geometry, measurement, localization, turbo)

For every module it emits the docstring summary (plus its ``Paper
section:`` line when the module carries one); for every public class,
the class summary and each public method's signature and first docstring
line; for every public module-level function, its signature and summary.
Missing docstrings are emitted as ``*(undocumented)*`` so gaps are
visible in review — and the docstring-policy test fails on them anyway.

Usage::

    python tools/gen_api_docs.py            # (re)write docs/API.md
    python tools/gen_api_docs.py --check    # exit 1 if docs/API.md is stale
"""

from __future__ import annotations

import argparse
import ast
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
OUTPUT = REPO_ROOT / "docs" / "API.md"

#: (dotted module name, source path) pairs, in emission order.
MODULES = [
    ("repro.detectors.base", SRC / "repro" / "detectors" / "base.py"),
    ("repro.detectors.paper", SRC / "repro" / "detectors" / "paper.py"),
    (
        "repro.detectors.consistency",
        SRC / "repro" / "detectors" / "consistency.py",
    ),
    (
        "repro.detectors.mahalanobis",
        SRC / "repro" / "detectors" / "mahalanobis.py",
    ),
    ("repro.detectors.noisy", SRC / "repro" / "detectors" / "noisy.py"),
    ("repro.faults.config", SRC / "repro" / "faults" / "config.py"),
    ("repro.faults.models", SRC / "repro" / "faults" / "models.py"),
    ("repro.faults.injector", SRC / "repro" / "faults" / "injector.py"),
    ("repro.obs.config", SRC / "repro" / "obs" / "config.py"),
    ("repro.obs.metrics", SRC / "repro" / "obs" / "metrics.py"),
    ("repro.obs.spans", SRC / "repro" / "obs" / "spans.py"),
    ("repro.obs.export", SRC / "repro" / "obs" / "export.py"),
    ("repro.obs.live", SRC / "repro" / "obs" / "live.py"),
    ("repro.experiments.runner", SRC / "repro" / "experiments" / "runner.py"),
    ("repro.experiments.arena", SRC / "repro" / "experiments" / "arena.py"),
    (
        "repro.experiments.distributed",
        SRC / "repro" / "experiments" / "distributed.py",
    ),
    (
        "repro.revocation.service",
        SRC / "repro" / "revocation" / "service.py",
    ),
    (
        "repro.revocation.persistence",
        SRC / "repro" / "revocation" / "persistence.py",
    ),
    ("repro.revocation.replay", SRC / "repro" / "revocation" / "replay.py"),
    ("repro.verify.oracles", SRC / "repro" / "verify" / "oracles.py"),
    ("repro.verify.differential", SRC / "repro" / "verify" / "differential.py"),
    ("repro.verify.invariants", SRC / "repro" / "verify" / "invariants.py"),
    ("repro.verify.detectors", SRC / "repro" / "verify" / "detectors.py"),
    ("repro.verify.statgate", SRC / "repro" / "verify" / "statgate.py"),
    ("repro.verify.cli", SRC / "repro" / "verify" / "cli.py"),
    ("repro.vec.geometry", SRC / "repro" / "vec" / "geometry.py"),
    ("repro.vec.measurement", SRC / "repro" / "vec" / "measurement.py"),
    ("repro.vec.localization", SRC / "repro" / "vec" / "localization.py"),
    ("repro.vec.turbo", SRC / "repro" / "vec" / "turbo.py"),
]

HEADER = """\
# API reference

Public classes and functions of the pluggable detector suite
(`repro.detectors`), the fault-injection layer
(`repro.faults`), the observability layer (`repro.obs`), the experiment
runner (`repro.experiments.runner`), the detector arena
(`repro.experiments.arena`), the distributed file-queue
backend (`repro.experiments.distributed`), the single-writer persistent
revocation service (`repro.revocation`), the paper-fidelity conformance harness
(`repro.verify`), and the vectorized batch simulation core
(`repro.vec`).

**Generated file — do not edit by hand.** Regenerate with::

    python tools/gen_api_docs.py

CI runs ``python tools/gen_api_docs.py --check`` and fails when this
file is stale. Background reading: [`ARENA.md`](ARENA.md),
[`FAULTS.md`](FAULTS.md),
[`OBSERVABILITY.md`](OBSERVABILITY.md), [`REVOCATION.md`](REVOCATION.md),
[`VERIFY.md`](VERIFY.md), [`PERFORMANCE.md`](PERFORMANCE.md).
"""


def _summary(docstring):
    """First paragraph of a docstring, joined to one line."""
    if not docstring:
        return "*(undocumented)*"
    lines = []
    for line in docstring.strip().splitlines():
        if not line.strip():
            break
        lines.append(line.strip())
    return " ".join(lines)


def _first_line(docstring):
    """First non-empty docstring line (method summaries)."""
    if not docstring:
        return "*(undocumented)*"
    for line in docstring.strip().splitlines():
        if line.strip():
            return line.strip()
    return "*(undocumented)*"


def _paper_section(docstring):
    """The ``Paper section:`` line of a docstring, if present."""
    if not docstring:
        return None
    for line in docstring.splitlines():
        if line.strip().startswith("Paper section:"):
            return line.strip()
    return None


def _signature(node):
    """A compact ``name(arg, arg=default, ...)`` rendering of a def."""
    args = node.args
    parts = []
    positional = args.posonlyargs + args.args
    defaults = [None] * (len(positional) - len(args.defaults)) + list(
        args.defaults
    )
    for arg, default in zip(positional, defaults):
        if arg.arg in ("self", "cls"):
            continue
        parts.append(
            arg.arg if default is None else f"{arg.arg}={ast.unparse(default)}"
        )
    if args.vararg is not None:
        parts.append(f"*{args.vararg.arg}")
    elif args.kwonlyargs:
        parts.append("*")
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        parts.append(
            arg.arg if default is None else f"{arg.arg}={ast.unparse(default)}"
        )
    if args.kwarg is not None:
        parts.append(f"**{args.kwarg.arg}")
    return f"{node.name}({', '.join(parts)})"


def _is_public_def(node):
    return isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef)
    ) and not node.name.startswith("_")


def _render_class(node):
    """Markdown block for one public class."""
    lines = [f"### `{node.name}`", "", _summary(ast.get_docstring(node)), ""]
    methods = [child for child in node.body if _is_public_def(child)]
    properties = [
        m
        for m in methods
        if any(
            isinstance(d, ast.Name) and d.id == "property"
            for d in m.decorator_list
        )
    ]
    plain = [m for m in methods if m not in properties]
    for method in plain:
        lines.append(
            f"- `{_signature(method)}` — "
            f"{_first_line(ast.get_docstring(method))}"
        )
    for prop in properties:
        lines.append(
            f"- `{prop.name}` *(property)* — "
            f"{_first_line(ast.get_docstring(prop))}"
        )
    if plain or properties:
        lines.append("")
    return lines


def render_module(dotted, path):
    """Markdown section for one module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    doc = ast.get_docstring(tree)
    lines = [f"## `{dotted}`", "", _summary(doc), ""]
    paper = _paper_section(doc)
    if paper:
        lines += [f"*{paper}*", ""]
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            lines += _render_class(node)
    functions = [node for node in tree.body if _is_public_def(node)]
    if functions:
        lines.append("### Functions")
        lines.append("")
        for node in functions:
            lines.append(
                f"- `{_signature(node)}` — "
                f"{_first_line(ast.get_docstring(node))}"
            )
        lines.append("")
    return lines


def generate():
    """The full docs/API.md content."""
    lines = [HEADER]
    for dotted, path in MODULES:
        lines += render_module(dotted, path)
    text = "\n".join(lines)
    while "\n\n\n" in text:
        text = text.replace("\n\n\n", "\n\n")
    return text.rstrip() + "\n"


def main(argv=None):
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify docs/API.md is up to date instead of writing it",
    )
    args = parser.parse_args(argv)
    content = generate()
    if args.check:
        current = OUTPUT.read_text() if OUTPUT.is_file() else ""
        if current != content:
            print(
                f"{OUTPUT.relative_to(REPO_ROOT)} is stale; "
                "run: python tools/gen_api_docs.py",
                file=sys.stderr,
            )
            return 1
        print(f"{OUTPUT.relative_to(REPO_ROOT)} is up to date")
        return 0
    OUTPUT.write_text(content)
    print(f"wrote {OUTPUT.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
