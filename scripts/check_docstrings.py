#!/usr/bin/env python
"""Docstring-coverage gate for the public API (CI: the docs job).

Imports the audited modules and walks every public symbol — module-level
functions, classes, and the methods/properties classes define themselves —
requiring a non-empty docstring on each.  "Public" means not underscore-
prefixed and actually defined in the audited package (re-exports of another
package's symbols are that package's responsibility).

Usage::

    PYTHONPATH=src python scripts/check_docstrings.py            # default scope
    PYTHONPATH=src python scripts/check_docstrings.py repro.data repro.serving

Exits non-zero listing every undocumented symbol.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pkgutil
import sys

#: The packages whose public API must be fully documented (dtypes, shapes and
#: shared-memory ownership live in these docstrings — see docs/serving.md;
#: lint rule semantics live in repro.analysis — see docs/static-analysis.md;
#: the inference network's exactness and buffer contract lives in repro.nn;
#: the scalar plant's bit-exactness contract lives in repro.buildings; the
#: fault layer's tier order and emission index, and the exactness of the
#: columnar setpoint clip and lookup, live in repro.env; the weather trace's
#: draw order and the solar model's float powers live in repro.weather).
DEFAULT_SCOPE = [
    "repro.data",
    "repro.serving",
    "repro.analysis",
    "repro.fleet",
    "repro.nn",
    "repro.buildings",
    "repro.env",
    "repro.weather",
]


def iter_modules(package_name: str):
    """Yield the package module and every submodule under it."""
    package = importlib.import_module(package_name)
    yield package
    if hasattr(package, "__path__"):
        for info in pkgutil.walk_packages(package.__path__, prefix=package_name + "."):
            yield importlib.import_module(info.name)


def has_doc(obj) -> bool:
    doc = inspect.getdoc(obj)
    return bool(doc and doc.strip())


def audit_module(module) -> list:
    """Return ``module:symbol`` labels for every undocumented public symbol."""
    missing = []
    if not has_doc(module):
        missing.append(f"{module.__name__} (module docstring)")
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isclass(obj) or inspect.isfunction(obj):
            # Only audit symbols defined somewhere in the audited package —
            # not numpy/stdlib re-imports.
            if not (obj.__module__ or "").startswith(module.__name__.split(".")[0]):
                continue
            if obj.__module__ != module.__name__:
                continue  # audited where it is defined, not where re-exported
            label = f"{module.__name__}.{name}"
            if not has_doc(obj):
                missing.append(label)
            if inspect.isclass(obj):
                missing.extend(audit_class(obj, label))
    return missing


def audit_class(cls, label: str) -> list:
    """Audit the methods/properties ``cls`` itself defines (not inherited)."""
    missing = []
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        target = None
        if isinstance(member, property):
            target = member.fget
        elif isinstance(member, (staticmethod, classmethod)):
            target = member.__func__
        elif inspect.isfunction(member):
            target = member
        if target is not None and not has_doc(target):
            missing.append(f"{label}.{name}")
    return missing


def main(argv) -> int:
    parser = argparse.ArgumentParser(
        description="Fail if a public symbol of the audited packages lacks a docstring."
    )
    parser.add_argument(
        "packages",
        nargs="*",
        metavar="PACKAGE",
        help=f"packages to audit (default: {' '.join(DEFAULT_SCOPE)})",
    )
    scope = parser.parse_args(argv).packages or DEFAULT_SCOPE
    missing = []
    for package_name in scope:
        for module in iter_modules(package_name):
            missing.extend(audit_module(module))
    if missing:
        print(f"{len(missing)} public symbol(s) missing docstrings:")
        for label in sorted(missing):
            print(f"  {label}")
        return 1
    print(f"Docstring coverage OK across {', '.join(scope)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
