"""Library-wide API quality gates.

Meta-tests over the package itself: every public module, class, and
function must be documented (deliverable (e) of a production-quality
release), every ``__all__`` entry must resolve, and the subpackage
re-exports must stay consistent.
"""

from __future__ import annotations

import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SUBPACKAGES = ["repro.core", "repro.stats", "repro.simsys", "repro.models",
               "repro.survey", "repro.report", "repro.compare"]


def _all_modules():
    out = []
    for pkg_name in ["repro"] + SUBPACKAGES:
        pkg = importlib.import_module(pkg_name)
        out.append(pkg)
        if hasattr(pkg, "__path__"):
            for info in pkgutil.iter_modules(pkg.__path__):
                if info.name.startswith("_"):
                    continue
                out.append(importlib.import_module(f"{pkg_name}.{info.name}"))
    return out


MODULES = _all_modules()


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_docstring(module):
    assert module.__doc__ and len(module.__doc__.strip()) > 20, (
        f"{module.__name__} lacks a meaningful module docstring"
    )


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_entries_resolve(module):
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name}"


@pytest.mark.parametrize("pkg_name", SUBPACKAGES)
def test_public_callables_documented(pkg_name):
    pkg = importlib.import_module(pkg_name)
    undocumented = []
    for name in getattr(pkg, "__all__", []):
        obj = getattr(pkg, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(f"{pkg_name}.{name}")
            if inspect.isclass(obj):
                for mname, member in inspect.getmembers(obj):
                    if mname.startswith("_") or not inspect.isfunction(member):
                        continue
                    if member.__qualname__.split(".")[0] != obj.__name__:
                        continue  # inherited
                    if not (member.__doc__ and member.__doc__.strip()):
                        undocumented.append(f"{pkg_name}.{name}.{mname}")
    assert not undocumented, f"undocumented public API: {undocumented}"


def test_version_exported():
    assert repro.__version__


def test_subpackage_alls_are_sorted_unique():
    for pkg_name in SUBPACKAGES:
        pkg = importlib.import_module(pkg_name)
        entries = list(getattr(pkg, "__all__", []))
        assert len(entries) == len(set(entries)), f"duplicate __all__ in {pkg_name}"


def test_library_never_imports_reference_oracle():
    # The scalar ReferenceComm is a test oracle and benchmark baseline; no
    # library module may pull it in.  Nor may any module import networkx:
    # the topologies are closed forms, and the package does not depend on
    # it.  A fresh interpreter keeps this test independent of whatever the
    # rest of the suite already imported.
    code = (
        "import importlib, pkgutil, sys, repro\n"
        "skip = {'repro.simsys.reference', 'repro.__main__'}\n"
        "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    if info.name not in skip:\n"
        "        importlib.import_module(info.name)\n"
        "assert 'repro.simsys.reference' not in sys.modules\n"
        "assert 'networkx' not in sys.modules\n"
    )
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_errors_all_derive_from_base():
    from repro import errors

    for name in errors.__all__:
        exc = getattr(errors, name)
        assert issubclass(exc, errors.ReproError)


_BENCH_PATH = re.compile(r"benchmarks/(?:results/)?[\w.-]+\.(?:py|txt)\b")


def test_docs_name_only_existing_bench_files():
    # A deleted or renamed bench script or result file must not live on in
    # the documentation that tells readers how to regenerate a number.
    root = Path(__file__).resolve().parent.parent
    try:
        listed = subprocess.run(
            ["git", "ls-files", "*.md"], cwd=root, capture_output=True, text=True,
        )
    except FileNotFoundError:
        pytest.skip("git is not installed")
    if listed.returncode != 0:
        pytest.skip("not a git checkout")
    stale = sorted(
        f"{doc}: {path}"
        for doc in listed.stdout.splitlines()
        for path in set(_BENCH_PATH.findall((root / doc).read_text(encoding="utf-8")))
        if not (root / path).exists()
    )
    assert not stale, f"docs name missing bench files: {stale}"
