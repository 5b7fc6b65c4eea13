"""Import guards over the package modules.

Every name a module imports must be referenced in it, every ``__all__``
entry must be defined at its top level, and no module reads a sibling
module's ``_private`` name; these read the source with ``ast``, and skip
``__init__.py``, which only re-exports.  Starting the CLI must not load
what no command below the process pool runs.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import percoperm

MODULES = sorted(p for p in Path(percoperm.__file__).parent.glob("*.py") if p.name != "__init__.py")
SIBLINGS = {p.stem for p in MODULES}


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def top_level_names(tree):
    names = set(imported_names(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = set(imported_names(tree)) - used - set(exported_names(tree))
    assert not unused, f"{path.name} imports but never uses {sorted(unused)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_is_defined(path):
    tree = ast.parse(path.read_text())
    missing = set(exported_names(tree)) - top_level_names(tree)
    assert not missing, f"{path.name} exports undefined {sorted(missing)}"


def private_reaches(tree):
    """(line, text) of each read of a sibling's ``_name``, by attribute or by relative import."""
    modules = set()  # local names bound to sibling modules
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield node.lineno, f"from {node.module or '.'} import {alias.name}"
                elif alias.name in SIBLINGS:
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            yield node.lineno, f"{node.value.id}.{node.attr}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_of_a_sibling(path):
    reaches = list(private_reaches(ast.parse(path.read_text())))
    assert not reaches, f"{path.name} reads private names of sibling modules: {reaches}"


def test_private_reaches_sees_attributes_and_imports():
    source = "from . import counting as c\nfrom .perm import _check\nfrom .series import a\n"
    source += "c._walk(a._x)\n"  # `a` is a function, not a module
    reaches = list(private_reaches(ast.parse(source)))
    assert reaches == [(2, "from perm import _check"), (4, "c._walk")]


# Loaded only where they run: the pool in count_table from PARALLEL_MIN_N on,
# Fraction in series.a_formula_terms; the records are NamedTuples.
DEFERRED = {"concurrent.futures.process", "multiprocessing", "fractions", "decimal", "dataclasses"}


def test_cli_start_up_defers_the_pool_and_fractions():
    # sys.modules before and after the import, both in the child, so site hooks do not count.
    code = ("import sys; before = set(sys.modules); import percoperm.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    src = os.path.dirname(os.path.dirname(percoperm.__file__))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    loaded = set(done.stdout.split())
    assert "percoperm.cli" in loaded
    assert not loaded & DEFERRED, f"import percoperm.cli loads {sorted(loaded & DEFERRED)}"
