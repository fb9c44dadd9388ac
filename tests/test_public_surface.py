"""Guards on the public surface of the package: what `__all__` exports
exists, each public name has one import path (its module's), the
benchmark's tracer finds every function it wraps, and no module keeps an
import it does not use."""

import ast
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "zetaforge"
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"zetaforge.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def test_the_package_root_binds_only_its_modules():
    package = importlib.import_module("zetaforge")
    public = {name: value for name, value in vars(package).items() if not name.startswith("_")}
    assert [
        name
        for name, value in public.items()
        if not (isinstance(value, types.ModuleType) and value.__name__ == f"zetaforge.{name}")
    ] == []


def test_no_object_is_exported_by_two_modules():
    homes: dict = {}
    for name in MODULES:
        module = importlib.import_module(f"zetaforge.{name}")
        for attr in getattr(module, "__all__", ()):
            homes.setdefault(id(getattr(module, attr)), []).append(f"{name}.{attr}")
    assert [names for names in homes.values() if len(names) > 1] == []


# the order in which `import zetaforge.cli` finishes loading the modules, as
# the comment in __init__.py states it: errors, poly, record, intlinalg,
# lfunctions, zetarep, scheme_algebra, then archimedean, detcomplex, forkmap
# and ffengine, then the package and the CLI.  Timings move with it: moving
# intlinalg's load alone once moved a benchmark's median latency by 8 %.
LOAD_ORDER = [
    *(f"zetaforge.{name}" for name in ("errors", "poly", "record", "intlinalg", "lfunctions", "zetarep",
                                       "scheme_algebra", "archimedean", "detcomplex", "forkmap", "ffengine")),
    "zetaforge",
    "zetaforge.cli",
]


def test_modules_load_in_the_stated_order():
    # sys.modules lists a module when its body has run, so in load order
    probe = "import sys, json, zetaforge.cli; print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'zetaforge']))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == LOAD_ORDER
    assert sorted(name.removeprefix("zetaforge.") for name in LOAD_ORDER if name != "zetaforge") == MODULES


def test_the_command_line_does_not_load_typing_or_threading():
    # under -S no site hook preloads them; `forkmap` imports threading where it reads it
    probe = "import sys, zetaforge.cli; print(sorted({'typing', 'threading'} & sys.modules.keys()))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def _traced_layers() -> dict:
    """`LAYERS` of perfbench/tracing.py, read without importing perfbench."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "LAYERS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no LAYERS")


def test_every_traced_name_exists():
    missing = [
        f"{layer}.{name}"
        for layer, names in _traced_layers().items()
        for name in names
        if not hasattr(importlib.import_module(f"zetaforge.{layer}"), name)
    ]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    module = importlib.import_module(f"zetaforge.{name}")
    used.update(getattr(module, "__all__", ()))
    assert sorted(f"{bound} (line {line})" for bound, line in imported.items() if bound not in used) == []


@pytest.mark.parametrize("name", MODULES + ["__init__"])
def test_no_assert_statements(name):
    # python -O strips assert statements, so an invariant check is a raised ZetaforgeError
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []


def test_zetarep_leaves_the_l_part_to_lfunctions():
    # the L-part of a special value (orbits, routes, table bounds, the numeric
    # product) has one owner: zetarep reads the type, the default precision
    # and the two entry points, and nothing else of lfunctions
    tree = ast.parse((SRC / "zetarep.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("lfunctions"):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):  # no module object to reach past the names
            assert not any(alias.name.endswith("lfunctions") for alias in node.names)
    assert names == {"DEFAULT_PRECISION", "SpecialValue", "_orbit_table", "_special_value"}
