"""No ellipticlab module imports another's private name.

A name with a leading underscore is its module's own; a second module that
needs it should get it through a public name, so that each computation has
one public path.  The modules are parsed with `ast`, not imported.
"""

import ast
from pathlib import Path

import ellipticlab

SRC = Path(ellipticlab.__file__).resolve().parent


def private_imports(path: Path) -> list:
    """(line, module, name) of each `_`-prefixed name that `path` imports from
    another ellipticlab module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "ellipticlab":
            continue
        found += [(node.lineno, module, alias.name) for alias in node.names
                  if alias.name.startswith("_")]
    return found


def test_modules_found():
    assert {"harness.py", "spectral.py", "bumps.py"} <= {p.name for p in SRC.glob("*.py")}


def test_no_module_imports_a_private_name():
    found = {p.name: private_imports(p) for p in sorted(SRC.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_guard_sees_private_imports(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from .spectral import _probes, default_probes\n"
                   "from ellipticlab.bumps import _radial_rule\n"
                   "from os import _exit\n"
                   "from . import spectral\n")
    assert private_imports(src) == [(1, "spectral", "_probes"),
                                    (2, "ellipticlab.bumps", "_radial_rule")]
