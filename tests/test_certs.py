"""The certificates apart from the solvers: `certs` reads only `model` and
the standard library, `check` reads no solver but the max-flow of its tau
check, and each certificate name keeps its old import paths."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import virtcont

_SRC = Path(virtcont.__file__).parent
_SOLVERS = {"coupling", "flows", "srnorm", "tau", "thickness", "transport", "vcdiag"}


def _imports(name):
    """The modules that src/virtcont/<name>.py imports, read from its import
    statements: a package module by its bare name, any other as given."""
    tree = ast.parse((_SRC / f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add(node.module if node.level == 0 else f".{node.module}")
    return found


def test_certs_imports_only_model_and_the_standard_library():
    found = _imports("certs")
    assert ".model" in found
    assert {m for m in found if m.startswith(".")} == {".model"}
    assert all(m.split(".")[0] in sys.stdlib_module_names or m == "__future__"
               for m in found if not m.startswith("."))


def test_checkers_imports_no_solver_module_but_flows():
    found = _imports("checkers")
    assert {m[1:] for m in found if m.startswith(".")} & _SOLVERS == {"flows"}
    assert not any(m.startswith("virtcont") for m in found)


# each name moved into `certs`, with the module that defined it before
_MOVED = [("thickness", "ThicknessResult"), ("thickness", "verify_cover"),
          ("thickness", "verify_thickness_result"),
          ("srnorm", "SrNormResult"), ("srnorm", "verify_sr_certificates"),
          ("transport", "TransportResult"),
          ("transport", "verify_transport_result"),
          ("vcdiag", "StepFit"), ("vcdiag", "step_fit_violations")]


@pytest.mark.parametrize("module,name", _MOVED, ids=[n for _, n in _MOVED])
def test_a_moved_name_is_the_one_certs_defines(module, name):
    obj = getattr(importlib.import_module("virtcont.certs"), name)
    assert obj.__module__ == "virtcont.certs"
    assert getattr(importlib.import_module(f"virtcont.{module}"), name) is obj
    if name != "verify_cover":      # the one not exported by the package
        assert getattr(virtcont, name) is obj
