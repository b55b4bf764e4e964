"""The package API: each module's ``__all__``, re-exported once."""

import ast
import collections
import pathlib
import re
import subprocess
import sys

import pytest

import pmelab
from pmelab import cd, errors, estimates, graphs, operators, solver

_MODULES = (cd, errors, estimates, graphs, operators, solver)

# paper name -> descriptive name
_ALIASES = {
    "upsilon": "exp_remainder",
    "tilde_upsilon": "exp_remainder_m",
    "psi_H": "difference_sum",
    "tilde_psi": "gradient_energy",
    "gamma": "carre_du_champ",
    "d_m": "curvature_form",
    "d_m_alpha": "curvature_form_mixed",
    "g_quantity": "mixed_laplacian",
    "rhs": "pme_rhs",
    "complete_graph_f": "complete_graph_certificate",
    "z_lattice_cd_check": "lattice_cd_check",
    "lemma61_check": "quadratic_minorant_check",
    "lemma63_check": "integral_min_inequality_check",
}


def test_the_package_api_is_the_module_lists_in_order():
    want = [name for module in _MODULES for name in module.__all__]
    assert pmelab.__all__ == want
    assert len(set(want)) == len(want)
    for name in ("AdmissibilityResult", "GENERATOR_HELP", "check_exponent", "check_mixing"):
        assert name in want


def test_each_package_name_is_its_module_object():
    for module in _MODULES:
        for name in module.__all__:
            assert getattr(pmelab, name) is getattr(module, name), name


def test_each_paper_alias_is_the_function_it_names():
    for alias, name in _ALIASES.items():
        assert alias in pmelab.__all__ and name in pmelab.__all__
        assert getattr(pmelab, alias) is getattr(pmelab, name), alias


def test_a_star_import_binds_exactly_the_api():
    namespace = {}
    exec("from pmelab import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(pmelab.__all__)


def test_the_errors_module_exports_exactly_its_exceptions():
    defined = [
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, Exception) and value.__module__ == errors.__name__
    ]
    assert sorted(errors.__all__) == sorted(defined) and len(defined) == 7


def test_the_name_map_is_the_module_lists_in_order():
    assert pmelab._EXPORTS == {module.__name__.rpartition(".")[2]: tuple(module.__all__) for module in _MODULES}
    assert list(pmelab._MODULE_OF) == pmelab.__all__


def test_the_version_is_the_one_pyproject_declares():
    pyproject = (pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", pyproject, re.M | re.S).group(1)
    assert re.findall(r'^version = "([^"]+)"$', project, re.M) == [pmelab.__version__]


def test_dir_lists_the_api_and_the_modules():
    listed = dir(pmelab)
    assert listed == sorted(listed)
    assert set(pmelab.__all__) | {"cd", "errors", "estimates", "graphs", "operators", "solver", "artifacts"} <= set(listed)
    assert "__version__" in listed


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        pmelab.no_such_name
    assert not hasattr(pmelab, "no_such_name")


# each step runs in a fresh interpreter, where nothing has touched the package yet
_LAZY_STEPS = """
import sys
import pmelab

def loaded():
    return sorted(m for m in sys.modules if m.startswith("pmelab."))

assert loaded() == [], loaded()
assert pmelab.__version__
assert "pressure" not in vars(pmelab)
pressure = pmelab.pressure
assert vars(pmelab)["pressure"] is pressure is sys.modules["pmelab.operators"].pressure
assert loaded() == ["pmelab.errors", "pmelab.graphs", "pmelab.operators"], loaded()
assert pmelab.cd is sys.modules["pmelab.cd"] and vars(pmelab)["cd"] is pmelab.cd
assert not hasattr(pmelab, "cli")
namespace = {}
exec("from pmelab import *", namespace)
assert "pmelab.cli" not in sys.modules and "pmelab.solver" in sys.modules
"""


def test_importing_pmelab_loads_none_of_its_modules():
    proc = subprocess.run([sys.executable, "-c", _LAZY_STEPS], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _private_definitions(tree):
    """``(name, node)`` of each module-level name with one leading underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _references(node):
    """How often each identifier is read in ``node``, as a name or as an attribute."""
    return collections.Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if (isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)) or isinstance(sub, ast.Attribute)
    )


def test_every_private_module_name_is_used_in_the_package():
    trees = [ast.parse(path.read_text()) for path in sorted(pathlib.Path(pmelab.__file__).parent.glob("*.py"))]
    used = sum((_references(tree) for tree in trees), collections.Counter())
    definitions = [pair for tree in trees for pair in _private_definitions(tree)]
    assert definitions
    dead = [name for name, node in definitions if used[name] <= _references(node)[name]]
    assert dead == []
