"""Layering: the path from a scenario to its report holds no linear algebra.

The scenario, its closed-form numbers, the Monte Carlo draw, the link budget, the report
and the number gates they share live in modules that import neither numpy nor a module
that does. This test reads the import statements of the package under test with ast, the
package __init__ excluded (it re-exports the whole library), and follows every chain of
imports between its modules. A Monte Carlo run, checked in a fresh interpreter, loads no
numpy.random. The closed form's tests and their 50-digit oracle import none of the generic
library, and no numpy.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qiradar

PACKAGE = Path(qiradar.__file__).parent
NUMPY_FREE = ("scenario", "report", "linkbudget", "errors", "closed_form", "montecarlo")
# The generic linear-algebra layer and the CLI over it; __init__ imports all of them.
LINEAR_ALGEBRA = ("qstate", "channel", "metrics", "detector", "cli", "__init__")


def imports(module: str, directory: Path = PACKAGE) -> tuple[set[str], set[str]]:
    """(package modules, other top-level packages) that module, a file in directory, imports
    anywhere in its text; ``from . import x`` names the module x when there is one, else
    __init__."""
    siblings, packages = set(), set()
    tree = ast.parse((directory / f"{module}.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "qiradar":
                    siblings.add(rest.partition(".")[0] or "__init__")
                else:
                    packages.add(top)
        elif isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level == 0:
                top, _, name = name.partition(".")
                if top != "qiradar":
                    packages.add(top)
                    continue
            if name:  # from .x import y, from qiradar.x import y
                siblings.add(name.partition(".")[0])
            else:  # from . import x, from qiradar import x
                siblings.update(alias.name if (PACKAGE / f"{alias.name}.py").is_file()
                                else "__init__" for alias in node.names)
    return siblings, packages


def reachable(starts) -> dict[str, list[str]]:
    """Every module reached from ``starts``, mapped to one import chain that reaches it."""
    chains = {start: [start] for start in starts}
    queue = list(starts)
    while queue:
        module = queue.pop()
        if module == "__init__":
            continue
        for sibling in sorted(imports(module)[0]):
            if sibling not in chains:
                chains[sibling] = chains[module] + [sibling]
                queue.append(sibling)
    return chains


def test_the_import_reader_sees_the_linear_algebra_layer():
    # Guards the two checks below against a reader that finds no imports at all.
    assert imports("qstate")[1] >= {"numpy", "dataclasses"}
    assert imports("cli")[0] >= {"channel", "metrics", "report", "scenario"}
    assert imports("report")[0] >= {"closed_form", "linkbudget", "montecarlo", "scenario"}
    assert reachable(["cli"]).get("qstate") is not None
    assert sorted(path.stem for path in PACKAGE.glob("*.py")) == sorted(
        {*NUMPY_FREE, *LINEAR_ALGEBRA, "__main__"})


def test_numpy_free_modules_reach_no_linear_algebra():
    chains = reachable(NUMPY_FREE)
    reached = [" -> ".join(chains[m]) for m in LINEAR_ALGEBRA if m in chains]
    assert not reached, f"import chains into the linear-algebra layer: {reached}"


@pytest.mark.parametrize("module", NUMPY_FREE)
def test_numpy_free_modules_import_no_numpy(module):
    assert "numpy" not in imports(module)[1]


@pytest.mark.parametrize("module", ["test_closed_form", "mp_oracle"])
def test_the_closed_form_tests_and_their_oracle_import_no_generic_library(module):
    # The closed form is checked against the 50-digit oracle alone, not against the generic
    # library that its own tests check against the same oracle; neither needs numpy.
    siblings, packages = imports(module, Path(__file__).parent)
    assert "closed_form" in siblings and "mpmath" in packages  # the reader sees both kinds
    assert not siblings & {"qstate", "metrics", "channel", "detector", "__init__"}
    assert "numpy" not in packages


def test_a_monte_carlo_run_loads_no_numpy_random():
    # The stream draws from the standard library's random, so the numpy submodule that a
    # process loads only on first use never loads.
    code = ("import sys; from qiradar import parse_scenario, run_scenario; "
            "r = run_scenario(parse_scenario('phase_rad = 1\\nreflectivity = 0.5\\n"
            "noise_excitation = 0.1\\ntrials = 20000\\n')); "
            "assert sum(o.trials for o in r.monte_carlo) == 20000; "
            "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))")
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                            check=True)
    assert result.stdout == "[]\n"
