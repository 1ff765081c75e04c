"""README's Python examples run as written.

The ```python blocks of README.md run in order, as one script, in a fresh interpreter
that imports the package these tests import; a block may use what an earlier one
defined. Each block asserts or prints what the text around it claims. A name in the
"Removed names" table stays removed.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import qiradar
from conftest import python_with_qiradar

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 3
    done = python_with_qiradar(["-c", "\n".join(blocks)], capture_output=True, text=True,
                               timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def removed_names():
    """The first cells of README's "Removed names" table that are one backticked name or
    call, as dotted paths, without the rows whose replacement keeps the name: a move
    to another module or a new signature, where the old name may still resolve."""
    section = README.read_text(encoding="utf-8").split("### Removed names", 1)[1]
    names = []
    for line in section.split("\n## ", 1)[0].splitlines():
        cells = [cell.strip() for cell in line.split("|")[1:-1]]
        removed = re.fullmatch(r"`([\w.]+)(\(.*\))?`", cells[0]) if cells else None
        if removed is None:
            continue
        path = removed.group(1)
        replacement = re.match(r"`([\w.]+)", cells[1])
        if replacement is None or replacement.group(1).split(".")[-1] != path.split(".")[-1]:
            names.append(path)
    return names


def resolves(obj, path):
    """Whether the dotted path names an attribute, or a dataclass field, from obj."""
    for part in path.split("."):
        if not hasattr(obj, part) and part not in getattr(obj, "__dataclass_fields__", ()):
            return False
        obj = getattr(obj, part, None)
    return True


def test_removed_names_stay_removed():
    # A name given with its module is checked there; a bare name in the package and in
    # each of its modules, so it cannot come back in a submodule either.
    names = removed_names()
    assert {"PureState", "partial_trace", "DensityOperator.dims", "tensor"} <= set(names)
    modules = [qiradar] + [importlib.import_module(f"qiradar.{info.name}")
                           for info in pkgutil.iter_modules(qiradar.__path__)
                           if info.name != "__main__"]
    for path in names:
        homes = [qiradar] if path.startswith("qiradar.") else modules
        found = [home.__name__ for home in homes
                 if resolves(home, path.removeprefix("qiradar."))]
        assert not found, f"{path} is in README's Removed names but resolves in {found}"
