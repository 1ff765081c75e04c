"""Reach: every function of the package runs on some path of the command line.

The test runs cli.main under sys.setprofile over a fixed corpus: every scenarios/ file
and the edge golden's document in both formats, with --roc-out where the document has
thresholds; a Monte Carlo run to stdout that reaches BTRD's final test; a thermal document
below the occupancy's series crossover; and each exit-2 and exit-3 path. It then lists
every function and method of the package under test with ast. Each one must have run, or
be named in LIBRARY_ONLY with the reason it is kept; an entry there that runs, or that
names no function, fails too. Code that nothing runs does not stay in the package.
"""

import ast
import os
import sys
from pathlib import Path

import qiradar
from qiradar.cli import main
from qiradar.scenario import parse_scenario
from test_golden import EDGE_SCENARIO

PACKAGE = Path(qiradar.__file__).parent
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# Functions no CLI path runs, each kept because the benchmark harness calls it.
LIBRARY_ONLY = {
    "detector.born_pair": "benchmarks/selftest.py runs it through roc_sweep",
    "detector.roc_sweep": "benchmarks/selftest.py calls it",
    "metrics.helstrom_error": "benchmarks/gate.py checks each ROC's t = 1 point against it",
}

# dense.cfg's state pair with trials: at this seed a BTRD draw ends in its final test.
MONTE_CARLO_DOC = ("phase_rad = 1\nreflectivity = 0.6\nnoise_excitation = 0.2\n"
                   "trials = 1000\nseed = 1\n")
# h·f/(k_B·T) = 1.6e-10, below the 1e-6 where the occupancy switches to its series.
SERIES_THERMAL_DOC = "phase_rad = 1\nreflectivity = 0.5\nfrequency_hz = 1e3\ntemperature_k = 300\n"
VALID = "phase_rad = 1\nreflectivity = 0.5\nnoise_excitation = 0.2\n"


def corpus(tmp_path):
    """The (argv, exit code) of each run, its documents written under tmp_path."""
    def cfg(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    out = str(tmp_path / "report")
    documents = {path.name: path.read_text(encoding="utf-8")
                 for path in sorted(SCENARIOS.glob("*.cfg"))}
    documents["edge.cfg"] = EDGE_SCENARIO
    runs = []
    for name, text in documents.items():
        roc = [] if parse_scenario(text).roc_thresholds is None else [
            "--roc-out", str(tmp_path / "roc.csv")]
        for fmt in ("table", "structured"):
            runs.append((["run", cfg(name, text), "--format", fmt, "--out", out, *roc], 0))
    example = str(SCENARIOS / "example.cfg")
    return runs + [
        (["run", cfg("monte_carlo.cfg", MONTE_CARLO_DOC)], 0),  # to stdout
        (["run", cfg("series.cfg", SERIES_THERMAL_DOC), "--out", out], 0),
        (["run", example, "--trials", "-1"], 2),
        (["run", str(tmp_path / "missing.cfg")], 2),
        (["run", cfg("malformed.cfg", "reflectivity\n")], 2),
        (["run", cfg("invalid.cfg", VALID.replace("0.5", "2"))], 2),
        (["run", example, "--out", str(tmp_path)], 2),  # a directory
        (["run", cfg("underflow.cfg", VALID + "link_budget.frequency_hz = 5e-324\n")], 3),
    ]


def functions():
    """{(file, first line, name): "module.Qualified.name"} of every function and method
    of the package, its first line that of its first decorator, as its code records it."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        file = os.path.realpath(path)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(file, first, child.name)] = f"{prefix}.{child.name}"
                    visit(child, f"{prefix}.{child.name}")
                else:
                    visit(child, f"{prefix}.{child.name}" if isinstance(child, ast.ClassDef)
                          else prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse's usage error
        return exc.code


def test_every_function_runs_on_a_cli_path_or_is_library_only(tmp_path, capsys):
    runs = corpus(tmp_path)
    calls = set()
    for module in [m for name, m in sys.modules.items() if name.startswith("qiradar.")]:
        for value in vars(module).values():  # a cached function filled by earlier tests runs again
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()

    def profile(frame, event, arg):
        if event == "call":
            calls.add((frame.f_code.co_filename, frame.f_code.co_firstlineno, frame.f_code.co_name))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [exit_code(argv) for argv, _ in runs]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes == [code for _, code in runs]

    table = functions()
    ran = {table.get((os.path.realpath(file), line, name)) for file, line, name in calls}
    names, kept = set(table.values()), set(LIBRARY_ONLY)
    assert not kept - names, f"LIBRARY_ONLY names no function: {sorted(kept - names)}"
    assert not kept & ran, f"LIBRARY_ONLY holds functions that a CLI path runs: {sorted(kept & ran)}"
    unreached = sorted(names - ran - kept)
    assert not unreached, f"no CLI path runs {unreached}: delete them, or keep them in LIBRARY_ONLY"
