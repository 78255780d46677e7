"""Static checks on the package source, with the standard-library ``ast``:
no unused imports, an ``__all__`` that resolves, no module-level
function or class that nothing names, one home for the grid
tolerance and the lattice budget, one for the list rule's messages
(empty list, unknown name, repeat), one for the number rule's (type,
finiteness, range), one for the frontier planner's convexity
precondition, and one each for the location-range, off-grid and
table-epoch messages.  Every Python file parses as Python 3.10.
Commands sample and plan only through ``sim``, ``sim.problem_spec``
is the one place that builds a transfer task, and ``sim.plan`` the one
place that derives the frontier planner's input.  README's Python example
is run, so that it cannot name a removed API.  The console script that
``pyproject.toml`` declares runs, and CI's oldest leg tests the oldest
Python and numpy that it declares."""

import ast
import dataclasses
import importlib
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import offloadsim
from offloadsim.config import ScenarioConfig
from offloadsim.model import MAX_LATTICE_CELLS, ProblemSpec

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "offloadsim"
MODULES = sorted(PACKAGE.glob("*.py"))
WORD = re.compile(r"\w+")


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exported(tree):
    """The names listed in a module's ``__all__``, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path):
    """``(line, name)`` for every name an import binds in ``path`` that no
    expression of the module reads and ``__all__`` does not export."""
    tree = _tree(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append((node.lineno, name))
    return unused


def test_no_module_imports_a_name_it_never_uses():
    found = {path.name: unused_imports(path) for path in MODULES}
    assert {k: v for k, v in found.items() if v} == {}


def test_unused_import_finder_flags_an_unused_name(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from math import floor as fl, ceil\n"
        "__all__ = ['ceil']\n"
        "def f():\n"
        "    import json\n"
        "    return os.sep, fl(1.5)\n"
    )
    assert unused_imports(module) == [(2, "sys"), (6, "json")]


def test_every_exported_name_resolves():
    missing = [name for name in offloadsim.__all__ if not hasattr(offloadsim, name)]
    assert missing == []
    assert len(set(offloadsim.__all__)) == len(offloadsim.__all__)


def _corpus_files():
    yield from sorted((ROOT / "src").rglob("*.py"))
    yield from sorted((ROOT / "tests").rglob("*.py"))
    yield from sorted((ROOT / "perfbench").rglob("*.py"))
    yield ROOT / "README.md"


def unnamed_definitions():
    """``module.name`` for every module-level function or class of the
    package whose name appears nowhere in the sources, tests, benchmark or
    README outside its own definition."""
    words = Counter()
    for path in _corpus_files():
        words.update(WORD.findall(path.read_text(encoding="utf-8")))
    unnamed = []
    for path in MODULES:
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                # decorators and the body count as the definition
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                own = WORD.findall("\n".join(lines[first - 1 : node.end_lineno]))
                if words[node.name] == own.count(node.name):
                    unnamed.append(f"{path.stem}.{node.name}")
    return unnamed


def test_every_module_level_definition_is_named_elsewhere():
    assert unnamed_definitions() == []


def single_home_breaches():
    """``file: word`` wherever a Python file other than ``model.py`` (and
    this one) names the grid tolerance or writes the lattice budget as a
    literal, rather than importing the one constant."""
    homed = {"GRID_EPS", str(MAX_LATTICE_CELLS), f"{MAX_LATTICE_CELLS:_}"}
    breaches = []
    for path in _corpus_files():
        if path.suffix != ".py" or path in (PACKAGE / "model.py", Path(__file__).resolve()):
            continue
        for word in sorted(homed & set(WORD.findall(path.read_text(encoding="utf-8")))):
            breaches.append(f"{path.relative_to(ROOT)}: {word}")
    return breaches


def test_grid_tolerance_and_lattice_budget_live_only_in_model():
    assert single_home_breaches() == []


LIST_RULE = re.compile(r"repeated in|given; expected some of|; expected one of")


def message_copies(pattern, paths):
    """``file: message`` wherever one of ``paths`` writes a message that
    ``pattern`` matches."""
    copies = []
    for path in paths:
        for found in pattern.findall(path.read_text(encoding="utf-8")):
            copies.append(f"{path.name}: {found}")
    return copies


def test_list_rule_messages_are_raised_only_in_config():
    # the empty-list, the unknown-name and the repeat message
    config = PACKAGE / "config.py"
    assert message_copies(LIST_RULE, [p for p in MODULES if p != config]) == []
    assert message_copies(LIST_RULE, [config]) == [
        "config.py: given; expected some of",
        "config.py: ; expected one of",
        "config.py: repeated in",
    ]


CONVEXITY = re.compile(r'"penalty must be convex on the size grid"')


def test_convexity_precondition_is_raised_only_in_threshold():
    threshold = PACKAGE / "threshold.py"
    assert message_copies(CONVEXITY, [p for p in MODULES if p != threshold]) == []
    assert message_copies(CONVEXITY, [threshold]) == [
        'threshold.py: "penalty must be convex on the size grid"'
    ]


LOCATION_RANGE = re.compile(r"out of range 1\.\.")
OFF_GRID = re.compile(r"not on the")
EPOCH_RANGE = re.compile(r"outside 1\.\.")


def _functions(path):
    """The source of each module-level function of ``path``, by name."""
    text = path.read_text(encoding="utf-8")
    return {
        node.name: ast.get_source_segment(text, node)
        for node in _tree(path).body
        if isinstance(node, ast.FunctionDef)
    }


def test_location_and_grid_messages_are_raised_only_in_their_rules():
    functions = _functions(PACKAGE / "model.py")
    for pattern, message, rule in (
        (LOCATION_RANGE, "out of range 1..", "check_location"),
        (OFF_GRID, "not on the", "grid_index"),
    ):
        assert message_copies(pattern, MODULES) == [f"model.py: {message}"]
        assert pattern.search(functions[rule])  # the one copy is the rule's own


def test_epoch_range_message_is_raised_only_in_the_table_cell_rule():
    # both table readers take their epoch, location and size from dp._cell
    assert message_copies(EPOCH_RANGE, MODULES) == ["dp.py: outside 1.."]
    assert EPOCH_RANGE.search(_functions(PACKAGE / "dp.py")["_cell"])


NUMBER_RULE = re.compile(r"must be >=?|must be an integer|must be a finite number|must be in \[")


def test_number_rule_messages_are_raised_only_in_check_number():
    # streams._words keeps its own: a plain ValueError for an internal run
    # index, whose message test_sim pins
    streams = PACKAGE / "streams.py"
    model = PACKAGE / "model.py"
    assert message_copies(NUMBER_RULE, [p for p in MODULES if p not in (model, streams)]) == []
    rule = _functions(model)["check_number"]
    assert message_copies(NUMBER_RULE, [model]) == [
        f"model.py: {message}" for message in NUMBER_RULE.findall(rule)
    ]
    assert sorted(NUMBER_RULE.findall(rule)) == [
        "must be >",
        "must be >=",
        "must be a finite number",
        "must be an integer",
        "must be in [",
    ]
    assert NUMBER_RULE.findall(streams.read_text(encoding="utf-8")) == ["must be >="]
    assert NUMBER_RULE.search(_functions(streams)["_words"])


ARRAY_RULE = re.compile(r"must be an array of|must have shape|entries must be [\w-]+")


def test_array_rule_messages_are_raised_only_in_check_array():
    model = PACKAGE / "model.py"
    assert message_copies(ARRAY_RULE, [p for p in MODULES if p != model]) == []
    rule = _functions(model)["check_array"]
    assert message_copies(ARRAY_RULE, [model]) == [
        f"model.py: {message}" for message in ARRAY_RULE.findall(rule)
    ]
    assert sorted(ARRAY_RULE.findall(rule)) == [
        "entries must be finite",
        "entries must be non-negative",
        "must be an array of",
        "must have shape",
    ]


def test_every_python_file_parses_as_python_3_10():
    # the oldest Python that CI runs; feature_version rejects newer syntax
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
    failed = []
    for path in _corpus_files():
        if path.suffix == ".py":
            try:
                ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
            except SyntaxError as exc:
                failed.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert failed == []


def naming(word, paths):
    """The names of the files in ``paths`` whose source names ``word``."""
    return [path.name for path in paths if word in WORD.findall(path.read_text(encoding="utf-8"))]


def test_only_sim_and_streams_name_the_run_streams():
    assert naming("run_streams", MODULES) == ["sim.py", "streams.py"]


def package_imports(path):
    """The package modules that ``path`` imports from, anywhere in it: by
    ``from . import m``, ``from .m import ...``, ``import offloadsim.m`` or
    ``from offloadsim.m import ...``."""
    found = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names = [a.name.split(".") for a in node.names]
            found.update(n[1] for n in names if n[0] == "offloadsim" and len(n) > 1)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module.split(".")[0] != "offloadsim":
                    continue
                module = module[len("offloadsim.") :]
            found.update([module.split(".")[0]] if module else (a.name for a in node.names))
    return found


def test_package_import_finder_sees_every_form(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os\n"
        "from numpy import random\n"
        "from . import dp, sim\n"
        "from .threshold import solve_monotone\n"
        "import offloadsim.streams\n"
        "def f():\n"
        "    from offloadsim.model import Action\n"
    )
    assert package_imports(module) == {"dp", "sim", "threshold", "streams", "model"}


def test_cli_samples_and_plans_only_through_sim():
    assert package_imports(PACKAGE / "cli.py") & {"dp", "threshold", "streams"} == set()


# the fields a ``dataclasses.replace`` of a spec would set and of a config cannot
SPEC_ONLY = {f.name for f in dataclasses.fields(ProblemSpec)} - {
    f.name for f in dataclasses.fields(ScenarioConfig)
}


def spec_sources(path):
    """``definition: call`` for each ``ProblemSpec(...)`` in ``path``, and
    each ``replace(...)`` that sets by name a field only a spec has, under
    the module-level function or class it sits in."""
    found = []
    for top in _tree(path).body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = ast.unparse(node.func)
            if func == "ProblemSpec" or (
                func in ("replace", "dataclasses.replace")
                and SPEC_ONLY & {k.arg for k in node.keywords}
            ):
                found.append(f"{getattr(top, 'name', '<module>')}: {func}")
    return found


def test_only_problem_spec_builds_a_transfer_task(tmp_path):
    # one function turns a scenario into a spec; none is derived from another
    assert {p.name: spec_sources(p) for p in MODULES if spec_sources(p)} == {
        "sim.py": ["problem_spec: ProblemSpec"]
    }
    module = tmp_path / "m.py"
    module.write_text(
        "import dataclasses\n"
        "from dataclasses import replace\n"
        "def f(spec, cfg):\n"
        "    a = dataclasses.replace(spec, horizon=3)\n"
        "    b = replace(spec, initial_location=2, **{'x': 1})\n"
        "    return a, b, dataclasses.replace(cfg, runs=2), 'ab'.replace('a', 'c')\n"
    )
    assert spec_sources(module) == ["f: dataclasses.replace", "f: replace"]


def call_sites(path, names):
    """``function: call`` for each call in ``path`` whose name ends in one of
    ``names``, under the innermost function it sits in."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = ast.unparse(child.func)
                if func.rsplit(".", 1)[-1] in names:
                    found.append(f"{where}: {func}")
            visit(child, where)

    visit(_tree(path), "<module>")
    return found


def test_only_sim_plan_derives_a_frontier_input(tmp_path):
    # a MonotoneModel is built only by the regime check, as cls(...), and
    # only sim.plan runs that check, on means_model's network
    names = {"MonotoneModel", "from_network_model"}
    assert {p.name: call_sites(p, names) for p in MODULES if call_sites(p, names)} == {
        "sim.py": ["plan: MonotoneModel.from_network_model"]
    }
    assert call_sites(PACKAGE / "threshold.py", {"cls"}) == ["from_network_model: cls"]
    module = tmp_path / "m.py"
    module.write_text(
        "from offloadsim import threshold\n"
        "mm = threshold.MonotoneModel(1, (), [[1.0]], 1.0, 0.0, 1.0, None)\n"
        "class C:\n"
        "    @classmethod\n"
        "    def f(cls, net, spec):\n"
        "        def g():\n"
        "            return threshold.MonotoneModel.from_network_model(net, spec)\n"
        "        return cls(g())\n"
    )
    assert call_sites(module, names | {"cls"}) == [
        "<module>: threshold.MonotoneModel",
        "g: threshold.MonotoneModel.from_network_model",
        "f: cls",
    ]


README_PYTHON = re.compile(r"^```python\n(.*?)^```$", re.DOTALL | re.MULTILINE)


def test_readme_python_example_runs():
    blocks = README_PYTHON.findall((ROOT / "README.md").read_text(encoding="utf-8"))
    assert blocks
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for code in blocks:
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr


def _version(text):
    return tuple(int(part) for part in text.split("."))


def test_console_script_runs_and_ci_tests_the_declared_floors(capsys):
    # Python 3.10 has no tomllib, so both files are read with patterns
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    module, name = re.search(r'^offloadsim = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
    assert getattr(importlib.import_module(module), name)(["dump-config"]) == 0
    assert "seed = " in capsys.readouterr().out
    python = re.search(r'^requires-python = ">=([\d.]+)"$', pyproject, re.M)[1]
    numpy = re.search(r'^dependencies = \["numpy>=([\d.]+)"\]$', pyproject, re.M)[1]
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    legs = re.findall(r'- python: "([\d.]+)"\n\s+numpy: "numpy(?:==([\d.]+)\.\*)?"', workflow)
    assert legs and len(legs) == workflow.count("- python:")  # every leg parsed
    assert min(legs, key=lambda leg: _version(leg[0])) == (python, numpy)
