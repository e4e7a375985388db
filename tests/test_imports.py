"""What `import influencefree` and one CLI request load, the lazy namespace,
that each module uses every name it imports, that every export has a caller,
and that the benchmark's calls into the package still resolve."""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import influencefree

LIBRARY = ("linalg", "testspace", "coupling", "choimaps", "cones", "teleport")
SRC = str(Path(influencefree.__file__).resolve().parents[1])
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# runs after the snippet under test and reports the modules it left loaded
REPORT = """
import sys
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "influencefree"))
print(*loaded, file=sys.stderr)
"""


def loaded_by(snippet: str, *argv: str) -> set[str]:
    """Modules of numpy and of the package that a fresh interpreter holds after snippet."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-c", snippet + REPORT, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


def request_loads(*argv: str) -> set[str]:
    """The package modules one CLI request loads; the request must succeed."""
    snippet = "from influencefree.cli import run\nassert run(sys.argv[1:]) == 0\n"
    return {m for m in loaded_by("import sys\n" + snippet, *argv) if m.startswith("influencefree")}


def package(*names: str) -> set[str]:
    return {"influencefree", *(f"influencefree.{n}" for n in names)}


def test_bare_import_loads_no_numpy_and_no_submodule():
    assert loaded_by("import influencefree") == {"influencefree"}


def test_submodule_attribute_after_bare_import():
    snippet = "import influencefree\nassert influencefree.cones.is_popt.__module__ == 'influencefree.cones'\n"
    assert {m for m in loaded_by(snippet) if m.startswith("influencefree")} == package("cones", "linalg")


def test_verify_state_request_loads_only_its_modules(tmp_path):
    doc = {
        "space": {"outcomes": ["a", "x", "b"], "tests": [["a", "x"], ["x", "b"]]},
        "table": {"a": 0.4, "x": 0.6, "b": 0.4},
    }
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    assert request_loads("verify-state", str(path)) == package("cli", "jsonio", "linalg", "testspace")


def test_ppt_check_request_adds_only_cones(tmp_path):
    doc = {"rows": 2, "cols": 2, "dims": [2, 1], "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]}
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    assert request_loads("ppt-check", str(path)) == package("cli", "cones", "jsonio", "linalg")


def test_pivot_request_loads_no_cones(tmp_path):
    # the maximally mixed state on 2 x 2; only the witness demo asks cones for a verdict
    entries = [[0.25 if i == j else 0, 0] for i in range(4) for j in range(4)]
    doc = {"rows": 4, "cols": 4, "dims": [2, 2], "entries": entries}
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    assert request_loads("pivot", str(path)) == package("choimaps", "cli", "jsonio", "linalg", "teleport")


@pytest.mark.parametrize("name", [n for n in influencefree.__all__ if n != "__version__"])
def test_every_name_is_the_object_of_its_home_module(name):
    obj = getattr(influencefree, name)
    modules = [importlib.import_module(f"influencefree.{m}") for m in LIBRARY]
    homes = [m for m in modules if name in vars(m)]
    assert homes
    assert all(vars(m)[name] is obj for m in homes)


@pytest.mark.parametrize("module", LIBRARY)
def test_exports_list_every_public_function_and_class_of_a_module(module):
    # the rule the benchmark's tracer wraps by: no leading underscore, defined in the module
    mod = importlib.import_module(f"influencefree.{module}")
    defined = {
        name for name, obj in vars(mod).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == mod.__name__
    }
    exported = {name for name in influencefree._EXPORTS[module] if callable(getattr(mod, name))}
    assert exported == defined
    assert "__all__" not in vars(mod)


def test_dir_and_star_import_cover_every_name():
    names = set(influencefree.__all__)
    assert len(names) == len(influencefree.__all__)
    assert names | set(LIBRARY) <= set(dir(influencefree))
    namespace = {}
    exec("from influencefree import *", namespace)
    assert names <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        influencefree.no_such_name  # noqa: B018
    assert not hasattr(influencefree, "_no_such_module")


@pytest.mark.parametrize(
    "path", sorted(Path(influencefree.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_every_imported_name_is_used(path):
    # a deletion tends to leave its imports behind; annotations count as uses
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported <= used, sorted(imported - used)


def test_every_name_the_benchmark_calls_is_exported():
    # perfbench imports the package as F; a deleted export would fail only there
    called = {
        name for path in PERFBENCH.glob("*.py") for name in re.findall(r"\bF\.(\w+)", path.read_text())
    }
    assert {"ProductState", "is_state_on_two_stage", "operational_bayes_check"} <= called
    assert called <= set(influencefree.__all__), sorted(called - set(influencefree.__all__))


# exports with no caller in src/ or the benchmark, and why each stays for now
UNCALLED = {
    "psd_part": "to be deleted with the benchmark's tracer metric that names it",
    "weight_space_dimension": "to get a caller or be deleted",
    "partial_trace": "an independent path for the teleport identities in tests",
    "marginal": "a reference for the influence verdicts in tests",
    "twisted_bell_projector": "a reference for the pivot in tests",
}


def test_every_export_has_a_caller():
    # a name counts as called when a src/ module other than __init__ reads it
    # as a Name or an Attribute, or the benchmark calls it as F.<name>
    used = set()
    for path in Path(influencefree.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    used |= {name for path in PERFBENCH.glob("*.py") for name in re.findall(r"\bF\.(\w+)", path.read_text())}
    uncalled = {name for name in influencefree.__all__ if name != "__version__"} - used
    assert uncalled == set(UNCALLED), sorted(uncalled ^ set(UNCALLED))


def test_every_subcommand_the_benchmark_requests_exists():
    from influencefree.cli import _COMMANDS

    # each request's argv is a list literal, passed to Request or NonMember or
    # first bound to a name that is; its first item is the subcommand
    tree = ast.parse((PERFBENCH / "wl_cli.py").read_text())
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("Request", "NonMember")
    ]
    argvs = [call.args[1 if call.func.id == "Request" else 0] for call in calls]
    names = {argv.id for argv in argvs if isinstance(argv, ast.Name)}
    argvs += [
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) in names for t in node.targets)
    ]
    commands = {argv.elts[0].value for argv in argvs if isinstance(argv, ast.List)}
    assert {"influence-free", "pivot", "witness-demo"} <= commands
    assert commands <= set(_COMMANDS), sorted(commands - set(_COMMANDS))
