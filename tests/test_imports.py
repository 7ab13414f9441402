"""Every name a library module imports is used in that module, every
module-level private name is read by live code of some module, every
public name is used by the library or named in the README, the only
tolerance parameters are the ones a scenario sets, the checking
constructors run only at the boundary, and intersubjectivity imports no
builder of measuring processes.

No linter ships with the project, so these stdlib-ast checks stand in for
one. The import and public-name checks skip ``__init__.py``: its imports
are the public re-exports.
"""

import ast
import pathlib
import re

import pytest

import qmeasure

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qmeasure"
SOURCES = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
MODULES = [name for name in SOURCES if name != "__init__.py"]


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports(SOURCES[module]) == []


def test_unused_import_is_reported():
    source = "import math\nimport numpy as np\nfrom os import path, sep\nnp.zeros(path)\n"
    assert unused_imports(source) == [(1, "math"), (3, "sep")]


def dead_private_names(sources: dict) -> list:
    """(module, name) for each module-level `_name` that no live code of any module reads.

    A module-level statement that defines no private name is live; one that
    defines a private name is live once a live statement reads that name.
    So a helper read only by itself, or only by other dead helpers, is dead.
    """
    nodes = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            private = {n for n in names if n.startswith("_") and not n.startswith("__")}
            reads = set()
            for child in ast.walk(node):
                if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                    reads.add(child.id)
                elif isinstance(child, ast.Attribute):
                    reads.add(child.attr)
            nodes.append((module, private, reads))
    used, live = set(), [False] * len(nodes)
    changed = True
    while changed:
        changed = False
        for k, (_, private, reads) in enumerate(nodes):
            if not live[k] and (not private or private & used):
                live[k] = changed = True
                used |= reads
    return sorted({(module, n) for module, private, _ in nodes for n in private if n not in used})


def test_every_private_name_is_used():
    assert dead_private_names(SOURCES) == []


def test_dead_private_name_is_reported():
    sources = {
        "a.py": "_used = 1\n_dead = 2\n__all__ = []\n"
                "def _helper():\n    pass\nclass _Gone:\n    pass\n",
        "b.py": "import a\nfrom a import _used\nprint(_used, a._helper)\n",
    }
    assert dead_private_names(sources) == [("a.py", "_Gone"), ("a.py", "_dead")]


def test_private_name_read_only_by_dead_code_is_reported():
    sources = {
        "a.py": "def _recursive(n):\n    return _recursive(n - 1)\n"
                "_TABLE = 3\ndef _reader():\n    return _TABLE\n"
                "_count = 0\n_count = _count + 1\n"
                "def public():\n    return _kept()\ndef _kept():\n    return _deep\n"
                "_deep = 1\n",
    }
    assert dead_private_names(sources) == [
        ("a.py", "_TABLE"), ("a.py", "_count"), ("a.py", "_reader"), ("a.py", "_recursive"),
    ]


def dead_public_names(names, sources: dict, readme: str) -> list:
    """Each of names that no module but __init__.py reads and readme does not name in backticks."""
    used = set()
    for module, source in sources.items():
        if module == "__init__.py":
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    used.update(re.findall(r"`([^`\n]+)`", readme))
    return sorted(name for name in names if name not in used)


def test_every_public_name_is_used():
    readme = (ROOT / "README.md").read_text()
    assert dead_public_names(qmeasure.__all__, SOURCES, readme) == []


def test_dead_public_name_is_reported():
    sources = {
        "__init__.py": "from .a import dead, kept, loaded, read\nprint(dead)\n",
        "a.py": "def loaded():\n    pass\ndef dead():\n    \"\"\"dead() in a docstring.\"\"\"\n"
                "# dead in a comment\nread = 1\nkept = 2\n",
        "b.py": "import a\nfrom a import loaded\nloaded(a.read)\ndead = 3\n",
    }
    readme = "```\ndead\n```\nCall `kept`; `dead()` and `a.dead` are other spans.\n"
    assert dead_public_names(["dead", "kept", "loaded", "read"], sources, readme) == ["dead"]


# the parameters and fields that carry a scenario's params.tolerances (or
# --tol); every other tolerance is a module constant its function reads directly
SCENARIO_TOLERANCES = {
    ("observables.py", "pvm_from_observable", "cluster_tol"),
    ("scenario.py", "_build_observable", "cluster_tol"),
    ("measurement.py", "check_reproducibility", "tol"),
    ("intersubjectivity.py", "verify_oit", "tol"),
    ("intersubjectivity.py", "verify_oit", "reproducibility_tol"),
    ("intersubjectivity.py", "compose", "commutation_tol"),
    ("intersubjectivity.py", "JointScenario", "commutation_tol"),
    ("intersubjectivity.py", "_model_agreements", "commutation_tol"),
    ("intersubjectivity.py", "_pair_kernel", "commutation_tol"),
}


def _is_tolerance(name: str) -> bool:
    return name in ("tol", "threshold") or name.endswith("_tol")


def tolerance_parameters(sources: dict) -> set:
    """(module, owner, name) for each parameter named tol, *_tol or threshold.

    An annotated class field so named is reported too, with its class as the
    owner: a dataclass field is an __init__ parameter.
    """
    found = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                for arg in args.posonlyargs + args.args + args.kwonlyargs:
                    if _is_tolerance(arg.arg):
                        found.add((module, getattr(node, "name", "<lambda>"), arg.arg))
            elif isinstance(node, ast.ClassDef):
                for field in node.body:
                    if (isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
                            and _is_tolerance(field.target.id)):
                        found.add((module, node.name, field.target.id))
    return found


def test_only_scenario_tolerances_are_parameters():
    assert tolerance_parameters(SOURCES) == SCENARIO_TOLERANCES


def test_tolerance_parameter_is_reported():
    source = ("def f(x, tol=1e-9, *, label_tol=0.0, threshold=1):\n    pass\n"
              "g = lambda y, clamp_tol=0: y\n"
              "def h(total, stol, tolerance):\n    pass\n"
              "class C:\n    gate_tol: float\n    tolerance: float\n    FIXED_TOL = 1e-9\n")
    assert tolerance_parameters({"a.py": source}) == {
        ("a.py", "f", "tol"),
        ("a.py", "f", "label_tol"),
        ("a.py", "f", "threshold"),
        ("a.py", "<lambda>", "clamp_tol"),
        ("a.py", "C", "gate_tol"),
    }


# the boundary: the decoders of declared observables and meters, the
# loader's custom processes, and the Born weights of born_povm, whose sum is
# the one check they get; everything else the library builds is derived, and
# each joint table is checked once by intersubjectivity._checked_tables
CHECKED_CONSTRUCTORS = ("Pvm", "Povm", "MeasurementProcess", "JointDistribution",
                        "OutcomeDistribution")
BOUNDARY_CALLS = {
    ("serialize.py", "pvm_from_json", "Pvm"),
    ("serialize.py", "povm_from_json", "Povm"),
    ("scenario.py", "_build_process", "MeasurementProcess"),
    ("observables.py", "born_povm", "OutcomeDistribution"),
}


def checked_constructor_calls(sources: dict) -> set:
    """(module, enclosing function, constructor) for each call of a checking constructor."""
    found = set()

    def visit(module, node, owner):
        for child in ast.iter_child_nodes(node):
            name = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = child.name
            elif isinstance(child, ast.Call):
                func = child.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called in CHECKED_CONSTRUCTORS:
                    found.add((module, owner, called))
            visit(module, child, name)

    for module, source in sources.items():
        visit(module, ast.parse(source), "<module>")
    return found


def test_checked_constructors_run_only_at_the_boundary():
    assert checked_constructor_calls(SOURCES) == BOUNDARY_CALLS


def test_checked_constructor_call_is_reported():
    source = ("from .observables import Pvm\nimport qmeasure\n"
              "def build(x):\n    def inner():\n        return qmeasure.Povm(x)\n"
              "    return Pvm(x), inner\n"
              "class C:\n    def f(self):\n        return MeasurementProcess(1)\n"
              "P = Pvm((), (), 1)\n\"\"\"Pvm( in a docstring.\"\"\"\n")
    assert checked_constructor_calls({"a.py": source}) == {
        ("a.py", "build", "Pvm"),
        ("a.py", "inner", "Povm"),
        ("a.py", "f", "MeasurementProcess"),
        ("a.py", "<module>", "Pvm"),
    }


# intersubjectivity works on the arrays a process carries; the models and
# their pointer apparatus are built in measurement and scenario, never there
PROCESS_BUILDERS = {"_model_process", "_pointer", "von_neumann_model", "dilation_model"}


def imported_names(source: str) -> set:
    """Each name a source imports, anywhere in it: a from-import's names, an import's last part."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return names


def test_intersubjectivity_imports_no_process_builder():
    assert imported_names(SOURCES["intersubjectivity.py"]) & PROCESS_BUILDERS == set()


def test_imported_process_builder_is_reported():
    source = ("from .measurement import _pointer as pointer, evolve_meter\n"
              "import qmeasure.dilation_model\n"
              "def f():\n    from .measurement import von_neumann_model\n"
              "\"\"\"_model_process in a docstring.\"\"\"\n_model_process = 1\n")
    assert imported_names(source) & PROCESS_BUILDERS == {
        "_pointer", "dilation_model", "von_neumann_model",
    }
