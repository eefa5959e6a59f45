"""Static checks on the package sources (standard library ``ast`` only)."""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

import pseudopool

PACKAGE = sorted(Path(pseudopool.__file__).parent.glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"]
ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never references."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_caught():
    source = "from __future__ import annotations\nimport json\nimport os.path\nfrom x import y as z\nos.sep\n"
    assert unused_imports(source) == ["json (line 2)", "z (line 4)"]


def package_imports(source: str) -> list[str]:
    """The modules of the package that ``source`` imports, relative or by name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "pseudopool"):
            found.append("." * node.level + (node.module or ", ".join(a.name for a in node.names)))
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "pseudopool"]
    return found


def test_records_module_imports_no_package_module():
    # every module reads and writes its records through it, so it may import none of them
    path = next(p for p in SOURCES if p.name == "records.py")
    assert package_imports(path.read_text()) == []


def test_package_import_is_caught():
    source = "import os\nfrom . import network\nfrom .cycle import x\nimport pseudopool.training\nfrom pseudopool import y\n"
    assert package_imports(source) == [".network", ".cycle", "pseudopool.training", "pseudopool"]


def validate_uses(source: str) -> list[str]:
    """Each method named ``validate`` that ``source`` defines and each call of
    a ``.validate`` attribute, by line: a config record checks itself when it
    is built, so there is no second check to define or to call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            found += [f"def (line {f.lineno})" for f in node.body if isinstance(f, ast.FunctionDef) and f.name == "validate"]
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "validate":
            found.append(f"call (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_record_defines_or_calls_validate(path):
    assert validate_uses(path.read_text()) == []


def test_validate_use_is_caught():
    source = "class A:\n    def validate(self):\n        pass\ndef validate():\n    pass\nA().validate()\nvalidate()\n"
    assert validate_uses(source) == ["def (line 2)", "call (line 6)"]


def unreferenced_private_definitions(sources: dict[str, str]) -> list[str]:
    """``module._name`` for each module-level private function or class that
    no code in ``sources`` (module name -> source) references outside its own
    definition."""
    defined, used = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = getattr(stmt, "name", None)
            if own is not None and own.startswith("_") and not own.startswith("__"):
                defined.append((module, own))
            for node in ast.walk(stmt):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name is not None and name != own:
                    used.add(name)
    return [f"{module}.{name}" for module, name in defined if name not in used]


def test_every_private_definition_is_referenced():
    assert unreferenced_private_definitions({p.stem: p.read_text() for p in PACKAGE}) == []


def test_unreferenced_private_definition_is_caught():
    sources = {
        "a": "def _used():\n    pass\ndef _dead(n):\n    return _dead(n - 1)\nclass _Gone:\n    pass\n_used()\n",
        "b": "import a\ndef _shared():\n    pass\ndef __dunder__():\n    pass\n",
        "c": "import b\nb._shared()\n",
    }
    assert unreferenced_private_definitions(sources) == ["a._dead", "a._Gone"]


def unreferenced_public_definitions(package: dict[str, str], callers: list[str], readme: str) -> list[str]:
    """``module.name`` (``module.Class.name`` for a method or property) for
    each public function, class, method or property in ``package`` (module
    name -> source) that no code in ``package`` or ``callers`` references
    outside its own definition and whose name ``readme`` does not contain."""
    used = set(re.findall(r"\w+", readme))

    def collect(node, own: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            own = own | {node.name}
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name is not None and name not in own:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            collect(child, own)

    defined = []
    for module, source in package.items():
        tree = ast.parse(source)
        collect(tree, frozenset())
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                defined.append((f"{module}.{stmt.name}", stmt.name))
            for item in stmt.body if isinstance(stmt, ast.ClassDef) else []:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    defined.append((f"{module}.{stmt.name}.{item.name}", item.name))
    for source in callers:
        collect(ast.parse(source), frozenset())
    return [qualified for qualified, name in defined if name not in used]


def test_every_public_definition_is_used_outside_tests():
    callers = [p.read_text() for folder in ("perfbench", "demos") for p in sorted((ROOT / folder).glob("*.py"))]
    package = {p.stem: p.read_text() for p in PACKAGE}
    assert unreferenced_public_definitions(package, callers, (ROOT / "README.md").read_text()) == []


def test_unreferenced_public_definition_is_caught():
    package = {
        "a": (
            "def used():\n    pass\ndef dead(n):\n    return dead(n - 1)\n"
            "class Kept:\n    def method(self):\n        return self.method()\n"
            "    @property\n    def size(self):\n        pass\n    def __len__(self):\n        return 0\n"
            "    def _helper(self):\n        pass\n"
        ),
        "b": "import a\ndef documented():\n    pass\n",
    }
    callers = ["import a\na.used()\na.Kept().size\n"]
    assert unreferenced_public_definitions(package, callers, "Call `documented()`.") == ["a.dead", "a.Kept.method"]


def test_every_traced_name_exists():
    # perfbench/spans.py wraps each layer function where training looks it up;
    # entering its block looks up every name, so a renamed or removed one fails here
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    with spans.instrument(spans.Trace()):
        pass
