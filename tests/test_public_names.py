"""Every public name of the package has a caller outside the tests.

A public module-level function or class of `src/bml`, or a public
method of such a class, must be named somewhere the lab runs: as a name,
an attribute or an import in `src/bml`, `bench` or `demos`, or in a
dotted name of `bench/tracing.py`'s TRACED, which the traced benchmark
wraps by name.  Tests and tools do not count: code that only its own
test reaches is wired into an experiment or deleted.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bml"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def public_names():
    """(module, qualified name, name) of each public function, class and
    method."""
    for path in sorted(SRC.glob("*.py")):
        for node in parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield path.stem, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield path.stem, f"{node.name}.{item.name}", item.name


def traced_names() -> set:
    for node in parse(ROOT / "bench" / "tracing.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return {part for name in ast.literal_eval(node.value) for part in name.split(".")[1:]}
    raise AssertionError("bench/tracing.py defines no TRACED")


def called_names() -> set:
    paths = [*SRC.glob("*.py"), *(ROOT / "bench").glob("*.py"), *(ROOT / "demos").glob("*.py")]
    names = traced_names()
    for path in paths:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(filter(None, (node.name.split(".")[-1], node.asname)))
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    called = called_names()
    unused = [f"{module}.{qualified}" for module, qualified, name in public_names()
              if name not in called]
    assert unused == []
