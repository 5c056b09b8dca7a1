"""Every option of the package is set by some caller and left out by another.

A defaulted parameter of a function in `src/bml` is an option.  It earns
its default only if some call in `src/bml` or `bench` leaves it out, and
its place in the signature only if some call there supplies it: a
default that no call takes is a required argument, and one that every
call takes is a constant.  Tests and demos do not count.  A function
referenced as a value, as in `cli.RUNNERS` or the grid-builder map of
`config`, may be called either way, so it counts as both.  A call that
spreads `*args` or `**kwargs` counts as both for every parameter.
`cli.main`'s ``argv`` is the console entry point's and is exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bml"
EXEMPT = {"cli.main.argv"}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def options():
    """(function name, parameter, its positional index or None when it is
    keyword-only, qualified name) of each defaulted parameter in src/bml."""
    for path in sorted(SRC.glob("*.py")):
        tree = parse(path)
        methods = {id(item) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for item in cls.body if isinstance(item, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            positional = fn.args.posonlyargs + fn.args.args
            skip = 1 if id(fn) in methods else 0  # self
            first = len(positional) - len(fn.args.defaults)
            for i, arg in enumerate(positional[first:], start=first):
                yield fn.name, arg.arg, i - skip, f"{path.stem}.{fn.name}.{arg.arg}"
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield fn.name, arg.arg, None, f"{path.stem}.{fn.name}.{arg.arg}"


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def uses():
    """name -> list of its calls, each (positional count, keyword names)
    or None for a call or reference that may go either way."""
    found = {}
    paths = [*SRC.glob("*.py"), *(ROOT / "bench").glob("*.py")]
    for path in paths:
        tree = parse(path)
        callees = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callees.add(id(node.func))
                spread = any(isinstance(a, ast.Starred) for a in node.args) or any(
                    kw.arg is None for kw in node.keywords)
                use = None if spread else (len(node.args), {kw.arg for kw in node.keywords})
                found.setdefault(_name(node.func), []).append(use)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in callees:
                if isinstance(node.ctx, ast.Load):
                    found.setdefault(_name(node), []).append(None)
    return found


def test_every_option_is_both_set_and_left_out():
    found = uses()
    wrong = []
    for fn, param, index, qualified in options():
        if qualified in EXEMPT:
            continue
        supplied = omitted = False
        for use in found.get(fn, []):
            if use is None:
                supplied = omitted = True
                continue
            n_positional, keywords = use
            given = param in keywords or (index is not None and index < n_positional)
            supplied |= given
            omitted |= not given
        if not (supplied and omitted):
            wrong.append(f"{qualified}: " + ("never left out" if supplied else
                                             "never supplied" if omitted else "never called"))
    assert wrong == []
