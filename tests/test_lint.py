"""Source rules for src/: no assert (python -O strips it), no unused imports,
no hand-rolled sparse sums and no indented json.dump(s).  The tests keep
the unused-import rule only: their oracles use the other three freely.

Reachability: every definition in src/lubintate is reached from what the
command line and the benchmark run.  A definition is a top-level function,
class or assigned name, or a method or assigned name in a class body.  The
roots are `main`, the names that module-level statements other than
imports and definitions read, the strings of `__all__`, every identifier
and every dotted part of every string in bench/*.py, and ALLOWLIST.  A
reached definition reaches every definition named by an identifier in its
body (a name, or an attribute, of any object), and a reached class reaches
its dunder methods; module-level dunders count as reached.  What only the
tests call moves into the test file that uses it, or onto ALLOWLIST with
the ROADMAP item that will call it from src/.  Resolution is by bare name,
so it is conservative: a collision can keep a dead method alive (a local
`coeff` kept a `TruncSeries.coeff`), but a live definition is never
flagged.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
BENCH = TESTS.parent / "bench"

# definitions no root reaches yet, each kept for the open ROADMAP item that calls it
ALLOWLIST = {
    "building.act": "items 3 and 9: the orbit census and the Drinfeld reduction map",
    "polygon.vals_in_gross_hopkins": "item 6: D membership against the [pi]-series polygon",
    "wittlab.eval_witt_op": "item 7: witt_eval against the symbolic laws",
}


def unused_imports(path: Path, tree: ast.Module):
    """A `path:line: unused import name` string for each module-level import
    whose name the module never reads."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path}:{node.lineno}: unused import {alias.asname or alias.name}"
            for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for alias in node.names
            if (alias.asname or alias.name).split(".")[0] not in used]


def lint(path: Path, text: str):
    """Violations in one source file, as `path:line: rule` strings."""
    tree = ast.parse(text)
    bad = [f"{path}:{node.lineno}: assert" for node in ast.walk(tree)
           if isinstance(node, ast.Assert)]
    # d.get(key, 0) + value: sum sparse terms with valuations.sum_terms
    bad += [f"{path}:{node.lineno}: .get(key, 0) + ... (use sum_terms)"
            for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            for side in (node.left, node.right)
            if isinstance(side, ast.Call) and isinstance(side.func, ast.Attribute)
            and side.func.attr == "get" and len(side.args) == 2
            and isinstance(side.args[1], ast.Constant) and side.args[1].value == 0]
    # json.dump(s)(..., indent=...) runs the pure-Python encoder: indent with cli._encode
    bad += [f"{path}:{node.lineno}: json.dump(s) with indent (use cli._encode)"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("dump", "dumps")
            and any(kw.arg == "indent" for kw in node.keywords)]
    if path.name == "__init__.py":  # imports there are the package's exports
        return bad
    return bad + unused_imports(path, tree)


def test_src_follows_lint_rules():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    bad = [line for path in paths for line in lint(path.relative_to(SRC.parent), path.read_text())]
    assert not bad, "\n".join(bad)


def test_tests_import_nothing_unused():
    paths = sorted(TESTS.glob("*.py"))
    assert paths
    bad = [line for path in paths
           for line in unused_imports(path.relative_to(SRC.parent), ast.parse(path.read_text()))]
    assert not bad, "\n".join(bad)


def test_each_rule_flags_a_violation():
    mod = Path("src/pkg/mod.py")
    cases = {
        "def f(x):\n    assert x\n": "2: assert",
        "def f(d, k):\n    d[k] = d.get(k, 0) + 1\n": "2: .get(key, 0) + ... (use sum_terms)",
        "import json\njson.dumps({}, indent=2)\n": "2: json.dump(s) with indent (use cli._encode)",
        "from json import dump\ndump({}, None, indent=1)\n": "2: json.dump(s) with indent (use cli._encode)",
        "import os\n": "1: unused import os",
        "from math import gcd as g\n": "1: unused import g",
    }
    for text, want in cases.items():
        assert lint(mod, text) == [f"{mod}:{want}"], text
    assert lint(mod, "from __future__ import annotations\nimport os.path\nos.sep\n") == []
    assert lint(Path("src/pkg/__init__.py"), "from .mod import f\n") == []


def _reads(nodes) -> set:
    """The identifiers read anywhere in nodes: names and attribute names."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for node in nodes for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))}


def _is_dunder(key: str) -> bool:
    name = key.rsplit(".", 1)[-1]
    return name.startswith("__") and name.endswith("__")


def _definitions(path: Path, body, prefix: str):
    """{key: (path, line, reads)} for the defs, classes and assigned names of
    a module or class body; a class reads its decorators, bases and keywords."""
    out = {}
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out[prefix + stmt.name] = (path, stmt.lineno, _reads([stmt]))
        elif isinstance(stmt, ast.ClassDef):
            own = stmt.decorator_list + stmt.bases + [k.value for k in stmt.keywords]
            out[prefix + stmt.name] = (path, stmt.lineno, _reads(own))
            out.update(_definitions(path, stmt.body, f"{prefix}{stmt.name}."))
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    out[prefix + target.id] = (path, stmt.lineno, _reads([stmt]))
    return out


def _bench_identifiers(text: str) -> set:
    """Every identifier in a benchmark file, and every dotted part of its strings."""
    tree = ast.parse(text)
    out = _reads([tree])
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg:
            out.add(node.arg)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(node.value.split("."))
    return out


def unreachable(modules: dict, bench, allowlist) -> list:
    """Violations of the reachability rule, as strings.

    modules maps each source path to its text, bench holds the benchmark
    files' texts, and allowlist names definitions as `module.name` or
    `module.Class.name`.  An entry that names nothing or that the other
    roots reach already is a violation too.
    """
    defs, roots = {}, {"main"}
    for path, text in modules.items():
        body = ast.parse(text).body
        defs.update(_definitions(path, body, path.stem + "."))
        for stmt in body:
            if isinstance(stmt, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in stmt.targets):
                roots |= {c.value for c in ast.walk(stmt.value) if isinstance(c, ast.Constant)}
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom, ast.FunctionDef,
                                       ast.AsyncFunctionDef, ast.ClassDef, ast.Assign,
                                       ast.AnnAssign)):
                roots |= _reads([stmt])
    for text in bench:
        roots |= _bench_identifiers(text)
    by_name = {}
    for key in defs:
        by_name.setdefault(key.rsplit(".", 1)[1], []).append(key)

    def reach(extra):
        seen = set()
        todo = [k for name in roots for k in by_name.get(name, ())] + list(extra)
        todo += [k for k in defs if k.count(".") == 1 and _is_dunder(k)]
        while todo:
            key = todo.pop()
            if key not in seen:
                seen.add(key)
                todo += [k for name in defs[key][2] for k in by_name.get(name, ())]
                todo += [k for k in defs if k.startswith(key + ".") and _is_dunder(k)]
        return seen

    bare = reach(())
    bad = [f"allowlist entry {key} names nothing" for key in sorted(allowlist) if key not in defs]
    bad += [f"allowlist entry {key} is stale: the roots reach it" for key in sorted(allowlist)
            if key in bare]
    seen = reach(key for key in allowlist if key in defs)
    return bad + [f"{path}:{line}: unreachable {key.split('.', 1)[1]}"
                  for key, (path, line, _) in defs.items() if key not in seen]


def test_src_is_reachable():
    paths = sorted((SRC / "lubintate").glob("*.py"))
    bench = [path.read_text() for path in sorted(BENCH.glob("*.py"))]
    assert paths and bench
    bad = unreachable({path.relative_to(SRC.parent): path.read_text() for path in paths},
                      bench, ALLOWLIST)
    assert not bad, "\n".join(bad)


def test_reachability_flags_dead_code_and_bad_allowlist_entries():
    mod = Path("src/pkg/mod.py")
    text = ("import os\n"
            "def main():\n    return Box().used()\n"
            "class Box:\n"
            "    def __eq__(self, other):\n        return True\n"
            "    def used(self):\n        return helper()\n"
            "    def dead(self):\n        pass\n"
            "def helper():\n    pass\n"
            "def planned():\n    pass\n")
    modules = {mod: text}
    assert unreachable(modules, [], {"mod.planned"}) == [f"{mod}:9: unreachable Box.dead"]
    assert unreachable(modules, ["box.dead()"], {"mod.planned"}) == []
    assert unreachable(modules, ["x = 'mod.Box.dead'"], {"mod.planned"}) == []
    assert unreachable(modules, ["box.dead()"], {"mod.planned", "mod.helper"}) == [
        "allowlist entry mod.helper is stale: the roots reach it"]
    assert unreachable(modules, ["box.dead()"], {"mod.planned", "mod.gone"}) == [
        "allowlist entry mod.gone names nothing"]
    assert unreachable(modules, ["box.dead()"], set()) == [f"{mod}:13: unreachable planned"]
