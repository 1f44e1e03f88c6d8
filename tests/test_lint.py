"""Source rules for src/: no assert (python -O strips it), no unused imports,
no hand-rolled sparse sums and no indented json.dump(s).  The tests keep
the unused-import rule only: their oracles use the other three freely."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


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
