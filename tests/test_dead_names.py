"""No dead code at module level: every function, class and constant a
package module defines (dunders aside) is named somewhere in src/, tests/
or perfbench/ besides its own definition."""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "missmass"
SEARCHED = ("src", "tests", "perfbench")
WORD = re.compile(r"\w+")


def definitions(tree: ast.Module):
    """(name, first line, last line) of each module-level definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, node.lineno, node.end_lineno


def test_every_module_level_name_is_named_elsewhere():
    words = collections.Counter()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            words.update(WORD.findall(path.read_text()))
    dead = []
    for module in sorted(PACKAGE.glob("*.py")):
        text = module.read_text()
        lines = text.splitlines()
        for name, first, last in definitions(ast.parse(text)):
            own = sum(WORD.findall(line).count(name) for line in lines[first - 1:last])
            if words[name] <= own:
                dead.append(f"{module.name}:{first} {name}")
    assert dead == []
