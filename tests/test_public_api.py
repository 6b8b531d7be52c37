"""Every public name is reached by the package itself or by a criterion.

A name of ``wbwaves.__all__`` that only unit tests call is dead weight:
either a command or a study uses it, or an acceptance criterion checks it.
"""

import ast
from pathlib import Path

import wbwaves

PACKAGE = Path(wbwaves.__file__).parent
ACCEPTANCE = Path(__file__).parent / "test_acceptance.py"


def _used_names(tree, skip=None):
    """Names read as a variable (``ast.Load``) anywhere in ``tree``, except
    inside the top-level definition called ``skip``.  Imports, stores (a
    dataclass field such as ``momentum: float``) and attribute reads (a
    report's ``rep.momentum`` reads its field, not the function) do not count."""
    used = set()
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name == skip:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
    return used


def test_every_public_name_is_reached():
    modules = {
        path: ast.parse(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    criteria = _used_names(ast.parse(ACCEPTANCE.read_text()))
    unreached = []
    for name in wbwaves.__all__:
        in_package = any(name in _used_names(tree, skip=name) for tree in modules.values())
        if not (in_package or name in criteria):
            unreached.append(name)
    assert not unreached, f"public names no command or criterion reaches: {unreached}"
