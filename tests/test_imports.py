"""Every module of the package uses each name it imports at module level.

``__init__.py`` is exempt (its imports are the public re-exports), and so
is ``from __future__ import ...``.
"""

import ast
from pathlib import Path

import chebkit

PACKAGE = Path(chebkit.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of ``source`` and never read."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_modules_use_every_import():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}


def test_guard_catches_unused_imports():
    source = ("from __future__ import annotations\nimport math\nimport os.path\n"
              "import numpy as np\nfrom x import y, z as w\n"
              "def f() -> np.ndarray:\n    return w(os.sep)\n")
    assert unused_imports(source) == ["math", "y"]
