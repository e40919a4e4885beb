"""Every module of the package uses each name it imports at module level,
and each module-level private name is read somewhere in the package.

``__init__.py`` is exempt from the first (its imports are the public
re-exports), and so is ``from __future__ import ...``.
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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each module-level ``_``-prefixed function, class or
    constant in ``sources`` (module name -> source) whose name no module
    reads: as a loaded name, an attribute or an imported name."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            defined += [f"{module}.{name}" for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return [name for name in defined if name.split(".")[1] not in read]


def test_modules_read_every_private_name():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_guard_catches_unread_private_names():
    sources = {"a": ("_LIMIT = 3\n_last = None\n__version__ = '1'\n"
                     "def _helper():\n    return _LIMIT\nclass _Unused:\n    pass\n"),
               "b": "from .a import _helper\ndef f():\n    global _last\n    _last = _helper()\n"}
    assert unread_private_names(sources) == ["a._last", "a._Unused"]


def map_reads(source: str) -> list[int]:
    """Lines of ``source`` that read an attribute named ``index`` other than
    as a call, as ``ext.index[...]`` reads a field's Frobenius map."""
    tree = ast.parse(source)
    called = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    return sorted(n.lineno for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and n.attr == "index"
                  and isinstance(n.ctx, ast.Load) and id(n) not in called)


def test_only_chebotarev_reads_the_frobenius_map():
    # every other module reads a field's classes through AbelianExtension.classes
    found = {path.name: map_reads(path.read_text())
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "chebotarev.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def private_reads(source: str) -> list[int]:
    """Lines of ``source`` that read a ``_``-prefixed attribute through the
    alias of a chebkit module, as ``cheb._MAX_MODULUS`` copies another
    module's private limit.  A shared private helper imported by name, as
    ``from .sieve import _blocks``, is not such a read."""
    tree = ast.parse(source)
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) in ((1, None),
                                                                             (0, "chebkit")):
            aliases |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            aliases |= {a.asname for a in node.names if a.name.startswith("chebkit.")}
    return sorted(n.lineno for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                  and isinstance(n.value, ast.Name) and n.value.id in aliases
                  and n.attr.startswith("_") and not n.attr.startswith("__"))


def test_modules_read_no_private_name_of_another():
    # a limit or helper another module needs is imported by name, not copied
    found = {path.name: private_reads(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_guard_catches_private_reads():
    source = ("from . import chebotarev as cheb\nfrom . import sieve\n"
              "from .sieve import _blocks\nimport numpy as np\nimport chebkit.bqf as bq\n"
              "n = cheb._MAX_MODULUS\nb = _blocks(a)\nt = sieve._table[0]\n"
              "np._private\ncheb.__name__\ncheb._x = 1\nobj._field\nbq._h(3)\n")
    assert private_reads(source) == [6, 8, 13]


def test_guard_catches_map_reads():
    source = ("k = ext.index[r]\nj = labels.index('split')\nunits = f(field.index)\n"
              "ext.index = None\nc = ext.classes(n)\n")
    assert map_reads(source) == [1, 3]
