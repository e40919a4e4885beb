"""Every Python file in the repository parses under the oldest supported
Python, the ``requires-python`` floor in ``pyproject.toml``.

``ast.parse`` with ``feature_version`` refuses syntax newer than the floor
(``except*``, ``type`` statements, PEP 695 generics, ...), so a file that
would not import there fails here even when the suite runs on a newer
interpreter.  The check only reads the files.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).parents[1]
SOURCES = sorted(path for folder in ("src", "tests", "demos", "perfbench")
                 for path in (ROOT / folder).rglob("*.py"))


def python_floor() -> tuple[int, int]:
    pyproject = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', pyproject).groups()
    return int(major), int(minor)


def test_floor_is_read_from_pyproject():
    assert python_floor() == (3, 10)
    assert len(SOURCES) > 20


def test_every_source_parses_at_the_python_floor():
    floor, failures = python_floor(), []
    for path in SOURCES:
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=floor)
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert not failures, failures
