"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import ast
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import reference as ref  # noqa: E402
import spans  # noqa: E402


def _private_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("chebkit"):
            parts = node.module.split(".") + [alias.name for alias in node.names]
            found += [f"from {node.module} import {p}" for p in parts if p.startswith("_")]
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names
                      if a.name.startswith("chebkit") and "._" in a.name]
        elif isinstance(node, ast.Attribute):
            if node.attr.startswith("_") and not node.attr.endswith("__"):
                found.append(f".{node.attr}")
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
              and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
              and str(node.args[1].value).startswith("_")):
            found.append(f"getattr(..., {node.args[1].value!r})")
    return found


def test_benchmark_touches_no_private_chebkit_name():
    sources = sorted(HERE.glob("*.py"))
    assert len(sources) > 5
    for path in sources:
        assert _private_uses(ast.parse(path.read_text())) == [], path.name


def test_guard_catches_private_names():
    code = ("from chebkit.elliptic import _TRACE_CACHE\n"
            "from chebkit import sieve\n"
            "sieve._primes_upto_cached.cache_clear()\n"
            "import chebkit._hidden\n"
            "getattr(sieve, '_T_CHUNK')\n")
    assert len(_private_uses(ast.parse(code))) == 4


@pytest.mark.parametrize("name", ["contour", "frobenius", "census"])
def test_inputs_depend_only_on_the_seed(name):
    module = __import__(name)
    first = module.generate(random.Random(f"{name}:7"))
    assert first == module.generate(random.Random(f"{name}:7"))
    assert first != module.generate(random.Random(f"{name}:8"))


def test_benchmark_json_lists_every_workload():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    import session
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(session.WORKLOADS)
    assert any(m["name"] == "setup_s" for m in bench["end_to_end"])


def test_self_time_subtracts_nested_and_probe_children():
    # a parent of 10 s with a nested child of 3 s and a later probe of 4 s
    # that re-times part of it
    recorded = [["parent", 0.0, 10.0, None, 0], ["child", 1.0, 4.0, 0, 0],
                ["probe", 20.0, 24.0, 0, 0], ["other", 30.0, 31.0, None, 1]]
    assert spans.self_times(recorded) == {"parent": 3.0, "child": 3.0, "probe": 4.0,
                                          "other": 1.0}


def test_recorder_off_keeps_no_spans():
    rec = spans.Recorder(enabled=False)
    with rec.span("a"):
        pass
    rec.count("n", 2)
    assert rec.spans == [] and rec.counts == {"n": 2}


def test_reference_against_published_values():
    primes = ref.primes_upto(10**7)
    for x, count in ref.KNOWN_PI.items():
        assert int(np.count_nonzero(primes <= x)) == count
    for D, h in ref.KNOWN_CLASS_NUMBERS.items():
        if ref.is_fundamental(D):
            assert ref.class_number(D) == h
    assert all(ref.class_number(D) == 1 for D in ref.CLASS_NUMBER_ONE)
    assert ref.squarefree_kernels(np.array([-4, 12, -75, 7])).tolist() == [-1, 3, -3, 7]
    # y^2 = x^3 + 1 over F_5 has 6 points, so a_5 = 0
    assert ref.elliptic_trace(0, 1, 5) == 0
