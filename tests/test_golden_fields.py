"""``golden_fields.py`` passes an unchanged golden and catches a doctored
one, whether the changed byte lies outside the named fields or a named
field is all that moved."""

import json
import os
import subprocess
import sys
from pathlib import Path

import golden_fields
from test_golden import GOLDEN_DIR

SCRIPT = Path(__file__).with_name("golden_fields.py")
ROOT = Path(__file__).parents[1]


def test_an_unchanged_golden_passes():
    proc = subprocess.run([sys.executable, str(SCRIPT), "pi-ap", "--ignore", "count"],
                          capture_output=True, text=True, cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == ""


def _doctored(tmp_path, json_edit, csv_edit):
    for fmt, edit in (("json", json_edit), ("csv", csv_edit)):
        text = (GOLDEN_DIR / f"pi-ap.{fmt}").read_bytes().decode()
        (tmp_path / f"pi-ap.{fmt}").write_bytes(edit(text).encode())
    return ["pi-ap", "--golden-dir", str(tmp_path)]


def test_a_byte_outside_the_named_fields_fails(tmp_path, capsys):
    args = _doctored(tmp_path, lambda t: t.replace('"q": 7', '"q": 8'),
                     lambda t: t.replace("\r\n7,3,", "\r\n8,3,"))
    assert golden_fields.main([*args, "--ignore", "count"]) == 1
    assert capsys.readouterr().out.count("bytes differ outside ['count']") == 2
    # the same change is allowed once its field is named
    assert golden_fields.main([*args, "--ignore", "q"]) == 0
    assert "pi-ap.csv row 1.q: 8 -> 7  (delta -1)" in capsys.readouterr().out


def test_a_named_field_may_move_and_is_printed(tmp_path, capsys):
    args = _doctored(tmp_path, lambda t: t.replace("67.1793102374", "67.1793102375"),
                     lambda t: t.replace("67.1793102374", "67.1793102375"))
    assert golden_fields.main([*args, "--ignore", "mv_bound", "--write"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["pi-ap.json mv_bound: 67.1793102375 -> 67.1793102374  (delta -1e-10)",
                   "pi-ap.json rows[0].mv_bound: 67.1793102375 -> 67.1793102374  (delta -1e-10)",
                   "pi-ap.csv row 1.mv_bound: 67.1793102375 -> 67.1793102374  (delta -1e-10)"]
    # --write re-recorded both files
    for fmt in ("json", "csv"):
        name = f"pi-ap.{fmt}"
        assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / name).read_bytes()
    assert golden_fields.main(args) == 0


def test_a_dropped_key_and_a_non_canonical_file_fail(tmp_path, capsys):
    def drop_heuristic(text):
        doc = json.loads(text)
        del doc["heuristic"]
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    args = _doctored(tmp_path, drop_heuristic, lambda t: t)
    assert golden_fields.main([*args, "--ignore", "heuristic"]) == 0
    assert "pi-ap.json heuristic: (absent) -> true" in capsys.readouterr().out
    # the same report with another indent is equal when parsed, not as bytes
    args = _doctored(tmp_path, lambda t: json.dumps(json.loads(t), sort_keys=True) + "\n",
                     lambda t: t)
    assert golden_fields.main(args) == 1
