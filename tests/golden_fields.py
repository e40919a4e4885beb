"""Re-run one golden command and show which report fields moved.

    PYTHONPATH=src python tests/golden_fields.py NAME --ignore KEY[,KEY] [--write]

NAME is a case of ``tests/test_golden.py``'s table.  Both formats run.
The JSON report and its golden are compared with the named keys dropped
at every depth, the CSV ones with the named columns dropped; each side
must also be the canonical text of what it parses to, so equal parsed
remainders mean equal bytes outside the named fields.  A key or column
may be present on one side only.  The script prints old -> new for every
named field that differs and exits 1 if any byte outside them differs.
``--write`` replaces the golden files with the new reports, only when
nothing outside the named fields moved.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from test_golden import CASES, GOLDEN_DIR, report_bytes

_ABSENT = "(absent)"


def _json_parts(text: str, ignore: set[str]) -> tuple[str | None, dict[str, str]]:
    """(the canonical text of the report without the named keys, or None
    when the text is not canonical; {path: value} of the named keys)."""
    doc = json.loads(text)
    fields: dict[str, str] = {}

    def strip(node, path):
        if isinstance(node, dict):
            for key in sorted(node):
                at = f"{path}.{key}" if path else key
                if key in ignore:
                    fields[at] = json.dumps(node.pop(key))
                else:
                    strip(node[key], at)
        elif isinstance(node, list):
            for i, item in enumerate(node):
                strip(item, f"{path}[{i}]")

    canonical = json.dumps(doc, sort_keys=True, indent=2) + "\n" == text
    strip(doc, "")
    return (json.dumps(doc, sort_keys=True, indent=2) if canonical else None), fields


def _csv_text(rows: list[list[str]]) -> str:
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue().rstrip("\n") + "\n"


def _csv_parts(text: str, ignore: set[str]) -> tuple[str | None, dict[str, str]]:
    """As _json_parts, for a CSV report with one header row."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    canonical = _csv_text(rows) == text
    header = rows[0] if rows else []
    drop = [i for i, name in enumerate(header) if name in ignore]
    fields = {f"row {r}.{header[i]}": row[i] for r, row in enumerate(rows[1:], 1)
              for i in drop if i < len(row)}
    kept = [[cell for i, cell in enumerate(row) if i not in drop] for row in rows]
    return (_csv_text(kept) if canonical else None), fields


def _delta(old: str, new: str) -> str:
    try:
        return f"  (delta {float(new) - float(old):.3g})"
    except ValueError:
        return ""


def compare(name: str, fmt: str, old: bytes, new: bytes, ignore: set[str]) -> bool:
    """Print the named fields that moved; True if nothing else did."""
    split = _json_parts if fmt == "json" else _csv_parts
    (old_rest, old_fields), (new_rest, new_fields) = (split(b.decode(), ignore)
                                                      for b in (old, new))
    for path in sorted(old_fields.keys() | new_fields.keys()):
        was, now = old_fields.get(path, _ABSENT), new_fields.get(path, _ABSENT)
        if was != now:
            print(f"{name}.{fmt} {path}: {was} -> {now}{_delta(was, now)}")
    same = old_rest is not None and old_rest == new_rest
    if not same:
        print(f"{name}.{fmt}: bytes differ outside {sorted(ignore)}")
    return same


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("name", choices=sorted(CASES))
    parser.add_argument("--ignore", default="",
                        help="comma-separated JSON keys and CSV columns allowed to differ")
    parser.add_argument("--write", action="store_true",
                        help="re-record the goldens when nothing else differs")
    parser.add_argument("--golden-dir", type=Path, default=GOLDEN_DIR)
    args = parser.parse_args(argv)
    ignore = {key for key in args.ignore.split(",") if key}
    reports = {fmt: report_bytes(CASES[args.name], fmt) for fmt in ("json", "csv")}
    paths = {fmt: args.golden_dir / f"{args.name}.{fmt}" for fmt in reports}
    same = [compare(args.name, fmt, paths[fmt].read_bytes(), new, ignore)
            for fmt, new in reports.items()]
    if not all(same):
        return 1
    if args.write:
        for fmt, new in reports.items():
            paths[fmt].write_bytes(new)
    return 0


if __name__ == "__main__":
    sys.exit(main())
