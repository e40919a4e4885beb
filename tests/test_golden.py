"""Byte-for-byte CLI reports for a fixed set of invocations.

Each case runs in both report formats and must reproduce the file
``golden/<name>.<format>`` exactly, so any change to a reported number,
key or formatting shows up as a failure here.
"""

import warnings
from pathlib import Path

import pytest

from chebkit.cli import run

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = {
    "weights-verify": ["weights-verify", "--x", "100", "--ell", "2", "--eps", "0.1",
                       "--samples", "5"],
    "bounds": ["bounds", "--n-k", "1", "--d-k", "1", "--q-max", "5", "--lambda1",
               "0.05", "--beta1", "0.999", "--t-height", "1", "--sigma", "0.5",
               "--lam", "0.1", "--theta", "0.3"],
    "pi-ap": ["pi-ap", "--q", "7", "--a", "3", "--x", "1000"],
    "bt-check": ["bt-check", "--q", "12", "--x", "10000"],
    "bqf": ["bqf", "--D", "4", "--x", "1000", "--form", "1,0,1"],
    "chebotarev": ["chebotarev", "--cyclotomic", "5", "--class", "2", "--x", "1000"],
    "mellin-check": ["mellin-check", "--q", "1", "--x", "50", "--ell", "2",
                     "--t-max", "50"],
    "lang-trotter": ["lang-trotter", "--curve", "1,1", "--a", "0", "--x", "500"],
    "pi-ap-1e7": ["pi-ap", "--q", "7", "--a", "3", "--x", "1e7"],
    "bt-check-1e7": ["bt-check", "--q", "17", "--x", "1e7"],
    "bqf-1e6": ["bqf", "--D", "23", "--x", "1e6", "--form", "2,1,3"],
    "chebotarev-1e6": ["chebotarev", "--cyclotomic", "12", "--class", "5", "--x", "1e6"],
    "chebotarev-quadratic": ["chebotarev", "--d", "-1", "--class", "split", "--x", "1e6"],
    "mellin-check-residue": ["mellin-check", "--q", "5", "--residue", "2", "--x", "300"],
    "mellin-check-char": ["mellin-check", "--q", "5", "--char-index", "1", "--x", "300"],
    "mellin-check-char-q2": ["mellin-check", "--q", "2", "--char-index", "0", "--x", "300"],
}


def report_bytes(argv: list[str], fmt: str) -> bytes:
    code, text = run([*argv, "--format", fmt])
    assert code == 0, text
    return (text + "\n").encode()


GOLDENS = [(name, fmt) for name in sorted(CASES) for fmt in ("json", "csv")]


@pytest.mark.parametrize("name,fmt", GOLDENS)
def test_report_matches_golden(name, fmt):
    expected = (GOLDEN_DIR / f"{name}.{fmt}").read_bytes()
    assert report_bytes(CASES[name], fmt) == expected


def test_every_golden_file_has_a_case():
    # a renamed or dropped case must not leave its old golden behind
    expected = {f"{name}.{fmt}" for name, fmt in GOLDENS}
    assert sorted(path.name for path in GOLDEN_DIR.iterdir()
                  if path.name not in expected) == []


def test_reports_raise_no_warning():
    # a RuntimeWarning (an overflow, a nan) in any golden run is a failure
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, fmt in GOLDENS:
            report_bytes(CASES[name], fmt)
