import argparse
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chebkit import bounds, bqf, chebotarev, elliptic, explicit, progressions
from chebkit.characters import character
from chebkit.cli import SUBCOMMANDS, build_parser, main, run
from chebkit.sieve import li, prime_powers, primes_upto, segmented_primes
from chebkit.weights import (WeightSpec, check_decay_bound, check_growth_bound,
                             check_left_line_bound, check_real_axis_bound,
                             laplace_transform, weight_value)


def test_pi_ap_json_example():
    code, text = run(["pi-ap", "--q", "4", "--a", "1", "--x", "100"])
    assert code == 0
    doc = json.loads(text)
    assert doc["count"] == 11
    assert doc["mv_passed"] is True


def test_bqf_csv_schema():
    code, text = run(["bqf", "--D", "23", "--x", "10000", "--form", "2,1,3",
                      "--format", "csv"])
    assert code == 0
    header = text.splitlines()[0]
    assert header.startswith("x,count,target,ratio,h,delta_Q")


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["pi-ap", "--q", "4"])
    assert exc.value.code == 2


def test_domain_error_exits_2():
    code, text = run(["pi-ap", "--q", "4", "--a", "2", "--x", "100"])
    assert code == 2
    assert "gcd" in text


def test_unknown_quadratic_class_exits_2():
    code, text = run(["chebotarev", "--d", "-1", "--class", "foo", "--x", "100"])
    assert code == 2
    assert "foo" in text


def test_cyclotomic_conductor_past_the_cap_exits_2():
    code, _ = run(["chebotarev", "--cyclotomic", "1048577", "--class", "1", "--x", "100"])
    assert code == 2


def test_byte_identical_repeat_runs():
    argv = ["mellin-check", "--q", "4", "--residue", "1", "--x", "50",
            "--ell", "2", "--t-max", "50"]
    assert run(argv) == run(argv)
    argv_csv = ["--format", "csv", "chebotarev", "--d", "-1",
                "--class", "split", "--x", "1000"]
    assert run(argv_csv) == run(argv_csv)


def test_mellin_check_direct_side_exact_beyond_sixteen_folds():
    # both sides of the identity agree at ell = 17: the direct side's weight
    # is exact for every ell, not only for small fold counts
    code, text = run(["--format", "json", "mellin-check", "--q", "1", "--x", "1e4",
                      "--ell", "17", "--eps", "0.2", "--t-max", "2000"])
    assert code == 0
    assert json.loads(text)["difference"] < 1e-6


def test_mellin_check_char_direct_side_ignores_n_max():
    # --n-max truncates the contour's series only; the direct side is the
    # weighted sum over the whole support, as on the class branch
    argv = ["--format", "json", "mellin-check", "--q", "5", "--char-index", "1",
            "--x", "300"]
    default = json.loads(run(argv)[1])
    short = json.loads(run(argv + ["--n-max", "150"])[1])
    assert (short["direct_re"], short["direct_im"]) == (default["direct_re"],
                                                        default["direct_im"])
    assert short["contour_re"] != default["contour_re"]


def test_mellin_check_builds_its_character_once():
    # the series and the direct side read one build of the character's row
    character.cache_clear()
    assert run(["mellin-check", "--q", "13", "--char-index", "5", "--x", "300"])[0] == 0
    info = character.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_global_flags_accepted_after_subcommand():
    before = run(["--format", "csv", "pi-ap", "--q", "4", "--a", "1", "--x", "100"])
    after = run(["pi-ap", "--q", "4", "--a", "1", "--x", "100", "--format", "csv"])
    assert before == after


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q = 4\na = 1\nx = 100\n# comment line\nformat = json\n")
    code, text = run(["--config", str(cfg), "pi-ap"])
    assert code == 0
    assert json.loads(text)["count"] == 11
    # flags override config values
    code, text = run(["--config", str(cfg), "pi-ap", "--a", "3"])
    assert json.loads(text)["count"] == 13  # the 3 mod 4 class up to 100
    assert json.loads(text)["a"] == 3


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "run.cfg"
    # step and memory_budget were flags once and are gone
    for text in ("quux = 1\n", "step = 0.05\n", "memory_budget = 1000000\n"):
        cfg.write_text(text)
        code, out = run(["--config", str(cfg), "pi-ap", "--q", "4", "--a", "1",
                         "--x", "100"])
        assert code == 2
        assert "unknown config keys" in out


def test_config_accepts_every_flag(tmp_path):
    # the allowed keys come from the parser, so store_true flags count too
    cfg = tmp_path / "run.cfg"
    cfg.write_text("clamp = true\nlam = 0.1\n")
    base = ["bounds", "--n-k", "1", "--d-k", "1", "--q-max", "5"]
    from_config = run(["--config", str(cfg), *base])
    assert from_config[0] == 0
    assert from_config == run([*base, "--lam", "0.1", "--clamp"])


def test_config_values_take_the_flag_type(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q = 4\na = 1\nx = 100\n")
    assert run(["--config", str(cfg), "pi-ap"]) == run(
        ["pi-ap", "--q", "4", "--a", "1", "--x", "100"])
    cfg.write_text("checkpoints = 1000,2000\n")
    bqf_argv = ["bqf", "--D", "4", "--x", "2000", "--form", "1,0,1"]
    from_config = run(["--config", str(cfg), *bqf_argv])
    assert from_config[0] == 0
    assert from_config == run([*bqf_argv, "--checkpoints", "1000,2000"])


def test_config_store_true_takes_true_or_false(tmp_path):
    cfg = tmp_path / "run.cfg"
    base = ["bounds", "--n-k", "1", "--d-k", "1", "--q-max", "5", "--lam", "0.1"]
    cfg.write_text("clamp = false\n")
    assert run(["--config", str(cfg), *base]) == run(base)
    cfg.write_text("clamp = yes\n")
    code, text = run(["--config", str(cfg), *base])
    assert code == 2
    assert "true or false" in text


def test_shared_flag_before_subcommand_beats_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q = 4\na = 1\nx = 100\nformat = csv\n")
    code, text = run(["--format", "json", "--config", str(cfg), "pi-ap"])
    assert code == 0
    assert json.loads(text)["count"] == 11


def test_config_equals_form(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q = 4\na = 1\nx = 100\n")
    assert run([f"--config={cfg}", "pi-ap"]) == run(["--config", str(cfg), "pi-ap"])


def test_trailing_config_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["pi-ap", "--q", "4", "--a", "1", "--x", "100", "--config"])
    assert exc.value.code == 2


def test_missing_files_exit_2(tmp_path):
    missing = str(tmp_path / "missing")
    for argv in (["--config", missing, "pi-ap", "--q", "4", "--a", "1", "--x", "100"],
                 ["lang-trotter", "--curves-file", missing, "--x", "500"]):
        code, text = run(argv)
        assert code == 2
        assert text.startswith("error: ") and "missing" in text


def test_config_values_take_the_flag_choices(tmp_path):
    cfg = tmp_path / "run.cfg"
    for text, argv in (("format = xml\n", ["pi-ap", "--q", "4", "--a", "1", "--x", "100"]),
                       ("mode = foo\n", ["lang-trotter", "--curve", "1,1", "--x", "500"])):
        cfg.write_text(text)
        code, out = run(["--config", str(cfg), *argv])
        assert code == 2
        # lang-trotter's mode follows from --disc, so no flag takes mode
        assert ("takes one of" if text.startswith("format") else "unknown config keys") in out


def test_config_serves_several_subcommands(tmp_path):
    # a key belongs to every subcommand that has its flag; the others ignore it
    cfg = tmp_path / "run.cfg"
    cfg.write_text("slack = 0.5\ncheckpoints = 500,1000\n")
    pi_argv = ["pi-ap", "--q", "4", "--a", "1", "--x", "1000"]
    bqf_argv = ["bqf", "--D", "4", "--x", "1000", "--form", "1,0,1"]
    for argv, flags in ((pi_argv, ["--slack", "0.5"]),
                        (bqf_argv, ["--checkpoints", "500,1000"])):
        from_config = run(["--config", str(cfg), *argv])
        assert from_config[0] == 0
        assert from_config == run([*argv, *flags]) != run(argv)


# subcommand flags with a sample value, and the subcommands that read each
_MOVED_FLAGS = {
    ("--checkpoints", "500"): {"bqf", "lang-trotter"},
    ("--delta0", "0.01"): {"bounds"},
    ("--eta", "0.1"): {"bounds"},
    ("--c1", "2"): {"bounds"},
    ("--slack", "0.2"): {"pi-ap", "bt-check"},
}


def test_flags_belong_to_their_subcommands(capsys):
    foreign = [(cmd, flag) for flag, readers in _MOVED_FLAGS.items()
               for cmd in SUBCOMMANDS if cmd not in readers]
    assert len(foreign) == 33
    for cmd, flag in foreign:
        with pytest.raises(SystemExit) as exc:
            run([cmd, *SAMPLES[cmd], *flag])
        assert exc.value.code == 2, (cmd, flag)
        assert "unrecognized arguments" in capsys.readouterr().err
    for flag, readers in _MOVED_FLAGS.items():
        for cmd in readers:
            assert run([cmd, *SAMPLES[cmd], *flag])[0] == 0, (cmd, flag)
    # the global flags are not abbreviated, so --form stays bqf's
    with pytest.raises(SystemExit):
        run(["pi-ap", *SAMPLES["pi-ap"], "--form", "csv"])


def test_help_lists_the_flags_each_parser_reads(capsys):
    for argv, listed, absent in ((["-h"], ["--format", "--config"], ["--slack"]),
                                 (["pi-ap", "-h"], ["--slack"], ["--checkpoints"])):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(flag in out for flag in listed) and not any(f in out for f in absent)


def test_chebotarev_needs_exactly_one_field(tmp_path):
    base = ["chebotarev", "--class", "1", "--x", "1000"]
    for fields in ([], ["--d", "-1", "--cyclotomic", "5"]):
        code, text = run([*base, *fields])
        assert code == 2
        assert "exactly one of --d and --cyclotomic" in text
    # a config value counts as given
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cyclotomic = 5\n")
    assert run(["--config", str(cfg), *base]) == run([*base, "--cyclotomic", "5"])


def test_lang_trotter_input_checks(tmp_path):
    curves = tmp_path / "curves.txt"
    curves.write_text("1 1\n")
    base = ["lang-trotter", "--x", "500"]
    for argv, message in (
            ([], "exactly one of --curve and --curves-file"),
            (["--curve", "1,1", "--curves-file", str(curves)],
             "exactly one of --curve and --curves-file"),
            (["--curve", "1,1", "--a", "5", "--disc", "-3"], "--a counts traces and --disc")):
        code, text = run([*base, *argv])
        assert code == 2
        assert message in text


def test_readme_cli_examples_run():
    # every command line in README's CLI block must keep working
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("chebkit ")]
    assert len(lines) >= 5
    for line in lines:
        code, text = run(shlex.split(line)[1:])
        assert code == 0, (line, text)


def test_chebotarev_partial_sum_is_exact():
    x, x0 = 1e6, 10.0
    code, text = run(["chebotarev", "--cyclotomic", "7", "--class", "3",
                      "--x", "1e6", "--x0", str(x0)])
    assert code == 0
    ps = primes_upto(x)
    ext, cls = chebotarev.cyclotomic_field(7), chebotarev.ConjClass(3)
    count = int(np.count_nonzero((ps % 7 == 3) & (ps > x0)))
    expected = count + chebotarev.theta_class(ext, cls, x0) / math.log(x0)
    assert json.loads(text)["partial_sum_estimate"] == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("argv", [
    ["bqf", "--D", "4", "--x", "1000", "--form", "1,0,1", "--checkpoints", "500,1000,2000"],
    ["lang-trotter", "--curve", "1,1", "--x", "1000", "--checkpoints", "500,5000"],
])
def test_checkpoint_past_x_is_refused(argv):
    # the counts stop at --x, so a later checkpoint would read the count at x
    code, text = run(argv)
    assert code == 2 and "past x = 1000" in text


def test_default_checkpoint_at_fractional_x():
    code, text = run(["bqf", "--D", "4", "--x", "1000.5", "--form", "1,0,1"])
    assert code == 0
    assert json.loads(text)["count"] == 81 and json.loads(text)["x"] == 1000.5


def test_twelve_digit_float_formatting():
    code, text = run(["bounds", "--n-k", "1", "--d-k", "1", "--q-max", "5",
                      "--theta", "0.5", "--format", "csv"])
    assert code == 0
    header, row = text.splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    assert values["bt_constant"] == "3.2"
    assert values["range_basic_log"] == "297.7460138"  # 12 significant digits


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "chebkit.cli", "pi-ap", "--q", "4", "--a", "1",
         "--x", "100"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 11
    bad = subprocess.run(
        [sys.executable, "-m", "chebkit.cli", "pi-ap", "--q", "4", "--a", "2",
         "--x", "100"],
        capture_output=True, text=True)
    assert bad.returncode == 2
    assert bad.stderr.strip() != ""


def test_curves_file_input(tmp_path):
    path = tmp_path / "curves.txt"
    path.write_text("1 1 demo\n-1 1\n")
    code, text = run(["lang-trotter", "--curves-file", str(path), "--a", "0",
                      "--x", "500", "--format", "csv"])
    assert code == 0
    assert len(text.splitlines()) == 3  # header + one row per curve


def test_a_curves_file_without_a_curve_exits_2(tmp_path):
    path = tmp_path / "none.txt"
    path.write_text("# none\n\n")
    code, text = run(["lang-trotter", "--curves-file", str(path), "--x", "500"])
    assert code == 2 and str(path) in text and "no curve" in text


def test_lang_trotter_flags_cm_from_the_j_invariant():
    for curve, flagged in (("0,1", True), ("1,1", False)):
        code, text = run(["lang-trotter", "--curve", curve, "--x", "500"])
        assert code == 0
        assert json.loads(text)["cm_flagged"] is flagged


def test_memory_budget_enforced():
    # x = 1e10 is refused before any table is built: by the sieve's fixed
    # 2^33 guard, and for a trace table by its lanes' limit of 2^31
    for argv, message in ((["pi-ap", "--q", "4", "--a", "1"], "exceeds memory budget 8589934592"),
                          (["lang-trotter", "--curve", "1,1"], "trace tables stop below 2^31")):
        code, text = run([*argv, "--x", "1e10"])
        assert code == 2
        assert message in text
    # a command that sieves nothing takes any x
    code, _ = run(["weights-verify", "--x", "1e10", "--ell", "2", "--eps", "0.1",
                   "--samples", "5"])
    assert code == 0


SAMPLES = {
    "weights-verify": ["--x", "100", "--ell", "2", "--eps", "0.1",
                       "--samples", "5"],
    "bounds": ["--n-k", "1", "--d-k", "1", "--q-max", "5", "--lambda1",
               "0.05", "--beta1", "0.999", "--t-height", "1", "--sigma",
               "0.5", "--lam", "0.1", "--theta", "0.3"],
    "pi-ap": ["--q", "7", "--a", "3", "--x", "1000"],
    "bt-check": ["--q", "12", "--x", "10000"],
    "bqf": ["--D", "4", "--x", "1000", "--form", "1,0,1"],
    "chebotarev": ["--cyclotomic", "5", "--class", "2", "--x", "1000"],
    "mellin-check": ["--q", "1", "--x", "50", "--ell", "2", "--t-max", "50"],
    "lang-trotter": ["--curve", "1,1", "--a", "0", "--x", "500"],
}


def test_every_subcommand_runs():
    assert set(SAMPLES) == set(SUBCOMMANDS)
    for cmd, argv in SAMPLES.items():
        code, text = run([cmd, *argv])
        assert code == 0, (cmd, text)


def _exit_status(argv, monkeypatch, capsys):
    """(exit status, stdout, stderr) of the console entry point; an
    exception that escapes it fails the test with its traceback."""
    monkeypatch.setattr(sys, "argv", ["chebkit", *argv])
    with pytest.raises(SystemExit) as exc:
        main()
    return exc.value.code, *capsys.readouterr()


def _replaced(argv, flag, value):
    i = argv.index(flag)
    return [*argv[:i + 1], value, *argv[i + 2:]]


_NON_FINITE = [[cmd, *_replaced(argv, "--x", "inf")] for cmd, argv in SAMPLES.items()
               if "--x" in argv] + [
    ["bqf", *_replaced(SAMPLES["bqf"], "--x", "1e400")],
    ["mellin-check", *_replaced(SAMPLES["mellin-check"], "--t-max", "inf")],
    ["pi-ap", *SAMPLES["pi-ap"], "--slack", "nan"],
    ["bounds", *SAMPLES["bounds"], "--eta=-inf"],
    ["lang-trotter", *SAMPLES["lang-trotter"], "--checkpoints", "100,nan"],
]


@pytest.mark.parametrize("argv", _NON_FINITE, ids=" ".join)
def test_non_finite_values_exit_2(argv, monkeypatch, capsys):
    code, _, err = _exit_status(argv, monkeypatch, capsys)
    assert code == 2 and "is not a finite number" in err and "Traceback" not in err


def test_non_finite_config_values_exit_2(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "run.cfg"
    # values of flags the command line leaves out, one of them a required flag
    for key, argv in (("slack", ["pi-ap", *SAMPLES["pi-ap"]]),
                      ("eta", ["bounds", *SAMPLES["bounds"]]),
                      ("checkpoints", ["bqf", *SAMPLES["bqf"]]),
                      ("x", ["pi-ap", "--q", "7", "--a", "3"])):
        cfg.write_text(f"{key} = nan\n")
        code, _, err = _exit_status(["--config", str(cfg), *argv], monkeypatch, capsys)
        assert code == 2 and "'nan' is not a finite number" in err, (key, err)


def test_oversized_integers_end_cleanly(monkeypatch, capsys):
    # the modulus does not fit in int64; every prime <= x is its own residue
    code, out, _ = _exit_status(["pi-ap", "--q", str(10**23), "--a", "1", "--x", "100"],
                                monkeypatch, capsys)
    assert code == 0 and json.loads(out)["count"] == 0
    D = 10**23 + 3          # class_number would try about 10^22 (a, b) pairs
    code, _, err = _exit_status(["bqf", "--D", str(D), "--form", f"1,1,{(D + 1) // 4}",
                                 "--x", "100"], monkeypatch, capsys)
    assert code == 2 and err.startswith("error: ") and "class-number budget" in err


def test_requests_past_a_table_budget_exit_2_before_they_allocate(monkeypatch, capsys):
    # a trace table to 4e9 and a character mod 1048583, past the Frobenius
    # map's 2^20 residues, are refused before the sieve or the map starts
    def refuse(*args):
        raise AssertionError("allocation started")
    monkeypatch.setattr(elliptic, "primes_upto", refuse)
    monkeypatch.setattr(explicit, "prime_powers", refuse)
    for argv, reason in ((["lang-trotter", "--curve", "0,1", "--x", "4e9"], "2^31"),
                         (["mellin-check", "--q", "1048583", "--char-index", "5", "--x", "1e4"],
                          "Frobenius map limit")):
        code, _, err = _exit_status(argv, monkeypatch, capsys)
        assert code == 2 and err.startswith("error: ") and reason in err, (argv, err)


def test_a_single_character_past_the_table_budget_runs_in_small_memory():
    # one character mod 20011 is one row of the map's size, not the 6.4 GB table
    src = str(Path(chebotarev.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = ("import resource, sys; from chebkit.cli import run; "
              "code, _ = run(sys.argv[1:]); "
              "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    proc = subprocess.run([sys.executable, "-c", script, "mellin-check", "--q", "20011",
                           "--char-index", "5", "--x", "1e4"],
                          capture_output=True, text=True, env=env, check=True)
    code, max_rss_kb = map(int, proc.stdout.split())
    assert code == 0 and max_rss_kb < 200 * 1024


@pytest.mark.parametrize("argv", [
    ["weights-verify", "--x", "100", "--ell", "83", "--eps", "0.1", "--samples", "100"],
    ["weights-verify", "--x", "1e70", "--ell", "2", "--eps", "0.1", "--samples", "100"],
    ["mellin-check", "--q", "1", "--x", "50", "--ell", "95"],
], ids=" ".join)
# numpy's exp in laplace_transform overflows to inf first, with a warning
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_bound_past_the_float_range_exits_2(argv, monkeypatch, capsys):
    code, _, err = _exit_status(argv, monkeypatch, capsys)
    assert code == 2 and err.startswith("error: a bound left the float range")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["--q", "1", "--x", "50", "--t-max", "50"],
    ["--q", "5", "--residue", "2", "--x", "50", "--t-max", "50"],
    ["--q", "5", "--char-index", "1", "--x", "50", "--t-max", "50"],
], ids=" ".join)
def test_mellin_check_builds_no_series_past_the_support(argv, monkeypatch):
    # contour_sum drops the terms past support_cap, so an --n-max past it
    # sieves nothing more and reports the default run's bytes
    default = run(["mellin-check", *argv])
    limits = []

    def spy(limit):
        limits.append(limit)
        return prime_powers(limit)
    monkeypatch.setattr(explicit, "prime_powers", spy)
    assert run(["mellin-check", *argv, "--n-max", "30000000"]) == default
    cap = explicit.support_cap(WeightSpec(x=50.0, ell=2, eps=0.1))
    assert limits and max(limits) <= cap


# Runs CLI invocations under a profiler and prints every Python function
# entered, as (file, first line) pairs.
_TRACE_SCRIPT = """
import json, sys
from chebkit.cli import run
seen, codes = set(), []
def record(frame, event, arg):
    if event == "call":
        seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.setprofile(record)
for argv in json.loads(sys.argv[1]):
    codes.append(run(argv)[0])
sys.setprofile(None)
print(json.dumps({"codes": codes, "called": sorted(seen)}))
"""


def test_operation_coverage_table(tmp_path):
    # every public operation of every module must be reachable from at
    # least one subcommand
    required = {
        laplace_transform, weight_value, check_decay_bound, check_growth_bound,
        check_real_axis_bound, check_left_line_bound,
        bounds.log_complexity, bounds.density_bound, bounds.low_lying_density_bound,
        bounds.repulsion_threshold, bounds.deuring_heilbronn_exclusion,
        bounds.brun_titchmarsh_constant, bounds.range_thresholds,
        segmented_primes, primes_upto, li,
        progressions.pi_ap, progressions.montgomery_vaughan_check,
        progressions.maynard_check,
        bqf.reduce_form, bqf.class_number, bqf.delta_q,
        bqf.count_represented_primes, bqf.representation_density_report,
        chebotarev.artin_class, chebotarev.psi_class, chebotarev.theta_class,
        chebotarev.pi_class, chebotarev.theta_partial_sum, chebotarev.counting_chain_check,
        chebotarev.weighted_prime_sum, chebotarev.density_ratio_report,
        explicit.contour_sum, explicit.tail_bound, explicit.zeta_log_deriv,
        explicit.class_log_deriv, explicit.character_log_deriv,
        elliptic.trace_of_frobenius, elliptic.frobenius_traces, elliptic.trace_match_count,
        elliptic.frobenius_field_count, elliptic.growth_shape_report,
        elliptic.read_curves,
    }
    # trace a fresh interpreter: in a warm one the sieve and trace-table
    # caches would skip the calls that fill them
    curves = tmp_path / "curves.txt"
    curves.write_text("1 1\n")
    invocations = [[cmd, *argv] for cmd, argv in SAMPLES.items()] + [
        ["mellin-check", "--q", "5", "--residue", "2", "--x", "50", "--t-max", "50"],
        ["mellin-check", "--q", "5", "--char-index", "1", "--x", "50", "--t-max", "50"],
        ["lang-trotter", "--curve", "1,1", "--disc", "-3", "--x", "500"],
        ["lang-trotter", "--curves-file", str(curves), "--x", "500"],
        # y^2 = x^3 - x + 5 leaves p = 5 open in every round (see
        # test_lane_that_no_round_settles_takes_the_charsum), so this run
        # reaches trace_of_frobenius through the fallback; "=" keeps
        # argparse from reading -1,5 as a flag
        ["lang-trotter", "--curve=-1,5", "--x", "500"],
    ]
    src = str(Path(chebotarev.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _TRACE_SCRIPT, json.dumps(invocations)],
                          capture_output=True, text=True, env=env, check=True)
    traced = json.loads(proc.stdout)
    assert traced["codes"] == [0] * len(invocations)
    called = {tuple(site) for site in traced["called"]}
    missing = {op.__name__ for op in required
               if (op.__code__.co_filename, op.__code__.co_firstlineno) not in called}
    assert not missing, f"operations unreachable from the CLI: {missing}"


# each mode of each subcommand: its argv, and every flag the subcommand
# accepts with a sample value chosen so that it matters in that mode
_SUBCOMMAND_FLAGS = {
    "weights-verify": {"--x": "200", "--ell": "3", "--eps": "0.2", "--samples": "6",
                       "--seed": "1"},
    "bounds": {"--n-k": "2", "--d-k": "7", "--q-max": "9", "--degree-lk": "2",
               "--ramified": "2", "--constant": "2", "--sigma": "0.6", "--t-height": "2",
               "--lam": "0.2", "--clamp": None, "--lambda1": "0.06", "--beta1": "0.998",
               "--theta": "0.4", "--delta0": "0.01", "--eta": "0.1", "--c1": "2"},
    "pi-ap": {"--q": "5", "--a": "2", "--x": "2000", "--slack": "0.5"},
    "bt-check": {"--q": "10", "--x": "2000", "--slack": "0.5"},
    "bqf": {"--D": "4", "--x": "2000", "--form": "2,2,3", "--checkpoints": "500"},
    "chebotarev": {"--d": "-5", "--cyclotomic": "7", "--class": "3", "--x": "2000",
                   "--x0": "20"},
    "mellin-check": {"--q": "7", "--residue": "3", "--char-index": "0", "--x": "60",
                     "--ell": "3", "--eps": "0.2", "--t-max": "60", "--n-max": "40"},
    "lang-trotter": {"--curve": "2,3", "--curves-file": "CURVES", "--a": "5",
                     "--disc": "-7", "--x": "600", "--checkpoints": "250"},
}
_MODES = {
    ("weights-verify", "sampled"): ["--x", "100", "--ell", "2", "--eps", "0.1",
                                    "--samples", "5"],
    ("bounds", "invariants only"): ["--n-k", "1", "--d-k", "1", "--q-max", "5"],
    ("bounds", "every calculator"): SAMPLES["bounds"],
    ("pi-ap", "checked"): ["--q", "7", "--a", "3", "--x", "1000"],
    ("pi-ap", "count only"): ["--q", "7", "--a", "3", "--x", "7"],
    ("bt-check", "every residue"): ["--q", "12", "--x", "10000"],
    ("bqf", "one form"): ["--D", "20", "--x", "1000", "--form", "1,0,5"],
    ("chebotarev", "quadratic"): ["--d", "-1", "--class", "split", "--x", "1000"],
    ("chebotarev", "cyclotomic"): ["--cyclotomic", "5", "--class", "2", "--x", "1000"],
    ("mellin-check", "zeta"): ["--q", "1", "--x", "50", "--t-max", "50"],
    ("mellin-check", "class"): ["--q", "5", "--residue", "2", "--x", "50", "--t-max", "50"],
    ("mellin-check", "character"): ["--q", "5", "--char-index", "1", "--x", "50",
                                    "--t-max", "50"],
    ("lang-trotter", "trace"): ["--curve", "1,1", "--x", "500"],
    ("lang-trotter", "field"): ["--curve", "1,1", "--disc", "-3", "--x", "500"],
}
# where one mode takes another sample value than the subcommand's others
_MODE_VALUES = {("chebotarev", "quadratic"): {"--class": "inert"}}
# the (subcommand, mode, flag) triples that exit 2: a flag the run would not
# read, or one that contradicts another
_REFUSED = {
    ("bounds", "invariants only", flag)
    for flag in ("--sigma", "--t-height", "--clamp", "--beta1", "--eta", "--c1")
} | {
    ("pi-ap", "count only", "--slack"),
    ("bqf", "one form", "--D"),
    ("chebotarev", "quadratic", "--cyclotomic"),
    ("chebotarev", "cyclotomic", "--d"),
    ("mellin-check", "zeta", "--residue"),
    ("mellin-check", "class", "--char-index"),
    ("mellin-check", "character", "--residue"),
    ("lang-trotter", "trace", "--curves-file"),
    ("lang-trotter", "field", "--curves-file"),
    ("lang-trotter", "field", "--a"),
}


def _subcommand_flags(cmd):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices[cmd]
    return {opt: action.dest for action in sub._actions for opt in action.option_strings
            if opt != "-h" and opt != "--help"}


def test_every_flag_of_every_mode_changes_the_report_or_exits_2(tmp_path):
    curves = tmp_path / "curves.txt"
    curves.write_text("1 1\n")
    cfg = tmp_path / "run.cfg"
    assert {cmd for cmd, _ in _MODES} == set(SUBCOMMANDS)
    for (cmd, mode), argv in _MODES.items():
        dests = _subcommand_flags(cmd)
        assert set(dests) == set(_SUBCOMMAND_FLAGS[cmd]), cmd
        base = run([cmd, *argv])
        assert base[0] == 0, (cmd, mode, base)
        values = {**_SUBCOMMAND_FLAGS[cmd], **_MODE_VALUES.get((cmd, mode), {})}
        for flag, value in values.items():
            value = str(curves) if value == "CURVES" else value
            code, text = run([cmd, *argv, flag, *([] if value is None else [value])])
            triple = (cmd, mode, flag)
            if triple in _REFUSED:
                assert code == 2 and flag in text, (triple, text)
                if flag not in argv:  # a config value counts as given
                    cfg.write_text(f"{dests[flag]} = {'true' if value is None else value}\n")
                    assert run(["--config", str(cfg), cmd, *argv]) == (code, text), triple
            else:
                assert code == 0 and text != base[1], (triple, text)
    assert {(c, m) for c, m, _ in _REFUSED} <= set(_MODES)


@pytest.mark.parametrize("flags,message", [
    (["--sigma", "0.5"], "--sigma needs --t-height"),
    (["--beta1", "0.999"], "--beta1 needs --t-height"),
    (["--t-height", "1"], "--t-height needs --sigma or --beta1"),
    (["--eta", "0.1"], "--eta needs --lambda1"),
    (["--c1", "2"], "--c1 needs --beta1"),
    (["--clamp"], "--clamp needs --lam"),
])
def test_bounds_refuses_a_flag_whose_calculator_does_not_run(flags, message):
    code, text = run(["bounds", "--n-k", "1", "--d-k", "1", "--q-max", "5", *flags])
    assert code == 2 and message in text


@pytest.mark.parametrize("argv,flag", [
    (["bt-check", "--q", "1", "--x", "100"], "--q"),
    (["bt-check", "--q", "0", "--x", "100"], "--q"),
    (["mellin-check", "--q", "1", "--x", "300", "--residue", "3"], "--residue"),
    (["mellin-check", "--q", "5", "--char-index", "1", "--residue", "3", "--x", "300"],
     "--residue"),
    (["pi-ap", "--q", "1", "--a", "0", "--x", "100", "--slack", "5"], "--slack"),
    (["pi-ap", "--q", "7", "--a", "3", "--x", "7", "--slack", "5"], "--slack"),
    (["mellin-check", "--q", "1", "--x", "50", "--t-max", "50", "--n-max", "0"], "--n-max"),
    (["mellin-check", "--q", "1", "--x", "50", "--t-max", "50", "--n-max", "-5"], "--n-max"),
    (["weights-verify", "--x", "100", "--ell", "2", "--eps", "0.1", "--samples", "-3"],
     "--samples"),
    (["lang-trotter", "--curve", "1,1", "--x", "500", "--a", "5", "--disc", "-3"], "--a"),
    (["weights-verify", "--x", "100", "--ell", "2", "--eps", "0.1", "--samples", "0"],
     "--samples must be >= 1"),
])
def test_a_flag_the_run_cannot_read_exits_2(argv, flag):
    code, text = run(argv)
    assert code == 2 and flag in text


def test_smallest_counts_still_run():
    # two is the least n_max with a prime power, one sample the least sample
    for argv in (["mellin-check", "--q", "1", "--x", "50", "--t-max", "50", "--n-max", "2"],
                 ["weights-verify", "--x", "100", "--ell", "2", "--eps", "0.1",
                  "--samples", "1"]):
        assert run(argv)[0] == 0, argv


def test_mellin_check_residue_defaults_to_one():
    base = ["mellin-check", "--q", "5", "--x", "50", "--t-max", "50"]
    assert run(base) == run([*base, "--residue", "1"])


def test_pi_ap_and_bt_check_share_their_rows():
    # one residue's bt-check row is pi-ap's row; only the count's type differs
    pi_row = json.loads(run(["pi-ap", "--q", "12", "--a", "5", "--x", "10000"])[1])["rows"][0]
    bt_rows = json.loads(run(["bt-check", "--q", "12", "--x", "10000"])[1])["rows"]
    assert isinstance(pi_row["count"], int) and isinstance(bt_rows[1]["count"], float)
    assert pi_row == bt_rows[1]
