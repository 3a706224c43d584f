import argparse
import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fatflats.cli import _parse_fraction, build_parser, main

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_lambda_g_json(capsys):
    code, out = run_cli(capsys, "lambda", "3", "1", "6", "--g", "--prec", "1e-6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["defining"] == [12, -18, 0, 1]
    assert payload["decimal"].startswith("3.8587")
    assert set(payload) == {"defining", "interval", "decimal"}


def test_lambda_poly_json(capsys):
    code, out = run_cli(capsys, "lambda", "3", "1", "6", "--json")
    assert code == 0
    assert json.loads(out)["poly"] == [2, -3, 0, "1/6"]


def test_e_certify_json(capsys):
    code, out = run_cli(capsys, "e", "3", "1", "6", "--certify", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["e"] == "27/7"
    assert payload["certified"] is True
    assert payload["witness"] == {"t": 27, "m": 7, "value": 28}


def test_e_certify_past_the_table_json(capsys):
    # e(8, 1, 5) = 106/71 is attained at m = 71 and certified from m = 86 on
    code, out = run_cli(capsys, "e", "8", "1", "5", "--mmax", "80", "--certify", "--json")
    assert code == 0
    assert out == (
        '{"e":"106/71","witness":{"t":106,"m":71,"value":239344083},"certified":true,'
        '"certificate":{"ratio":"106/71","witness":{"t":106,"m":71,"value":239344083},'
        '"m_threshold":86,"finite_scan_range":"all integer pairs with 1 <= m < 86 and '
        'm <= t < m*106/71","pairs_checked":1841}}\n'
    )


def test_e_certify_failure_text_and_json(capsys):
    # 19/6 lies above g = sqrt(10), so the ray does not tend to -infinity
    detail = "nonconstant part does not tend to -infinity at the candidate"
    code, out = run_cli(capsys, "e", "2", "0", "10", "--certify")
    assert code == 1
    assert out == f"e(2,0,10) = 19/6 at (t=57, m=18)\ncertification failed at step threshold: {detail}\n"
    code, out = run_cli(capsys, "e", "2", "0", "10", "--certify", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["certified"] is False
    assert payload["failure"] == {"step": "threshold", "detail": detail}


def test_verify_nosymetry_text(capsys):
    code, out = run_cli(capsys, "verify", "nosymetry", "7")
    assert code == 0
    assert "cases=4149 violations=0" in out


def test_conditions_with_oracle(capsys):
    code, out = run_cli(capsys, "conditions", "3", "1", "4", "5", "--oracle", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 40 and payload["oracle"] == 40 and payload["match"]


def test_hilbert_uniform_and_mixed(capsys):
    code, out = run_cli(capsys, "hilbert", "3", "1", "6", "7", "--at", "27", "--json")
    assert code == 0 and json.loads(out)["value"] == 28
    code, out = run_cli(capsys, "hilbert", "3", "1", "--mults", "4,3,3,3,3,3", "--at", "12", "--json")
    assert code == 0 and json.loads(out)["value"] == -5


def test_hilbert_usage_error(capsys):
    code = main(["hilbert", "3", "1"])
    assert code == 2


def test_hilbert_takes_s_m_or_mults_not_both(capsys):
    assert main(["hilbert", "3", "1", "6", "7", "--mults", "1,2"]) == 2
    assert "give either s m or --mults, not both" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "gamma-case", "1", "3", "--hmax", "1"],
        ["cremona", "--dim", "1", "--system", "2;1,1", "--reduce"],
    ],
    ids=["gamma-case", "cremona"],
)
def test_cremona_systems_refuse_n_below_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Cremona systems live in P^n with n >= 2" in captured.err


def test_hilbert_mixed_rejects_meeting_flats(capsys):
    # two lines in P^2 always meet, so no disjoint configuration exists
    assert main(["hilbert", "2", "1", "--mults", "2,3"]) == 2
    assert "disjointness" in capsys.readouterr().err


def test_cremona_transform_reduce_witness(capsys):
    code, out = run_cli(
        capsys, "cremona", "--dim", "3", "--system", "3;3,3,3,3", "--transform", "0,1,2,3", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {"c": -6, "system": "-3;-3,-3,-3,-3"}

    code, out = run_cli(capsys, "cremona", "--dim", "3", "--system", "7;6,6,6,6", "--reduce", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "empty" and len(payload["steps"]) == 1

    code, out = run_cli(capsys, "cremona", "--dim", "3", "--system", "4;3,3,3,3", "--witness", "--json")
    assert code == 0
    assert len(json.loads(out)["witness"]) == 4


@pytest.mark.parametrize(
    "transform, message",
    [
        ("0,0,1,2", "need exactly n+1 = 4 distinct indices, got [0, 0, 1, 2]"),
        ("2,1,0,0", "need exactly n+1 = 4 distinct indices, got [2, 1, 0, 0]"),
        ("2,1,0,-1", "index out of range in [2, 1, 0, -1]"),
    ],
)
def test_cremona_transform_errors_show_the_indices_as_given(capsys, transform, message):
    assert main(["cremona", "--dim", "3", "--system", "4;3,3,3,3", "--transform", transform]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "system, limit, steps, reason",
    [
        ("3;1,1,1,1,1,1,1,1,1,1", [], 0, "no degree-lowering step available"),
        ("10;4,4,4,4,4,4,4,4,4,4", ["--max-steps", "2"], 2, "step limit reached"),
    ],
    ids=["no-step", "step-limit"],
)
def test_cremona_reduce_undecided(capsys, system, limit, steps, reason):
    code, out = run_cli(capsys, "cremona", "--dim", "2", "--system", system, "--reduce", *limit)
    assert code == 1
    assert out.count("  step ") == steps
    assert out.endswith(f"verdict: undecided ({reason})\n")


@pytest.mark.parametrize(
    "modes",
    [
        ["--transform", "0,1,2,3", "--reduce"],
        ["--witness", "--reduce"],
        ["--transform", "0,1,2,3", "--witness"],
        [],
    ],
)
def test_cremona_takes_exactly_one_mode(capsys, modes):
    with pytest.raises(SystemExit) as err:
        main(["cremona", "--dim", "3", "--system", "4;3,3,3,3", *modes])
    assert err.value.code == 2
    assert capsys.readouterr().out == ""


def test_gamma_points_and_alpha(capsys):
    code, out = run_cli(capsys, "gamma-points", "3", "4", "--json")
    assert code == 0 and json.loads(out)["gamma"] == "4/3"
    code, out = run_cli(capsys, "alpha", "lines", "3", "6", "--json")
    assert code == 0 and json.loads(out)["alpha"] == 4
    code, out = run_cli(capsys, "alpha", "points2", "2", "2", "--json")
    payload = json.loads(out)
    assert payload["alpha"] == 3 and "exceptions" in payload["note"]


def test_alpha_points_text(capsys):
    code, out = run_cli(capsys, "alpha", "points", "3", "6")
    assert code == 0 and out == "alpha = 2\n"


def test_intersections_check(capsys):
    code, out = run_cli(capsys, "intersections", "5", "2", "2", "--check", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["expansion"] == [-12, 30, -20, 0, 0, 1]
    assert payload["identity"] is True


def test_verify_appendix_and_identities(capsys):
    code, out = run_cli(capsys, "verify", "appendix", "e-3-0-4", "--json")
    assert code == 0 and json.loads(out)["passed"] is True
    code, out = run_cli(capsys, "verify", "identities", "--seed", "7", "--json")
    assert code == 0 and json.loads(out)["ok"] is True


def test_verify_gamma_case(capsys):
    code, out = run_cli(capsys, "verify", "gamma-case", "3", "4", "--hmax", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert [row["alpha"] for row in payload["rows"]] == [4, 8, 12]


@pytest.mark.parametrize("hmax", ["0", "-2"])
def test_verify_gamma_case_rejects_an_empty_h_range(capsys, hmax):
    # no rows would mean a vacuous "overall: pass"
    code, out = run_cli(capsys, "verify", "gamma-case", "3", "6", "--hmax", hmax)
    assert code == 2 and "overall" not in out


def test_bounds_json_round_trip(capsys):
    code, out = run_cli(capsys, "bounds", "3", "0", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma"]["value"] == "4/3"
    assert payload["e"] == "3/2" and payload["e_certified"] is True
    # canonical serialization: parse then re-dump is byte identical
    assert json.dumps(payload, separators=(",", ":")) + "\n" == out


def _integers_as_ints(obj, key=None):
    """True when no field but a decimal rendering holds an integer as a string."""
    if isinstance(obj, dict):
        return all(_integers_as_ints(v, k) for k, v in obj.items())
    if isinstance(obj, list):
        return all(_integers_as_ints(v, key) for v in obj)
    return not (isinstance(obj, str) and key != "decimal" and re.fullmatch(r"-?\d+", obj))


def _holds_tuple(obj):
    """True when a tuple (a result record is one) sits anywhere in a payload;
    json.dumps would write it as a list where a record should be a dict."""
    if isinstance(obj, tuple):
        return True
    if isinstance(obj, dict):
        return any(_holds_tuple(v) for v in obj.values())
    if isinstance(obj, list):
        return any(_holds_tuple(v) for v in obj)
    return False


def test_json_round_trip_everywhere(capsys):
    cases = [
        ["lambda", "3", "1", "6", "--g", "--json"],
        ["lambda", "1", "0", "5", "--g", "--json"],
        ["e", "3", "0", "4", "--certify", "--json"],
        ["e", "3", "0", "2", "--certify", "--json"],
        ["e", "3", "1", "6", "--certify", "--json"],
        ["bounds", "3", "0", "2", "--json"],
        ["bounds", "3", "1", "6", "--json"],
        ["conditions", "4", "2", "4", "4", "--json"],
        ["verify", "nosymetry", "9", "--json"],
        ["cremona", "--dim", "3", "--system", "12;7,7,7,7,7,7", "--reduce", "--json"],
    ]
    for argv in cases:
        code, out = run_cli(capsys, *argv)
        assert code == 0
        payload = json.loads(out)
        assert json.dumps(payload, separators=(",", ":")) + "\n" == out
        assert _integers_as_ints(payload), argv
        args = build_parser().parse_args(argv)
        report, _, _ = args.handler(args)
        assert not _holds_tuple(report), argv


def test_integers_print_as_ints(capsys):
    code, out = run_cli(capsys, "bounds", "3", "0", "2", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["e"] == 1 and payload["gamma"]["value"] == 1
    code, out = run_cli(capsys, "e", "3", "0", "2", "--certify", "--json")
    cert = json.loads(out)["certificate"]
    assert code == 0 and cert["ratio"] == 1 and cert["m_threshold"] == 3


@pytest.mark.parametrize(
    "text, value",
    [
        ("1e-6", Fraction(1, 10**6)),
        ("1E-6", Fraction(1, 10**6)),
        ("+1e-6", Fraction(1, 10**6)),
        ("0.001", Fraction(1, 1000)),
        (".5", Fraction(1, 2)),
        ("1/1000000", Fraction(1, 10**6)),
    ],
)
def test_documented_precision_forms_parse_exactly(text, value):
    assert _parse_fraction(text) == value


@pytest.mark.parametrize("prec", ["abc", "inf", "1/0", ""])
def test_unparsable_precision_is_a_usage_error(capsys, prec):
    assert main(["lambda", "3", "1", "6", "--g", "--prec", prec]) == 2
    assert "not a rational number" in capsys.readouterr().err


def test_csv_output(capsys):
    code, out = run_cli(capsys, "bounds", "3", "0", "4", "--csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    rows = dict(line.split(",", 1) for line in lines[1:])
    assert rows["gamma.value"] == "4/3"
    assert rows["e"] == "3/2"
    assert rows["g.decimal"].startswith("1.5874")


@pytest.mark.parametrize(
    "system, flag",
    [("4;3,3,3,3", "--reduce"), ("4;3,3,3,3", "--witness"), ("12;7,7,7,7,7,7", "--reduce")],
)
def test_csv_fields_with_commas_read_back(capsys, system, flag):
    code, out = run_cli(capsys, "cremona", "--dim", "3", "--system", system, flag, "--csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["key", "value"]
    assert all(len(row) == 2 for row in rows)
    if flag == "--reduce":
        assert dict(rows[1:])["start"] == system
    else:  # a list value is its JSON, commas and all
        witness = json.loads(dict(rows[1:])["witness"])
        assert witness[0] == {"points": [0, 1, 2], "weight": 1}


def test_rational_poly_serialization(capsys):
    code, out = run_cli(capsys, "hilbert", "3", "0", "4", "2", "--json")
    assert code == 0
    assert json.loads(out)["poly"] == [-15, "11/6", 1, "1/6"]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["lambda", "3"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


def _run_subprocess(*argv):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="random")
    cmd = [sys.executable, "-m", "fatflats", *argv]
    return subprocess.run(cmd, capture_output=True, env=env, timeout=300)


def test_subprocess_byte_determinism():
    runs = [_run_subprocess("verify", "nosymetry", "8", "--json") for _ in range(3)]
    assert runs[0].returncode == 0
    assert runs[0].stdout == runs[1].stdout == runs[2].stdout


def test_subprocess_exit_codes():
    ok = _run_subprocess("lambda", "3", "1", "6")
    assert ok.returncode == 0
    usage = _run_subprocess("lambda")
    assert usage.returncode == 2
    assert usage.stderr
    # 19/6 lies above g = sqrt(10): the threshold step refuses it
    refused = _run_subprocess("e", "2", "0", "10", "--certify")
    assert refused.returncode == 1
    assert b"certification failed at step threshold" in refused.stdout


def test_g_past_the_int_to_str_digit_cap():
    # the interval's ends have more than CPython's default 4,300 digits, so
    # the report prints only with the cap lifted
    argv = ("lambda", "3", "1", "6", "--g", "--prec", "1e-5000")
    text, js = _run_subprocess(*argv), _run_subprocess(*argv, "--json")
    assert text.returncode == 0 and text.stdout == b"g(3,1,6) = 3.858783723\n"
    assert js.returncode == 0
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    report = json.loads(js.stdout)
    lo, hi = (Fraction(end) for end in report["interval"])
    assert 0 < hi - lo <= Fraction(1, 10**5000)
    assert abs((lo + hi) / 2 - Fraction(report["decimal"])) <= Fraction(5, 10**10)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str cap before 3.10.7")
def test_main_puts_back_the_callers_int_to_str_digit_cap(capsys):
    # main lifts the cap for its own run only: the 5,000-digit ends print under
    # a caller's cap of 4,300, and the cap is 4,300 again after every exit path
    sys.set_int_max_str_digits(4300)
    assert main(["lambda", "3", "1", "6", "--g", "--prec", "1e-5000", "--json"]) == 0
    assert sys.get_int_max_str_digits() == 4300
    assert len(capsys.readouterr().out) > 10000
    assert main(["alpha", "lines", "3", "6"]) == 0
    assert sys.get_int_max_str_digits() == 4300
    with pytest.raises(SystemExit):  # argparse's usage exit
        main(["bogus"])
    assert sys.get_int_max_str_digits() == 4300
    assert main(["e", "2", "0", "10", "--certify"]) == 1  # the certificate fails
    assert sys.get_int_max_str_digits() == 4300


def test_closed_stdout_is_no_error():
    # the reader goes away before the report is written: the command still
    # exits with its own status and prints no traceback
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        [sys.executable, "-m", "fatflats", "e", "3", "1", "6", "--certify", "--csv"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    try:
        err = proc.communicate(timeout=300)[1]
    finally:
        proc.kill()
    assert proc.returncode == 0
    assert err == b""


def test_bad_threads_environment_is_ignored():
    # FATFLATS_THREADS sizes nothing; a value that is not a number must not
    # break argument parsing
    plain = _run_subprocess("lambda", "3", "1", "6", "--g")
    env = dict(os.environ, PYTHONPATH=SRC, FATFLATS_THREADS="abc")
    bad = subprocess.run(
        [sys.executable, "-m", "fatflats", "lambda", "3", "1", "6", "--g"],
        capture_output=True,
        env=env,
        timeout=300,
    )
    assert plain.returncode == bad.returncode == 0
    assert bad.stdout == plain.stdout


def test_import_leaves_process_pool_modules_out():
    # json and csv load only when a report prints with them, and random only
    # for verify identities; -S keeps site from preloading any of them, and
    # the modules are taken as the difference from a bare interpreter
    env = dict(os.environ, PYTHONPATH=SRC)
    for module, left_out in [("fatflats", ("concurrent", "multiprocessing")), ("fatflats.cli", ("json", "csv", "random"))]:
        probe = (
            f"import sys; before = set(sys.modules); import {module}; "
            f"print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] in {left_out!r}))"
        )
        proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, env=env, timeout=300)
        assert proc.returncode == 0
        assert proc.stdout.decode().strip() == "[]", module


def test_seed_only_on_verify_identities(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "3", "1", "6", "--seed", "1"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run_cli(capsys, "verify", "identities", "--seed", "42") == (0, "failures: 0\n")
    code, out = run_cli(capsys, "verify", "identities", "--seed", "42", "--json")
    assert code == 0
    assert out == '{"seed":42,"checks":"identities","failures":[],"ok":true}\n'


def _status(argv):
    """main's exit status, whether argparse or a handler refuses the line."""
    try:
        return main(argv)
    except SystemExit as err:
        return err.code


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "3", "0", "4", "--json", "--csv"],
        ["lambda", "3", "1", "6", "--prec", "1e-6"],
        ["cremona", "--dim", "3", "--system", "4;3,3,3,3", "--witness", "--max-steps", "0"],
        ["cremona", "--dim", "3", "--system", "3;3,3,3,3", "--transform", "0,1,2,3", "--max-steps", "5"],
        ["bounds", "3", "0", "4", "--threads", "1"],
        ["lambda", "3", "1", "6", "--poly"],
        ["hilbert", "3", "0", "4", "2", "--poly"],
        ["verify", "appendix", "unknown-id"],
    ],
    ids=[
        "json-and-csv",
        "prec-without-g",
        "max-steps-with-witness",
        "max-steps-with-transform",
        "threads",
        "lambda-poly",
        "hilbert-poly",
        "unknown-appendix-id",
    ],
)
def test_flags_that_would_be_ignored_are_refused(capsys, argv):
    assert _status(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "usage" in captured.err


def _leaves(parser):
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield parser
    for action in subparsers:
        for child in action.choices.values():
            yield from _leaves(child)


def test_no_leaf_accepts_threads():
    leaves = list(_leaves(build_parser()))
    assert len(leaves) == 13
    assert not [leaf.prog for leaf in leaves if "--threads" in leaf._option_string_actions]


def _readme_lines():
    section = (ROOT / "README.md").read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    return [line for line in section.splitlines() if line.startswith("fatflats ")]


def _golden():
    """{README line: (exit status, stdout)} from tests/cli_golden.txt, where
    each entry is "$ <line>", "exit <status>" and then the stdout lines."""
    golden, line = {}, None
    for row in (ROOT / "tests" / "cli_golden.txt").read_text().splitlines(keepends=True):
        if row.startswith("$ fatflats "):
            line = row[2:-1]
            golden[line] = None
        elif golden[line] is None:
            golden[line] = (int(row.removeprefix("exit ")), "")
        else:
            golden[line] = (golden[line][0], golden[line][1] + row)
    return golden


def test_readme_lines_are_the_golden_lines():
    assert _readme_lines() == list(_golden())


@pytest.mark.parametrize("line", _readme_lines())
def test_readme_line_output_is_byte_identical(capsys, line):
    assert run_cli(capsys, *shlex.split(line)[1:]) == _golden()[line]
