import argparse
import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from fatflats.cli import build_parser, main

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


def test_integers_print_as_ints(capsys):
    code, out = run_cli(capsys, "bounds", "3", "0", "2", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["e"] == 1 and payload["gamma"]["value"] == 1
    code, out = run_cli(capsys, "e", "3", "0", "2", "--certify", "--json")
    cert = json.loads(out)["certificate"]
    assert code == 0 and cert["ratio"] == 1 and cert["pieces"] == [[1, 1]]


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
    probe = (
        "import sys, fatflats; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, env=env, timeout=300)
    assert proc.returncode == 0
    assert proc.stdout.decode().strip() == "[]"


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
