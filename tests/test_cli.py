"""Command-line surface: subcommand output, formats, exit codes."""

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sturmia import cli, rauzy
from sturmia.cli import JSON_SCHEMA, dispatch, parse_intercept
from sturmia.errors import DepthError
from sturmia.factorization import characteristic_factorizations
from sturmia.intercept import (
    add_integer,
    integer_window,
    max_certified_length,
    sturmian_prefix,
)
from sturmia.ostrowski import encode
from sturmia.rauzy import build_graph, count_turns
from sturmia.slope import interval_locate, parse_slope
from sturmia.words import characteristic_prefix, language_length, standard_word
from test_intercept import extensions, seeded_finite_slopes

GOLDEN = parse_slope("[0;1*]")


def run_cli(
    *argv: str, env: dict | None = None, module: str = "sturmia.cli"
) -> subprocess.CompletedProcess:
    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True,
        text=True,
        env=merged,
    )


def test_word_prefix_golden():
    proc = run_cli("word", "prefix", "--slope", "[0;1*]", "--len", "8")
    assert proc.returncode == 0
    assert proc.stdout == "10110101\n"


def test_word_standard_action():
    proc = run_cli("word", "standard", "--slope", "[0;1*]", "--level", "4")
    assert proc.stdout.strip() == "10110"


def test_word_nonzero_intercept():
    shifted = run_cli("word", "prefix", "--slope", "[0;1*]", "--intercept", "2", "--len", "10")
    plain = run_cli("word", "prefix", "--slope", "[0;1*]", "--len", "12")
    assert shifted.stdout.strip() == plain.stdout.strip()[2:]


def test_repetition_csv_matches_characteristic():
    proc = run_cli(
        "repetition", "--slope", "[0;1*]", "--intercept", "0", "--m-max", "7"
    )
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "m,r_closed,r_direct,case"
    assert len(lines) == 8
    for line in lines[1:]:
        m_text, closed, direct, _case = line.split(",")
        expected = GOLDEN.q(interval_locate(int(m_text), GOLDEN).n)
        assert int(closed) == expected
        assert int(direct) == expected
    assert proc.returncode == 0


def test_repetition_json_rows():
    proc = run_cli(
        "repetition",
        "--slope", "[0;2,(1)*]",
        "--m-max", "5",
        "--format", "json",
    )
    payload = json.loads(proc.stdout)
    assert payload["result"]["failures"] == 0
    assert [row["m"] for row in payload["result"]["rows"]] == [1, 2, 3, 4, 5]


def test_torsion_json_golden_mod_two():
    proc = run_cli("torsion", "--slope", "[0;1*]", "-N", "2")
    payload = json.loads(proc.stdout)
    assert proc.returncode == 0
    result = payload["result"]
    assert result["found"] is True
    assert result["k"] == 3
    assert result["support"] == [1]
    assert len(result["state_trace"]) == result["k"] + 1
    # identity: q(n+k) - q(n) = N * decoded quotient, support strictly inside
    assert all(result["n"] < s < result["n"] + result["k"] for s in result["support"])


def test_torsion_not_found_exit_code():
    proc = run_cli("torsion", "--slope", "[0;1*]", "-N", "7", "--k-max", "3")
    payload = json.loads(proc.stdout)
    assert proc.returncode == 1
    assert payload["result"]["found"] is False
    assert payload["result"]["reason"]


def test_python_m_sturmia_runs_the_cli():
    proc = run_cli("--help", module="sturmia")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage:")
    proc = run_cli("torsion", "--slope", "[0;1*]", "-N", "0", "--n", "4", module="sturmia")
    assert proc.returncode == 2
    assert (proc.stdout, proc.stderr) == ("", "error: modulus must be >= 2, got 0\n")


def test_json_envelope_schema():
    proc = run_cli("torsion", "--slope", "[0;1*]", "-N", "2")
    payload = json.loads(proc.stdout)
    assert set(JSON_SCHEMA["required"]) <= set(payload)
    config_required = JSON_SCHEMA["properties"]["config"]["required"]
    assert set(config_required) <= set(payload["config"])
    assert isinstance(payload["result"], dict)


def test_json_output_is_deterministic():
    first = run_cli("rauzy", "--slope", "[0;2,1,3,(2,1)*]", "--m", "9", "--format", "json")
    second = run_cli("rauzy", "--slope", "[0;2,1,3,(2,1)*]", "--m", "9", "--format", "json")
    assert first.stdout == second.stdout


def test_ostrowski_round_trip_through_cli():
    encoded = run_cli(
        "ostrowski", "--slope", "[0;2,1,3,(2,1)*]", "--encode", "100", "--format", "json"
    )
    digits = json.loads(encoded.stdout)["result"]["digits"]
    digit_text = ",".join(str(b) for b in digits)
    decoded = run_cli("ostrowski", "--slope", "[0;2,1,3,(2,1)*]", "--decode", digit_text)
    assert "value=100" in decoded.stdout


def test_rauzy_dot_output():
    proc = run_cli("rauzy", "--slope", "[0;1*]", "--m", "3", "--format", "dot")
    assert proc.stdout.startswith("digraph")
    assert '"101"' in proc.stdout


def test_factorize_word_modes():
    complete = run_cli("factorize", "--word", "0001")
    assert complete.stdout.strip() == "00 01"
    stuck = run_cli("factorize", "--word", "10000")
    assert stuck.returncode == 0
    assert "no factorization" in stuck.stdout


def test_factorize_characteristic_cases():
    proc = run_cli("factorize", "--slope", "[0;2,3,(1,2)*]", "--format", "json")
    payload = json.loads(proc.stdout)
    assert payload["result"]["ok"] is True
    assert payload["result"]["case"] == "a1>=2"
    assert proc.returncode == 0


def test_verify_single_criterion():
    proc = run_cli("verify", "--only", "8")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("# corpus seed")
    assert "[PASS] criterion  8" in lines[1]


def test_usage_errors_exit_two():
    bad_slope = run_cli("word", "prefix", "--slope", "bogus", "--len", "8")
    assert bad_slope.returncode == 2
    assert "error:" in bad_slope.stderr
    bad_digits = run_cli("ostrowski", "--slope", "[0;1*]", "--decode", "2,0")
    assert bad_digits.returncode == 2
    bad_flag = run_cli("word", "prefix", "--slope", "[0;1*]", "--format", "dot")
    assert bad_flag.returncode == 2


def test_repetition_rejects_m_max_below_one():
    for extra in ((), ("--no-check",)):
        proc = run_cli("repetition", "--slope", "[0;1*]", "--m-max", "0", *extra)
        assert proc.returncode == 2
        assert proc.stderr == "error: --m-max must be >= 1, got 0\n"
        assert proc.stdout == ""


# Finite-slope windows whose cross-check prefix, shifted by the residue it
# reads, runs past the q_8 - 1 = 33 letters of the word of [0;1,1,1,1,1,1,1,1],
# each with the number of rows that the longest prefix left checks
FINITE_REPETITION = [
    (["--intercept", "16", "--depth", "7", "--m-max", "8"], 8),
    (["--intercept", "19", "--depth", "7", "--m-max", "8"], 6),
    (["--intercept", "7", "--depth", "8", "--m-max", "13"], 12),
    (["--intercept", "10", "--depth", "8", "--m-max", "13"], 12),
]


def repetition_json(argv: list[str]) -> tuple[int, dict | None]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(["repetition", *argv, "--format", "json"])
    return code, json.loads(out.getvalue())["result"] if code == 0 else None


@pytest.mark.parametrize(
    "extra,checked_rows", FINITE_REPETITION, ids=[" ".join(case[0]) for case in FINITE_REPETITION]
)
def test_repetition_checks_a_finite_slope_within_its_word(extra, checked_rows):
    argv = ["--slope", "[0;1,1,1,1,1,1,1,1]", *extra]
    code, checked = repetition_json(argv)
    assert code == 0 and checked["failures"] == 0
    _, unchecked = repetition_json([*argv, "--no-check"])
    closed = [row["r_closed"] for row in unchecked["rows"]]
    assert [row["r_closed"] for row in checked["rows"]] == closed
    # the rows the word's letters cover are checked, the others left empty
    direct = [row["r_direct"] for row in checked["rows"]]
    assert direct[checked_rows:] == [None] * (len(direct) - checked_rows)
    assert direct[:checked_rows] == closed[:checked_rows]


CAPPED = ["--slope", "[0;1,1,1,1,1,1,1,1]", "--intercept", "19", "--depth", "7", "--m-max", "8"]


@pytest.mark.parametrize(
    "wrong,failures,direct",
    [
        # rows 7 and 8 read no direct value: their repeats pass the 14 letters
        (lambda m, value: value, 0, [2, 3, 3, 3, 3, 7, None, None]),
        # a repeat of 7 letters at m = 7 fits in the 14 letters, yet the
        # profile reads none
        (lambda m, value: value - (m == 7), 1, [2, 3, 3, 3, 3, 7, None, None]),
        # every row one short: rows 1 to 6 differ and row 7 fits but reads none
        (lambda m, value: value - 1, 7, [2, 3, 3, 3, 3, 7, None, None]),
        # the prefix grows for m = 1's 102, and the profile still reads 2
        (lambda m, value: value + 100 * (m == 1), 1, [2, 3, 3, 3, 3, 7, None, None]),
    ],
    ids=["unpatched", "short-at-7", "short-everywhere", "long-at-1"],
)
def test_repetition_counts_each_row_the_profile_contradicts(monkeypatch, wrong, failures, direct):
    real = cli.repetition_closed_forms

    def patched(rho, m_max):
        return [(wrong(m, value), case) for m, (value, case) in enumerate(real(rho, m_max), 1)]

    monkeypatch.setattr(cli, "repetition_closed_forms", patched)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(["repetition", *CAPPED, "--format", "json"])
    assert err.getvalue() == ""
    result = json.loads(out.getvalue())["result"]
    assert code == (1 if failures else 0) and result["failures"] == failures
    assert [row["r_direct"] for row in result["rows"]] == direct


@st.composite
def repetition_argv(draw) -> list[str]:
    quotients = draw(st.lists(st.integers(1, 4), min_size=2, max_size=9))
    if draw(st.booleans()):
        slope = "[0;" + ",".join(map(str, quotients)) + "]"
    else:
        slope = "[0;" + ",".join(map(str, quotients[:-1])) + f",{quotients[-1]}*]"
    return [
        "--slope", slope,
        "--intercept", str(draw(st.integers(0, 400))),
        "--depth", str(draw(st.integers(2, 10))),
        "--m-max", str(draw(st.integers(1, 40))),
    ]


@settings(max_examples=300, deadline=None)
@given(repetition_argv())
def test_repetition_check_never_refuses_what_no_check_answers(argv):
    if repetition_json([*argv, "--no-check"])[0] == 0:
        assert repetition_json(argv)[0] in (0, 1)


def test_depth_env_var_is_honoured():
    proc = run_cli(
        "ostrowski", "--slope", "[0;1*]", "--encode", "100", env={"STURMIA_DEPTH": "6"}
    )
    assert proc.returncode == 2
    assert "increase depth" in proc.stderr


def test_dispatch_in_process(capsys):
    code = dispatch(["word", "prefix", "--slope", "[0;1*]", "--len", "8"])
    assert code == 0
    assert capsys.readouterr().out == "10110101\n"


def test_dispatch_after_usage_error_matches_fresh_process(capsys):
    bad = ["ostrowski", "--slope", "[0;1*]"]
    fresh_bad = run_cli(*bad)
    with pytest.raises(SystemExit) as exc:
        dispatch(bad)
    assert exc.value.code == fresh_bad.returncode == 2
    assert capsys.readouterr().err == fresh_bad.stderr
    good = ["repetition", "--slope", "[0;2,(1)*]", "--m-max", "6", "--format", "json"]
    fresh_good = run_cli(*good)
    assert dispatch(good) == fresh_good.returncode == 0
    assert capsys.readouterr().out == fresh_good.stdout


def test_dispatch_reads_depth_env_on_every_call(monkeypatch, capsys):
    argv = ["ostrowski", "--slope", "[0;1*]", "--encode", "100", "--format", "json"]
    monkeypatch.setenv("STURMIA_DEPTH", "12")
    assert dispatch(argv) == 0
    assert json.loads(capsys.readouterr().out)["config"]["depth"] == 12
    monkeypatch.setenv("STURMIA_DEPTH", "6")
    assert dispatch(argv) == 2
    assert "increase depth" in capsys.readouterr().err


@pytest.mark.parametrize("level", ["2000", str(10**9)])
def test_standard_word_past_the_letter_cap_is_a_usage_error(capsys, level):
    code = dispatch(["word", "standard", "--slope", "[0;1*]", "--level", level])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_standard_word_below_the_letter_cap(capsys):
    assert dispatch(["word", "standard", "--slope", "[0;1*]", "--level", "30"]) == 0
    assert capsys.readouterr().out.strip() == standard_word(GOLDEN, 30)


def test_every_command_offers_json_through_the_envelope():
    parsers = cli.build_parsers()[1]
    for command, (_, renderers) in cli._COMMANDS.items():
        assert renderers["json"] is cli._envelope, command
        # the --format choices are the renderers' keys, the default first
        (action,) = [a for a in parsers[command]._actions if a.dest == "format"]
        assert action.choices == tuple(renderers) and action.default == action.choices[0]


def test_parse_intercept_forms():
    depth = 10
    named = parse_intercept("zero", GOLDEN, depth)
    assert set(named.digits) == {0}
    listed = parse_intercept("b:0,1,0,1", GOLDEN, depth)
    assert listed.digits == (0, 1, 0, 1)
    numbered = parse_intercept("4", GOLDEN, depth)
    assert numbered.psi(depth) == 4
    with pytest.raises(Exception):
        parse_intercept("b:0,banana", GOLDEN, depth)


# Exact output of one small argv per (subcommand, format) cell, run in-process.
# Argvs without --depth read the default of 24.
GOLDEN_OUTPUT = [
    (
        ['word', 'prefix', '--slope', '[0;1*]', '--len', '8'],
        0,
        '10110101\n',
    ),
    (
        ['word', 'standard', '--slope', '[0;2,(1)*]', '--level', '4', '--depth', '8', '--format', 'json'],
        0,
        (
            '{\n'
            '  "command": "word",\n'
            '  "config": {\n'
            '    "check": true,\n'
            '    "depth": 8,\n'
            '    "format": "json",\n'
            '    "intercept": "zero",\n'
            '    "slope": "[0;2,(1)*]"\n'
            '  },\n'
            '  "result": {\n'
            '    "length": 8,\n'
            '    "level": 4,\n'
            '    "word": "01001010"\n'
            '  }\n'
            '}\n'
        ),
    ),
    (
        ['ostrowski', '--slope', '[0;1*]', '--encode', '10', '--depth', '8'],
        0,
        'value=10 digits=0,0,1,0,0,1,0,0 support=[2, 5]\n',
    ),
    (
        ['ostrowski', '--slope', '[0;1*]', '--decode', '0,0,1,0,1', '--format', 'json'],
        0,
        (
            '{\n'
            '  "command": "ostrowski",\n'
            '  "config": {\n'
            '    "check": true,\n'
            '    "depth": 24,\n'
            '    "format": "json",\n'
            '    "intercept": null,\n'
            '    "slope": "[0;1*]"\n'
            '  },\n'
            '  "result": {\n'
            '    "digits": [\n'
            '      0,\n'
            '      0,\n'
            '      1,\n'
            '      0,\n'
            '      1\n'
            '    ],\n'
            '    "support": [\n'
            '      2,\n'
            '      4\n'
            '    ],\n'
            '    "value": 7\n'
            '  }\n'
            '}\n'
        ),
    ),
    (
        ['ostrowski', '--slope', '[0;1*]', '--encode', '10', '--depth', '6', '--format', 'csv'],
        0,
        (
            'index,digit\n'
            '0,0\n'
            '1,0\n'
            '2,1\n'
            '3,0\n'
            '4,0\n'
            '5,1\n'
        ),
    ),
    # a finite slope encodes at its depth D = 3, not at the default depth
    (
        ['ostrowski', '--slope', '[0;3,2,2]', '--encode', '5'],
        0,
        'value=5 digits=2,1,0 support=[0, 1]\n',
    ),
    (
        ['ostrowski', '--slope', '[0;3,2,2]', '--encode', '0'],
        0,
        'value=0 digits=0,0,0 support=[]\n',
    ),
    (
        ['ostrowski', '--slope', '[0;3,2,2]', '--encode', '16', '--format', 'csv'],
        0,
        (
            'index,digit\n'
            '0,2\n'
            '1,0\n'
            '2,2\n'
        ),
    ),
    (
        ['intercept', '--slope', '[0;2,(1)*]', '--intercept', 'b:0,1,0,0,1', '--depth', '5'],
        0,
        (
            'digits=0,1,0,0,1\n'
            'support=[1, 4] residue=10\n'
            'class=non-zero witness=None\n'
            'complement=1,0,0,0\n'
        ),
    ),
    (
        ['intercept', '--slope', '[0;1*]', '--intercept', 'sigma0', '--depth', '4', '--format', 'json'],
        0,
        (
            '{\n'
            '  "command": "intercept",\n'
            '  "config": {\n'
            '    "check": true,\n'
            '    "depth": 4,\n'
            '    "format": "json",\n'
            '    "intercept": "sigma0",\n'
            '    "slope": "[0;1*]"\n'
            '  },\n'
            '  "result": {\n'
            '    "class": "sigma0-tail",\n'
            '    "complement": {\n'
            '      "error": "sigma intercepts are excluded from complementation"\n'
            '    },\n'
            '    "depth": 4,\n'
            '    "digits": [\n'
            '      0,\n'
            '      1,\n'
            '      0,\n'
            '      1\n'
            '    ],\n'
            '    "residue": 4,\n'
            '    "support": [\n'
            '      1,\n'
            '      3\n'
            '    ],\n'
            '    "witness": 1\n'
            '  }\n'
            '}\n'
        ),
    ),
    (
        ['rauzy', '--slope', '[0;1*]', '--m', '4'],
        0,
        'm=4 level=(n=4, l=0, r=2) cycles=(5, 3) common=3 turns=1\n',
    ),
    (
        ['rauzy', '--slope', '[0;3,2,2]', '--m', '3'],
        0,
        'm=3 level=(n=1, l=1, r=2) cycles=(3, 4) common=3 turns=1\n',
    ),
    # an integer intercept on a finite slope is encoded at its depth D = 3,
    # not at the default depth 24: these are the lines --depth 3 prints
    (
        ['word', 'prefix', '--slope', '[0;3,2,2]', '--intercept', '5', '--len', '3'],
        0,
        '100\n',
    ),
    (
        ['intercept', '--slope', '[0;3,2,2]', '--intercept', '5'],
        0,
        'digits=2,1,0\nsupport=[0, 1] residue=5\nclass=non-zero witness=None\ncomplement=0\n',
    ),
    (
        ['repetition', '--slope', '[0;3,2,2]', '--intercept', '5', '--m-max', '3'],
        0,
        'm,r_closed,r_direct,case\n1,2,2,6\n2,2,2,7\n3,4,4,7\n',
    ),
    # so is a named intercept, at min(depth, D): the lines --depth 3 prints
    (
        ['intercept', '--slope', '[0;3,2,2]', '--intercept', 'zero'],
        0,
        (
            'digits=0,0,0\nsupport=[] residue=0\nclass=natural-integer witness=1\n'
            'complement unavailable: natural-integer windows have no complement\n'
        ),
    ),
    (
        ['intercept', '--slope', '[0;3,2,2]', '--intercept', 'sigma0'],
        0,
        (
            'digits=0,2,0\nsupport=[1] residue=6\nclass=sigma0-tail witness=1\n'
            'complement unavailable: sigma intercepts are excluded from complementation\n'
        ),
    ),
    (
        ['word', 'prefix', '--slope', '[0;3,2,2]', '--intercept', 'sigma0', '--len', '3'],
        0,
        '000\n',
    ),
    (
        ['word', 'prefix', '--slope', '[0;3,2,2]', '--intercept', 'sigma1', '--len', '0'],
        0,
        '\n',
    ),
    (
        ['rauzy', '--slope', '[0;1*]', '--m', '10000'],
        0,
        'm=10000 level=(n=19, l=0, r=944) cycles=(6765, 4181) common=945 turns=1\n',
    ),
    (
        ['rauzy', '--slope', '[0;1*]', '--m', '4', '--depth', '8', '--format', 'json'],
        0,
        (
            '{\n'
            '  "command": "rauzy",\n'
            '  "config": {\n'
            '    "check": true,\n'
            '    "depth": 8,\n'
            '    "format": "json",\n'
            '    "intercept": null,\n'
            '    "slope": "[0;1*]"\n'
            '  },\n'
            '  "result": {\n'
            '    "characteristic_turns": 1,\n'
            '    "common_path_length": 3,\n'
            '    "level": {\n'
            '      "l": 0,\n'
            '      "n": 4,\n'
            '      "r": 2\n'
            '    },\n'
            '    "m": 4,\n'
            '    "other_cycle_length": 3,\n'
            '    "referent_cycle_length": 5\n'
            '  }\n'
            '}\n'
        ),
    ),
    (
        ['rauzy', '--slope', '[0;1*]', '--m', '2', '--format', 'dot'],
        0,
        (
            'digraph rauzy {\n'
            '  "01" [peripheries=2];\n'
            '  "10" [shape=box];\n'
            '  "11";\n'
            '  "01" -> "10";\n'
            '  "01" -> "11" [style=bold];\n'
            '  "10" -> "01" [style=bold];\n'
            '  "11" -> "10" [style=bold];\n'
            '}\n'
        ),
    ),
    (
        ['repetition', '--slope', '[0;1*]', '--intercept', '2', '--m-max', '4', '--depth', '8'],
        0,
        (
            'm,r_closed,r_direct,case\n'
            '1,1,1,8\n'
            '2,3,3,4\n'
            '3,3,3,4\n'
            '4,5,5,2\n'
        ),
    ),
    (
        ['repetition', '--slope', '[0;1*]', '--m-max', '2', '--no-check', '--depth', '8', '--format', 'json'],
        0,
        (
            '{\n'
            '  "command": "repetition",\n'
            '  "config": {\n'
            '    "check": false,\n'
            '    "depth": 8,\n'
            '    "format": "json",\n'
            '    "intercept": "zero",\n'
            '    "slope": "[0;1*]"\n'
            '  },\n'
            '  "result": {\n'
            '    "failures": 0,\n'
            '    "rows": [\n'
            '      {\n'
            '        "case": "2",\n'
            '        "m": 1,\n'
            '        "r_closed": 2,\n'
            '        "r_direct": null\n'
            '      },\n'
            '      {\n'
            '        "case": "2",\n'
            '        "m": 2,\n'
            '        "r_closed": 3,\n'
            '        "r_direct": null\n'
            '      }\n'
            '    ]\n'
            '  }\n'
            '}\n'
        ),
    ),
    (
        ['repetition', '--slope', '[0;2,(1)*]', '--m-max', '3', '--format', 'text'],
        0,
        (
            'm=1 r=2 direct=2 case=2\n'
            'm=2 r=3 direct=3 case=2\n'
            'm=3 r=3 direct=3 case=2\n'
        ),
    ),
    (
        ['factorize', '--word', '0001'],
        0,
        '00 01\n',
    ),
    (
        ['factorize', '--word', '10000'],
        0,
        "no factorization: leftover '10000' at 0\n",
    ),
    (
        ['factorize', '--slope', '[0;1*]', '--intercept', 'b:0,0,1,0,1,0,0,1,0,0,0,1', '--len', '20'],
        0,
        'duality ok=True prefix_ok=True orbit_ok=True length=20\n',
    ),
    (
        ['factorize', '--slope', '[0;2,3,(1,2)*]', '--len', '30'],
        0,
        'case=a1>=2 ok=True length=30\n',
    ),
    (
        ['factorize', '--slope', '[0;3,2,2]', '--len', '10'],
        0,
        'case=a1>=2 ok=True length=10\n',
    ),
    (
        ['factorize', '--word', '0110', '--depth', '8', '--format', 'json'],
        0,
        (
            '{\n'
            '  "command": "factorize",\n'
            '  "config": {\n'
            '    "check": true,\n'
            '    "depth": 8,\n'
            '    "format": "json",\n'
            '    "intercept": null,\n'
            '    "slope": null\n'
            '  },\n'
            '  "result": {\n'
            '    "blocks": [\n'
            '      "01"\n'
            '    ],\n'
            '    "complete": false,\n'
            '    "failure_at": 2,\n'
            '    "leftover": "10",\n'
            '    "word": "0110"\n'
            '  }\n'
            '}\n'
        ),
    ),
    (
        ['factorize', '--slope', '[0;1*]', '--len', '12', '--depth', '8', '--format', 'json'],
        0,
        (
            '{\n'
            '  "command": "factorize",\n'
            '  "config": {\n'
            '    "check": true,\n'
            '    "depth": 8,\n'
            '    "format": "json",\n'
            '    "intercept": null,\n'
            '    "slope": "[0;1*]"\n'
            '  },\n'
            '  "result": {\n'
            '    "case": "a1=1,a2=1",\n'
            '    "first": "101101011011",\n'
            '    "ok": true,\n'
            '    "second": "101101011011"\n'
            '  }\n'
            '}\n'
        ),
    ),
    (
        ['torsion', '--slope', '[0;1*]', '-N', '7', '--k-max', '3', '--depth', '8'],
        1,
        (
            '{\n'
            '  "command": "torsion",\n'
            '  "config": {\n'
            '    "check": true,\n'
            '    "depth": 8,\n'
            '    "format": "json",\n'
            '    "intercept": null,\n'
            '    "slope": "[0;1*]"\n'
            '  },\n'
            '  "result": {\n'
            '    "found": false,\n'
            '    "k": null,\n'
            '    "modulus": 7,\n'
            '    "n": 0,\n'
            '    "quotient_digits": null,\n'
            '    "reason": "no admissible k <= 3 from n = 0",\n'
            '    "state_trace": [\n'
            '      [\n'
            '        1,\n'
            '        0\n'
            '      ],\n'
            '      [\n'
            '        1,\n'
            '        1\n'
            '      ],\n'
            '      [\n'
            '        2,\n'
            '        1\n'
            '      ],\n'
            '      [\n'
            '        3,\n'
            '        2\n'
            '      ]\n'
            '    ],\n'
            '    "support": null\n'
            '  }\n'
            '}\n'
        ),
    ),
    (
        ['torsion', '--slope', '[0;1*]', '-N', '2', '--format', 'text'],
        0,
        'N=2 n=0 k=3 support=[1] digits=[0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]\n',
    ),
    (
        ['torsion', '--slope', '[0;1*]', '-N', '7', '--k-max', '3', '--format', 'text'],
        1,
        'N=7 n=0: no admissible k <= 3 (no admissible k <= 3 from n = 0)\n',
    ),
    (
        ['torsion', '--slope', '[0;1*]', '-N', '65', '--format', 'text'],
        1,
        'N=65 n=0: no admissible k <= 40 (no admissible k <= 40 from n = 0)\n',
    ),
    (
        ['verify', '--only', '8', '--only', '13'],
        0,
        (
            '# corpus seed 20260814\n'
            '[PASS] criterion  8 characteristic-factorizations: three quotient cases verified to length 400; central split holds for all 1549 m + p = q_N - 2 with N >= 2, q_N <= 150 on 5 slopes\n'
            '[PASS] criterion 13 dio-estimate: golden window value 2.617991 within 1e-3 of 1+phi; family/generic gap below one window term on two slopes\n'
        ),
    ),
    (
        ['verify', '--only', '8', '--depth', '8', '--format', 'json'],
        0,
        (
            '{\n'
            '  "command": "verify",\n'
            '  "config": {\n'
            '    "check": true,\n'
            '    "depth": 8,\n'
            '    "format": "json",\n'
            '    "intercept": null,\n'
            '    "slope": null\n'
            '  },\n'
            '  "result": {\n'
            '    "passed": true,\n'
            '    "results": [\n'
            '      {\n'
            '        "detail": "three quotient cases verified to length 400; central split holds for all 1549 m + p = q_N - 2 with N >= 2, q_N <= 150 on 5 slopes",\n'
            '        "name": "characteristic-factorizations",\n'
            '        "number": 8,\n'
            '        "passed": true\n'
            '      }\n'
            '    ],\n'
            '    "seed": 20260814\n'
            '  }\n'
            '}\n'
        ),
    ),
    (
        ['verify', '--only', '13', '--only', '8', '--format', 'csv'],
        0,
        (
            '# seed=20260814\n'
            'number,name,passed,detail\n'
            '13,dio-estimate,1,"golden window value 2.617991 within 1e-3 of 1+phi; family/generic gap below one window term on two slopes"\n'
            '8,characteristic-factorizations,1,"three quotient cases verified to length 400; central split holds for all 1549 m + p = q_N - 2 with N >= 2, q_N <= 150 on 5 slopes"\n'
        ),
    ),
]

USAGE_ERRORS = [
    (['word', 'prefix', '--slope', 'bogus'], "error: not a slope literal: 'bogus'\n"),
    (['word', 'standard', '--slope', '[0;1*]', '--level', '2000'], 'error: standard word s_2000 has more than 100000000 letters\n'),
    (['word', 'prefix', '--slope', '[0;1000*]', '--len', '100000001'], 'error: prefix of length 100000001 has more than 100000000 letters\n'),
    (['factorize', '--slope', '[0;1000*]', '--len', '100000001'], 'error: prefix of length 100000001 has more than 100000000 letters\n'),
    (['factorize', '--slope', '[0;3,2,2]', '--len', '17'], 'error: prefix of length 17 passes the 16 letters the word of [0;3,2,2] certifies\n'),
    (['ostrowski', '--slope', '[0;1*]', '--decode', ''], "error: bad digit list ''\n"),
    (['ostrowski', '--slope', '[0;1*]', '--decode', '2,0'], 'error: b_1=2 out of range\n'),
    (['ostrowski', '--slope', '[0;1*]', '--encode', '100', '--depth', '6'], 'error: 100 >= q_6 = 13; increase depth\n'),
    (['ostrowski', '--slope', '[0;3,2,2]', '--encode', '17'], 'error: shift 17 passes the 16 letters the word of [0;3,2,2] certifies\n'),
    (['intercept', '--slope', '[0;1*]', '--intercept', 'b:'], "error: bad digit list in intercept spec 'b:'\n"),
    (['intercept', '--slope', '[0;1*]', '--intercept', 'nope'], "error: intercept spec 'nope' is not an integer, a b: digit list, or one of zero|sigma0|sigma1\n"),
    (['rauzy', '--slope', '[0;1*]', '--m', '0'], 'error: window length must be >= 1, got 0\n'),
    (['rauzy', '--slope', '[0;1', '--m', '3', '--format', 'dot'], "error: not a slope literal: '[0;1'\n"),
    (['rauzy', '--slope', '[0;1*]', '--m', '10000', '--format', 'dot'], 'error: window length 10000 needs 100010000 letters, more than 100000000\n'),
    (['rauzy', '--slope', '[0;3,2,2]', '--m', '30'], 'error: window length 30 needs more than the 16 letters the word of [0;3,2,2] certifies\n'),
    (['rauzy', '--slope', '[0;3,2,2]', '--m', '5'], 'error: window length 5 needs more than the 16 letters the word of [0;3,2,2] certifies\n'),
    (['rauzy', '--slope', '[0;41,44,29]', '--m', '5000'], 'error: window length 5000 needs more than the 52385 letters the word of [0;41,44,29] certifies\n'),
    (['word', 'prefix', '--slope', '[0;3,2,2]', '--len', '20'], 'error: prefix of length 20 passes the 16 letters the word of [0;3,2,2] certifies\n'),
    (['word', 'prefix', '--slope', '[0;3,2,2]', '--intercept', '17', '--len', '3'], 'error: shift 17 passes the 16 letters the word of [0;3,2,2] certifies\n'),
    (['repetition', '--slope', '[0;1*]', '--m-max', '0'], 'error: --m-max must be >= 1, got 0\n'),
    (['repetition', '--slope', '[0;1000*]', '--intercept', 'zero', '--depth', '4', '--no-check', '--m-max', '100000'], 'error: --m-max must be at most 10000, got 100000\n'),
    (['factorize', '--word', '0201'], "error: --word expects a binary word, got '0201'\n"),
    (['factorize', '--len', '40'], 'error: --slope is required unless --word is given\n'),
    (['factorize', '--slope', '[0;1*]', '--intercept', 'sigma0'], 'error: sigma intercepts are excluded from complementation\n'),
    (['torsion', '--slope', '[0;1*]', '-N', '1'], 'error: modulus must be >= 2, got 1\n'),
    (['torsion', '--slope', '[0;1*]', '-N', '0', '--n', '4'], 'error: modulus must be >= 2, got 0\n'),
    (['torsion', '--slope', '[0;1*]', '-N', '1', '--n', '4'], 'error: modulus must be >= 2, got 1\n'),
    (['torsion', '--slope', '[0;1*]', '-N', '6250'], 'error: the state cycle mod 6250 does not close within 32768 levels; give n\n'),
    (['torsion', '--slope', '[0;1*]', '-N', '3', '--n', '100000000'], 'error: rank n + k_max = 100000040 is out of reach: continuants through q_100000042 would hold more than 33554432 bits\n'),
    (['torsion', '--slope', '[0;1*]', '-N', '3', '--n', '30000'], 'error: rank n + k_max = 30040 is out of reach: continuants through q_30042 would hold more than 33554432 bits\n'),
    (['ostrowski', '--slope', '[0;1*]', '--encode', '5', '--depth', '100000'], 'error: continuants through q_100000 would hold more than 33554432 bits\n'),
    (['verify', '--only', '99'], 'error: criteria are numbered 1..14, got 99\n'),
    (['verify', '--depth', '-1', '--only', '8', '--format', 'json'], 'error: --depth must be at least 2, got -1\n'),
    (['intercept', '--slope', '[0;1*]', '--intercept', 'zero', '--depth', '1'], 'error: --depth must be at least 2, got 1\n'),
    (['intercept', '--slope', '[0;1*]', '--intercept', 'zero', '--depth', '1000000000000'], 'error: continuants through q_1000000000000 would hold more than 33554432 bits\n'),
    (['repetition', '--slope', '[0;1*]', '--depth', '1000000000000'], 'error: continuants through q_1000000000000 would hold more than 33554432 bits\n'),
    (['factorize', '--word', '0001', '--slope', 'bogus', '--format', 'json'], "error: not a slope literal: 'bogus'\n"),
]


def test_every_finite_slope_reader_refuses_past_the_letters_its_word_certifies(
    monkeypatch, capsys
):
    # Each reader answers at its last length within the q_D - 1 letters the
    # word certifies and refuses the next one with the same ending, through
    # the library and through the CLI.
    monkeypatch.delenv("STURMIA_DEPTH", raising=False)
    rng = random.Random(40)
    slopes = [parse_slope("[0;3,2,2]"), parse_slope("[0;41,44,29]")]
    slopes += seeded_finite_slopes(30, 40)
    shift_edges = 0
    for slope in slopes:
        top = slope.known_depth
        letters = slope.q(top) - 1
        ending = f" the {letters} letters the word of {slope} certifies"

        def refused(call, *args):
            with pytest.raises(DepthError) as refusal:
                call(*args)
            assert str(refusal.value).endswith(ending), (slope, call, args)

        def cli(*argv):
            code = dispatch([argv[0], "--slope", str(slope), *argv[1:]])
            out, err = capsys.readouterr()
            return code, out, err

        assert len(characteristic_prefix(slope, letters)) == letters
        refused(characteristic_prefix, slope, letters + 1)
        assert cli("word", "prefix", "--len", str(letters)) == (0, characteristic_prefix(slope, letters) + "\n", "")
        code, _, err = cli("word", "prefix", "--len", str(letters + 1))
        assert code == 2 and err.endswith(ending + "\n")
        # the products of the characteristic word spell those letters
        assert characteristic_factorizations(slope, letters).ok
        refused(characteristic_factorizations, slope, letters + 1)
        code, out, _ = cli("factorize", "--len", str(letters))
        assert code == 0 and out.endswith(f" ok=True length={letters}\n")
        code, _, err = cli("factorize", "--len", str(letters + 1))
        assert code == 2 and err.endswith(ending + "\n")
        # the factors of length m show within m + q_{n+1} + q_n + 2 letters,
        # those of an infinite extension of the quotients as long as they fit
        wider = extensions(slope)[0]
        m = 0
        while m + 1 < letters and language_length(wider, m + 1) <= letters:
            m += 1
        if m:
            assert language_length(slope, m) == language_length(wider, m)
            graph = build_graph(slope, m)
            assert count_turns(0, m, slope) >= 0
            code, out, _ = cli("rauzy", "--m", str(m))
            assert code == 0 and out.startswith(f"m={m} ")
            assert f"cycles=({len(graph.referent_cycle)}, {len(graph.other_cycle)})" in out
        for call in (language_length, build_graph, lambda slope, m: count_turns(0, m, slope)):
            refused(call, slope, m + 1)
        code, _, err = cli("rauzy", "--m", str(m + 1))
        assert code == 2 and err.endswith(ending + "\n")
        # an integer shift, encoded at D: q_D - 1 is the last
        for depth in (top, 24):
            assert integer_window(letters, slope, depth) == encode(letters, slope, top)
            refused(integer_window, letters + 1, slope, depth)
        code, out, _ = cli("ostrowski", "--encode", str(letters))
        assert code == 0 and out.startswith(f"value={letters} ")
        code, _, err = cli("ostrowski", "--encode", str(letters + 1))
        assert code == 2 and err.endswith(ending + "\n")
        # a window shifted k >= 1 letters: its word ends before q_D - 1 letters
        rho = encode(rng.randint(1, letters), slope, top)
        last = max_certified_length(rho)
        assert len(sturmian_prefix(rho, last)) == last
        refused(sturmian_prefix, rho, last + 1)
        # every shift that leaves the window a level, q_2 + q_1 letters,
        # answers or is refused by the letters the word certifies
        answered = False
        for k in range(1, letters - slope.q(2) - slope.q(1) + 1):
            try:
                add_integer(rho, k)
                answered = True
            except DepthError as exc:
                assert str(exc).endswith(ending), (slope, rho, k)
                shift_edges += answered
                answered = False
    assert shift_edges > 10


@pytest.mark.parametrize(
    "argv,code,out", GOLDEN_OUTPUT, ids=[" ".join(case[0]) for case in GOLDEN_OUTPUT]
)
def test_golden_output(monkeypatch, capsys, argv, code, out):
    monkeypatch.delenv("STURMIA_DEPTH", raising=False)
    assert dispatch(argv) == code
    captured = capsys.readouterr()
    assert captured.out == out
    assert captured.err == ""


@pytest.mark.parametrize(
    "argv,err", USAGE_ERRORS, ids=[" ".join(case[0]) for case in USAGE_ERRORS]
)
def test_usage_error_lines(monkeypatch, capsys, argv, err):
    monkeypatch.delenv("STURMIA_DEPTH", raising=False)
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


@pytest.mark.parametrize(
    "value,err",
    [
        ("1", "error: STURMIA_DEPTH must be at least 2, got 1\n"),
        ("x", "error: STURMIA_DEPTH must be an integer, got 'x'\n"),
        ("100000", "error: continuants through q_100000 would hold more than 33554432 bits\n"),
    ],
)
def test_depth_env_var_is_validated(monkeypatch, capsys, value, err):
    monkeypatch.setenv("STURMIA_DEPTH", value)
    argv = ["intercept", "--slope", "[0;1*]", "--intercept", "zero"]
    assert dispatch(argv) == 2
    assert capsys.readouterr() == ("", err)
    # The flag takes precedence over the environment, and 2 is accepted.
    assert dispatch([*argv, "--depth", "2"]) == 0
    assert capsys.readouterr().out.startswith("digits=0,0\n")


# Shallow zero windows: the class verdict and the complement's refusal agree
# at the smallest accepted depth as they do at depth 3.
SHALLOW_INTERCEPT_OUTPUT = [
    (
        ['intercept', '--slope', '[0;1*]', '--intercept', 'zero', '--depth', '2'],
        'digits=0,0\n'
        'support=[] residue=0\n'
        'class=natural-integer witness=1\n'
        'complement unavailable: natural-integer windows have no complement\n',
    ),
    (
        ['intercept', '--slope', '[0;1*]', '--intercept', 'zero', '--depth', '3'],
        'digits=0,0,0\n'
        'support=[] residue=0\n'
        'class=natural-integer witness=1\n'
        'complement unavailable: natural-integer windows have no complement\n',
    ),
]


@pytest.mark.parametrize(
    "argv,out", SHALLOW_INTERCEPT_OUTPUT, ids=[" ".join(case[0]) for case in SHALLOW_INTERCEPT_OUTPUT]
)
def test_shallow_intercept_verdicts(monkeypatch, capsys, argv, out):
    monkeypatch.delenv("STURMIA_DEPTH", raising=False)
    assert dispatch(argv) == 0
    assert capsys.readouterr() == (out, "")


# Seeded argv fuzz over every subcommand, with small sizes only: whatever the
# input, dispatch returns 0, 1 or 2, and argparse's SystemExit(2) is the one
# exception that may leave it.
def fuzz_slope(rng) -> str:
    quotients = [str(rng.randint(1, rng.choice((3, 9, 60)))) for _ in range(rng.randint(1, 5))]
    head = quotients[:-2]
    tail = rng.choice((None, quotients[-1:], quotients[-2:]))
    if tail is None:
        return "[0;" + ",".join(quotients) + "]"
    period = f"{tail[0]}*" if len(tail) == 1 else "(" + ",".join(tail) + ")*"
    return "[0;" + ",".join(head + [period]) + "]"


def fuzz_intercept(rng) -> str:
    kind = rng.randrange(3)
    if kind == 0:
        return rng.choice(("zero", "sigma0", "sigma1"))
    if kind == 1:
        return str(rng.randint(-5, 10**rng.randint(1, 6)))
    return "b:" + ",".join(str(rng.randint(-2, 4)) for _ in range(rng.randint(0, 14)))


def fuzz_argv(rng) -> list[str]:
    # verify runs fixed corpora whatever its input, so it is drawn less often
    command = rng.choices(
        ("word", "ostrowski", "intercept", "rauzy", "repetition", "factorize", "torsion", "verify"),
        weights=(4, 4, 4, 4, 4, 4, 4, 1),
    )[0]
    slope = ["--slope", fuzz_slope(rng)]
    intercept = ["--intercept", fuzz_intercept(rng)]
    length = ["--len", str(rng.randint(-2, 300))]
    if command == "word":
        argv = [command, rng.choice(("prefix", "standard")), *slope, *length]
        argv += ["--level", str(rng.randint(-1, 6)), *intercept]
        formats = ("text", "json")
    elif command == "ostrowski":
        argv = [command, *slope]
        if rng.random() < 0.5:
            argv += ["--encode", str(rng.randint(-3, 10**rng.randint(1, 5)))]
        else:
            argv += ["--decode", ",".join(str(rng.randint(-1, 4)) for _ in range(rng.randint(0, 9)))]
        formats = ("text", "json", "csv")
    elif command == "intercept":
        argv, formats = [command, *slope, *intercept], ("text", "json")
    elif command == "rauzy":
        argv, formats = [command, *slope, "--m", str(rng.randint(-2, 60))], ("text", "json", "dot")
    elif command == "repetition":
        argv = [command, *slope, *intercept, "--m-max", str(rng.randint(-2, 40))]
        argv += ["--no-check"] if rng.random() < 0.3 else []
        formats = ("csv", "json", "text")
    elif command == "factorize":
        argv = [command, *length]
        argv += slope if rng.random() < 0.7 else []
        argv += intercept if rng.random() < 0.3 else []
        if rng.random() < 0.3:
            argv += ["--word", "".join(rng.choice("01") for _ in range(rng.randint(0, 40)))]
        formats = ("text", "json")
    elif command == "torsion":
        argv = [command, *slope, "-N", str(rng.randint(-1, 12))]
        argv += ["--n", str(rng.randint(-2, 30))] if rng.random() < 0.5 else []
        argv += ["--k-max", str(rng.randint(-1, 40))]
        formats = ("json", "text")
    else:
        argv, formats = [command, "--only", str(rng.randint(-1, 16))], ("text", "json", "csv")
    if rng.random() < 0.7:
        argv += ["--depth", str(rng.randint(-1, 14))]
    argv += ["--format", rng.choice(formats + ("bogus",) if rng.random() < 0.05 else formats)]
    return argv


def test_dispatch_fuzz_exit_codes(monkeypatch, capsys):
    monkeypatch.delenv("STURMIA_DEPTH", raising=False)
    rng = random.Random(20261018)
    codes = set()
    for _ in range(400):
        argv = fuzz_argv(rng)
        try:
            code = dispatch(argv)
        except SystemExit as exc:
            code = exc.code
            if code != 2:
                raise AssertionError(f"{argv}: argparse exited with {code}")
        err = capsys.readouterr().err
        if code not in (0, 1, 2) or "Traceback" in err:
            raise AssertionError(f"{argv}: exit {code}, stderr {err!r}")
        codes.add(code)
    assert {0, 2} <= codes


# dispatch reads well-formed argv off a table of the command's parser, and
# parses everything else with the full one; either way the namespace, the
# exit and every byte argparse prints are those of the full parser.
def parse_outcome(parse, argv):
    """The parsed namespace or the SystemExit code, with what parsing printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def assert_parses_as_the_full_parser(argv):
    expected = parse_outcome(lambda argv: cli.build_parsers()[0].parse_args(argv), argv)
    assert parse_outcome(cli._parse, argv) == expected, argv


MALFORMED_ARGV = [
    [],
    ["-h"],
    ["bogus"],
    ["--depth", "3", "word", "prefix", "--slope", "[0;1*]"],
    ["word", "prefix", "--sl", "[0;1*]"],
    ["word", "prefix", "--slope", "[0;1*]", "--bogus"],
    ["word", "-h"],
    ["torsion", "--slope", "[0;1*]", "-N"],
    ["ostrowski", "--slope", "[0;1*]", "--encode", "3", "--decode", "1,0"],
    ["word", "prefix", "--slope", "[0;1*]", "--", "extra"],
    ["--", "word", "prefix", "--slope", "[0;1*]"],
]

# Argv that start with a command but leave the table path for the full
# parser: with those of MALFORMED_ARGV (help, an abbreviation, two members
# of a group, ...), one for each way out of cli._read.
FALLBACK_ARGV = [
    ["repetition", "--slope", "[0;1*]", "--m-max=5"],
    ["torsion", "--slope", "[0;1*]", "-N3"],
    ["word", "prefix", "--", "--slope", "[0;1*]"],
    ["word", "prefix", "--slope", "[0;1*]", "--len", "-1"],
    ["rauzy", "--slope", "[0;1*]", "--m", "-1"],
    ["repetition", "--slope", "[0;1*]", "--no-check", "--no-check"],
    ["torsion", "--slope", "[0;1*]", "-N", "3", "--modulus", "4"],
    ["verify", "--only", "3"],
    ["word", "prefix", "--slope", "[0;1*]", "--len", "x"],
    ["word", "prefix", "--slope", "[0;1*]", "--format", "dot"],
    ["word", "", "--slope", "[0;1*]"],
    ["word", "prefix", "prefix", "--slope", "[0;1*]"],
    ["word", "--slope", "[0;1*]"],
    ["word", "prefix", "--slope", "[0;1*]", "--len"],
    ["rauzy", "--slope", "[0;1*]"],
    ["ostrowski", "--slope", "[0;1*]"],
    ["ostrowski", "extra", "--slope", "[0;1*]", "--encode", "3"],
]


@pytest.mark.parametrize(
    "argv", MALFORMED_ARGV + FALLBACK_ARGV, ids=lambda argv: " ".join(argv) or "(none)"
)
def test_malformed_argv_parse_as_the_full_parser(argv):
    assert_parses_as_the_full_parser(argv)


def table_path(argv):
    """What cli._read makes of the argv after its command: a namespace, or None."""
    return cli._read(cli._shared_parsers()[1][argv[0]], argv[1:])


def test_the_table_path_counts_a_default_object_as_absent():
    # argparse counts a group member as given only when its value is not its
    # default object, and int("0") is the cached 0
    parser = argparse.ArgumentParser(prog="t")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--a", type=int, default=0)
    group.add_argument("--b")
    table = cli._table(parser)
    assert cli._read(table, ["--a", "0"]) is None
    assert parse_outcome(parser.parse_args, ["--a", "0"])[0] == ("exit", 2)
    both = ["--a", "0", "--b", "x"]
    assert vars(cli._read(table, both)) == vars(parser.parse_args(both)) == {"a": 0, "b": "x"}


def unmirrored(parser):
    """The actions of a parser that `cli._table` takes as they are but
    argparse does not: a positional that is not a plain one-value store
    (it may take other than one value), and a str default with a type
    (argparse converts it when the flag is absent)."""
    return [
        action
        for action in parser._actions
        if (not action.option_strings and not cli._plain(action))
        or (isinstance(action.default, str) and action.type is not None)
    ]


def test_every_command_parser_is_one_the_table_mirrors():
    commands = cli.build_parsers()[1]
    assert set(commands) == set(cli._COMMANDS)
    for name, command in commands.items():
        assert unmirrored(command) == [], name
    # an edit that adds either kind of action is caught here
    converted = argparse.ArgumentParser(prog="t")
    converted.add_argument("--n", type=int, default="3")
    optional = argparse.ArgumentParser(prog="t")
    optional.add_argument("name", nargs="?")
    assert len(unmirrored(converted)) == len(unmirrored(optional)) == 1


def test_the_table_path_takes_well_formed_argv_only():
    commanded = [argv for argv in MALFORMED_ARGV if argv[:1] and argv[0] in cli._COMMANDS]
    for argv in FALLBACK_ARGV + commanded:
        assert table_path(argv) is None, argv
    # every argv of the golden cells is well formed; verify's --only appends
    # and repetition's --no-check stores a constant, so both take argparse
    for argv, _, _ in GOLDEN_OUTPUT:
        taken = table_path(argv) is not None
        assert taken == (argv[0] != "verify" and "--no-check" not in argv), argv


def test_fuzzed_argv_parse_as_the_full_parser(monkeypatch):
    rng = random.Random(20261019)
    for _ in range(1000):
        assert_parses_as_the_full_parser(fuzz_argv(rng))
    # argv=None reads the process's own arguments
    monkeypatch.setattr(sys, "argv", ["sturmia", "word", "prefix", "--slope", "[0;1*]"])
    assert parse_outcome(cli._parse, None) == parse_outcome(cli._parse, sys.argv[1:])


ARGV_TOKENS = (
    *cli._COMMANDS, "prefix", "standard", "--slope", "[0;1*]", "--slope=[0;2,(1,3)*]", "--len", "7",
    "--level", "-N", "-N3", "--n", "--k-max", "--m", "--encode", "--decode", "1,0,1", "--intercept",
    "sigma0", "--word", "0110", "--only", "--depth", "--format", "json", "dot", "--no-check",
    "-h", "--help", "--", "-", "--sl", "--bogus", "extra", "-1", "--m-max=5", "", "x",
)

# fuzzed argv, token lists, and fuzzed argv with one token inserted (a second
# --no-check or prefix, x after --len, ...)
ARGV = st.one_of(
    st.builds(fuzz_argv, st.randoms(use_true_random=False)),
    st.lists(st.sampled_from(ARGV_TOKENS), max_size=8),
    st.tuples(
        st.builds(fuzz_argv, st.randoms(use_true_random=False)),
        st.integers(0, 20),
        st.sampled_from(ARGV_TOKENS),
    ).map(lambda t: t[0][: t[1]] + [t[2]] + t[0][t[1] :]),
)


@settings(max_examples=300, deadline=None)
@given(ARGV)
def test_any_argv_parses_as_the_full_parser(argv):
    assert_parses_as_the_full_parser(argv)


def dispatch_outcome(argv):
    """dispatch's exit code (its return or SystemExit), stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = dispatch(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(ARGV)
def test_any_argv_exits_0_1_or_2(argv):
    # a bare verify runs all 14 criteria; the seeded fuzz passes --only
    assume(argv[:1] != ["verify"] or "--only" in argv)
    with mock.patch.dict(os.environ):
        os.environ.pop("STURMIA_DEPTH", None)
        code, out, err = dispatch_outcome(argv)
    assert "Traceback" not in err, (argv, err)
    if isinstance(code, tuple):
        # argparse exits with 2, or with 0 once it has printed help
        assert code[1] == 2 or (code[1] == 0 and out.startswith("usage: ")), (argv, code)
    else:
        assert code in (0, 1, 2), (argv, code, err)


def test_dispatch_matches_the_full_parser_and_json_dumps(monkeypatch):
    # the same bytes, exits included, as a dispatch that parses with the
    # full parser and renders JSON with json.dumps
    monkeypatch.delenv("STURMIA_DEPTH", raising=False)
    rng = random.Random(20261020)
    argvs = [fuzz_argv(rng) for _ in range(300)]
    argvs += [["repetition", "--slope", "[0;2,3,(1,2)*]", "--intercept", "123", "--m-max", "30", "--format", "json"]]
    ours = [dispatch_outcome(argv) for argv in argvs]
    full = cli.build_parsers()[0]
    monkeypatch.setattr(cli, "_parse", full.parse_args)
    monkeypatch.setattr(cli, "_joined", lambda value, line: json.dumps(value, sort_keys=True, indent=2))
    for argv, outcome in zip(argvs, ours):
        assert dispatch_outcome(argv) == outcome, argv
    assert sum(outcome[0] == 0 and argv[-1] == "json" for argv, outcome in zip(argvs, ours)) > 50


# JSON-like trees: str with control, non-ASCII and astral characters (lone
# surrogates included), ints of any sign and size, bool, None, and nested
# lists, tuples and str-keyed dicts.
JSON_TEXT = st.text(st.characters(exclude_categories=()))
JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**40), 10**40) | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(JSON_TEXT, inner, max_size=5),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(JSON_TREES)
def test_json_joins_the_bytes_of_json_dumps(value):
    assert cli._joined(value, "\n") == json.dumps(value, sort_keys=True, indent=2)


def test_json_refuses_a_float_and_a_key_that_is_not_a_str():
    # no command result holds either, and a future one that did would be an
    # internal error (exit 3), not a second way to write JSON
    for value, message in (
        ({"value": [1, 2.5]}, "float values have no JSON rendering"),
        ({1: 2}, "first argument must be a string, not int"),
    ):
        with pytest.raises(TypeError, match=message):
            cli._joined(value, "\n")


@pytest.mark.parametrize(
    "exc",
    [TypeError("vars() argument must have __dict__ attribute"), AssertionError("bad cycle")],
    ids=["TypeError", "AssertionError"],
)
def test_unexpected_exception_is_an_internal_error(monkeypatch, capsys, exc):
    def broken(*args):
        raise exc

    monkeypatch.setattr(cli, "standard_word", broken)
    assert dispatch(["word", "standard", "--slope", "[0;1*]"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"internal error: {exc!r}\n"


def test_a_cycle_contract_check_is_an_internal_error(monkeypatch, capsys):
    # on [0;3*], m = 7 sits at level 1 with cycles of lengths q_1 = 3 and
    # 2 q_1 + q_0 = 7; each cycle read by the other's letter swaps them
    assert dispatch(["rauzy", "--slope", "[0;3*]", "--m", "7"]) == 0
    capsys.readouterr()
    letter = rauzy._cycle_letter
    monkeypatch.setattr(rauzy, "_cycle_letter", lambda level: letter(level + 1))
    assert dispatch(["rauzy", "--slope", "[0;3*]", "--m", "7"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: AssertionError('cycle lengths (7, 3), expected (3, 7)')\n"


def test_system_exit_passes_through_dispatch(monkeypatch, capsys):
    with pytest.raises(SystemExit) as info:
        dispatch(["word", "standard", "--slope", "[0;1*]", "--bogus"])
    assert info.value.code == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err

    def leave(*args):
        raise SystemExit(5)

    monkeypatch.setattr(cli, "standard_word", leave)
    with pytest.raises(SystemExit) as info:
        dispatch(["word", "standard", "--slope", "[0;1*]"])
    assert info.value.code == 5
    assert capsys.readouterr() == ("", "")
