"""Command-line surface: subcommand output, formats, exit codes."""

import json
import os
import subprocess
import sys

import pytest

from sturmia.cli import JSON_SCHEMA, RunConfig, dispatch, parse_intercept
from sturmia.repetition import repetition_characteristic
from sturmia.slope import parse_slope
from sturmia.words import standard_word

GOLDEN = parse_slope("[0;1*]")


def run_cli(*argv: str, env: dict | None = None) -> subprocess.CompletedProcess:
    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run(
        [sys.executable, "-m", "sturmia.cli", *argv],
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
        expected = repetition_characteristic(GOLDEN, int(m_text))
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


def test_run_config_round_trip():
    config = RunConfig("[0;1*]", 24, "sigma0", "json", False)
    assert RunConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config


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
