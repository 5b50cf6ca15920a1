"""Command-line surface: subcommand output, formats, exit codes."""

import argparse
import contextlib
import io
import itertools
import json
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path
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
from sturmia.slope import parse_slope
from sturmia.words import characteristic_prefix, language_length, standard_word
from cli_cases import CASES, passes
from test_intercept import extensions, seeded_finite_slopes

ROOT = Path(__file__).resolve().parents[1]
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


def test_python_m_sturmia_runs_the_cli():
    proc = run_cli("--help", module="sturmia")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage:")
    proc = run_cli("torsion", "--slope", "[0;1*]", "-N", "0", "--n", "4", module="sturmia")
    assert proc.returncode == 2
    assert (proc.stdout, proc.stderr) == ("", "error: modulus must be >= 2, got 0\n")


def test_json_output_is_deterministic():
    first = run_cli("rauzy", "--slope", "[0;2,1,3,(2,1)*]", "--m", "9", "--format", "json")
    second = run_cli("rauzy", "--slope", "[0;2,1,3,(2,1)*]", "--m", "9", "--format", "json")
    assert first.stdout == second.stdout


@pytest.mark.parametrize("case", CASES, ids=[" ".join(case.argv) for case in CASES])
def test_cli_case(monkeypatch, capsys, case):
    monkeypatch.delenv("STURMIA_DEPTH", raising=False)
    try:
        code = dispatch(case.argv)
    except SystemExit as exc:  # argparse's usage errors and help
        code = exc.code
    out, err = capsys.readouterr()
    assert code == case.code
    assert passes(case.out, out), out
    assert passes(case.err, err), err


def test_every_case_has_its_own_argv():
    argvs = [tuple(case.argv) for case in CASES]
    assert len(set(argvs)) == len(argvs)


def test_every_json_case_prints_the_schema_envelope():
    config_required = JSON_SCHEMA["properties"]["config"]["required"]
    payloads = [json.loads(case.out) for case in CASES if str(case.out)[:1] == "{"]
    assert len(payloads) >= 20
    for payload in payloads:
        assert set(JSON_SCHEMA["required"]) <= set(payload)
        assert set(config_required) <= set(payload["config"])
        assert isinstance(payload["result"], dict)


def test_every_readme_example_is_a_case():
    # the sh block of README's CLI usage: each `sturmia` line, up to a pipe,
    # is a case, and each "# -> " line after it, with "..." eliding any
    # text, is a whole line of that case's output
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## CLI usage", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    cases = {tuple(case.argv): case for case in CASES}
    examples = []
    for line in block.splitlines():
        if line.startswith("sturmia "):
            words = shlex.split(line)
            argv = tuple(words[1 : words.index("|")] if "|" in words else words[1:])
            assert argv in cases, line
            examples.append(cases[argv])
        elif line.startswith("# -> "):
            pattern = ".*".join(map(re.escape, line.removeprefix("# -> ").split("...")))
            assert any(re.fullmatch(pattern, out) for out in examples[-1].out.splitlines()), line
    assert len(examples) > 10


# The calls of CI's console-script step that need a shell, so they stay out
# of the cases: the verify CSVs compared across CPU sets, the byte counts of
# the 10^7-letter word and the compares against it, the finite-slope run
# compared with its --no-check run, json.dumps's bytes, and the counts of a
# dot graph's arrows and vertices
SHELL_ONLY = {
    "sturmia verify --format csv > verify.csv",
    "taskset -c 0 sturmia verify --format csv > pinned.csv",
    "taskset -c 0,1 sturmia verify --format csv > two.csv",
    'sturmia repetition --slope "[0;2,3,(1,2)*]" --intercept 123 --m-max 30 --format json > joined.json',
    'sturmia repetition --slope "[0;1,1,1,1,1,1,1,1]" --intercept 16 --depth 7 --m-max 8 > finite.csv',
    'sturmia repetition --slope "[0;1,1,1,1,1,1,1,1]" --intercept 16 --depth 7 --m-max 8 --no-check'
    " > unchecked.csv",
    'sturmia rauzy --slope "[0;2,3,(1,2)*]" --m 40 --format dot > rauzy.dot',
    'test "$(sturmia word prefix --slope "[0;2,3,(1,2)*]" --len 10000000 | wc -c)" -eq 10000001',
    'sturmia word prefix --slope "[0;2,3,(1,2)*]" --len 10000000 > long.txt',
    'sturmia word prefix --slope "[0;2,3,(1,2)*]" --len 100000 > short.txt',
    'test "$(sturmia word prefix --slope "[0;2,3,(1,2)*]" --intercept 9999900 --len 100 --depth 30)"'
    ' = "$(cut -c 9999901-10000000 long.txt)"',
}


def test_ci_calls_sturmia_through_the_cases_or_a_shell_only_line():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    step = workflow.split("- name: Installed console script, run from outside the checkout\n", 1)[1]
    lines = step.split("run: |\n", 1)[1].splitlines()
    body = [line.strip() for line in itertools.takewhile(lambda line: line.startswith(" " * 10), lines)]
    calls = [line for line in body if re.search(r"\bsturmia\b", line) and line[:1] != "#"]
    runner = 'python "$GITHUB_WORKSPACE/tests/cli_cases.py" sturmia'
    assert runner in calls and SHELL_ONLY <= set(calls)
    argvs = {tuple(case.argv) for case in CASES}
    for line in set(calls) - SHELL_ONLY - {runner}:
        words = shlex.split(line)
        assert words[0] == "sturmia" and tuple(words[1:]) in argvs, line


def closed_pipe():
    read, write = os.pipe()
    os.close(read)
    return os.fdopen(write, "wb")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "stdout,reason",
    [
        (closed_pipe, "Broken pipe"),
        pytest.param(
            lambda: open("/dev/full", "wb"),
            "No space left on device",
            marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full"),
        ),
    ],
    ids=["closed-pipe", "dev-full"],
)
def test_a_stdout_that_takes_no_output_exits_2_on_one_line(stdout, reason, unbuffered):
    # the fault is in the caller's environment: neither a verdict (1) nor a
    # traceback, nor Python's "Exception ignored" line at exit
    argv = ["repetition", "--slope", "[0;1*]", "--intercept", "0", "--m-max", "7"]
    with stdout() as target:
        proc = subprocess.run(
            [sys.executable, "-m", "sturmia", *argv],
            stdout=target,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONUNBUFFERED": unbuffered},
        )
    assert (proc.returncode, proc.stderr) == (2, f"error: cannot write the output: {reason}\n")


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
    # every answered case of a command is well formed but the one that spells
    # --m-max=30; verify's --only appends and repetition's --no-check stores
    # a constant, so both take argparse
    for argv, code, _, _ in CASES:
        if code != 2 and argv[0] in cli._COMMANDS:
            taken = table_path(argv) is not None
            assert taken == (argv[0] != "verify" and "--no-check" not in argv and "--m-max=30" not in argv), argv


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
