"""Release criteria, one pytest line per numbered check.

`test_criterion` runs each entry of the acceptance registry and prints
its one-line verdict, so `pytest -v` doubles as the release report.  The
checks seed their own corpora; nothing here depends on test ordering.
"""

import os
import random
import subprocess
import sys
import threading
from functools import cache, partial
from pathlib import Path

import pytest

from sturmia import acceptance, cli
from sturmia.errors import DepthError
from sturmia.slope import Slope
from sturmia.torsion import BFactorization
from sturmia.words import characteristic_prefix


# Criterion numbers and names as `verify` prints them; the position is the
# number.
CRITERIA = (
    "ostrowski-round-trip",
    "prefix-product",
    "sturmian-complexity",
    "repetition-intervals",
    "closed-form-oracle",
    "intercept-bijection",
    "duality",
    "characteristic-factorizations",
    "rauzy-structure",
    "torsion-identities",
    "self-complementary",
    "b-factorization",
    "dio-estimate",
    "mechanical-oracle",
)


@cache
def _verdict(number: int) -> acceptance.CheckResult:
    """One unpatched run per criterion, shared by the tests that read it."""
    return acceptance.run_check(number)


@pytest.mark.parametrize(
    "number",
    range(1, len(acceptance.CHECKS) + 1),
    ids=[name for name, _ in acceptance.CHECKS],
)
def test_criterion(number):
    result = _verdict(number)
    print(result.line())
    assert result.passed, result.line()


def test_criterion_numbers_and_names_are_pinned():
    pairs = [(r.number, r.name) for r in map(_verdict, range(1, len(CRITERIA) + 1))]
    assert pairs == list(enumerate(CRITERIA, start=1))


def test_verify_prints_the_committed_record():
    # tests/verify.csv holds the bytes `sturmia verify --format csv` prints,
    # so a change that alters every run of `verify` alike shows here
    results = [_verdict(n)._asdict() for n in range(1, len(acceptance.CHECKS) + 1)]
    report = {"seed": acceptance.SEED, "results": results, "passed": True}
    _, renderers = cli._COMMANDS["verify"]
    text = renderers["csv"](report, None) + "\n"
    assert text.encode() == (Path(__file__).parent / "verify.csv").read_bytes()


# The repetition and Rauzy criteria read each corpus through one profile,
# one closed-form table and one graph; their detail lines show that no
# corpus shrank.
PINNED_LINES = {
    4: "[PASS] criterion  4 repetition-intervals: 476 (m, n) pairs, n <= 8, "
    "on 7 slopes (seeded caps q_9 <= 100)",
    5: "[PASS] criterion  5 closed-form-oracle: 37052 pairs, no discrepancies, "
    "cases seen ['1', '2', '3', '4', '5', '6', '7', '8'] on 7 slopes (caps q_8 <= 120); "
    "4-branch level formula agrees at 1934 (window, m) outside case 1",
    9: "[PASS] criterion  9 rauzy-structure: all m <= 150 on 5 slopes",
}


def test_repetition_and_rauzy_detail_lines_are_pinned():
    for number, line in PINNED_LINES.items():
        assert acceptance.run_check(number).line() == line


def reference_seeded_slopes(count, seed, cap_level=12, cap=100_000):
    """The seeded corpus drawn as it was first written: every draw built as
    a Slope and rejected on the continuant its ladder reads."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        qs = tuple(rng.choices(range(1, 6), weights=[16, 8, 4, 2, 1], k=12))
        slope = Slope(qs, (0, len(qs)))
        if slope.q(cap_level) <= cap:
            out.append(slope)
    return tuple(out)


@pytest.mark.parametrize(
    "args",
    [
        (9, acceptance.SEED),  # criteria 01-03 after the golden slope
        (5, acceptance.SEED + 4, 9, 100),  # criterion 04
        (5, acceptance.SEED + 5, 8, 120),  # criterion 05
    ],
)
def test_seeded_corpora_match_the_slope_built_draw(args):
    assert acceptance._seeded_slopes(*args) == reference_seeded_slopes(*args)


def call_log(path):
    """(note, read): note(text) appends one line to an unbuffered append-mode
    log, which the children a criterion forks inherit, so read() returns
    the lines of every process, one whole line per call."""
    log = open(path, "ab", buffering=0)

    def note(text: str) -> None:
        log.write(text.encode() + b"\n")

    def read() -> list[str]:
        log.close()
        return path.read_bytes().decode().split("\n")[:-1]

    return note, read


def test_criterion_09_reads_the_cycles_of_each_graph_once(monkeypatch, tmp_path):
    from sturmia import rauzy

    read = rauzy._cycles
    note, calls = call_log(tmp_path / "calls")

    def counting(slope, m):
        note(f"{slope} {m}")
        return read(slope, m)

    # a read through the rauzy module's own name, as build_graph and
    # count_turns make, is counted too
    monkeypatch.setattr(acceptance, "_cycles", counting)
    monkeypatch.setattr(rauzy, "_cycles", counting)
    assert acceptance.run_check(9).passed
    reads = calls()
    assert len(reads) == len(set(reads)) == 5 * 150


# The first counterexample each mutation below meets, as `verify` prints it.
FAILED_LINES = {
    5: "[FAIL] criterion  5 closed-form-oracle: 4-branch level formula: "
    "digits=(0, 0, 0, 0, 0, 0, 0, 0), m=1 on [0;1*]",
    6: "[FAIL] criterion  6 intercept-bijection: shift k=52 of "
    "digits=(0, 0, 1, 0, 1, 0, 0, 1, 0, 1) on [0;1*]",
    7: "[FAIL] criterion  7 duality: dual family of [2, 4, 6, 8, 10] on [0;1*]",
    8: "[FAIL] criterion  8 characteristic-factorizations: central split m=0, p=0 on [0;1*]",
    9: "[FAIL] criterion  9 rauzy-structure: turns at m=40 on [0;1,3,(2,1)*]",
    10: "[FAIL] criterion 10 torsion-identities: N=2 at n=4 gave k=None",
    11: "[FAIL] criterion 11 self-complementary: center word meets 0 classes on [0;1*]",
}


def _miss_at_4(search, *args, n=None):
    """torsion_search, but with no identity found from n = 4."""
    hit = search(*args, n=n)
    return hit._replace(found=False, k=None) if n == 4 else hit


@pytest.mark.parametrize(
    "number,name,wrong",
    [
        (5, "repetition_level", lambda f: lambda *args: f(*args) + 1),
        (6, "add_integer", lambda f: lambda rho, k: f(rho, k + 1)),
        (7, "complement_family", lambda f: lambda *args: f(*args)._replace(ok=False)),
        (8, "central_split_check", lambda f: lambda *args: f(*args)._replace(ok=False)),
        (10, "torsion_search", lambda f: partial(_miss_at_4, f)),
        # the characteristic word is in the zero class, so in none of the three
        (11, "palindromic_center_word", lambda f: characteristic_prefix),
    ],
)
def test_promoted_paper_checks_are_live(monkeypatch, number, name, wrong):
    monkeypatch.setattr(acceptance, name, wrong(getattr(acceptance, name)))
    result = acceptance.run_check(number)
    assert not result.passed, result.line()
    assert result.line() == FAILED_LINES[number]


def test_criterion_12_scans_each_distinct_word_once(monkeypatch, tmp_path):
    note, read = call_log(tmp_path / "scanned")
    real = acceptance.b_factorize

    def counted(u):
        note(u)
        return real(u)

    monkeypatch.setattr(acceptance, "b_factorize", counted)
    assert acceptance.run_check(12).passed
    scanned = read()
    # every word of up to 16 letters, then "1" + u and "11" + u for |u| = 16
    assert len(scanned) == len(set(scanned)) == 2**17 - 1 + 2 * 2**16


@pytest.fixture(params=[1, 2], ids=["one-cpu", "split"])
def cpus(request, monkeypatch):
    """Criterion 12 on one CPU, all in process, and under `split`, where its
    parse-count oracle, the last item, runs in the forked child."""
    if request.param == 1:
        monkeypatch.setattr(acceptance, "_usable_cpus", lambda: 1)
    else:
        request.getfixturevalue("split")


def test_criterion_12_runs_its_oracle_in_the_child_of_a_split(monkeypatch, split, tmp_path):
    note, read = call_log(tmp_path / "pids")
    real = acceptance._parse_counts

    def noted(*args):
        note(str(os.getpid()))
        return real(*args)

    monkeypatch.setattr(acceptance, "_parse_counts", noted)
    assert acceptance.run_check(12).passed
    pids = read()
    assert len(pids) == 1 and int(pids[0]) != split


@pytest.mark.parametrize(
    "word,u",
    [
        ("", ""),
        ("0110", "0110"),
        ("101", "01"),
        ("1" + "0" * 16, "0" * 16),
        ("11" + "10" * 8, "10" * 8),
        ("1" * 17, "1" * 15),
        # the second piece of length 13, and the last quarter of length 14
        ("11" + "0" * 11, "0" * 11),
        ("1" * 14, "1" * 12),
    ],
)
def test_criterion_12_names_the_first_broken_triple(monkeypatch, cpus, word, u):
    real = acceptance.b_factorize

    def wrong(v):
        scan = real(v)
        if v != word:
            return scan
        # the empty word cannot be cut short, so a one-letter leftover stands in
        return BFactorization(v or "x", 0 if scan.complete else len(v))

    monkeypatch.setattr(acceptance, "b_factorize", wrong)
    result = acceptance.run_check(12)
    assert result.line() == f"[FAIL] criterion 12 b-factorization: trichotomy at {u!r}"


def triple_keeping_flips(w: str) -> set[str]:
    """w, which starts with 0, and words 1^i w whose flipped `complete`
    mends every triple (v, 1v, 11v) the flip of w broke."""
    real = acceptance.b_factorize
    for first in ((), ("1" + w,)):
        flips = {w, *first}
        flag = lambda x: real(x).complete != (x in flips)
        v = w
        while len(v) <= 16:
            need = 1 - flag(v) - flag("1" + v)
            if need not in (0, 1):
                break
            if flag("11" + v) != need:
                flips.add("11" + v)
            v = "1" + v
        else:
            return flips
    raise ValueError(f"no flips of 1^i {w} keep the trichotomy")


@pytest.mark.parametrize(
    "flipped,detail",
    [
        (("011010010110",), "trichotomy at '011010010110'"),
        (("1011001110001011",), "trichotomy at '011001110001011'"),
        # the trichotomy holds, so only the parse-count oracle sees these;
        # it names the first word by length, then product order
        (triple_keeping_flips("011010010110"), "uniqueness at '011010010110'"),
        (
            triple_keeping_flips("01101001") | triple_keeping_flips("000100"),
            "uniqueness at '000100'",
        ),
    ],
)
def test_criterion_12_pins_its_failure_lines(monkeypatch, cpus, flipped, detail):
    real = acceptance.b_factorize

    def wrong(v):
        scan = real(v)
        if v not in flipped:
            return scan
        return BFactorization(v, 0 if scan.complete else len(v))

    monkeypatch.setattr(acceptance, "b_factorize", wrong)
    result = acceptance.run_check(12)
    assert result.line() == f"[FAIL] criterion 12 b-factorization: {detail}"


# ------------------------------------------------ the split across CPUs
#
# Criteria 01-03, 05-07, 09, 12 and 14 split their corpora across the
# usable CPUs through `acceptance._fan_out`; 04, 08, 10, 11 and 13 stay in
# process.  A process pinned to one CPU runs them all serially, and either
# way every line is the same.


def test_lines_pinned_to_one_cpu_match_the_split_run():
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no CPU affinity on this platform")
    code = (
        "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
        "from sturmia import acceptance; "
        "print(acceptance._usable_cpus()); "
        "[print(acceptance.run_check(n).line()) for n in range(1, len(acceptance.CHECKS) + 1)]"
    )
    src = str(Path(acceptance.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    cpus, *lines = done.stdout.splitlines()
    assert cpus == "1"
    assert lines == [_verdict(n).line() for n in range(1, len(acceptance.CHECKS) + 1)]


@pytest.mark.parametrize("number", [1, 2, 3, 5, 6, 7, 9, 12, 14])
def test_three_way_split_matches_the_serial_lines(monkeypatch, number):
    # more runs than this machine may have CPUs: uneven cuts, two children
    monkeypatch.setattr(acceptance, "_usable_cpus", lambda: 3)
    assert acceptance.run_check(number).line() == _verdict(number).line()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_runs_are_contiguous_and_about_equal():
    q12 = [233, 10547, 2662, 8093, 9052, 5716, 22056, 2231, 8884, 1727]
    items = tuple(range(10))
    assert acceptance._runs(items, q12, 1) == [items]
    assert acceptance._runs(items, q12, 2) == [items[:6], items[6:]]
    assert acceptance._runs(items[:2], [1, 1], 5) == [(0,), (1,)]
    four = (0, 1, 2, 3)
    assert acceptance._runs(four, [2**16] * 4, 2) == [four[:2], four[2:]]
    assert acceptance._runs(four, [2**16] * 4, 4) == [(0,), (1,), (2,), (3,)]


@pytest.fixture
def split(monkeypatch):
    """Two usable CPUs, whatever this machine has, so that the second half
    of every corpus runs in a forked child; no child outlives the test."""
    monkeypatch.setattr(acceptance, "_usable_cpus", lambda: 2)
    yield os.getpid()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_split_returns_every_result_in_corpus_order(split):
    results = acceptance._fan_out(lambda i: (i, os.getpid()), tuple(range(6)), [1] * 6)
    assert [i for i, _ in results] == list(range(6))
    pids = [pid for _, pid in results]
    assert pids[:3] == [split] * 3
    assert len(set(pids[3:])) == 1 and pids[3] != split


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize(
    "exc", [acceptance._Failed("n=7 on"), ZeroDivisionError("division"), DepthError("a_5")]
)
def test_a_childs_exception_comes_back_with_its_type_and_message(monkeypatch, split, cpus, exc):
    def work(i):
        if i >= 3 and os.getpid() != split:
            raise type(exc)(*exc.args, i)
        return i

    # items 3 to 5 raise: in one child of two runs, or in both children of
    # three runs, and either way the exception is the one item 3 raised
    monkeypatch.setattr(acceptance, "_usable_cpus", lambda: cpus)
    with pytest.raises(type(exc)) as raised:
        acceptance._fan_out(work, tuple(range(6)), [1] * 6)
    assert raised.value.args == (*exc.args, 3)


class TwoPartError(Exception):
    """Pickles, but does not unpickle: its constructor takes two arguments
    and Exception keeps one."""

    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


def test_an_exception_that_does_not_unpickle_comes_back_by_name(monkeypatch, split, tmp_path):
    class Local(Exception):
        """Does not pickle: pickle finds no class by its name."""

    read = acceptance._cycles
    last = acceptance.NAMED_FIVE[-1]
    for exc, detail in (
        (TwoPartError("made", "a child"), "TwoPartError: made at a child"),
        (Local("made in a child"), "Local: made in a child"),
        (Local("two\nlines"), "Local: two lines"),
        (Local(), "Local"),
    ):
        note, raised_in = call_log(tmp_path / f"{detail}.pids")

        def raising(slope, m, exc=exc, note=note):
            if slope == last:
                note(str(os.getpid()))
                raise exc
            return read(slope, m)

        monkeypatch.setattr(acceptance, "_cycles", raising)
        monkeypatch.setattr(acceptance, "_usable_cpus", lambda: 2)
        line = acceptance.run_check(9).line()
        assert line == f"[FAIL] criterion  9 rauzy-structure: {detail}"
        # the last slope ran in the child, and pinned to one CPU the check
        # prints the same line
        monkeypatch.setattr(acceptance, "_usable_cpus", lambda: 1)
        assert acceptance.run_check(9).line() == line
        pids = raised_in()
        assert len(pids) == 2 and int(pids[0]) != split and int(pids[1]) == split


def test_a_child_that_dies_is_reported(split):
    def work(i):
        if os.getpid() != split:
            os._exit(5)
        return i

    with pytest.raises(ChildProcessError, match="ended with exit code 5$"):
        acceptance._fan_out(work, (0, 1), [1, 1])


def test_a_failing_parent_run_still_reaps_a_child_with_a_full_pipe(split):
    # the child's results overflow its pipe while the parent's own run fails
    def work(i):
        if i == 0:
            raise acceptance._Failed("first")
        return bytes(300_000)

    with pytest.raises(acceptance._Failed, match="^first$"):
        acceptance._fan_out(work, (0, 1, 2), [1, 1, 1])


def _repeat_a_vertex(read, last):
    """_cycles, but at m = 40 on the last slope the referent cycle's own run
    starts one window early, on the right special vertex's window again."""

    def wrong(slope, m):
        pos, c, own, other = read(slope, m)
        if slope == last and m == 40:
            own = range(own.start - 1, own.stop - 1)
        return pos, c, own, other

    return wrong


def _one_turn_too_many(turns, last):
    """_turns, but one turn too many at m = 40 on the last slope."""

    def wrong(source, m, slope, *read):
        return turns(source, m, slope, *read) + (slope == last and m == 40)

    return wrong


@pytest.mark.parametrize(
    "name,wrong,failed",
    [
        (
            "_cycles",
            _repeat_a_vertex,
            "[FAIL] criterion  9 rauzy-structure: vertices at m=40 on [0;1,3,(2,1)*]",
        ),
        ("_turns", _one_turn_too_many, FAILED_LINES[9]),
    ],
    ids=["vertices", "turns"],
)
def test_a_criterion_failing_in_a_child_prints_the_serial_line(
    monkeypatch, split, name, wrong, failed
):
    # the last slope runs in the child
    last = acceptance.NAMED_FIVE[-1]
    monkeypatch.setattr(acceptance, name, wrong(getattr(acceptance, name), last))
    assert acceptance.run_check(9).line() == failed
    monkeypatch.setattr(acceptance, "_usable_cpus", lambda: 1)
    assert acceptance.run_check(9).line() == failed


def test_criterion_07_failing_in_a_child_prints_the_serial_line(monkeypatch, split, tmp_path):
    family = acceptance.complement_family
    last = acceptance.NAMED_FIVE[-1]

    def breaking(note):
        def wrong(indices, slope, depth):
            report = family(indices, slope, depth)
            if slope != last:
                return report
            note(str(os.getpid()))
            return report._replace(ok=False)

        return wrong

    note, broken_in = call_log(tmp_path / "pids")
    monkeypatch.setattr(acceptance, "complement_family", breaking(note))
    line = acceptance.run_check(7).line()
    assert line == f"[FAIL] criterion  7 duality: dual family of [2, 4, 6, 8, 10] on {last}"
    # the last slope ran in the child
    pids = broken_in()
    assert len(pids) == 1 and int(pids[0]) != split
    monkeypatch.setattr(acceptance, "complement_family", breaking(lambda pid: None))
    monkeypatch.setattr(acceptance, "_usable_cpus", lambda: 1)
    assert acceptance.run_check(7).line() == line


@pytest.mark.parametrize(
    "exc,detail",
    [
        (ZeroDivisionError("from a child"), "ZeroDivisionError: from a child"),
        (DepthError("from a child"), "DepthError: from a child"),
        (AssertionError("two\nlines"), "AssertionError: two lines"),
        (AssertionError(), "AssertionError"),
    ],
)
def test_a_childs_exception_is_its_criterions_fail_line(monkeypatch, capsys, split, exc, detail):
    read = acceptance._cycles

    def raising(slope, m):
        if os.getpid() != split:
            raise exc
        return read(slope, m)

    monkeypatch.setattr(acceptance, "_cycles", raising)
    assert cli.dispatch(["verify", "--only", "9"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[1:] == [f"[FAIL] criterion  9 rauzy-structure: {detail}"]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_a_refusal_inside_a_check_is_its_fail_row(monkeypatch, capsys, split, cpus):
    from sturmia import torsion

    def shallow(classes):
        raise DepthError(torsion._too_shallow(classes[0].depth))

    monkeypatch.setattr(torsion, "_check_self_dual_classes", shallow)
    monkeypatch.setattr(acceptance, "_usable_cpus", lambda: cpus)
    assert cli.dispatch(["verify", "--format", "csv"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    rows = (Path(__file__).parent / "verify.csv").read_text().splitlines()
    rows[12] = (
        '11,self-complementary,0,'
        '"DepthError: depth 20 is too shallow to certify the three self-dual classes"'
    )
    assert out.splitlines() == rows


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_a_contract_check_inside_a_check_fails_it_alone(monkeypatch, capsys, split, cpus):
    from sturmia import rauzy

    real = rauzy._cycles

    def breaking(slope, m):
        if m == 77:
            raise AssertionError(f"cycle lengths broken at m={m} on {slope}")
        return real(slope, m)

    # criterion 9 reads the cycles through its own name
    monkeypatch.setattr(acceptance, "_cycles", breaking)
    monkeypatch.setattr(rauzy, "_cycles", breaking)
    monkeypatch.setattr(acceptance, "_usable_cpus", lambda: cpus)
    assert cli.dispatch(["verify", "--only", "9", "--only", "1"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines() == [
        f"# corpus seed {acceptance.SEED}",
        "[FAIL] criterion  9 rauzy-structure: AssertionError: cycle lengths broken at m=77 on [0;1*]",
        _verdict(1).line(),
    ]
    assert _verdict(1).passed


@pytest.mark.parametrize("call", ["fork", "pipe"])
def test_a_failing_fork_runs_the_corpus_here(monkeypatch, split, call):
    def refuse():
        raise OSError("no more processes or files")

    monkeypatch.setattr(os, call, refuse)
    assert acceptance._fan_out(lambda i: os.getpid(), (0, 1, 2), [1, 1, 1]) == [split] * 3
    assert acceptance.run_check(1).line() == _verdict(1).line()


def test_a_childs_exception_carries_the_childs_traceback(split):
    def work(i):
        if os.getpid() != split:
            raise_in_the_child(i)
        return i

    with pytest.raises(ZeroDivisionError, match="^item 1$") as raised:
        acceptance._fan_out(work, (0, 1), [1, 1])
    cause = raised.value.__cause__
    assert isinstance(cause, RuntimeError)
    assert "in raise_in_the_child" in str(cause)
    assert str(cause).rstrip().endswith("ZeroDivisionError: item 1")


def raise_in_the_child(i):
    raise ZeroDivisionError(f"item {i}")


def test_an_unreadable_thread_count_runs_serially(monkeypatch):
    def unreadable(path):
        raise FileNotFoundError(path)

    monkeypatch.setattr(os, "listdir", unreadable)
    assert acceptance._usable_cpus() == 1


def test_no_fork_while_another_thread_is_alive(monkeypatch):
    def fork():
        raise AssertionError("forked while another thread was alive")

    release = threading.Event()
    helper = threading.Thread(target=release.wait)
    helper.start()
    try:
        monkeypatch.setattr(os, "fork", fork)
        assert acceptance._usable_cpus() == 1
        assert acceptance.run_check(9).line() == _verdict(9).line()
    finally:
        release.set()
        helper.join(timeout=10)
    assert not helper.is_alive()
