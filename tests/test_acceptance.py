"""Release criteria, one pytest line per numbered check.

`test_criterion` runs each entry of the acceptance registry and prints
its one-line verdict, so `pytest -v` doubles as the release report.  The
checks seed their own corpora; nothing here depends on test ordering.
"""

from functools import cache

import pytest

from sturmia import acceptance
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


def test_criterion_09_builds_each_graph_once(monkeypatch):
    from sturmia import rauzy

    build = rauzy.build_graph
    calls = []

    def counting(slope, m):
        calls.append(m)
        return build(slope, m)

    # count_turns builds through the rauzy module's own name
    monkeypatch.setattr(acceptance, "build_graph", counting)
    monkeypatch.setattr(rauzy, "build_graph", counting)
    assert acceptance.run_check(9).passed
    assert len(calls) == 5 * 150


# The first counterexample each mutation below meets, as `verify` prints it.
FAILED_LINES = {
    5: "[FAIL] criterion  5 closed-form-oracle: 4-branch level formula: "
    "digits=(0, 0, 0, 0, 0, 0, 0, 0), m=1 on [0;1*]",
    7: "[FAIL] criterion  7 duality: dual family of [2, 4, 6, 8, 10] on [0;1*]",
    8: "[FAIL] criterion  8 characteristic-factorizations: central split m=0, p=0 on [0;1*]",
    11: "[FAIL] criterion 11 self-complementary: center word meets 0 classes on [0;1*]",
}


@pytest.mark.parametrize(
    "number,name,wrong",
    [
        (5, "repetition_level", lambda f: lambda *args: f(*args) + 1),
        (7, "complement_family", lambda f: lambda *args: f(*args)._replace(ok=False)),
        (8, "central_split_check", lambda f: lambda *args: f(*args)._replace(ok=False)),
        # the characteristic word is in the zero class, so in none of the three
        (11, "palindromic_center_word", lambda f: characteristic_prefix),
    ],
)
def test_promoted_paper_checks_are_live(monkeypatch, number, name, wrong):
    monkeypatch.setattr(acceptance, name, wrong(getattr(acceptance, name)))
    result = acceptance.run_check(number)
    assert not result.passed, result.line()
    assert result.line() == FAILED_LINES[number]


def test_criterion_12_scans_each_distinct_word_once(monkeypatch):
    scanned = []
    real = acceptance.b_factorize

    def counted(u):
        scanned.append(u)
        return real(u)

    monkeypatch.setattr(acceptance, "b_factorize", counted)
    assert acceptance.run_check(12).passed
    # every word of up to 16 letters, then "1" + u and "11" + u for |u| = 16
    assert len(scanned) == len(set(scanned)) == 2**17 - 1 + 2 * 2**16


@pytest.mark.parametrize(
    "word,u",
    [
        ("", ""),
        ("0110", "0110"),
        ("101", "01"),
        ("1" + "0" * 16, "0" * 16),
        ("11" + "10" * 8, "10" * 8),
        ("1" * 17, "1" * 15),
    ],
)
def test_criterion_12_names_the_first_broken_triple(monkeypatch, word, u):
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
def test_criterion_12_pins_its_failure_lines(monkeypatch, flipped, detail):
    real = acceptance.b_factorize

    def wrong(v):
        scan = real(v)
        if v not in flipped:
            return scan
        return BFactorization(v, 0 if scan.complete else len(v))

    monkeypatch.setattr(acceptance, "b_factorize", wrong)
    result = acceptance.run_check(12)
    assert result.line() == f"[FAIL] criterion 12 b-factorization: {detail}"
