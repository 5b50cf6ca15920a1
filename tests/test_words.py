"""Standard words, characteristic prefixes, mechanical words, factors.

Standard words and characteristic prefixes are slices of one prefix of the
characteristic word that each slope grows; they are checked against the
recursion s_n = s_{n-1}^{a_n} s_{n-2} and the digit-block product
s_N^{b_{N+1}} ... s_0^{b_1}, built here from the quotients alone.
"""

import copy
import gc
import pickle
import random
import sys
import threading
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmia import words
from sturmia.acceptance import _standard_words as recursive_standard_words
from sturmia.errors import DepthError, NotCentralError, RangeError
from sturmia.intercept import sturmian_prefix
from sturmia.ostrowski import encode
from sturmia.slope import Slope, convergent_value, parse_slope
from sturmia.words import (
    MAX_STANDARD_LETTERS,
    central_decomposition,
    characteristic_prefix,
    complexity,
    factor_set,
    is_palindrome,
    language_length,
    mechanical_prefix,
    shifted_characteristic_prefix,
    standard_word,
    window_walk,
)

GOLDEN = Slope((1,), (0, 1))


def recursive_standard_word(slope: Slope, n: int) -> str:
    return recursive_standard_words(slope, n)[n + 1]


def block_product(slope: Slope, m: int) -> str:
    """c[:m] as s_N^{b_{N+1}} ... s_0^{b_1}, for the Ostrowski digits of m."""
    depth = slope.level(m)
    blocks = recursive_standard_words(slope, depth - 1)
    digits = encode(m, slope, depth).digits
    return "".join(blocks[i + 1] * digits[i] for i in range(depth - 1, -1, -1))


def test_standard_words_golden():
    assert standard_word(GOLDEN, -1) == "1"
    assert standard_word(GOLDEN, 0) == "0"
    assert standard_word(GOLDEN, 3) == "101"
    assert standard_word(GOLDEN, 4) == "10110"


def test_standard_word_lengths_are_continuants():
    slope = parse_slope("[0;3,1,2,(2)*]")
    for n in range(10):
        assert len(standard_word(slope, n)) == slope.q(n)


@pytest.mark.parametrize(
    "text", ["[0;1*]", "[0;2,(1)*]", "[0;3,1,2,(1,4)*]", "[0;1,3,(2)*]", "[0;5]", "[0;1,2,3]", "[0;1]"]
)
def test_standard_words_match_the_recursion(text):
    slope = parse_slope(text)
    top = slope.known_depth or 14
    expected = recursive_standard_words(slope, top)
    # ascending, descending and shuffled requests, each on a fresh word
    orders = [list(range(-1, top + 1))]
    orders += [orders[0][::-1], random.Random(top).sample(orders[0], len(orders[0]))]
    for order in orders:
        fresh = parse_slope(text)
        for n in order:
            assert standard_word(fresh, n) == expected[n + 1], (text, n)


def test_characteristic_prefix_letter_budget():
    # 10**8 + 1 = 99 q_2 + 999 q_1 + 902 q_0 over [0;1000*]: every block is
    # under the standard-word cap, so only the prefix's own length refuses it
    wide = Slope((1000,), (0, 1))
    for m in (MAX_STANDARD_LETTERS + 1, 9 * 10**8):
        with pytest.raises(RangeError, match=f"prefix of length {m} has more than"):
            characteristic_prefix(wide, m)
    with pytest.raises(RangeError):
        words.shifted_characteristic_prefix(wide, 1, MAX_STANDARD_LETTERS)
    # refused before the ladder grew for it
    assert len(wide._ladder[0]) == 2


def test_standard_word_letter_cap():
    assert MAX_STANDARD_LETTERS == 10**8
    top = Slope((1,), (0, 1)).level(MAX_STANDARD_LETTERS)  # 39: F_40 > 10**8
    fresh = Slope((1,), (0, 1))
    for n in (10**9, 2000, top):
        with pytest.raises(RangeError):
            standard_word(fresh, n)
    # refused before the ladder grew past the cap
    assert len(fresh._ladder[0]) <= top + 2
    assert len(standard_word(fresh, 25)) == fresh.q(25)
    wide = Slope((1000,), (0, 1))  # q_2 = 1000001, q_3 > 10**9
    assert len(standard_word(wide, 2)) == 1000001
    with pytest.raises(RangeError):
        standard_word(wide, 3)
    finite = Slope((1, 2, 3))
    assert standard_word(finite, 3) == "1101101101"
    with pytest.raises(DepthError):
        standard_word(finite, 4)
    with pytest.raises(DepthError):
        standard_word(finite, 10**9)


def test_standard_word_endings():
    slope = parse_slope("[0;2,3,(1,2)*]")
    for n in range(2, 10, 2):
        assert standard_word(slope, n).endswith("10")
    for n in range(3, 10, 2):
        assert standard_word(slope, n).endswith("01")


def test_characteristic_prefix_pinned_values():
    assert characteristic_prefix(GOLDEN, 4) == "1011"
    assert characteristic_prefix(GOLDEN, 8) == "10110101"


def test_characteristic_prefix_matches_truncation():
    for text in ["[0;1*]", "[0;2,(1)*]", "[0;3,1,2,(1,4)*]", "[0;1,3,(2)*]", "[0;1000*]"]:
        slope = parse_slope(text)
        d = 2
        while slope.q(d) <= 400:
            d += 1
        s = recursive_standard_word(slope, d)
        for m in (1, 2, 3, 5, 17, 100, 399, 400):
            assert characteristic_prefix(slope, m) == s[:m]
            assert block_product(slope, m) == s[:m]


def test_shifted_prefix_pinned_values():
    assert shifted_characteristic_prefix(GOLDEN, 1, 3) == "011"
    assert shifted_characteristic_prefix(GOLDEN, 4, 4) == "0101"


def test_mechanical_degenerate_slopes():
    assert mechanical_prefix(Fraction(0), Fraction(0), 5, "lower") == "00000"
    assert mechanical_prefix(Fraction(1), Fraction(0), 4, "lower") == "1111"
    assert mechanical_prefix(Fraction(0), Fraction(0), 5, "upper") == "00000"


def test_mechanical_matches_characteristic():
    # lower mechanical word with intercept = slope reproduces the
    # characteristic word when the slope is a deep enough convergent
    for text in ["[0;1*]", "[0;2,(1)*]", "[0;1,2,(3)*]"]:
        slope = parse_slope(text)
        m = 80
        d = 1
        while slope.q(d) <= 2 * (m + 2):
            d += 1
        alpha = convergent_value(slope, d)
        assert mechanical_prefix(alpha, alpha, m, "lower") == characteristic_prefix(slope, m)


def test_mechanical_upper_vs_lower_intercept_zero():
    alpha = convergent_value(GOLDEN, 12)
    lower = mechanical_prefix(alpha, Fraction(0), 40, "lower")
    upper = mechanical_prefix(alpha, Fraction(0), 40, "upper")
    # they differ exactly in the first letter: 1c for lower, 0c for upper
    assert lower[0] == "1" and upper[0] == "0"
    assert lower[1:] == upper[1:]


def test_factor_set_and_complexity():
    assert factor_set("1011", 2) == frozenset({"10", "01", "11"})
    assert complexity("1011", 4) == 1
    with pytest.raises(RangeError):
        factor_set("1011", 5)


@pytest.mark.parametrize("text", ["[0;1*]", "[0;2,(1)*]", "[0;3,(2,3,4)*]", "[0;1,4,(1,2)*]", "[0;7*]"])
def test_language_length_shows_every_factor(text):
    slope = parse_slope(text)
    for m in range(1, 120):
        length = language_length(slope, m)
        factors = factor_set(characteristic_prefix(slope, length), m)
        assert len(factors) == m + 1, (text, m)
        assert factors == factor_set(characteristic_prefix(slope, 4 * length), m)
    with pytest.raises(RangeError):
        language_length(slope, 0)


def test_sturmian_complexity_is_n_plus_1():
    window = characteristic_prefix(GOLDEN, 200)
    for n in range(1, 12):
        assert complexity(window, n) == n + 1


def reference_factor_set(word: str, n: int) -> frozenset[str]:
    """The scan that slices every window and keeps the distinct ones."""
    return frozenset(word[i : i + n] for i in range(len(word) - n + 1))


def factor_words(alphabet: str):
    """Random words, where nearly every window is new, and block repeats."""
    return st.one_of(
        st.text(alphabet=alphabet, max_size=60),
        st.builds(
            lambda block, times, tail: block * times + tail,
            st.text(alphabet=alphabet, min_size=1, max_size=12),
            st.integers(min_value=1, max_value=6),
            st.text(alphabet=alphabet, max_size=8),
        ),
    )


@settings(max_examples=150, deadline=None)
@given(st.one_of(factor_words("01"), factor_words("012")))
def test_factor_set_and_complexity_match_slice_scan(word):
    for n in range(len(word) + 1):
        expected = reference_factor_set(word, n)
        factors = factor_set(word, n)
        assert type(factors) is frozenset and factors == expected
        assert complexity(word, n) == len(expected)
    for n in (-1, len(word) + 1):
        with pytest.raises(RangeError):
            factor_set(word, n)
        with pytest.raises(RangeError):
            complexity(word, n)


def test_complexity_of_long_random_words():
    rng = random.Random(4)
    for alphabet in ("01", "012"):
        word = "".join(rng.choice(alphabet) for _ in range(3000))
        for n in (0, 1, 2, 7, 12, 13, 40, 2999, 3000):
            expected = reference_factor_set(word, n)
            assert factor_set(word, n) == expected
            assert complexity(word, n) == len(expected)


@settings(max_examples=100, deadline=None)
@given(st.one_of(factor_words("01"), factor_words("012")))
def test_window_walk_steps_are_the_next_length_factors(word):
    for n in range(len(word) + 1):
        windows, step = window_walk(word, n)
        first_seen = dict.fromkeys(word[i : i + n] for i in range(len(word) - n + 1))
        assert windows == list(first_seen)
        assert len(step) == len(windows)
        longer = {windows[i] + c for i, row in enumerate(step) for c in row}
        assert len(longer) == sum(len(row) for row in step)
        assert longer == (reference_factor_set(word, n + 1) if n < len(word) else set())
        for i, row in enumerate(step):
            for c, j in row.items():
                assert windows[j] == (windows[i] + c)[1:]


def reference_walk(word: str, n: int) -> tuple[list[str], list[dict[str, int]]]:
    """The window walk that steps through every letter and never jumps."""
    windows = [word[:n]]
    ids = {windows[0]: 0}
    step: list[dict[str, int]] = [{}]
    cur = 0
    for c in word[n:]:
        row = step[cur]
        nxt = row.get(c)
        if nxt is None:
            shifted = (windows[cur] + c)[1:]
            nxt = ids.get(shifted)
            if nxt is None:
                nxt = ids[shifted] = len(windows)
                windows.append(shifted)
                step.append({})
            row[c] = nxt
        cur = nxt
    return windows, step


def assert_walks_agree(word: str, lengths) -> None:
    """window_walk returns the reference's windows and step rows, in order."""
    for n in lengths:
        windows, step = window_walk(word, n)
        ref_windows, ref_step = reference_walk(word, n)
        assert windows == ref_windows, n
        assert [list(row.items()) for row in step] == [
            list(row.items()) for row in ref_step
        ], n


@st.composite
def sturmian_words(draw, max_letters: int, min_letters: int = 1) -> str:
    """A prefix of the sturmian word of a random slope and integer intercept."""
    head = draw(st.lists(st.integers(1, 5), max_size=2))
    period = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    slope = Slope(tuple(head + period), (len(head), len(period)))
    m = draw(st.integers(min_letters, max_letters))
    depth = slope.level(m)
    rho = encode(draw(st.integers(0, slope.q(depth) - 1)), slope, depth)
    return sturmian_prefix(rho, m)


@st.composite
def defect_words(draw, alphabet: str, max_letters: int) -> str:
    """A block repeated to length, with up to three letters overwritten."""
    block = draw(st.text(alphabet=alphabet, min_size=1, max_size=30))
    length = draw(st.integers(1, max_letters))
    letters = list((block * (length // len(block) + 1))[:length])
    for _ in range(draw(st.integers(0, 3))):
        letters[draw(st.integers(0, length - 1))] = draw(st.sampled_from(alphabet))
    return "".join(letters)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        sturmian_words(400),
        defect_words("01", 400),
        defect_words("012", 400),
        st.text(alphabet="012", max_size=200),
    )
)
def test_window_walk_matches_the_stepping_walk(word):
    assert_walks_agree(word, range(len(word) + 1))


@settings(max_examples=20, deadline=None)
@given(sturmian_words(5000, min_letters=1000), st.data())
def test_window_walk_matches_the_stepping_walk_on_long_prefixes(word, data):
    # every length of a 5000-letter word would take some 25 s, so the short
    # lengths, the last ones and a sample in between
    drawn = data.draw(st.lists(st.integers(0, len(word)), max_size=6))
    lengths = {*range(min(40, len(word) + 1)), *drawn, *range(max(0, len(word) - 3), len(word) + 1)}
    assert_walks_agree(word, sorted(lengths))


def test_window_walk_jumps_to_the_end_and_from_overlapping_sources(monkeypatch):
    jumps = []  # (source letter, jump letter, letters skipped, word length)
    extension = words._extension

    def recorded(word, a, b, agree):
        agree = extension(word, a, b, agree)
        jumps.append((a, b, agree, len(word)))
        return agree

    monkeypatch.setattr(words, "_extension", recorded)
    corpus = [
        "0" * 300,
        "01" * 150 + "1",
        ("0" * 17 + "1") * 20,
        ("0" * 40 + "2") * 8 + "0" * 39,
        characteristic_prefix(parse_slope("[0;2,3,(1,2)*]"), 500),
        mechanical_prefix(Fraction(89, 233), Fraction(0), 240),
    ]
    for word in corpus:
        assert_walks_agree(word, range(len(word) + 1))
    assert any(b + agree == length for a, b, agree, length in jumps)
    assert any(a + agree > b for a, b, agree, length in jumps)
    assert any(b + agree < length for a, b, agree, length in jumps)
    for length in (10**5, 3 * 10**5):
        word = characteristic_prefix(GOLDEN, length)
        assert_walks_agree(word, (1, 2, 10, 89, 440))


def test_central_decomposition():
    assert central_decomposition("101") == ("1", "")
    assert central_decomposition("000") == "0"
    assert central_decomposition("") == ""
    # palindromic prefix of the characteristic word of [0;2,1,1,...]
    assert central_decomposition("010010") == ("010", "0")
    with pytest.raises(NotCentralError):
        central_decomposition("011")
    with pytest.raises(NotCentralError):
        central_decomposition("0110")  # palindrome but not central


def test_central_words_from_standard_words():
    # stripping the final two letters of s_n yields a central word
    for text in ["[0;1*]", "[0;2,(1)*]", "[0;3,(2)*]"]:
        slope = parse_slope(text)
        for n in range(2, 8):
            z = standard_word(slope, n)[:-2]
            assert is_palindrome(z)
            out = central_decomposition(z)
            if isinstance(out, tuple):
                p, q = out
                assert z == p + "01" + q


def test_balance_defect_of_sturmian_windows():
    window = characteristic_prefix(parse_slope("[0;2,(3)*]"), 300)
    for n in range(1, 15):
        ones = {f.count("1") for f in factor_set(window, n)}
        assert max(ones) - min(ones) <= 1


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 4), min_size=6, max_size=6),
    st.integers(1, 150),
    st.integers(0, 60),
)
def test_prefix_product_consistency(quotients, m, k):
    slope = Slope(tuple(quotients), (5, 1))
    full = block_product(slope, k + m)
    assert shifted_characteristic_prefix(slope, k, m) == full[k : k + m]
    assert characteristic_prefix(slope, m) == full[:m]


# ------------------------------------------------------------ the grown word

COPIES = {"pickle": lambda value: pickle.loads(pickle.dumps(value)), "deepcopy": copy.deepcopy}


def test_the_word_holds_at_most_twice_the_longest_prefix_and_dies_with_its_slope():
    lengths = random.Random(11).sample(range(10**6 - 10**4, 10**6), 64)
    gc.collect()
    tracemalloc.start()
    try:
        slope = parse_slope("[0;1*]")
        for m in lengths:
            assert len(characteristic_prefix(slope, m)) == m
        held = tracemalloc.get_traced_memory()[0]
        del slope
        gc.collect()
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 2 * max(lengths) + 10**5
    assert left <= 10**5


def test_a_long_prefix_repeats_no_more_blocks_than_it_keeps():
    # q_3 = 1000002000 on [0;1000*], so a full step would build 10**9 letters
    gc.collect()
    tracemalloc.start()
    try:
        word = characteristic_prefix(parse_slope("[0;1000*]"), 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert word == block_product(parse_slope("[0;1000*]"), 10**7)
    assert peak <= 3 * 10**7


def test_word_grows_consistently_under_threads():
    text = "[0;2,1,3,(2,1)*]"
    reference = recursive_standard_word(parse_slope(text), 15)  # 25781 letters
    shared = [parse_slope(text) for _ in range(8)]
    wrong, errors = [], []

    def grow(offset):
        try:
            for slope in shared:
                for m in range(offset + 1, len(reference), 6 * 211):
                    if characteristic_prefix(slope, m) != reference[:m]:
                        wrong.append((offset, m))
                for n in range(offset, 16, 6):
                    if standard_word(slope, n) != reference[: slope.q(n)]:
                        wrong.append((offset, n))
        except BaseException as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=grow, args=(k,)) for k in range(6)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == [] and wrong == []
    # the grown word doubles past the longest prefix asked, but holds at most twice it
    longer = recursive_standard_word(parse_slope(text), 18)
    for slope in shared:
        word = slope._word[0]
        assert longer.startswith(word) and len(reference) - 6 * 211 < len(word) < 2 * len(reference)


@pytest.mark.parametrize("copy_of", COPIES.values(), ids=COPIES)
def test_a_grown_slope_copies_and_hashes_as_a_fresh_one(copy_of):
    text = "[0;2,1,3,(2,1)*]"
    slope, fresh = parse_slope(text), parse_slope(text)
    prefix = characteristic_prefix(slope, 5000)
    other = copy_of(slope)
    assert other == slope == fresh and hash(other) == hash(slope) == hash(fresh)
    assert repr(other) == repr(slope) == repr(fresh)
    assert pickle.dumps(slope) == pickle.dumps(fresh)
    assert other._word == [""]
    assert characteristic_prefix(other, 5000) == prefix
