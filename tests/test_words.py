"""Standard words, characteristic prefixes, mechanical words, factors.

Standard words and characteristic prefixes are spelled off the recursion
from the standard words of at most `words._PIECE` letters that each slope
keeps; they are checked against the recursion
s_n = s_{n-1}^{a_n} s_{n-2} and the digit-block product
s_N^{b_{N+1}} ... s_0^{b_1}, built here from the quotients alone.
"""

import copy
import gc
import math
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
from sturmia.acceptance import NAMED_FIVE
from sturmia.acceptance import _standard_words as recursive_standard_words
from sturmia.errors import DepthError, RangeError, SturmiaError
from sturmia.intercept import integer_window, max_certified_length, sturmian_prefix
from sturmia.ostrowski import encode
from sturmia.slope import _NO_WORD, Slope, convergent_value, parse_slope
from sturmia.words import (
    MAX_STANDARD_LETTERS,
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
    # and below zero
    with pytest.raises(RangeError, match="^prefix length must be >= 0$"):
        characteristic_prefix(wide, -1)
    with pytest.raises(RangeError, match="^shift must be >= 0$"):
        words.shifted_characteristic_prefix(wide, -1, 3)
    # refused before the ladder grew for it
    assert len(wide._ladder[0]) == 2


def test_finite_prefix_refusal_names_the_letters():
    # the word of [0;3,2,2] is s_3, and it certifies its first q_3 - 1 = 16 letters
    finite = Slope((3, 2, 2))
    assert characteristic_prefix(finite, 16) == standard_word(finite, 3)[:16]
    message = r"^prefix of length 17 passes the 16 letters the word of \[0;3,2,2\] certifies$"
    with pytest.raises(DepthError, match=message):
        characteristic_prefix(finite, 17)
    with pytest.raises(DepthError, match=message):
        words.shifted_characteristic_prefix(finite, 5, 12)
    # a depth-3 window certifies 16 letters, but the 16 its shift by 1 reads
    # pass the word's 16: sturmian_prefix refuses them by its own count
    rho = encode(1, finite, 3)
    assert max_certified_length(rho) == 15
    assert sturmian_prefix(rho, 15) == characteristic_prefix(finite, 16)[1:]
    shifted = (
        r"^prefix of length 16 shifted by 1 passes the 16 letters"
        r" the word of \[0;3,2,2\] certifies$"
    )
    with pytest.raises(DepthError, match=shifted):
        sturmian_prefix(rho, 16)
    # an integer the interpreter will not write in decimal is named by its
    # bit length, in the slope literal too
    huge = Slope((2**20000, 3))
    message = (
        r"^prefix of length <an integer of 16610 bits> has more than 100000000 letters$"
    )
    with pytest.raises(RangeError, match=message):
        characteristic_prefix(huge, 10**5000)
    message = (
        r"^shift <an integer of 23254 bits> passes the <an integer of 20002 bits> letters"
        r" the word of \[0;<an integer of 20001 bits>,3\] certifies$"
    )
    with pytest.raises(DepthError, match=message):
        integer_window(10**7000, huge, 5)


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
    with pytest.raises(DepthError, match="^standard words start at index -1$"):
        standard_word(finite, -2)


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


def reference_mechanical(alpha: Fraction, rho: Fraction, n: int, kind: str) -> str:
    """The mechanical word letter by letter, in Fraction arithmetic."""
    if kind == "upper":
        step = lambda k: math.floor((k + 1) * alpha + rho) - math.floor(k * alpha + rho)
    else:
        step = lambda k: math.ceil((k + 1) * alpha + rho) - math.ceil(k * alpha + rho)
    return "".join(str(step(k)) for k in range(n))


def test_mechanical_matches_the_fraction_reference():
    rng = random.Random(20261019)
    intercepts = set()
    for _ in range(400):
        den = rng.randint(1, 60)
        alpha = Fraction(rng.randint(0, den), den)
        # intercepts from -3 to 3, so some lie below 0 and some above 1
        rho_den = rng.randint(1, 60)
        rho = Fraction(rng.randint(-3 * rho_den, 3 * rho_den), rho_den)
        n = rng.randint(0, 300)
        kind = rng.choice(("lower", "upper"))
        assert mechanical_prefix(alpha, rho, n, kind) == reference_mechanical(alpha, rho, n, kind)
        intercepts.add((rho < 0, rho > 1))
    assert intercepts == {(True, False), (False, False), (False, True)}
    for kind in ("lower", "upper"):
        alpha, rho = Fraction(233, 377), Fraction(-5, 3)
        assert mechanical_prefix(alpha, rho, 300, kind) == reference_mechanical(alpha, rho, 300, kind)
        assert mechanical_prefix(alpha, rho, -2, kind) == ""


def test_mechanical_guards_in_order():
    with pytest.raises(RangeError, match=r"mechanical slope must lie in \[0, 1\]"):
        mechanical_prefix(Fraction(3, 2), Fraction(0), 5, "sideways")
    with pytest.raises(RangeError):
        mechanical_prefix(Fraction(-1, 2), Fraction(0), 5)
    with pytest.raises(ValueError, match="kind must be 'upper' or 'lower', got 'sideways'"):
        mechanical_prefix(Fraction(1, 2), Fraction(0), 5, "sideways")
    with pytest.raises(RangeError, match="^mechanical word of 100000001 letters has more than"):
        mechanical_prefix(Fraction(1, 2), Fraction(0), MAX_STANDARD_LETTERS + 1)
    # an integer added to the intercept changes no letter
    alpha, rho = Fraction(233, 377), Fraction(-5, 3)
    for kind in ("lower", "upper"):
        word = mechanical_prefix(alpha, rho, 300, kind)
        assert mechanical_prefix(alpha, rho + 10**5000, 300, kind) == word


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


class NotCentralError(SturmiaError):
    """A word fails the structural checks required of central words."""


def central_decomposition(word: str) -> tuple[str, str] | str:
    """Split a central word as p + "01" + q with p, q palindromes.

    Powers of a single letter (and the empty word) are central without such a
    split; they return the repeated letter instead of a pair.  The split is
    unique for genuinely central words; anything failing the checks raises
    NotCentralError.
    """
    if word == "" or set(word) <= {word[0]}:
        return word[:1]
    if not is_palindrome(word):
        raise NotCentralError("central words are palindromes")
    splits = []
    for i in range(len(word) - 1):
        if word[i : i + 2] == "01":
            p, q = word[:i], word[i + 2 :]
            if is_palindrome(p) and is_palindrome(q):
                splits.append((p, q))
    if len(splits) != 1:
        raise NotCentralError(
            f"palindrome admits {len(splits)} valid splits around '01'; central words have exactly 1"
        )
    return splits[0]


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


# ------------------------------------------------------------ the kept words

COPIES = {"pickle": lambda value: pickle.loads(pickle.dumps(value)), "deepcopy": copy.deepcopy}


def kept_words(slope: Slope, c: str) -> tuple[str, ...]:
    """The standard words the slope keeps, once checked against c, a prefix
    of its characteristic word: s_-1 = "1", s_0 = "0", then
    s_n = c[:q_n] for n = 1, ..., top, each of at most `_PIECE` letters."""
    kept = slope._word[0]
    assert kept[:2] == ("1", "0")
    for n, word in enumerate(kept[2:], 1):
        assert len(word) == slope.q(n) <= words._PIECE and c.startswith(word), n
    return kept


def test_a_slope_holds_only_its_short_words_and_they_die_with_it():
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
    assert held <= 2 * 10**4
    assert left <= 10**4


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
    assert peak <= 1.1 * 10**7


@pytest.mark.parametrize("slope", NAMED_FIVE, ids=str)
def test_a_fresh_word_peaks_at_about_its_own_letters(slope):
    # the kept words grow by a few thousand letters, and a read joins its
    # pieces once: no level string and no cut copy beside the letters returned
    grown, read = Slope(slope.quotients, slope.period), Slope(slope.quotients, slope.period)
    gc.collect()
    tracemalloc.start()
    try:
        last = words._read(grown, 10**6 - 1, 10**6)  # grows every short word
        grown_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        word = characteristic_prefix(read, 10**6)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(word) == 10**6 and word[-1] == last
    assert len(kept_words(grown, word)[-1]) <= words._PIECE < grown.q(len(grown._word[0]) - 1)
    assert grown_peak < 2 * 10**4
    assert read_peak < 1.05 * 10**6


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
    # each slope keeps a chain of prefixes of c, grown through its last
    # level of at most _PIECE letters
    for slope in shared:
        kept = kept_words(slope, reference)
        assert slope.q(len(kept) - 1) > words._PIECE


@pytest.mark.parametrize("copy_of", COPIES.values(), ids=COPIES)
def test_a_grown_slope_copies_and_hashes_as_a_fresh_one(copy_of):
    text = "[0;2,1,3,(2,1)*]"
    slope, fresh = parse_slope(text), parse_slope(text)
    prefix = characteristic_prefix(slope, 5000)
    other = copy_of(slope)
    assert other == slope == fresh and hash(other) == hash(slope) == hash(fresh)
    assert repr(other) == repr(slope) == repr(fresh)
    assert pickle.dumps(slope) == pickle.dumps(fresh)
    assert len(kept_words(slope, prefix)) > 2
    assert other._word == fresh._word == [_NO_WORD]
    assert characteristic_prefix(other, 5000) == prefix


def per_level_word(slope: Slope, m: int) -> str:
    """c[:m], or s_D when a finite slope of depth D ends first, grown a
    level at a time by asking the ladder for each level's `level`, `q` and
    `quotient`: the reference for reads spelled off the recursion."""
    word = ""
    depth = slope.known_depth
    while len(word) < m:
        n = max(slope.level(len(word)) - 1, 0)
        size = min(m, slope.q(n + 1))
        if n == 0:
            word = "0" * min(size, slope.q(1) - 1) + "1" * (size == slope.q(1))
        else:
            a, q_n = slope.quotient(n + 1), slope.q(n)
            head = word[:q_n]
            if size <= a * q_n:
                word = (head * -(-size // q_n))[:size]
            else:
                word = (head * a + (word[: slope.q(n - 1)] if n > 1 else "0"))[:size]
        if n + 1 == depth:
            break
    return word


def seeded_word_slopes():
    """Periodic and finite slopes from one seed, a_1 = 1 (so q_1 = q_0) among
    them, and slopes with a quotient far past every target."""
    rng = random.Random(4101)
    slopes = [parse_slope("[0;1*]"), parse_slope("[0;1,2,(3,1,2)*]"), Slope((1, 1, 5, 1)), Slope((3, 2, 2))]
    slopes += [parse_slope("[0;1,1000000,(2,1)*]"), Slope((10**6,), (0, 1)), Slope((2, 3, 10**7, 1), (3, 1))]
    slopes += [Slope((10**6, 2)), Slope((1, 10**6))]
    for k in range(16):
        quotients = tuple(rng.choice((1, 1, 2, 3, 7, 40)) for _ in range(rng.randint(2, 9)))
        if k % 4 == 0:
            quotients = (1,) + quotients
        start = rng.randrange(len(quotients))
        slopes.append(Slope(quotients) if k % 3 == 2 else Slope(quotients, (start, len(quotients) - start)))
    return slopes


@pytest.mark.parametrize("slope", seeded_word_slopes(), ids=str)
def test_reads_match_the_per_level_word(slope):
    make = lambda: Slope(slope.quotients, slope.period)
    letters = words.certified_letters(make())
    top = 10**5 if letters is None else min(10**5, letters + 1)  # at most s_D on a finite slope
    targets = sorted({1, 2, 3, 5, 17, 100, 999, 10**4, top // 3, top - 1, top} & set(range(1, top + 1)))
    # from a fresh slope each
    for m in targets:
        read, reference = make(), make()
        assert words._read(read, 0, m) == per_level_word(reference, m)
        assert len(read._ladder[0]) == len(reference._ladder[0]), m
    # one slope read by a run of rising requests, through the public readers
    read, reference = make(), per_level_word(make(), top)
    for m in targets:
        if letters is None or m <= letters:
            assert characteristic_prefix(read, m) == reference[:m]
        else:
            assert standard_word(read, slope.known_depth) == reference
    kept_words(read, reference)


def test_a_read_makes_no_ladder_call_per_level(monkeypatch):
    finite = Slope((1, 2, 3, 1, 4, 2, 2, 5, 1, 3))
    letters = finite.q(10)
    levels, level = [], Slope.level
    monkeypatch.setattr(Slope, "level", lambda slope, m: levels.append(m) or level(slope, m))
    for name in ("q", "quotient"):
        monkeypatch.setattr(Slope, name, lambda *args, name=name: pytest.fail(f"Slope.{name} called"))
    reads = [(parse_slope("[0;1,2,(3,1,2)*]"), 10**5), (parse_slope("[0;1*]"), 1), (Slope((1, 1)), 2), (finite, letters)]
    for slope, m in reads:
        levels.clear()
        assert len(words._read(slope, 0, m)) == m
        assert levels == [m - 1] and slope._ladder[0][-1] >= m


# ---------------------------------------------------- reads off the recursion

FIRST_QUOTIENT_MILLION = [Slope((10**6,), (0, 1)), Slope((10**6, 2)), parse_slope("[0;1000000,(1,2)*]")]


@pytest.mark.parametrize("slope", [*NAMED_FIVE, *FIRST_QUOTIENT_MILLION], ids=str)
def test_no_kept_word_is_longer_than_the_piece_cap(slope):
    # s_1 = 0^999999 1 on a first quotient of 10^6 is never kept, and its
    # zeros are read in blocks; on fresh slopes and on one read by a run
    make = lambda: Slope(slope.quotients, slope.period)
    letters = words.certified_letters(make()) or 3 * 10**6
    lengths = [m for m in (1, 4095, 4096, 4097, 10**5, 10**6 - 1, 10**6, 10**6 + 1, 3 * 10**6) if m <= letters]
    reference = per_level_word(make(), lengths[-1])
    run = make()
    for m in lengths:
        fresh = make()
        assert characteristic_prefix(fresh, m) == reference[:m]
        kept_words(fresh, reference)
        assert characteristic_prefix(run, m) == reference[:m]
    kept_words(run, reference)


@pytest.mark.parametrize("slope", NAMED_FIVE, ids=str)
def test_a_slope_holds_under_a_five_hundredth_of_the_letters_read(slope):
    gc.collect()
    tracemalloc.start()
    try:
        fresh = Slope(slope.quotients, slope.period)
        assert len(characteristic_prefix(fresh, 10**7)) == 10**7
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del fresh
        gc.collect()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 10**7 // 500


def test_a_far_short_read_copies_only_its_letters():
    # the 10^7 letters before the read are never spelled: the slope keeps
    # only its short words, and the ladder grows to the read's own level
    golden = Slope((1,), (0, 1))
    gc.collect()
    tracemalloc.start()
    try:
        far = shifted_characteristic_prefix(golden, 10**7, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 10**4
    reference = characteristic_prefix(Slope((1,), (0, 1)), 10**7 + 100)
    assert far == reference[10**7 :]
    kept_words(golden, reference)
    assert len(golden._ladder[0]) - 2 == Slope((1,), (0, 1)).level(10**7 + 100)


@pytest.mark.parametrize("text", ["[0;2*]", "[0;3*]", "[0;2,3,(1,2)*]"])
def test_a_window_across_two_copies_spells_no_long_word(text, monkeypatch):
    # 200 letters around the end of the first copy of s_n, |s_n| > 10^6, in
    # s_{n+1}: a suffix and a prefix of s_n, with no run of copies between
    slope = parse_slope(text)
    n = slope.level(10**6)
    reference = characteristic_prefix(Slope(slope.quotients, slope.period), slope.q(n) + 100)
    levels, copies = [], words._copies
    monkeypatch.setattr(words, "_copies", lambda kept, a, m, *rest: levels.append(m) or copies(kept, a, m, *rest))
    assert slope.quotient(n + 1) >= 2
    assert words._read(slope, slope.q(n) - 100, slope.q(n) + 100) == reference[-200:]
    assert all(m < len(slope._word[0]) - 1 for m in levels), levels


def level_boundaries(slope: Slope, top: int) -> list[int]:
    """Where a copy of s_{n-1} ends within s_n = c[:q_n] for n >= 1, past
    the kept words and up to `top`: the first, middle and last few of the
    a_n - [n = 1] copies."""
    boundaries, n = set(), 1
    while True:
        size, copies = slope.q(n - 1), slope.quotient(n) - (n == 1)
        for j in (1, 2, 3, copies // 2, copies - 1, copies):
            boundaries.add(j * size)
        boundaries.add(slope.q(n))
        if slope.q(n) >= top or n == slope.known_depth:
            return sorted(b for b in boundaries if words._PIECE < b <= top)
        n += 1


@pytest.mark.parametrize("slope", seeded_word_slopes(), ids=str)
def test_windows_across_level_boundaries_match_both_references(slope):
    make = lambda: Slope(slope.quotients, slope.period)
    letters = words.certified_letters(make())
    top = 3 * 10**5 if letters is None else min(3 * 10**5, letters)
    reference = per_level_word(make(), top)
    ends = level_boundaries(make(), top)
    grown = make()
    rng = random.Random(str(slope))
    crossed = 0
    for k in range(100):
        # a window around a boundary of the recursion, or anywhere
        around = rng.choice(ends) if ends and rng.random() < 0.8 else rng.randint(0, top)
        start = max(around - rng.randint(0, 2 * words._PIECE), 0)
        stop = min(around + rng.randint(0, 2 * words._PIECE), top)
        crossed += any(start < end < stop for end in ends)
        assert shifted_characteristic_prefix(grown, start, stop - start) == reference[start:stop]
        # and on a fresh slope, whose kept words grow for this read first
        assert shifted_characteristic_prefix(make(), start, stop - start) == reference[start:stop]
        if k % 10 == 0:
            assert block_product(make(), stop)[start:] == reference[start:stop]
    assert crossed > 50 or not ends
    if letters is not None:
        # the last certified letters, q_D - 1 of them, and s_D whole
        whole = per_level_word(make(), letters + 1)
        assert standard_word(grown, slope.known_depth) == standard_word(make(), slope.known_depth) == whole
        start = max(letters - 3 * words._PIECE, 0)
        assert shifted_characteristic_prefix(grown, start, letters - start) == whole[start:letters]
        assert block_product(make(), letters)[start:] == whole[start:letters]
