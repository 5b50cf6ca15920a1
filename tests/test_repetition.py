"""Tests for the repetition function: scans, closed forms, exponent estimates."""

import math
import random
import tracemalloc
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from sturmia import repetition
from sturmia.acceptance import NAMED_FIVE, _seeded_digits
from sturmia.errors import (
    DepthError,
    PrefixTooShortError,
    RangeError,
    SturmiaError,
)
from sturmia.intercept import AlphaNumber, sigma0, sigma1, sturmian_prefix, zero
from sturmia.ostrowski import all_digit_strings, encode
from sturmia.repetition import (
    DioEstimate,
    DioTerm,
    RepetitionRow,
    dio_estimate,
    profile_lookup,
    repetition_closed_form,
    repetition_closed_forms,
    repetition_direct,
    repetition_jump_check,
    repetition_level,
    repetition_profile,
    repetition_rows,
)
from sturmia.slope import Slope, interval_locate, parse_slope
from sturmia.words import (
    characteristic_prefix,
    shifted_characteristic_prefix,
    standard_word,
)
from test_words import central_decomposition

GOLDEN = parse_slope("[0;1*]")
TWO_ONE = parse_slope("[0;2,(1)*]")
MIXED = parse_slope("[0;2,1,3,(2,1)*]")
SLOPES = [GOLDEN, TWO_ONE, MIXED]


def characteristic_repetition(slope: Slope, m: int) -> int:
    """r(c, m) for the characteristic word: q_n on [q_n - 1, q_{n+1} - 2]."""
    return slope.q(interval_locate(m, slope).n)


def oracle_word(rho: AlphaNumber, length: int, extension: int = 4) -> str:
    """Prefix of the shifted word via the zero-extension of the digit window."""
    deep = AlphaNumber(rho.digits + (0,) * extension, rho.slope)
    return sturmian_prefix(deep, length)


# ---------------------------------------------------------------- direct scan


def test_direct_examples():
    c = characteristic_prefix(GOLDEN, 40)
    assert repetition_direct(c, 2) == 3
    assert repetition_direct(c, 4) == 5
    assert repetition_direct("000000", 1) == 1


def test_direct_guards():
    with pytest.raises(RangeError):
        repetition_direct("0101", 0)
    with pytest.raises(PrefixTooShortError):
        repetition_direct("01", 2)


def reference_direct(x_prefix: str, m: int) -> int | None:
    """The scan that keeps every window whole; None where it finds no repeat."""
    seen = set()
    for i in range(len(x_prefix) - m + 1):
        window = x_prefix[i : i + m]
        if window in seen:
            return i
        seen.add(window)
    return None


def direct_or_none(x_prefix: str, m: int) -> int | None:
    try:
        return repetition_direct(x_prefix, m)
    except PrefixTooShortError:
        return None


def scan_words(alphabet: str):
    """Random words, and words that repeat a block so repeats come late."""
    return st.one_of(
        st.text(alphabet=alphabet, max_size=80),
        st.builds(
            lambda block, times, tail: block * times + tail,
            st.text(alphabet=alphabet, min_size=1, max_size=20),
            st.integers(min_value=1, max_value=4),
            st.text(alphabet=alphabet, max_size=10),
        ),
    )


@settings(max_examples=150, deadline=None)
@given(st.one_of(scan_words("01"), scan_words("012"), scan_words("0\U0001F600\ud800")))
def test_direct_matches_window_set_scan(word):
    # an astral letter takes two UTF-16 units and a lone surrogate has no
    # plain UTF-32 encoding: each must still read as one letter
    for m in range(1, len(word) + 2):
        assert direct_or_none(word, m) == reference_direct(word, m)


class Prefix(str):
    """A word that records in `misses` each in-place confirmation that fails."""

    def __new__(cls, word: str, misses: list[tuple[str, int]]):
        prefix = super().__new__(cls, word)
        prefix.misses = misses
        return prefix

    def startswith(self, window, start):
        agrees = super().startswith(window, start)
        if not agrees:
            self.misses.append((window, start))
        return agrees


def test_direct_exact_when_every_hash_collides(monkeypatch):
    misses = []
    # modulus 1: every window has the fingerprint 0
    monkeypatch.setattr(repetition, "_MODULUS", 1)
    monkeypatch.setattr(repetition, "_NARROW_MODULUS", 1)
    rng = random.Random(3)
    words = [characteristic_prefix(slope, 150) for slope in SLOPES]
    words += ["".join(rng.choice("012") for _ in range(60)) for _ in range(5)]
    words += ["000000", "0120120", "01", "0110100110010110"]
    # both readings: one byte a letter (ASCII) and code points (Latin-1
    # but not ASCII, astral, lone surrogates)
    words += [word.translate({ord("1"): "\xe9"}) for word in words[:2]]
    words += ["\xff\x00\xe9" * 5 + "\x00\xff", "0\U0001F600" * 6 + "\ud800\U0001F600"]
    for word in words:
        for m in range(1, len(word) + 2):
            assert direct_or_none(Prefix(word, misses), m) == reference_direct(word, m)
    # scans of 2**16 and 2**16 + 1 windows, one on each side of the line
    # between the two primes; at m = 40 neither repeats a window
    for m in (24, 40):
        for windows in (2**16, 2**16 + 1):
            word = "".join(rng.choice("01") for _ in range(windows + m - 1))
            assert direct_or_none(Prefix(word, misses), m) == reference_direct(word, m)
    # distinct windows met under one fingerprint and were kept whole
    assert misses


@pytest.mark.parametrize("windows", [2**16, 2**16 + 1])
@pytest.mark.parametrize("m", [1, 3, 50])
def test_direct_reduces_modulo_the_narrow_prime_up_to_2_16_windows(monkeypatch, windows, m):
    # windows 1 and 0 differ, so only a modulus of 1 makes window 1 a false hit
    word = "0" * (m - 1) + "1" + "0" * (windows - 1)
    expected = reference_direct(word, m)
    for name, used in (("_NARROW_MODULUS", windows <= 2**16), ("_MODULUS", windows > 2**16)):
        with monkeypatch.context() as patch:
            patch.setattr(repetition, name, 1)
            misses = []
            assert repetition_direct(Prefix(word, misses), m) == expected
            assert bool(misses) == used, name


def test_direct_matches_the_window_set_scan_across_the_2_16_window_line():
    rng = random.Random(16)
    for m in (16, 32, 48):
        for windows in (2**16 - 1, 2**16, 2**16 + 1, 2**16 + 2):
            word = "".join(rng.choice("01") for _ in range(windows + m - 1))
            assert direct_or_none(word, m) == reference_direct(word, m)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first 13 prime bases, exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# The prime factors of (P - 1) / 4 for each fingerprint modulus P
ORDER_FACTORS = {
    2**30 - 35: (7, 2341, 16381),
    2**64 - 59: (11, 137, 547, 5594472617641),
}


def test_fingerprint_modulus_is_a_prime_where_the_base_has_large_order():
    # the narrow prime is one 30-bit digit of a CPython int
    assert repetition._NARROW_MODULUS < 2**30
    assert is_prime(2**61 - 1) and not is_prime(2**64 - 1)
    for p in (repetition._NARROW_MODULUS, repetition._MODULUS):
        assert p < 3 * 10**24 and is_prime(p)
        order = (p - 1) // 4
        factors = ORDER_FACTORS[p]
        assert math.prod(factors) == order and all(is_prime(f) for f in factors)
        # windows at distance d share a weight when base**d = 1, so no d below
        # the order of the base.  For the bases of the one-byte and the
        # code-point readings that order is exactly (P - 1) / 4: base**order
        # is 1, and base**(order / f) is not for any prime factor f of it.
        for base in (2**8, 2**32):
            assert pow(base, order, p) == 1
            assert all(pow(base, order // f, p) != 1 for f in factors), (p, base)
    assert (repetition._NARROW_MODULUS - 1) // 4 == 268_435_447
    assert (repetition._MODULUS - 1) // 4 == 4_611_686_018_427_387_889


def late_repeat_word(rng: random.Random, alphabet: str, length: int, block: int) -> str:
    """A random word whose last `block` letters copy an earlier run, so a
    scan at m <= block reads up to the end before it meets a repeat."""
    body = "".join(rng.choice(alphabet) for _ in range(length - block))
    start = rng.randrange(len(body) - block)
    return body + body[start : start + block]


# Latin-1 alphabets: the ASCII and NUL ones read one byte a letter, the
# 0xff and é ones, not ASCII, code points in four bytes
LATIN_1_ALPHABETS = {"ascii": "01", "nul": "\x00a", "xff": "\xff\x00b", "e-acute": "ab\xe9"}


@pytest.mark.parametrize("alphabet", LATIN_1_ALPHABETS.values(), ids=LATIN_1_ALPHABETS)
def test_direct_reads_one_byte_and_four_byte_letters_alike(alphabet):
    # Mapping one letter of the alphabet to an astral code point or to a lone
    # surrogate sends the word to the four-byte reading; the map is one to
    # one, so every window repeats where it did and the answer is the same.
    wide = [{ord(alphabet[-1]): "\U0001F600"}, {ord(alphabet[0]): "\udc80"}]
    rng = random.Random(len(alphabet) * 256 + ord(alphabet[-1]))
    short = [late_repeat_word(rng, alphabet, 120, 30) for _ in range(3)]
    for word in short:
        for m in range(1, len(word) + 2):
            expected = reference_direct(word, m)
            assert direct_or_none(word, m) == expected
            for table in wide:
                assert direct_or_none(word.translate(table), m) == expected
    # m = 40 scans 2**16 + 1 windows modulo the wide prime and m = 41 scans
    # 2**16 modulo the narrow one; both meet the copied run at the end
    word = late_repeat_word(rng, alphabet, 2**16 + 40, 41)
    for m in (40, 41):
        expected = reference_direct(word, m)
        assert expected is not None
        assert direct_or_none(word, m) == expected
        for table in wide:
            assert direct_or_none(word.translate(table), m) == expected


def test_direct_scan_memory_is_linear():
    word = characteristic_prefix(GOLDEN, 24494)
    tracemalloc.start()
    try:
        value = repetition_direct(word, 6781)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == characteristic_repetition(GOLDEN, 6781) == 6765
    # keeping every window whole would hold 6765 windows of 6781 letters
    assert peak < 5 * 2**20


def test_direct_scan_reads_a_binary_word_one_byte_a_letter():
    word = characteristic_prefix(GOLDEN, 10**6)
    tracemalloc.start()
    try:
        value = repetition_direct(word, 200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == characteristic_repetition(GOLDEN, 200) == 144
    # the word once at one byte a letter, not four (3.8 MB) or twice
    assert peak < 2.5 * 2**20


@pytest.mark.parametrize("slope", [GOLDEN, parse_slope("[0;2,3,(1,2)*]")], ids=str)
def test_direct_at_m_50000_matches_the_characteristic_form(slope):
    pos = interval_locate(50_000, slope)
    word = characteristic_prefix(slope, 50_000 + slope.q(pos.n + 1) + slope.q(pos.n) + 2)
    expected = characteristic_repetition(slope, 50_000)
    assert repetition_direct(word, 50_000) == expected
    if slope == GOLDEN:
        assert expected == 46368


def test_characteristic_examples():
    assert characteristic_repetition(GOLDEN, 2) == 3
    assert characteristic_repetition(GOLDEN, 7) == 8
    assert characteristic_repetition(TWO_ONE, 1) == 2


def test_characteristic_matches_direct():
    for slope in SLOPES:
        c = characteristic_prefix(slope, 400)
        for m in range(1, 41):
            assert repetition_direct(c, m) == characteristic_repetition(slope, m)


# ------------------------------------------------------------- 4-branch level


def test_level_examples():
    # shift 0 is branch 1; the largest shift lands in branch 4 at the last m
    assert repetition_level(0, GOLDEN, 4) == 5
    m = GOLDEN.q(5) - 2
    assert repetition_level(GOLDEN.q(5) - 1, GOLDEN, m) == GOLDEN.q(4) + 1


def test_level_shift_range_guard():
    with pytest.raises(RangeError):
        repetition_level(-1, GOLDEN, 4)
    with pytest.raises(RangeError):
        repetition_level(GOLDEN.q(5), GOLDEN, 4)


@pytest.mark.parametrize("slope", SLOPES)
def test_level_sweep_matches_direct(slope):
    for n in range(2, 6):
        q_n, q_n1 = slope.q(n), slope.q(n + 1)
        for m in range(q_n - 1, q_n1 - 1):
            if m < 1:
                continue
            for shift in range(q_n1):
                word = shifted_characteristic_prefix(slope, shift, 2 * (m + 1) + m)
                assert repetition_level(shift, slope, m) == repetition_direct(word, m)


# ----------------------------------------------------------------- 8-case law


def test_closed_form_zero_intercept_is_characteristic():
    rho = zero(GOLDEN, 10)
    top = GOLDEN.q(8) - 2
    for m in range(1, top + 1):
        value, case = repetition_closed_form(rho, m)
        assert value == characteristic_repetition(GOLDEN, m)
        assert case == "2"


def test_closed_form_depth_guard():
    rho = zero(GOLDEN, 6)
    big = GOLDEN.q(7) - 2
    with pytest.raises(DepthError):
        repetition_closed_form(rho, big)


def test_closed_form_past_the_window_is_the_row_builders_depth_error():
    rho = zero(GOLDEN, 6)
    for m in (GOLDEN.q(7) - 1, GOLDEN.q(12)):
        n = interval_locate(m, GOLDEN).n
        assert n > rho.depth
        with pytest.raises(DepthError) as single:
            repetition_closed_form(rho, m)
        with pytest.raises(DepthError) as rows:
            repetition_rows(rho, n)
        assert str(single.value) == str(rows.value)
        assert str(single.value).startswith(f"closed form at level {n} needs digits")


@pytest.mark.parametrize(
    "slope,depth,m_top_level,expected_cases",
    [
        (GOLDEN, 7, 6, {"1", "2", "4", "8"}),
        (MIXED, 7, 5, {"1", "2", "3", "4", "5", "6", "7", "8"}),
    ],
)
def test_closed_form_exhaustive_digit_strings(slope, depth, m_top_level, expected_cases):
    """Every valid digit window against the direct oracle, every m."""
    m_top = slope.q(m_top_level) - 2
    seen_cases = set()
    for digits in all_digit_strings(slope, depth):
        rho = AlphaNumber(digits, slope)
        word = oracle_word(rho, 2 * m_top + 4)
        for m in range(1, m_top + 1):
            value, case = repetition_closed_form(rho, m)
            seen_cases.add(case)
            assert value == repetition_direct(word, m), (digits, m, case)
    assert seen_cases == expected_cases


def test_closed_form_seeded_random_slopes():
    rng = random.Random(20260814)
    for _ in range(60):
        qs = tuple(rng.randint(1, 4) for _ in range(6))
        slope = Slope(qs, (0, len(qs)))
        digits = []
        prev = 0
        for i in range(1, 9):
            hi = slope.quotient(i) - 1 if i == 1 else slope.quotient(i)
            b = rng.randint(0, hi)
            if i >= 2 and b == slope.quotient(i) and prev != 0:
                b -= 1
            digits.append(b)
            prev = b
        rho = AlphaNumber(tuple(digits), slope)
        m_top = min(slope.q(6) - 2, 40)
        word = oracle_word(rho, 2 * m_top + 4)
        m = rng.randint(1, m_top)
        value, _ = repetition_closed_form(rho, m)
        assert value == repetition_direct(word, m), (qs, digits, m)


def large_quotient_slopes(count: int, seed: int) -> list[tuple[Slope, int]]:
    """Periodic slopes with a head of up to 2 and a period of up to 4
    quotients, each in 1..50, and the depth d of their windows: the last d
    with q_{d+1} <= 3000.  Slopes with d < 4 are drawn again."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        head = [rng.randint(1, 50) for _ in range(rng.randint(0, 2))]
        period = [rng.randint(1, 50) for _ in range(rng.randint(1, 4))]
        slope = Slope(tuple(head + period), (len(head), len(period)))
        depth = slope.level(3000) - 2  # level(3000) is the first n with q_n > 3000
        if depth >= 4:
            out.append((slope, depth))
    return out


def test_closed_forms_at_large_quotients():
    """Closed forms against the profile, as criterion 05 reads them, on
    slopes whose quotients reach 50 rather than 5."""
    rng = random.Random(44)
    pairs = 0
    cases = set()
    for slope, depth in large_quotient_slopes(12, 44):
        m_top = slope.q(depth - 1) - 2
        for _ in range(15):
            rho = AlphaNumber(_seeded_digits(rng, slope, depth), slope)
            word = oracle_word(rho, 2 * m_top + 4)
            profile = repetition_profile(word, m_top)
            for m, (value, case) in enumerate(repetition_closed_forms(rho, m_top), start=1):
                assert value == profile_lookup(profile, m, len(word)), (slope, rho.digits, m, case)
                cases.add(case)
            pairs += m_top
    assert cases == set("12345678")
    assert pairs == 76_185


def test_closed_form_agrees_with_level_formula():
    """Outside case 1 the window value comes from the 4-branch formula."""
    for slope, depth in [(GOLDEN, 8), (MIXED, 7)]:
        for digits in all_digit_strings(slope, depth):
            rho = AlphaNumber(digits, slope)
            m_top = slope.q(depth - 2) - 2
            for m in (1, 2, m_top // 2 + 1, m_top):
                if m < 1:
                    continue
                value, case = repetition_closed_form(rho, m)
                if case == "1":
                    continue
                n = interval_locate(m, slope).n
                assert value == repetition_level(rho.psi(n + 1), slope, m)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_rows_tile_and_respect_bounds(data):
    qs = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    slope = Slope(tuple(qs), (0, len(qs)))
    depth = data.draw(st.integers(6, 9))
    digits = []
    prev = 0
    for i in range(1, depth + 1):
        hi = slope.quotient(i) - 1 if i == 1 else slope.quotient(i)
        b = data.draw(st.integers(0, hi))
        if i >= 2 and b == slope.quotient(i) and prev != 0:
            b -= 1
        digits.append(b)
        prev = b
    rho = AlphaNumber(tuple(digits), slope)
    for n in range(depth - 2):
        if slope.q(n) - 1 > slope.q(n + 1) - 2:
            continue
        rows = repetition_rows(rho, n)
        assert rows[0].m_lo == slope.q(n) - 1
        assert rows[-1].m_hi == slope.q(n + 1) - 2
        for left, right in zip(rows, rows[1:]):
            assert right.m_lo == left.m_hi + 1
            assert right.value >= left.value
        for row in rows:
            assert 1 <= row.value <= row.m_lo + 1


@pytest.mark.parametrize("slope", NAMED_FIVE, ids=str)
def test_rows_tile_every_level_of_every_window(slope):
    # repetition_rows builds its rows without checking that they tile: here
    # every valid window up to depth 7 is read at every level it reaches
    for depth in range(2, 8):
        for digits in all_digit_strings(slope, depth):
            rho = AlphaNumber(digits, slope)
            for n in range(depth - 1):
                lo, hi = slope.q(n) - 1, slope.q(n + 1) - 2
                if lo > hi:
                    with pytest.raises(RangeError):
                        repetition_rows(rho, n)
                    continue
                rows = repetition_rows(rho, n)
                assert rows[0].m_lo == lo and rows[-1].m_hi == hi, (digits, n)
                assert all(row.m_lo <= row.m_hi for row in rows), (digits, n)
                for left, right in zip(rows, rows[1:]):
                    assert right.m_lo == left.m_hi + 1, (digits, n)
                    assert right.value >= left.value, (digits, n)


# ------------------------------------------------------------------- jump law


def test_jump_law_holds():
    c = characteristic_prefix(GOLDEN, 150)
    report = repetition_jump_check(c, 2, 30)
    assert report.holds and report.failures == ()
    shifted = shifted_characteristic_prefix(MIXED, 5, 150)
    assert repetition_jump_check(shifted, 2, 20).holds
    with pytest.raises(RangeError, match="^jump law compares m with m-1; need m_lo >= 2$"):
        repetition_jump_check(c, 1, 5)


def test_jump_targets_are_m_plus_one():
    c = characteristic_prefix(TWO_ONE, 150)
    values = {m: repetition_direct(c, m) for m in range(1, 31)}
    jumps = [m for m in range(2, 31) if values[m] != values[m - 1]]
    assert jumps
    for m in jumps:
        assert values[m] == m + 1


def test_repeated_window_is_the_prefix():
    # for characteristic words the window that repeats first is L_m itself
    for slope in SLOPES:
        c = characteristic_prefix(slope, 200)
        for m in range(1, 31):
            k = repetition_direct(c, m)
            assert c[k : k + m] == c[:m]


def test_central_word_repetition():
    hits = 0
    for slope in SLOPES:
        for n in range(3, 9):
            word = standard_word(slope, n)[:-2]
            if len(word) < 2 or set(word) <= {word[0]}:
                continue
            p, q = central_decomposition(word)
            if len(p) > len(q):
                continue
            try:
                assert repetition_direct(word, len(p) + 1) == len(p) + 2
                hits += 1
            except PrefixTooShortError:
                pass
    assert hits >= 5


# ------------------------------------------------------------------ exponents


def test_dio_golden_approaches_one_plus_phi():
    phi = (1 + math.sqrt(5)) / 2
    est = dio_estimate(zero(GOLDEN, 25))
    assert est.mode == "generic"
    assert abs(float(est.value) - (1 + phi)) < 1e-3
    assert est.witness.level >= 20


def test_dio_sparse_support_stays_close():
    phi = (1 + math.sqrt(5)) / 2
    est = dio_estimate(encode(1, GOLDEN, 25))
    assert abs(float(est.value) - (1 + phi)) < 1e-2


def test_dio_four_family_cross_check():
    slope = parse_slope("[0;4*]")
    rho = AlphaNumber((2,) * 14, slope)
    est = dio_estimate(rho)
    assert est.mode == "four-family"
    assert est.witness.family in (0, 1, 2, 3)
    generic = 1 + max(
        row.m_hi / row.value
        for n in range(1, rho.depth - 1)
        for row in repetition_rows(rho, n)
    )
    assert abs(float(est.value) - generic) < 0.02


def test_dio_depth_guards():
    with pytest.raises(DepthError):
        dio_estimate(zero(GOLDEN, 4))
    with pytest.raises(DepthError):
        dio_estimate(zero(GOLDEN, 10), depth=12)


# ------------------------------------------------------------ all-m profile


def direct_outcome(word: str, m: int):
    try:
        return repetition_direct(word, m)
    except PrefixTooShortError as exc:
        return ("PrefixTooShortError", str(exc))


def lookup_outcome(profile: list[int], m: int, letters: int):
    try:
        return profile_lookup(profile, m, letters)
    except PrefixTooShortError as exc:
        return ("PrefixTooShortError", str(exc))


@settings(max_examples=200, deadline=None)
@given(st.one_of(scan_words("01"), scan_words("012")), st.integers(0, 90))
def test_profile_matches_direct_scan(word, m_max):
    profile = repetition_profile(word)
    for m in range(1, len(word) + 2):
        assert lookup_outcome(profile, m, len(word)) == direct_outcome(word, m)
    # stopping early keeps every entry and still certifies each m <= m_max
    early = repetition_profile(word, m_max)
    assert early == profile[: len(early)]
    for m in range(1, m_max + 1):
        assert lookup_outcome(early, m, len(word)) == direct_outcome(word, m)


def test_profile_lookup_guards():
    profile = repetition_profile("0101")
    with pytest.raises(RangeError, match="window length must be >= 1, got 0"):
        profile_lookup(profile, 0, 4)
    assert repetition_profile("") == []


def test_profile_reaches_far_on_a_long_prefix():
    word = characteristic_prefix(MIXED, 5000)
    profile = repetition_profile(word)
    for m in (1, 10, 100, 1000, len(profile)):
        assert profile[m - 1] == repetition_direct(word, m) == characteristic_repetition(MIXED, m)


def closed_form_outcomes(rho: AlphaNumber, m_top: int):
    """Per-m closed forms up to m_top, stopping at the first error."""
    values = []
    for m in range(1, m_top + 1):
        try:
            values.append(repetition_closed_form(rho, m))
        except SturmiaError as exc:
            return values, (type(exc), str(exc))
    return values, None


def test_closed_forms_table_matches_per_m_closed_form():
    rng = random.Random(20260815)
    raised = 0
    for trial in range(80):
        qs = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
        slope = Slope(qs, (0, len(qs)))
        depth = rng.randint(3, 9)
        digits = []
        prev = 0
        for i in range(1, depth + 1):
            hi = slope.quotient(i) - 1 if i == 1 else slope.quotient(i)
            b = rng.randint(0, hi)
            if i >= 2 and b == slope.quotient(i) and prev != 0:
                b -= 1
            digits.append(b)
            prev = b
        rho = AlphaNumber(tuple(digits), slope)
        # m_top reaches past what the window covers in most trials
        m_top = min(slope.q(depth) + 5, 400)
        values, error = closed_form_outcomes(rho, m_top)
        if error is None:
            assert repetition_closed_forms(rho, m_top) == values
            continue
        raised += 1
        assert repetition_closed_forms(rho, len(values)) == values
        for top in (len(values) + 1, m_top):
            with pytest.raises(error[0]) as info:
                repetition_closed_forms(rho, top)
            assert str(info.value) == error[1]
    assert raised > 20
    assert repetition_closed_forms(zero(GOLDEN, 8), 0) == []


def test_closed_forms_depth_error_message():
    rho = zero(GOLDEN, 6)
    big = GOLDEN.q(7) - 2
    values, error = closed_form_outcomes(rho, big)
    assert error is not None and error[0] is DepthError
    with pytest.raises(DepthError) as table:
        repetition_closed_forms(rho, big)
    assert str(table.value) == error[1]
    assert repetition_closed_forms(rho, len(values)) == values
    # a row whose m range passes MAX_STANDARD_LETTERS values is refused before
    # the list grows; one that starts past m_hi adds nothing
    wide = encode(17, Slope((2**20000,), (0, 1)), 2)
    message = r"^closed forms through m = 10{30} would list more than 100000000 values$"
    with pytest.raises(RangeError, match=message):
        repetition_closed_forms(wide, 10**30)
    assert repetition_closed_forms(wide, 3) == [repetition_closed_form(wide, m) for m in (1, 2, 3)]


def reference_jump_failures(word: str, m_lo: int, m_hi: int) -> tuple[int, ...]:
    values = {m: repetition_direct(word, m) for m in range(m_lo - 1, m_hi + 1)}
    return tuple(
        m
        for m in range(m_lo, m_hi + 1)
        if (values[m] != values[m - 1]) != (values[m] == m + 1)
    )


def test_jump_check_matches_direct_scans():
    rng = random.Random(11)
    words = [characteristic_prefix(GOLDEN, 40), shifted_characteristic_prefix(MIXED, 5, 90)]
    words += ["".join(rng.choice("012") for _ in range(60)) for _ in range(5)]
    for word in words:
        # the first m whose repeat the word does not certify
        short = next(
            m for m in range(1, len(word) + 2) if isinstance(direct_outcome(word, m), tuple)
        )
        if short > 2:
            report = repetition_jump_check(word, 2, short - 1)
            assert report.failures == reference_jump_failures(word, 2, short - 1)
            assert report.holds == (report.failures == ())
        with pytest.raises(PrefixTooShortError) as direct:
            repetition_direct(word, short)
        with pytest.raises(PrefixTooShortError) as jump:
            repetition_jump_check(word, 2, short + 3)
        assert str(jump.value) == str(direct.value)


# ---------------------------------------------------- walk over the levels


def reference_rows(rho: AlphaNumber, n: int) -> tuple[RepetitionRow, ...]:
    """The rows of one level, each value read through the public accessors."""
    if n < 0:
        raise RangeError(f"interval level must be >= 0, got {n}")
    if n + 2 > rho.depth:
        raise DepthError(
            f"closed form at level {n} needs digits through {n + 2}, window has {rho.depth}"
        )
    slope = rho.slope
    q_lo, q, q_hi = slope.q(n - 1), slope.q(n), slope.q(n + 1)
    a = slope.quotient(n + 1)
    b_cur = rho.digits[n]
    b_below = rho.digits[n - 1] if n else 0
    b_above = rho.digits[n + 1]
    a_above = slope.quotient(n + 2)
    rho_n = rho.psi(n)
    rho_n1 = rho.psi(n + 1)
    lo, hi = q - 1, q_hi - 2
    if lo > hi:
        raise RangeError(f"interval at level {n} is empty for this slope")

    if b_cur == 0 and b_above == a_above:
        raw = [(lo, hi, q, "1")]
    elif b_cur == 0 and b_below == 0:
        raw = [
            (lo, q_hi - rho_n - 2, q, "2"),
            (q_hi - rho_n - 1, hi, q_hi - rho_n, "2"),
        ]
    elif b_cur == 0 and a != 1:
        raw = [
            (lo, q_hi - rho_n - 2, q, "3"),
            (q_hi - rho_n - 1, hi, q_hi - rho_n, "3"),
        ]
    elif b_cur == 0:
        raw = [(lo, hi, q + q_lo - rho_n, "4")]
    elif 0 < b_cur < a - 1:
        raw = [
            (lo, q_hi - rho_n1 - 2, q, "5"),
            (q_hi - rho_n1 - 1, q_hi - b_cur * q - 2, q_hi - rho_n1, "5"),
            (q_hi - b_cur * q - 1, q_hi + q - rho_n1 - 2, q_hi - b_cur * q, "5"),
            (q_hi + q - rho_n1 - 1, hi, q_hi + q - rho_n1, "5"),
        ]
    elif b_cur == a - 1 and b_below == 0:
        raw = [
            (lo, q + q_lo - rho_n - 2, q, "6"),
            (q + q_lo - rho_n - 1, q + q_lo - 2, q + q_lo - rho_n, "6"),
            (q + q_lo - 1, 2 * q + q_lo - rho_n - 2, q + q_lo, "6"),
            (2 * q + q_lo - rho_n - 1, hi, 2 * q + q_lo - rho_n, "6"),
        ]
    elif b_cur == a - 1:
        raw = [
            (lo, q + q_lo - 2, q + q_lo - rho_n, "7"),
            (q + q_lo - 1, 2 * q + q_lo - rho_n - 2, q + q_lo, "7"),
            (2 * q + q_lo - rho_n - 1, hi, 2 * q + q_lo - rho_n, "7"),
        ]
    elif b_cur == a:
        raw = [
            (lo, q + q_lo - rho_n - 2, q_lo, "8"),
            (q + q_lo - rho_n - 1, hi, q + q_lo - rho_n, "8"),
        ]
    else:
        raise AssertionError(f"digits b_{n + 1}={b_cur}, a_{n + 1}={a} match no case")

    rows = [
        RepetitionRow(max(m_lo, lo), min(m_hi, hi), value, case)
        for (m_lo, m_hi, value, case) in raw
        if max(m_lo, lo) <= min(m_hi, hi)
    ]
    assert rows and rows[0].m_lo == lo and rows[-1].m_hi == hi
    assert all(right.m_lo == left.m_hi + 1 for left, right in zip(rows, rows[1:]))
    return tuple(rows)


def reference_closed_form(rho: AlphaNumber, m: int) -> tuple[int, str]:
    pos = interval_locate(m, rho.slope)
    row = next(row for row in reference_rows(rho, pos.n) if row.m_lo <= m <= row.m_hi)
    return row.value, row.case


def reference_dio(
    rho: AlphaNumber, depth: int | None = None
) -> tuple[DioEstimate, tuple[DioTerm, ...]]:
    """The exponent estimate and its terms from per-level reads and the
    reference rows."""
    d = rho.depth if depth is None else depth
    slope = rho.slope
    start = max(1, d // 2)
    terms = []
    if all(0 < rho.digits[i - 1] < slope.quotient(i) - 1 for i in range(start, d + 1)):
        for n in range(start, d):
            q, q_hi = slope.q(n), slope.q(n + 1)
            b = rho.digits[n]
            rho_n1 = rho.psi(n + 1)
            for family, ratio in enumerate(
                (
                    Fraction(q_hi - rho_n1, q),
                    Fraction(q_hi - b * q, q_hi - rho_n1),
                    Fraction(q_hi - rho_n1 + q, q_hi - b * q),
                    Fraction(q_hi, q_hi - rho_n1 + q),
                )
            ):
                terms.append(DioTerm(n, family, ratio))
        mode = "four-family"
    else:
        for n in range(1, d - 1):
            for row in reference_rows(rho, n):
                terms.append(DioTerm(n, -1, Fraction(row.m_hi, row.value)))
        mode = "generic"
    witness = max(terms, key=lambda t: t.ratio)
    return DioEstimate(1 + witness.ratio, mode, witness), tuple(terms)


def outcome(f, *args):
    try:
        return f(*args)
    except SturmiaError as exc:
        return type(exc), str(exc)


def walk_windows(slope: Slope, depth: int, rng: random.Random) -> list[AlphaNumber]:
    """The zero and sigma windows and three uniform draws of one depth."""
    windows = [zero(slope, depth), sigma0(slope, depth), sigma1(slope, depth)]
    return windows + [encode(rng.randrange(slope.q(depth)), slope, depth) for _ in range(3)]


def walk_corpus() -> list[AlphaNumber]:
    """Windows over NAMED_FIVE, seeded periodic slopes, a finite slope at its
    full depth and a slice with quotients up to 50."""
    rng = random.Random(20261019)
    slopes = list(NAMED_FIVE)
    for _ in range(12):
        qs = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 4)))
        slopes.append(Slope(qs, (0, len(qs))))
    for _ in range(6):
        qs = tuple(rng.randint(1, 50) for _ in range(rng.randint(1, 3)))
        slopes.append(Slope((rng.randint(1, 50),) + qs, (1, len(qs))))
    windows = []
    for slope in slopes:
        windows += walk_windows(slope, rng.randint(6, 12), rng)
    finite = Slope((1, 3, 2, 1, 4, 1, 2, 5))
    windows += walk_windows(finite, 8, rng) + walk_windows(finite, 5, rng)
    return windows


WALK_CORPUS = walk_corpus()


def test_rows_are_records():
    for rho in WALK_CORPUS[:12]:
        for n in range(rho.depth - 1):
            rows = outcome(repetition_rows, rho, n)
            if isinstance(rows[0], type):
                continue
            assert rows and all(type(row) is RepetitionRow for row in rows)


def test_walk_corpus_reaches_every_case():
    cases = set()
    for rho in WALK_CORPUS:
        for n in range(rho.depth - 1):
            rows = outcome(reference_rows, rho, n)
            if isinstance(rows[0], RepetitionRow):
                cases.update(row.case for row in rows)
    assert cases == set("12345678")
    assert any(rho.slope.quotient(1) == 1 for rho in WALK_CORPUS)
    assert max(max(rho.slope.quotients) for rho in WALK_CORPUS) > 40


@pytest.mark.parametrize("rho", WALK_CORPUS, ids=lambda rho: f"{rho.slope}:{rho.digits}")
def test_walk_matches_the_reference_rows_at_every_level(rho):
    depth = rho.depth
    for n in (-3, -1, depth - 1, depth, depth + 4):
        assert outcome(repetition_rows, rho, n) == outcome(reference_rows, rho, n)
    expected = [outcome(reference_rows, rho, n) for n in range(depth - 1)]
    for n in range(depth - 1):
        assert outcome(repetition_rows, rho, n) == expected[n]
    # a walk from each level it can start at gives every later level's rows,
    # then the reference's DepthError one level past the window
    for start in range(depth - 1):
        walk = repetition._level_rows(rho, start)
        if not isinstance(expected[start][0], RepetitionRow):
            assert outcome(next, walk) == expected[start]
            continue
        assert list(islice(walk, depth - 1 - start)) == expected[start:]
        assert outcome(next, walk) == outcome(reference_rows, rho, depth - 1)


def test_closed_forms_walk_matches_the_per_m_closed_form():
    raised = 0
    for rho in WALK_CORPUS:
        # past the last level the window covers, when that is at most 300
        values, error = closed_form_outcomes(rho, min(rho.slope.q(rho.depth - 1) + 5, 300))
        assert repetition_closed_forms(rho, len(values)) == values
        if error is not None:
            raised += 1
            for top in (len(values) + 1, len(values) + 5):
                assert outcome(repetition_closed_forms, rho, top) == error
    assert raised >= 40


def four_family_windows() -> list[AlphaNumber]:
    """Windows whose digits satisfy 0 < b_i < a_i - 1 from level 1 on."""
    rng = random.Random(20261020)
    windows = [
        AlphaNumber((2,) * 14, parse_slope("[0;4*]")),
        AlphaNumber((3,) * 14, parse_slope("[0;5*]")),
    ]
    for _ in range(10):
        qs = tuple(rng.randint(3, 50) for _ in range(rng.randint(1, 3)))
        slope = Slope(qs, (0, len(qs)))
        depth = rng.randint(5, 14)
        digits = tuple(rng.randint(1, slope.quotient(i) - 2) for i in range(1, depth + 1))
        windows.append(AlphaNumber(digits, slope))
    return windows


def dio_ratio_terms(rho: AlphaNumber, depth: int | None = None) -> tuple[DioTerm, ...]:
    """The ratios `dio_estimate` takes its maximum over, read off
    `_dio_ratios`, as DioTerms."""
    ratios = repetition._dio_ratios(rho, depth)[1]
    return tuple(DioTerm(n, family, Fraction(num, den)) for n, family, num, den in ratios)


def test_dio_estimate_matches_the_reference():
    modes = set()
    for rho in WALK_CORPUS + four_family_windows():
        for depth in range(5, rho.depth + 1):
            est = dio_estimate(rho, depth)
            expected, terms = reference_dio(rho, depth)
            assert est.value == expected.value
            assert est.mode == expected.mode
            assert est.witness == expected.witness
            assert dio_ratio_terms(rho, depth) == terms
            modes.add(est.mode)
        assert (dio_estimate(rho), dio_ratio_terms(rho)) == reference_dio(rho)
    assert modes == {"generic", "four-family"}


def test_dio_witness_is_the_first_maximal_term():
    for rho in WALK_CORPUS + four_family_windows():
        for depth in range(5, rho.depth + 1):
            terms = dio_ratio_terms(rho, depth)
            top = max(term.ratio for term in terms)
            witness = next(term for term in terms if term.ratio == top)
            est = dio_estimate(rho, depth)
            assert est.witness == witness and est.value == 1 + top


def test_dio_estimate_builds_one_fraction(monkeypatch):
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(repetition, "Fraction", counting)
    windows = {"generic": zero(GOLDEN, 40), "four-family": AlphaNumber((2,) * 14, parse_slope("[0;4*]"))}
    for mode, rho in windows.items():
        for depth in (None, 5, rho.depth - 1):
            built.clear()
            est = dio_estimate(rho, depth)
            assert est.mode == mode and len(built) == 1
            assert Fraction(*built[0]) == est.witness.ratio
            assert len(repetition._dio_ratios(rho, depth)[1]) > 1


def test_dio_estimate_depth_guards():
    with pytest.raises(DepthError, match="need at least 5 digit levels, got 4"):
        dio_estimate(zero(GOLDEN, 4))
    with pytest.raises(DepthError, match="window has 10 digits, cannot inspect 12"):
        dio_estimate(zero(GOLDEN, 10), depth=12)
