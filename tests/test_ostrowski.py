"""Ostrowski encode/decode/validate against brute-force oracles."""

import random
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmia.errors import DepthError, InvalidDigitsError, RangeError
from sturmia.ostrowski import (
    AlphaNumber,
    ValidationReport,
    all_digit_strings,
    decode,
    encode,
    validate,
)
from sturmia.slope import Slope, parse_slope

GOLDEN = Slope((1,), (0, 1))


def test_encode_pinned_values():
    assert encode(4, GOLDEN, 4).digits == (0, 1, 0, 1)
    assert encode(7, GOLDEN, 5).digits == (0, 0, 1, 0, 1)


def test_encode_zero_and_padding():
    assert encode(0, GOLDEN, 6).digits == (0,) * 6
    assert encode(4, GOLDEN, 9).digits == (0, 1, 0, 1, 0, 0, 0, 0, 0)


def test_encode_range_overflow():
    with pytest.raises(RangeError):
        encode(13, GOLDEN, 6)  # q_6 = 13
    encode(12, GOLDEN, 6)
    with pytest.raises(RangeError):
        encode(-1, GOLDEN, 4)


def test_validate_pinned_examples():
    report = validate((0, 1, 1), GOLDEN)
    assert not report.ok and report.rule == "max-digit-adjacency" and report.index == 3
    report = validate((1,), GOLDEN)
    assert not report.ok and report.rule == "digit-range" and report.index == 1
    assert validate((0, 1, 0, 1), GOLDEN).ok


def test_decode_rejects_invalid():
    with pytest.raises(InvalidDigitsError):
        decode((0, 1, 1), GOLDEN)
    with pytest.raises(ValueError, match="^decode needs a slope for raw digit tuples$"):
        decode((0,))
    with pytest.raises(DepthError, match="^depth must be >= 0$"):
        encode(0, GOLDEN, -1)
    message = "^cannot encode negative integer <a negative integer of 16610 bits>$"
    with pytest.raises(RangeError, match=message):
        encode(-(10**5000), GOLDEN, 5)


@pytest.mark.parametrize(
    "digit", [Fraction(1, 2), Fraction(0), 0.5, 0.0, "1", None], ids=repr
)
def test_a_digit_that_is_not_an_int_is_refused(digit):
    # a half-integer digit used to pass the digit rules and the partial
    # sums, and "1" or None made validate raise TypeError
    digits = (0, digit, 0, 0, 0, 0)
    message = f"b_2={digit!r} is not an integer"
    assert validate(digits, GOLDEN) == ValidationReport(False, "digit-type", 2, message)
    assert validate(list(digits), GOLDEN).rule == "digit-type"
    with pytest.raises(InvalidDigitsError) as refusal:
        AlphaNumber(digits, GOLDEN)
    assert str(refusal.value) == f"bad intercept digits: {message}"
    with pytest.raises(InvalidDigitsError) as refusal:
        decode(digits, GOLDEN)
    assert str(refusal.value) == message
    # the first digit that is not an int is the one reported
    assert validate((1, digit, 7.0), GOLDEN).index == 2


def test_int_subclasses_are_int_digits():
    assert validate((0, True, 0), GOLDEN).ok
    assert decode((0, True, 0), GOLDEN) == 1


def test_roundtrip_exhaustive_golden():
    q8 = GOLDEN.q(8)
    for n in range(q8):
        assert decode(encode(n, GOLDEN, 8)) == n


def test_uniqueness_exhaustive_small():
    """Valid digit strings of fixed depth biject onto [0, q_depth)."""
    slope = parse_slope("[0;2,1,3,(1)*]")
    depth = 6

    def gen(i, prev_digit):
        if i == depth:
            yield ()
            return
        a = slope.quotient(i + 1)
        hi = a - 1 if i == 0 else a
        for b in range(hi + 1):
            if b == a and prev_digit != 0:
                continue
            for rest in gen(i + 1, b):
                yield (b,) + rest

    values = sorted(decode(d, slope) for d in gen(0, 0))
    assert values == list(range(slope.q(depth)))


def test_encode_relaxed_pinned_example():
    # value q_2 + q_1 = 3, given as coefficients (1, 1) on window [1, 2]
    out = encode(GOLDEN.q(2) + GOLDEN.q(1), GOLDEN, 4)
    assert out.digits == (0, 0, 0, 1)
    assert decode(out) == 3


def test_encode_fibonacci_identity_window():
    # q_{n+8} - q_n = 3(q_{n+5} + q_{n+3}) is the sum of q_{n+1}, q_{n+3}, q_{n+5},
    # q_{n+7}, which are already its digits
    n = 3
    value = sum(GOLDEN.q(k) for k in (n + 1, n + 3, n + 5, n + 7))
    assert value == 3 * (GOLDEN.q(n + 5) + GOLDEN.q(n + 3)) == GOLDEN.q(n + 8) - GOLDEN.q(n)
    out = encode(value, GOLDEN, n + 8)
    assert out.support() == {n + 1, n + 3, n + 5, n + 7}
    assert decode(out) == value


def test_encode_bottom_rule():
    # coefficient a_1 at index 0 is q_1 = a_1 q_0, a single digit one level up
    slope = parse_slope("[0;3,(1)*]")
    out = encode(3 * slope.q(0), slope, 2)
    assert out.digits == (0, 1)
    assert decode(out) == 3


@st.composite
def relaxed_case(draw):
    quotients = draw(st.lists(st.integers(1, 4), min_size=10, max_size=10))
    slope = Slope(tuple(quotients), (9, 1))
    start = draw(st.integers(0, 4))
    width = draw(st.integers(1, 5))
    coeffs = tuple(
        draw(st.integers(0, slope.quotient(start + j + 1))) for j in range(width)
    )
    return slope, start, coeffs


@settings(max_examples=300, deadline=None)
@given(relaxed_case())
def test_encode_relaxed_coefficients_support(case):
    # coefficients in [0, a_{i+1}] on [start, stop) sum to a value whose
    # digits lie in [start, stop], with at most 1 at stop
    slope, start, coeffs = case
    stop = start + len(coeffs)
    value = sum(c * slope.q(start + j) for j, c in enumerate(coeffs))
    out = encode(value, slope, stop + 1)
    assert decode(out) == value
    assert all(start <= i <= stop for i in out.support())
    assert out.digits[stop] <= 1


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(1, 5), min_size=9, max_size=9),
    st.integers(0, 10_000),
)
def test_roundtrip_random_slopes(quotients, n):
    slope = Slope(tuple(quotients), (8, 1))
    depth = 2
    while slope.q(depth) <= n:
        depth += 1
    digits = encode(n, slope, depth)
    assert validate(digits.digits, slope).ok
    assert decode(digits) == n


def reference_validate(digits, slope):
    """validate as two loops, the digit rules and then the partial sums."""
    digits = tuple(digits)
    verdict = None
    for i, b in enumerate(digits, start=1):
        a = slope.quotient(i)
        if b < 0 or (i == 1 and b > a - 1) or (i > 1 and b > a):
            verdict = ValidationReport(False, "digit-range", i, f"b_{i}={b} out of range")
            break
        if i > 1 and b == a and digits[i - 2] != 0:
            verdict = ValidationReport(
                False, "max-digit-adjacency", i, f"b_{i}=a_{i} requires b_{i-1}=0"
            )
            break
    if verdict is None:
        verdict = ValidationReport(True)
    # the partial sums run through the digits the rules read: all of them
    # when none breaks a rule, and then through q_N, which a finite slope
    # may lack
    read = len(digits) if verdict.ok else verdict.index
    if all(b >= 0 for b in digits[:read]):
        slope.q(read)
        partial = 0
        sums_ok = True
        for l in range(1, read + 1):
            partial += digits[l - 1] * slope.q(l - 1)
            if partial >= slope.q(l):
                sums_ok = False
                break
        if sums_ok != verdict.ok:
            raise AssertionError("digit rules and partial-sum form disagree")
    return verdict


def reference_decode(digits, slope):
    """decode as validate, then the value summed against the ladder."""
    report = reference_validate(digits, slope)
    if not report.ok:
        raise InvalidDigitsError(report.message or "invalid digits")
    return sum(b * slope.q(i) for i, b in enumerate(digits))


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:  # the exception's type and message are the outcome
        return type(exc), str(exc)


NAMED_SLOPES = [
    GOLDEN,
    parse_slope("[0;2*]"),
    parse_slope("[0;(1,2)*]"),
    parse_slope("[0;2,1,3,(2,1)*]"),
    parse_slope("[0;3,1,2,4]"),
    parse_slope("[0;1,2,3]"),
]


@st.composite
def finite_or_periodic_slope(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(NAMED_SLOPES))
    quotients = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=10)))
    period = draw(st.one_of(st.none(), st.integers(1, len(quotients))))
    return Slope(quotients, None if period is None else (len(quotients) - period, period))


@st.composite
def digit_case(draw):
    slope = draw(finite_or_periodic_slope())
    depth = slope.known_depth
    length = draw(st.integers(0, 30))
    usable = length if depth is None else min(length, depth)
    # mostly digits that follow the rules, so long strings stay valid
    if usable and draw(st.booleans()):
        digits = list(encode(draw(st.integers(0, slope.q(usable) - 1)), slope, usable).digits)
    else:
        digits = [
            draw(st.integers(0, slope.quotient(i) - (i == 1))) for i in range(1, usable + 1)
        ]
    # past a finite slope's depth the quotients are unknown
    digits += draw(st.lists(st.integers(0, 3), min_size=length - usable, max_size=length - usable))
    for _ in range(draw(st.integers(0, 2))):
        if digits:
            digits[draw(st.integers(0, length - 1))] = draw(st.integers(-3, 6))
    return slope, digits


@st.composite
def encode_case(draw):
    slope = draw(finite_or_periodic_slope())
    depth = draw(st.integers(0, 30 if slope.known_depth is None else slope.known_depth))
    return slope, depth, draw(st.integers(0, slope.q(depth) - 1))


@settings(max_examples=300, deadline=None)
@given(encode_case())
def test_encode_returns_a_valid_alpha_number(case):
    slope, depth, n = case
    window = encode(n, slope, depth)
    assert type(window) is AlphaNumber and window.slope is slope
    assert window == AlphaNumber(window.digits, slope)
    assert validate(window.digits, slope).ok
    assert window.residues[-1] == n


@settings(max_examples=600, deadline=None)
@given(digit_case())
def test_one_pass_matches_two_loop_reference(case):
    slope, digits = case
    assert outcome(validate, digits, slope) == outcome(reference_validate, digits, slope)
    assert outcome(decode, tuple(digits), slope) == outcome(reference_decode, tuple(digits), slope)


def test_alpha_number_copies_list_digits():
    digits = [0, 1, 0, 1, 0, 0]
    window = AlphaNumber(digits, GOLDEN)
    twin = AlphaNumber(tuple(digits), GOLDEN)
    assert window == twin and hash(window) == hash(twin) and repr(window) == repr(twin)
    digits.append(1)
    digits[1] = 0
    assert window.digits == (0, 1, 0, 1, 0, 0) and window.depth == 6 and window == twin


def test_finite_slope_read_past_its_depth():
    finite = parse_slope("[0;1,2,3]")
    for digits in [(0, 1, 0, 1), (0, 2, 0, 0, 1), (0, 1, 1, 5), (0, 0, 0, -1)]:
        with pytest.raises(DepthError):
            validate(digits, finite)
        with pytest.raises(DepthError):
            reference_validate(digits, finite)
    # a rule broken within the three quotients is reported, not a depth
    # error, whatever the digits past them: they are never read
    for digits in [(0, -1, 0, 1), (1, 0, 0, 0), (1, 0, 0, -1), (0, 1, 3, 7)]:
        assert validate(digits, finite) == reference_validate(digits, finite)
        assert validate(digits, finite).rule in ("digit-range", "max-digit-adjacency")
    assert validate((1, 0, 0, 0), finite) == validate((1, 0, 0, -1), finite)
    assert validate((1, 0, 0, 0), finite).rule == "digit-range"


BOX_SLOPES = [
    GOLDEN,
    parse_slope("[0;2,1,3,(2,1)*]"),
    parse_slope("[0;3,1,2,4]"),
    parse_slope("[0;1,2,3]"),
]


@pytest.mark.parametrize("slope", BOX_SLOPES, ids=str)
def test_early_exit_pass_matches_the_reference_on_a_box(slope):
    # every digit tuple of length 0..6 with b_i in -1..a_i + 1 (-1..2 past a
    # finite slope's depth): validate and decode give the reference's
    # outcome, exception type and message included
    depth = slope.known_depth or 6
    valid = 0
    for length in range(7):
        tops = [slope.quotient(i) if i <= depth else 1 for i in range(1, length + 1)]
        boxes = [range(-1, top + 2) for top in tops]
        for digits in product(*boxes):
            verdict = outcome(validate, digits, slope)
            assert verdict == outcome(reference_validate, digits, slope), digits
            value = outcome(decode, digits, slope)
            assert value == outcome(reference_decode, digits, slope), digits
            if value[0] == "value":
                assert encode(value[1], slope, length).digits == digits
                valid += 1
    # one valid window per integer below q_l at each length l
    assert valid == sum(slope.q(l) for l in range(min(depth, 6) + 1))


def recursive_digit_strings(slope, depth):
    """`all_digit_strings` as a recursive generator, one frame per digit:
    the reference for the order of the iterative one, good to depth ~980."""

    def rec(i, acc):
        if i > depth:
            yield tuple(acc)
            return
        a_i = slope.quotient(i)
        top = a_i - 1 if i == 1 else a_i
        for b in range(top + 1):
            if i >= 2 and b == a_i and acc[-1] != 0:
                continue
            acc.append(b)
            yield from rec(i + 1, acc)
            acc.pop()

    yield from rec(1, [])


def digit_string_slopes():
    rng = random.Random(2411)
    slopes = [GOLDEN, Slope((1, 2, 3)), Slope((4,))]
    for k in range(10):
        quotients = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 6)))
        start = rng.randrange(len(quotients))
        slopes.append(Slope(quotients) if k % 2 else Slope(quotients, (start, len(quotients) - start)))
    return slopes


def first_items(strings, count):
    """Up to `count` items, or the DepthError message raised at the next()
    after them."""
    out = []
    try:
        for _ in range(count):
            out.append(next(strings))
    except StopIteration:
        pass
    except DepthError as exc:
        out.append(("DepthError", str(exc)))
    return out


@pytest.mark.parametrize("slope", digit_string_slopes(), ids=str)
def test_digit_strings_match_the_recursive_generator(slope):
    for depth in range(-1, 10):
        # the same tuples in the same order, and a read past a finite depth
        # refused at the same next(), the first
        got = first_items(all_digit_strings(slope, depth), 10**5)
        assert got == first_items(recursive_digit_strings(slope, depth), 10**5)
        if depth <= 0:
            assert got == [()]
        elif slope.known_depth is None or depth <= slope.known_depth:
            assert len(got) == slope.q(depth)
        else:
            assert got == [("DepthError", f"a_{slope.known_depth + 1} requested but only {slope.known_depth} quotients are known")]


def test_digit_strings_need_no_recursion():
    assert next(all_digit_strings(GOLDEN, 2000)) == (0,) * 2000
    with pytest.raises(RecursionError):
        next(recursive_digit_strings(GOLDEN, 2000))


def test_digit_strings_ask_the_ladder_first(monkeypatch):
    reads = []
    quotient = Slope.quotient

    def spy(slope, i):
        value = quotient(slope, i)
        reads.append(i)
        return value

    monkeypatch.setattr(Slope, "quotient", spy)
    # a depth past the ladder's budget is refused before any quotient is read
    for depth, rung in ((10**6, "1000000"), (10**5000, "<an integer of 16610 bits>")):
        with pytest.raises(RangeError, match=f"^continuants through q_{re.escape(rung)} would"):
            next(all_digit_strings(GOLDEN, depth))
    with pytest.raises(DepthError, match="^a_4 requested but only 3 quotients are known$"):
        next(all_digit_strings(Slope((3, 2, 2)), 5))
    assert reads == []
    # a depth below 1 has the one empty string, however far the ladder grew
    GOLDEN.q(30)
    assert list(all_digit_strings(GOLDEN, -3)) == [()]
