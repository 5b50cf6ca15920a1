"""Tests for formal intercepts: projections, extraction, shifts, complement."""

import copy
import pickle
import random
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

import sturmia.intercept as intercept_module
from sturmia.acceptance import NAMED_FIVE, SEED, _seeded_digits
from sturmia.errors import (
    DepthError,
    InvalidDigitsError,
    NotSturmianError,
    PrefixTooShortError,
    RangeError,
    UnsupportedInterceptError,
)
from sturmia.intercept import (
    AlphaNumber,
    add_integer,
    classify,
    complement,
    complement_report,
    equivalent,
    integer_window,
    intercept_from_prefix,
    max_certified_length,
    named_window,
    sigma0,
    sigma1,
    sturmian_prefix,
    zero,
)
from sturmia.ostrowski import all_digit_strings, encode, validate
from sturmia.slope import _NO_WORD, Slope, parse_slope
from sturmia.words import characteristic_prefix, factor_set

GOLDEN = parse_slope("[0;1*]")
TWO_ONE = parse_slope("[0;2,(1)*]")
MIXED = parse_slope("[0;2,1,3,(2,1)*]")

SLOPES = [GOLDEN, TWO_ONE, MIXED]


def slope_strategy():
    return st.lists(st.integers(1, 4), min_size=1, max_size=3).map(
        lambda qs: Slope(tuple(qs), (0, len(qs)))
    )


def digits_for(slope: Slope, depth: int, draw_int) -> tuple[int, ...]:
    """Random valid digit string built low-to-high under the adjacency rule."""
    out = []
    prev = 0
    for i in range(1, depth + 1):
        hi = slope.quotient(i) - 1 if i == 1 else slope.quotient(i)
        b = draw_int(0, hi)
        if b == slope.quotient(i) and i >= 2 and prev != 0:
            b -= 1
        out.append(b)
        prev = b
    return tuple(out)


@st.composite
def alpha_numbers(draw, min_depth=6, max_depth=10):
    slope = draw(slope_strategy())
    depth = draw(st.integers(min_depth, max_depth))
    digits = digits_for(slope, depth, lambda lo, hi: draw(st.integers(lo, hi)))
    return AlphaNumber(digits, slope)


# ---------------------------------------------------------------- projections


def test_psi_sigma0_golden():
    rho = sigma0(GOLDEN, 8)
    assert rho.psi(4) == 4
    for n in range(1, 9):
        assert rho.psi(n) == GOLDEN.q(2 * (n // 2)) - 1


def test_psi_sigma1_pattern():
    # largest odd level <= n governs the residue
    for slope in SLOPES:
        rho = sigma1(slope, 9)
        for n in range(1, 10):
            odd = n if n % 2 == 1 else n - 1
            assert rho.psi(n) == slope.q(odd) - 1


def test_psi_zero_and_partial_sum():
    assert all(zero(GOLDEN, 8).psi(n) == 0 for n in range(9))
    rho = AlphaNumber((0, 1, 0, 1), GOLDEN)
    assert rho.psi(3) == 1
    assert rho.psi(4) == 4


def test_psi_depth_guard():
    with pytest.raises(DepthError):
        zero(GOLDEN, 4).psi(5)


def test_zero_refuses_a_depth_past_the_ladder_budget():
    # the ladder refuses before a depth-sized window is built
    with pytest.raises(RangeError, match="^continuants through q_1000000000000 would hold"):
        zero(GOLDEN, 10**12)
    # a finite slope read past its depth keeps its DepthError
    with pytest.raises(DepthError, match="^a_4 requested but only 3 quotients are known$"):
        zero(parse_slope("[0;1,2,3]"), 10**12)
    # every depth below 1 names the empty window, however far the ladder grew
    slope = parse_slope("[0;1*]")
    slope.q(30)
    for depth in (-1, -3, -(10**5000)):
        for window in (zero, sigma0, sigma1):
            assert window(slope, depth).digits == ()


def finite_slope_strategy():
    return st.lists(st.integers(1, 9), min_size=1, max_size=12).map(lambda qs: Slope(tuple(qs)))


@settings(max_examples=80, deadline=None)
@given(st.one_of(slope_strategy(), finite_slope_strategy()), st.data())
def test_residues_equal_the_per_digit_sums(slope, data):
    depth = data.draw(st.integers(0, slope.known_depth or 40))
    digits = digits_for(slope, depth, lambda lo, hi: data.draw(st.integers(lo, hi)))
    if slope.known_depth is None and data.draw(st.booleans()):
        slope.q(depth + 5)  # a ladder already grown past the window
    rho = AlphaNumber(digits, slope)
    assert rho.residues == tuple(
        sum(b * slope.q(i) for i, b in enumerate(digits[:n])) for n in range(depth + 1)
    )


@given(alpha_numbers())
@settings(max_examples=60, deadline=None)
def test_projective_compatibility(rho):
    for n in range(rho.depth):
        assert 0 <= rho.psi(n + 1) < rho.slope.q(n + 1)
        assert rho.psi(n + 1) % rho.slope.q(n) == rho.psi(n) % rho.slope.q(n)


# ------------------------------------------------------------------- support


@given(alpha_numbers())
@settings(max_examples=60, deadline=None)
def test_support_inequalities(rho):
    # membership <-> residue at least q_n; successor digit below its maximum
    for n in range(rho.depth):
        assert (n in rho.support()) == (rho.psi(n + 1) >= rho.slope.q(n))
    for n in sorted(rho.support()):
        if n + 2 <= rho.depth:
            assert rho.digits[n + 1] != rho.slope.quotient(n + 2)


# ---------------------------------------------------------------- extraction


def test_extract_characteristic_is_zero():
    for slope in SLOPES:
        prefix = characteristic_prefix(slope, slope.q(8) + slope.q(7))
        rho = intercept_from_prefix(prefix, slope, 7)
        assert rho.digits == (0,) * 7


def test_extract_integer_shift_matches_encode():
    for slope in SLOPES:
        need = slope.q(7) + slope.q(6)
        for k in (1, 3, 7):
            word = characteristic_prefix(slope, k + need)[k:]
            rho = intercept_from_prefix(word, slope, 6)
            assert rho.digits == encode(k, slope, 6).digits


def test_extract_prepended_letter_gives_sigmas():
    for slope in SLOPES:
        need = slope.q(7) + slope.q(6)
        body = characteristic_prefix(slope, need)
        assert intercept_from_prefix("0" + body, slope, 6).digits == sigma0(slope, 6).digits
        assert intercept_from_prefix("1" + body, slope, 6).digits == sigma1(slope, 6).digits


def test_extract_brute_force_minimal_shift_oracle():
    # independent oracle: scan shifts k < q_n directly instead of str.find
    slope = MIXED
    depth = 5
    shift = 9
    word = characteristic_prefix(slope, shift + slope.q(6) + slope.q(5))[shift:]
    reference = characteristic_prefix(slope, 3 * slope.q(depth))
    residues = []
    for n in range(1, depth + 1):
        window = word[: slope.q(n) - 1]
        k = min(
            j
            for j in range(slope.q(n))
            if reference[j : j + slope.q(n) - 1] == window
        )
        residues.append(k)
    rho = intercept_from_prefix(word, slope, depth)
    assert [rho.psi(n) for n in range(1, depth + 1)] == residues


def test_extract_rejects_short_and_foreign_prefixes():
    need = GOLDEN.q(7) + GOLDEN.q(6)
    with pytest.raises(PrefixTooShortError):
        intercept_from_prefix("10" * 5, GOLDEN, 6)
    with pytest.raises(NotSturmianError):
        intercept_from_prefix("111" + "0" * need, GOLDEN, 6)
    with pytest.raises(NotSturmianError):
        intercept_from_prefix("2" * (need + 1), GOLDEN, 6)
    # at depth D - 1 a finite slope cannot audit level D + 1 and reads to
    # depth D - 1 only; the q_2 + q_1 = 10 letters it needs come from the
    # word of an infinite extension, here of [0;3,2,2,(1)*], since the
    # finite word certifies only q_3 - 1 = 16 letters and the fallback reads
    # 2 q_2 = 14 of its own
    extended = "100010010001001001000100"
    assert intercept_from_prefix(extended, parse_slope("[0;3,2,2]"), 2).digits == (2, 1)
    message = r"^prefix of length 14 passes the 9 letters the word of \[0;3,2,1\] certifies$"
    with pytest.raises(DepthError, match=message):
        intercept_from_prefix(extended, parse_slope("[0;3,2,1]"), 2)


# ------------------------------------------------------------------ prefixes


def test_sturmian_prefix_examples():
    assert sturmian_prefix(zero(GOLDEN, 8), 4) == "1011"
    assert sturmian_prefix(encode(2, GOLDEN, 8), 3) == "110"
    assert sturmian_prefix(sigma0(GOLDEN, 8), 5) == "01011"
    assert sturmian_prefix(sigma1(GOLDEN, 8), 5) == "11011"


def test_sturmian_prefix_depth_guard():
    rho = zero(GOLDEN, 4)
    assert max_certified_length(rho) == 4
    assert sturmian_prefix(rho, 4) == "1011"
    with pytest.raises(DepthError):
        sturmian_prefix(rho, 5)


@given(alpha_numbers(min_depth=7, max_depth=9))
@settings(max_examples=40, deadline=None)
def test_extraction_inverts_prefix_generation(rho):
    # depth loss of 3 keeps q_{d+1}+q_d within the certified q_depth-1 letters
    out_depth = rho.depth - 3
    need = rho.slope.q(out_depth + 1) + rho.slope.q(out_depth)
    back = intercept_from_prefix(sturmian_prefix(rho, need), rho.slope, out_depth)
    assert back.digits == rho.digits[:out_depth]


def seeded_finite_slopes(count: int, seed: int) -> list[Slope]:
    """Finite slopes [0; a_1, ..., a_D], 2 <= D <= 6 and quotients in 1..5,
    drawn until `count` have a word of at most 400 letters."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        slope = Slope(tuple(rng.randint(1, 5) for _ in range(rng.randint(2, 6))))
        if slope.q(slope.known_depth) <= 400:
            out.append(slope)
    return out


def extensions(slope: Slope) -> tuple[Slope, Slope, Slope]:
    """Three infinite slopes whose first quotients are the finite slope's."""
    q, top = slope.quotients, slope.known_depth
    return Slope(q + (1,), (top, 1)), Slope(q + (3,), (top, 1)), Slope(q + (2, 1), (top, 2))


def test_a_finite_window_certifies_what_every_extension_agrees_on():
    # the max_certified_length(rho) letters of a window over a finite slope
    # are the letters its digits give over every infinite extension of the
    # quotients, and sturmian_prefix refuses one more
    rng = random.Random(SEED + 35)
    capped = 0
    for slope in seeded_finite_slopes(200, SEED + 36):
        depth = rng.randint(1, slope.known_depth)
        rho = encode(rng.randrange(slope.q(depth)), slope, depth)
        top = max_certified_length(rho)
        word = sturmian_prefix(rho, top)
        for wider in extensions(slope):
            assert sturmian_prefix(AlphaNumber(rho.digits, wider), top) == word, (slope, rho)
        with pytest.raises(DepthError):
            sturmian_prefix(rho, top + 1)
        # the word of the slope ends before the window's q_depth - 1 letters
        capped += top < slope.q(depth) - 1
    assert capped > 40


def test_an_integer_window_stops_at_the_depth_of_a_finite_slope():
    # below D it is encode at the depth asked for; from D on it is encode at
    # D, and an integer at or past q_D is refused by the letters the word
    # certifies, whatever the depth
    rng = random.Random(SEED + 37)
    for slope in seeded_finite_slopes(60, SEED + 38):
        top = slope.known_depth
        for depth in range(top + 3):
            k = rng.randrange(slope.q(min(depth, top)))
            assert integer_window(k, slope, depth) == encode(k, slope, min(depth, top))
        for depth in (top, top + 1, 24):
            with pytest.raises(DepthError, match=f"shift {slope.q(top)} passes the {slope.q(top) - 1} letters"):
                integer_window(slope.q(top), slope, depth)
    # an infinite slope's window is encode's, refusals included
    assert integer_window(12345, GOLDEN, 24) == encode(12345, GOLDEN, 24)
    with pytest.raises(RangeError, match="increase depth"):
        integer_window(100, GOLDEN, 6)


def test_a_named_window_stops_at_the_depth_of_a_finite_slope():
    # zero, sigma0 and sigma1 at the depth asked for, which stops at D on a
    # finite slope, where the quotients past a_D are unknown
    for slope in seeded_finite_slopes(20, SEED + 39):
        top = slope.known_depth
        for depth in (1, top, top + 1, 24):
            for name, window in (("zero", zero), ("sigma0", sigma0), ("sigma1", sigma1)):
                assert named_window(name, slope, depth) == window(slope, min(depth, top))
    for depth in (2, 24):
        assert named_window("sigma1", GOLDEN, depth) == sigma1(GOLDEN, depth)


# ----------------------------------------------------------------- increment


def test_add_integer_examples():
    rho = encode(5, GOLDEN, 12)
    out = add_integer(rho, 3)
    assert out.digits == encode(8, GOLDEN, out.depth).digits
    assert add_integer(rho, 0) is rho
    with pytest.raises(RangeError, match="^only non-negative shifts are defined$"):
        add_integer(rho, -1)
    bumped = add_integer(sigma0(GOLDEN, 12), 1)
    assert bumped.digits == (0,) * bumped.depth


def test_add_integer_builds_no_letters():
    # the shift is one encode: at depth 800 it answers, where the letter
    # shift would need about q_800 letters, and the slope keeps only the
    # words s_-1 and s_0 every slope starts from
    slope = parse_slope("[0;1*]")
    out = add_integer(encode(10**6, slope, 800), 12345)
    assert out.depth == 797
    assert out.digits == encode(10**6 + 12345, slope, 797).digits
    assert slope._word == [_NO_WORD]


def test_add_integer_digit_shortcut_on_tail_levels():
    # residues shift by k from the first level whose whole tail has room
    for slope in SLOPES:
        digits = [0] * 10
        for i in (2, 5, 8):
            digits[i] = 1
        rho = AlphaNumber(tuple(digits), slope)
        for k in (1, 2, 5):
            out = add_integer(rho, k)
            start = out.depth + 1
            for n in range(out.depth, 0, -1):
                if slope.q(n) <= rho.psi(n) + k:
                    break
                start = n
            assert start <= out.depth, "window too small to exercise the shortcut"
            for n in range(start, out.depth + 1):
                assert out.psi(n) == rho.psi(n) + k


def test_windows_of_valid_digits_equal_validated_ones():
    # intercept_from_prefix and add_integer take a prefix of digits already
    # validated and do not validate it again: on criterion 06's corpus and
    # on seeded shifts of it, each window is the one AlphaNumber validates
    def assert_validated(window, slope):
        assert type(window) is AlphaNumber and type(window.digits) is tuple
        assert window.slope is slope and validate(window.digits, slope).ok
        assert window == AlphaNumber(window.digits, slope)

    shifts = random.Random(SEED + 60)
    checked = 0
    for slope in NAMED_FIVE:
        rng = random.Random(SEED + 6)
        need = slope.q(11) + slope.q(10)
        for _ in range(200):
            digits = _seeded_digits(rng, slope, 10)
            deep = AlphaNumber(digits + (0,) * 3, slope)
            back = intercept_from_prefix(sturmian_prefix(deep, need), slope, 10)
            assert back.digits == digits
            assert_validated(back, slope)
            top = max_certified_length(deep)
            for k in (1, shifts.randint(2, 40), shifts.randint(1, top // 2)):
                assert_validated(add_integer(deep, k), slope)
                checked += 1
    assert checked == 3000


def reference_add_integer(rho: AlphaNumber, k: int) -> AlphaNumber | None:
    """The shift computed on letters: generate the prefix the window
    certifies, drop k letters and re-extract the intercept at the deepest
    level the rest certifies; None when no level is left."""
    slope = rho.slope
    budget = slope.q(rho.depth) - 1 - k
    out_depth = 0
    while out_depth + 1 < rho.depth and slope.q(out_depth + 2) + slope.q(out_depth + 1) <= budget:
        out_depth += 1
    if out_depth < 1:
        return None
    need = slope.q(out_depth + 1) + slope.q(out_depth)
    return intercept_from_prefix(sturmian_prefix(rho, k + need)[k:], slope, out_depth)


def test_add_integer_matches_the_letter_shift():
    rng = random.Random(20261018)
    seeded = []
    while len(seeded) < 10:
        quotients = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 6)))
        seeded.append(Slope(quotients, (0, len(quotients))))
    checked = refused = 0
    for slope in NAMED_FIVE + tuple(seeded):
        for depth in range(8, 23):
            if slope.q(depth) > 2 * 10**5:
                break
            for kind in ("zero", "sigma0", "sigma1", "random", "random"):
                rho = tail_window(rng, slope, depth, kind)
                top = max_certified_length(rho)  # shifts near it leave no level
                shifts = {1, 2, rng.randint(1, 40), rng.randint(1, top), top - rng.randint(0, 9)}
                for k in shifts:
                    expected = reference_add_integer(rho, k)
                    if expected is None:
                        with pytest.raises(DepthError, match="leaves no certifiable level"):
                            add_integer(rho, k)
                        refused += 1
                    else:
                        assert add_integer(rho, k) == expected, (slope, rho.digits, k)
                        checked += 1
    assert checked > 3000 and refused > 300


def test_add_integer_on_finite_slopes_matches_the_letter_shift():
    # where the letter shift reads past c = s_D it refused; the answer then
    # is the letter shift over an infinite extension of the quotients,
    # whose word starts with s_D
    rng = random.Random(20261019)
    finite = [Slope((1, 1, 5, 1)), Slope((1, 2, 3))]
    while len(finite) < 12:
        finite.append(Slope(tuple(rng.randint(1, 5) for _ in range(rng.randint(3, 7)))))
    # q = 1, 1, 2, 11, 13: rho_4 + 1 = q_4 is past the window, but the
    # letters left after the shift are read at rho_3 + 1 = 2
    rho = encode(12, finite[0], 4)
    assert add_integer(rho, 1) == reference_add_integer(rho, 1) == AlphaNumber((0,), finite[0])
    # rho_3 + 7 = 13 is past q_4 - 1 = 12, the letters the word certifies
    with pytest.raises(DepthError) as refusal:
        add_integer(encode(6, finite[0], 3), 7)
    assert str(refusal.value) == "shift 7 needs 13 letters, more than the 12 letters the word of [0;1,1,5,1] certifies"
    agreed = gained = refused = 0
    for slope in finite:
        top = slope.known_depth
        extension = Slope(slope.quotients + (1,), (top, 1))
        for depth in range(2, top + 1):
            for _ in range(12):
                rho = encode(rng.randrange(slope.q(depth)), slope, depth)
                last = slope.q(depth) - 1  # the letters add_integer's budget starts from
                for k in {1, 2, rng.randint(1, last), max(1, last - rng.randint(0, 3))}:
                    try:
                        expected = reference_add_integer(rho, k)
                    except DepthError as exc:
                        expected = exc
                    if expected is None:
                        with pytest.raises(DepthError, match="leaves no certifiable level"):
                            add_integer(rho, k)
                    elif isinstance(expected, AlphaNumber):
                        assert add_integer(rho, k) == expected, (slope, rho.digits, k)
                        agreed += 1
                    else:
                        try:
                            got = add_integer(rho, k)
                        except DepthError as exc:
                            # the letter shift names the prefix it reads and
                            # its shift, the closed form the letters it skips:
                            # both less the certifying letters it keeps
                            passed = re.fullmatch(
                                rf"prefix of length (\d+) shifted by (\d+) passes the"
                                rf" {slope.q(top) - 1} letters the word of"
                                rf" {re.escape(str(slope))} certifies",
                                str(expected),
                            )
                            assert passed, expected
                            kept = max(
                                slope.q(d + 1) + slope.q(d)
                                for d in range(1, rho.depth)
                                if slope.q(d + 1) + slope.q(d) <= last - k
                            )
                            needs = int(passed[1]) + int(passed[2]) - kept
                            assert str(exc) == (
                                f"shift {k} needs {needs} letters, more than the"
                                f" {slope.q(top) - 1} letters the word of {slope} certifies"
                            )
                            refused += 1
                            continue
                        wider = reference_add_integer(AlphaNumber(rho.digits, extension), k)
                        assert got.digits == wider.digits, (slope, rho.digits, k)
                        gained += 1
    assert agreed > 1000 and gained > 100 and refused > 50


def test_add_integer_reaches_depths_past_the_letter_cap():
    # a depth-800 window certifies far more than MAX_STANDARD_LETTERS letters
    golden = parse_slope("[0;1*]")
    out = add_integer(sigma0(golden, 800), 1)
    assert out == zero(golden, out.depth) and out.depth == 797
    assert add_integer(encode(5, golden, 800), 3) == encode(8, golden, 797)
    assert golden._word == [_NO_WORD]  # and no letter was built


@pytest.mark.parametrize("slope", NAMED_FIVE, ids=str)
def test_sigma_windows_shift_onto_zero(slope):
    # c = 0^{-1} (0c) = 1^{-1} (1c): both sigma words shifted once are c
    for depth in range(4, 40):
        for sigma in (sigma0, sigma1):
            out = add_integer(sigma(slope, depth), 1)
            assert out == zero(slope, out.depth), (depth, sigma.__name__)




# ------------------------------------------------------------------ classify


def test_classify_natural_integer():
    rho = encode(7, GOLDEN, 12)
    report = classify(rho)
    assert report.verdict == "natural-integer"
    assert report.witness == 6


def test_classify_sigma_patterns():
    assert classify(sigma0(GOLDEN, 12)).verdict == "sigma0-tail"
    assert classify(sigma1(GOLDEN, 12)).verdict == "sigma1-tail"
    assert classify(sigma0(MIXED, 12)).verdict == "sigma0-tail"
    assert classify(sigma1(MIXED, 12)).verdict == "sigma1-tail"


def test_classify_non_zero_pattern():
    rho = AlphaNumber((0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0), GOLDEN)
    assert classify(rho).verdict == "non-zero"
    assert classify(rho).witness is None


# ---------------------------------------------------------------- equivalence


def test_equivalent_reflexive_with_witness_zero():
    rho = AlphaNumber((0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0), GOLDEN)
    report = equivalent(rho, rho)
    assert report.equivalent and report.witness == 0


@pytest.mark.parametrize("slope", SLOPES)
def test_every_shallow_window_is_equivalent_to_itself(slope):
    # the default tail is capped at the depth, as in classify
    for depth in range(1, 5):
        for digits in all_digit_strings(slope, depth):
            rho = AlphaNumber(digits, slope)
            report = equivalent(rho, rho)
            assert report.equivalent and report.witness == 0, (digits, report)


def test_equivalent_after_increment():
    rho = AlphaNumber((0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0), GOLDEN)
    report = equivalent(rho, add_integer(rho, 5))
    assert report.equivalent


def test_equivalent_zero_class_transitivity():
    # both sigma words shift onto the characteristic word, so their
    # intercepts sit in the zero class and are equivalent to each other
    report = equivalent(sigma0(GOLDEN, 12), sigma1(GOLDEN, 12))
    assert report.equivalent
    assert "zero class" in report.reason


def test_not_equivalent_across_classes():
    rho = AlphaNumber((0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0), GOLDEN)
    assert not equivalent(rho, sigma0(GOLDEN, 12)).equivalent
    assert not equivalent(rho, zero(GOLDEN, 12)).equivalent
    with pytest.raises(ValueError, match="^intercepts live over different slopes$"):
        equivalent(rho, zero(parse_slope("[0;2*]"), 12))


def test_not_equivalent_distinct_tails():
    a = AlphaNumber((0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0), GOLDEN)
    b = AlphaNumber((0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1), GOLDEN)
    assert not equivalent(a, b).equivalent


# ---------------------------------------------------------------- complement


def fib_family(j: int, depth: int, step: int = 4) -> AlphaNumber:
    digits = [0] * depth
    for i in range(step + j, depth, step):
        digits[i] = 1
    return AlphaNumber(tuple(digits), GOLDEN)


def test_complement_fibonacci_step4_family():
    # complement of the step-4 index-0 family lands on the index-2 family
    # shifted by one; support moves from {4,8,12} to {1,6,10}
    report = complement_report(fib_family(0, 16))
    assert report.value.support() == frozenset({1, 6, 10})
    assert report.stable_from == 0
    assert report.top_level == 12


def test_complement_step4_index1():
    report = complement_report(fib_family(1, 16))
    assert report.value.support() == frozenset({3, 7, 11})


def test_complement_self_complementary_step3():
    rho = fib_family(0, 16, step=3)
    out = complement(rho)
    assert out.support() == frozenset({3, 6, 9, 12})
    assert equivalent(rho, out).equivalent


def test_complement_involution_on_tail():
    rho = fib_family(0, 20)
    back = complement(complement(rho))
    overlap = back.depth
    assert back.digits[2:overlap] == rho.digits[2:overlap]
    assert equivalent(rho, back).equivalent


def test_complement_orbit_seam_is_sturmian():
    # glue the reversed complement word against the original word and check
    # every window across the seam is a legal factor of the slope
    for rho in (fib_family(0, 16), fib_family(2, 16), fib_family(1, 16, step=3)):
        rbar = complement(rho)
        left = sturmian_prefix(rbar, 60)[::-1]
        right = sturmian_prefix(rho, 60)
        seam = left + right
        legal = factor_set(characteristic_prefix(GOLDEN, 500), 24)
        for i in range(40, 60):
            assert seam[i : i + 24] in legal


def test_complement_shift_rule():
    # complement(rho + k) + k recovers complement(rho) on every common level
    rng = random.Random(20261018)
    windows = [fib_family(0, 20)]
    windows += [
        tail_window(rng, slope, depth, "random") for slope in NAMED_FIVE for depth in range(8, 40)
    ]
    checked = 0
    for rho in windows:
        for k in (1, 2, 3, 5, 13):
            try:
                base = complement(rho)
                other = add_integer(complement(add_integer(rho, k)), k)
            except (UnsupportedInterceptError, DepthError):
                assert rho is not windows[0]
                continue
            overlap = min(base.depth, other.depth)
            assert base.digits[:overlap] == other.digits[:overlap], (rho, k)
            checked += 1
    assert checked > 500


def test_complement_exclusions():
    with pytest.raises(UnsupportedInterceptError):
        complement(zero(GOLDEN, 12))
    with pytest.raises(UnsupportedInterceptError):
        complement(encode(5, GOLDEN, 12))
    with pytest.raises(UnsupportedInterceptError):
        complement(sigma0(GOLDEN, 12))
    with pytest.raises(UnsupportedInterceptError):
        complement(sigma1(GOLDEN, 12))


def test_complement_empty_window_is_the_zero_window():
    # the empty window also equals both sigma windows of depth 0
    for slope in (GOLDEN, MIXED, Slope((2, 3))):
        with pytest.raises(UnsupportedInterceptError, match="^zero window has no complement$"):
            complement_report(AlphaNumber((), slope))


def test_complement_mixed_slope_duality():
    # non-golden slope: the complement's word must prolong the original's
    # reversed word to a sturmian seam as well
    slope = MIXED
    digits = [0] * 14
    for i in (3, 7, 11):
        digits[i] = 1
    rho = AlphaNumber(tuple(digits), slope)
    rbar = complement(rho)
    left = sturmian_prefix(rbar, 50)[::-1]
    right = sturmian_prefix(rho, 50)
    seam = left + right
    legal = factor_set(characteristic_prefix(slope, 900), 20)
    for i in range(30, 50):
        assert seam[i : i + 20] in legal


def reference_complement(rho: AlphaNumber) -> tuple[tuple[int, ...], int, int]:
    """The complement re-derived per (m, n) pair: re-encode, then re-sum."""
    slope = rho.slope
    sup = sorted(i for i, b in enumerate(rho.digits) if b)

    def subtracted(m):
        return slope.q(m + 1) - 2 - sum(b * slope.q(i) for i, b in enumerate(rho.digits[: m + 1]))

    def residue_from(m, n):
        digits = encode(subtracted(m), slope, m + 1).digits
        return sum(b * slope.q(i) for i, b in enumerate(digits[:n]))

    def value_psi(n):
        return sum(b * slope.q(i) for i, b in enumerate(value[:n]))

    usable = [m for m in sup if subtracted(m) >= 0]
    top = usable[-1]
    value = encode(residue_from(top, top), slope, top).digits
    stable_from = top
    for n in range(top, -1, -1):
        if any(residue_from(m, n) != value_psi(n) for m in usable if m >= n):
            break
        stable_from = n
    return value, stable_from, top


def assert_complement_matches_reference(rho: AlphaNumber) -> None:
    report = complement_report(rho)
    assert (report.value.digits, report.stable_from, report.top_level) == reference_complement(rho)


@settings(max_examples=60, deadline=None)
@given(alpha_numbers(min_depth=8, max_depth=20))
def test_complement_report_matches_per_pair_reference(rho):
    assume(classify(rho).verdict == "non-zero")
    try:
        complement_report(rho)
    except UnsupportedInterceptError:
        # every support level carries the maximal residue
        assume(False)
    assert_complement_matches_reference(rho)


@pytest.mark.parametrize("depth", [48, 96])
def test_complement_report_matches_reference_deep(depth):
    assert_complement_matches_reference(fib_family(0, depth))
    assert_complement_matches_reference(fib_family(1, depth, step=3))
    digits = [0] * depth
    for i in range(3, depth, 5):
        digits[i] = MIXED.quotient(i + 1) - 1
    assert_complement_matches_reference(AlphaNumber(tuple(digits), MIXED))


FINITE = Slope((2, 1, 3, 1, 1, 4, 2, 1, 1, 3, 1, 2, 2, 1, 5, 1, 1, 2, 3, 1, 1, 2, 1, 4))


def tail_window(rng: random.Random, slope: Slope, depth: int, kind: str) -> AlphaNumber:
    """A random digit head, then a zero, sigma0, sigma1 or random tail.

    A sigma tail has its top digits cleared at random, which leaves a
    maximal residue at every support level when the head is empty.
    """
    head = rng.randint(0, depth)
    digits = []
    for i in range(1, depth + 1):
        a = slope.quotient(i)
        if i <= head or kind == "random":
            b = rng.randint(0, a)
        elif kind == "zero":
            b = 0
        else:
            b = a if i % 2 == (0 if kind == "sigma0" else 1) else 0
        digits.append(min(b, a - 1) if i == 1 else b)
    if kind != "random" and rng.random() < 0.25:
        cut = rng.randint(1, 2)
        digits[max(0, depth - cut) :] = [0] * min(cut, depth)
    # b_i = a_i needs b_{i-1} = 0
    for i in range(2, depth + 1):
        if digits[i - 1] == slope.quotient(i):
            digits[i - 2] = 0
    return AlphaNumber(tuple(digits), slope)


def reference_outcome(rho: AlphaNumber):
    """The refusals in their documented order, then the per-pair reference."""
    slope, digits = rho.slope, rho.digits
    if classify(rho).verdict == "natural-integer":
        return UnsupportedInterceptError, "natural-integer windows have no complement"
    if not any(digits):
        return UnsupportedInterceptError, "zero window has no complement"
    if digits in (sigma0(slope, rho.depth).digits, sigma1(slope, rho.depth).digits):
        return UnsupportedInterceptError, "sigma intercepts are excluded from complementation"
    maximal = [
        slope.q(m + 1) - 1 == sum(b * slope.q(i) for i, b in enumerate(digits[: m + 1]))
        for m, b in enumerate(digits)
        if b
    ]
    if all(maximal):
        return (
            UnsupportedInterceptError,
            "every support level has the maximal residue; window looks sigma-like",
        )
    return reference_complement(rho)


def complement_outcome(rho: AlphaNumber):
    try:
        report = complement_report(rho)
    except Exception as exc:
        return type(exc), str(exc)
    return report.value.digits, report.stable_from, report.top_level


def test_complement_report_matches_reference_on_a_seeded_corpus():
    rng = random.Random(20250)
    seen = set()
    for slope in NAMED_FIVE + (FINITE,):
        for depth in range(1, 25):
            for kind in ("zero", "sigma0", "sigma1", "random"):
                for _ in range(2):
                    rho = tail_window(rng, slope, depth, kind)
                    outcome = complement_outcome(rho)
                    assert outcome == reference_outcome(rho), (slope, rho.digits)
                    seen.add(outcome[1] if outcome[0] is UnsupportedInterceptError else "value")
    assert seen == {
        "value",
        "natural-integer windows have no complement",
        "sigma intercepts are excluded from complementation",
        "every support level has the maximal residue; window looks sigma-like",
    }


def test_complement_report_encodes_once(monkeypatch):
    calls = []

    def counting_encode(*args):
        calls.append(args)
        return encode(*args)

    monkeypatch.setattr(intercept_module, "encode", counting_encode)
    rho = fib_family(0, 96)
    report = complement_report(rho)
    assert len(rho.support()) == 23
    assert len(calls) == 1
    assert report.top_level == 92


def test_complement_stable_from_scan_is_live():
    rho = fib_family(0, 24)  # support {4, 8, 12, 16, 20}
    report = complement_report(rho)
    assert report.stable_from == 0
    # rho_13 read one lower raises N_12 = q_13 - 2 - rho_13 by one, so its
    # level-12 residue N_12 mod q_12 no longer matches the value's
    tower = list(rho.residues)
    tower[13] -= 1
    patched = AlphaNumber(rho.digits, GOLDEN)
    patched.__dict__["residues"] = tuple(tower)
    patched_report = complement_report(patched)
    assert patched_report.stable_from == 13
    assert patched_report.value == report.value
    assert patched_report.top_level == report.top_level == 20


def test_classify_shallow_windows_agree_with_complement():
    # golden slope: sigma1 of depth 2 is (a_1 - 1, 0) = (0, 0), the zero window
    for rho in (zero(GOLDEN, 2), sigma1(GOLDEN, 2), zero(GOLDEN, 3)):
        report = classify(rho)
        assert (report.verdict, report.witness) == ("natural-integer", 1)
        with pytest.raises(UnsupportedInterceptError, match="natural-integer"):
            complement(rho)
    assert classify(sigma0(GOLDEN, 2)).verdict == "sigma0-tail"
    assert classify(AlphaNumber((1, 2), parse_slope("[0;3*]"))).verdict == "non-zero"


def reference_pattern_start(rho: AlphaNumber, kind: str) -> int:
    """Digit-by-digit scan, one quotient at a time: the smallest subscript N
    such that the zero, sigma0 or sigma1 pattern holds for all i in [N, depth]."""
    start = rho.depth + 1
    for i in range(rho.depth, 0, -1):
        b = rho.digits[i - 1]
        if kind == "zero":
            ok = b == 0
        elif kind == "sigma0":
            ok = b == (rho.slope.quotient(i) if i % 2 == 0 else 0)
        else:
            ok = b == (rho.slope.quotient(i) if i % 2 == 1 else 0)
        if not ok:
            break
        start = i
    return start


def reference_classify(rho: AlphaNumber) -> tuple:
    tail = max(1, min(max(3, rho.depth // 3), rho.depth))
    best = None
    for kind, name in (("zero", "natural-integer"), ("sigma0", "sigma0-tail"),
                       ("sigma1", "sigma1-tail")):
        start = reference_pattern_start(rho, kind)
        if rho.depth + 1 - start >= tail and (best is None or start < best[0]):
            best = (start, name)
    if best is None:
        return ("non-zero", None, 0)
    return (best[1], best[0], rho.depth + 1 - best[0])


def reference_equivalent(rho: AlphaNumber, gamma: AlphaNumber) -> tuple:
    depth = min(rho.depth, gamma.depth)
    tail = max(1, min(max(3, depth // 3), depth))
    agree_from = depth
    for i in range(depth - 1, -1, -1):
        if rho.digits[i] != gamma.digits[i]:
            break
        agree_from = i
    if depth - agree_from >= tail:
        return (True, agree_from, f"digits agree from index {agree_from}")
    a, b = reference_classify(rho)[0], reference_classify(gamma)[0]
    if a != "non-zero" and b != "non-zero":
        return (True, None, f"both zero class ({a}, {b})")
    if (a != "non-zero") != (b != "non-zero"):
        return (False, None, f"classes differ ({a} vs {b})")
    return (False, None, f"tail agreement only {depth - agree_from} < {tail} digits")


def test_classify_and_equivalent_match_a_digit_by_digit_scan():
    rng = random.Random(20261018)
    verdicts, sigma1_witnesses = set(), set()
    for slope in NAMED_FIVE + (FINITE,):
        for depth in range(1, 25 if slope is FINITE else 41):
            windows = [zero(slope, depth), sigma0(slope, depth), sigma1(slope, depth)]
            windows += [
                tail_window(rng, slope, depth, kind)
                for kind in ("zero", "sigma0", "sigma1", "random")
                for _ in range(3)
            ]
            for rho in windows:
                report = classify(rho)
                assert report == reference_classify(rho), (slope, rho.digits)
                verdicts.add(report.verdict)
                if report.verdict == "sigma1-tail":
                    sigma1_witnesses.add(report.witness)
            for _ in range(len(windows)):
                rho, gamma = rng.choice(windows), rng.choice(windows)
                # a shallower window over the same slope: a digit prefix
                gamma = AlphaNumber(gamma.digits[: rng.randint(0, depth)], slope)
                for x, y in ((rho, gamma), (gamma, rho), (rho, rho)):
                    assert equivalent(x, y) == reference_equivalent(x, y), (x, y)
    assert verdicts == {"natural-integer", "sigma0-tail", "sigma1-tail", "non-zero"}
    assert sigma1_witnesses and 1 not in sigma1_witnesses


# ---------------------------------------------------------------- value semantics

COPIES = {"pickle": lambda value: pickle.loads(pickle.dumps(value)), "deepcopy": copy.deepcopy}


def test_alpha_number_repr_equality_and_hash():
    slope = parse_slope("[0;2*]")
    rho = AlphaNumber((0, 1, 0), slope)
    assert repr(rho) == (
        "AlphaNumber(digits=(0, 1, 0), slope=Slope(quotients=(2,), period=(0, 1)))"
    )
    twin = AlphaNumber((0, 1, 0), parse_slope("[0;2*]"))
    twin.residues  # the cached tower takes no part in equality or hashing
    assert rho == twin and hash(rho) == hash(twin)
    assert rho != AlphaNumber((1, 0, 0), slope)
    assert rho != AlphaNumber((0, 1, 0), parse_slope("[0;3*]"))
    assert rho != ((0, 1, 0), slope)
    assert rho.__eq__(((0, 1, 0), slope)) is NotImplemented
    assert encode(2, slope, 3) == rho != ((0, 1, 0), slope)  # encode's window is no tuple
    assert len({rho, twin, zero(slope, 3)}) == 2


def test_alpha_number_checks_its_digits():
    with pytest.raises(InvalidDigitsError, match="bad intercept digits"):
        AlphaNumber((2, 0), parse_slope("[0;2*]"))
    with pytest.raises(InvalidDigitsError, match="bad intercept digits"):
        AlphaNumber((1, 2), parse_slope("[0;2*]"))


def test_alpha_number_fields_cannot_be_assigned():
    rho = encode(100, GOLDEN, 12)
    for name, value in (("digits", (0,) * 12), ("slope", TWO_ONE), ("residues", ()), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(rho, name, value)
    for name in ("digits", "slope"):
        with pytest.raises(AttributeError):
            delattr(rho, name)
    assert rho == encode(100, GOLDEN, 12) and rho.psi(12) == 100


def test_alpha_number_residues_are_computed_once():
    rho = encode(1000, GOLDEN, 20)
    first = rho.residues
    assert rho.residues is first
    assert rho.psi(20) == 1000 and rho.residues is first


@pytest.mark.parametrize("copy_of", COPIES.values(), ids=COPIES)
def test_alpha_number_copies_are_equal(copy_of):
    rho = encode(1000, MIXED, 16)
    for cached in (False, True):
        if cached:
            rho.residues
        other = copy_of(rho)
        assert other is not rho
        assert other == rho and hash(other) == hash(rho) and repr(other) == repr(rho)
        assert other.residues == rho.residues and other.psi(16) == 1000
