"""Tests for products of reversed standard words and the trichotomy."""

import pytest

from sturmia.errors import DepthError, RangeError, UnsupportedInterceptError
from sturmia.factorization import (
    central_split_check,
    characteristic_factorizations,
    duality_check,
    product_prefix,
)
from sturmia.intercept import (
    AlphaNumber,
    add_integer,
    complement,
    max_certified_length,
    sigma0,
    sigma1,
)
from sturmia.ostrowski import encode
from sturmia.slope import Slope, parse_slope
from sturmia.words import (
    certified_letters,
    characteristic_prefix,
    complexity,
    factor_set,
    standard_word,
)
from test_intercept import extensions, seeded_finite_slopes

GOLDEN = parse_slope("[0;1*]")
TWO_ONE = parse_slope("[0;2,(1)*]")
MIXED = parse_slope("[0;2,1,3,(2,1)*]")
TWO_THREE = parse_slope("[0;2,3,(1,2)*]")
ONE_THREE = parse_slope("[0;1,3,(2,1)*]")


def with_support(support, depth, slope):
    return AlphaNumber(tuple(1 if i in support else 0 for i in range(depth)), slope)


# ------------------------------------------------------------------- products


@pytest.mark.parametrize("slope", [GOLDEN, TWO_ONE, MIXED])
def test_sigma_products_are_one_letter_extensions(slope):
    c = characteristic_prefix(slope, 99)
    assert product_prefix(sigma0(slope, 16), 100) == "1" + c
    assert product_prefix(sigma1(slope, 16), 100) == "0" + c


def test_product_letter_by_letter_small_case():
    rho = AlphaNumber((0, 1, 0, 1), GOLDEN)
    blocks = standard_word(GOLDEN, 1)[::-1] + standard_word(GOLDEN, 3)[::-1]
    assert product_prefix(rho, 4) == blocks == "1101"


def test_golden_characteristic_product_patterns():
    # the two digit patterns whose products rebuild the characteristic word
    c = characteristic_prefix(GOLDEN, 150)
    odd_levels = AlphaNumber((0, 0, 0) + tuple(i % 2 for i in range(3, 16)), GOLDEN)
    even_levels = AlphaNumber((0, 1, 0, 0) + tuple((i + 1) % 2 for i in range(4, 16)), GOLDEN)
    assert product_prefix(odd_levels, 150) == c
    assert product_prefix(even_levels, 150) == c


def test_product_monotone_in_window_depth():
    rho = with_support({1, 4, 7, 10}, 12, GOLDEN)
    full = product_prefix(rho, rho.psi(12))
    for depth in range(6, 12):
        part = AlphaNumber(rho.digits[:depth], rho.slope)
        word = product_prefix(part, part.psi(depth))
        assert full.startswith(word)


def test_product_stays_in_language():
    for slope, support in [(GOLDEN, {1, 4, 7, 10}), (MIXED, {2, 5, 8, 11})]:
        rho = with_support(support, 14, slope)
        word = product_prefix(rho, 60)
        for n in range(1, 9):
            assert complexity(word, n) <= n + 1
        language = factor_set(characteristic_prefix(slope, 400), 8)
        assert {word[i : i + 8] for i in range(len(word) - 7)} <= language


def test_product_guards():
    with pytest.raises(UnsupportedInterceptError):
        product_prefix(encode(7, GOLDEN, 12), 5)
    with pytest.raises(DepthError):
        product_prefix(sigma0(GOLDEN, 6), 50)
    with pytest.raises(RangeError):
        product_prefix(sigma0(GOLDEN, 12), -1)


# The finite product the digits of an integer k name is the characteristic
# prefix of length k read backwards, the identity `central_split_check` reads.


def test_integer_product_lengths_and_zero():
    assert characteristic_prefix(GOLDEN, 0)[::-1] == ""
    for k in (1, 2, 7, 20):
        assert len(characteristic_prefix(GOLDEN, k)[::-1]) == k


def digit_block_product(k, slope):
    """Reference: reversal(s_i)^{b_{i+1}} over the Ostrowski digits of k, ascending."""
    digits = encode(k, slope, slope.level(k)).digits if k else ()
    return "".join(standard_word(slope, i)[::-1] * b for i, b in enumerate(digits))


@pytest.mark.parametrize("slope", [GOLDEN, TWO_ONE, MIXED, TWO_THREE, ONE_THREE])
def test_integer_product_matches_digit_blocks(slope):
    for k in range(3000):
        assert characteristic_prefix(slope, k)[::-1] == digit_block_product(k, slope), k


# -------------------------------------------------------------- central split


def test_central_split_golden_example():
    report = central_split_check(4, 2, GOLDEN)
    assert report.ok and report.level == 5
    assert report.expected == "101101"
    assert report.left == "1011" and report.right == "01"


def test_central_split_sweep_all_positions():
    for slope in (GOLDEN, MIXED):
        for level in range(3, 9):
            total = slope.q(level) - 2
            for m in range(total + 1):
                assert central_split_check(m, total - m, slope).ok


def test_central_split_rejects_bad_total():
    with pytest.raises(RangeError):
        central_split_check(2, 3, GOLDEN)
    with pytest.raises(RangeError):
        central_split_check(-1, 4, GOLDEN)


# ------------------------------------------------------------------- duality


def test_duality_fibonacci_pattern():
    rho = with_support({4, 8, 12}, 16, GOLDEN)
    assert complement(rho).support() == frozenset({1, 6, 10})
    report = duality_check(rho, 100)
    assert report.ok and report.prefix_ok and report.orbit_ok


def test_duality_involution_side():
    rho = with_support({4, 8, 12}, 16, GOLDEN)
    comp = complement(rho)
    back = complement(comp)
    length = min(90, comp.psi(comp.depth), back.psi(back.depth))
    assert length >= 30
    assert duality_check(comp, length).ok


def test_duality_random_nonzero_window():
    rho = with_support({2, 5, 8, 11, 14}, 16, TWO_THREE)
    comp = complement(rho)
    length = min(200, comp.psi(comp.depth), max_certified_length(rho))
    assert length >= 50
    assert duality_check(rho, length).ok


def test_duality_rejects_zero_class():
    with pytest.raises(UnsupportedInterceptError):
        duality_check(encode(3, GOLDEN, 14), 40)


def test_shift_by_one_drops_one_product_letter():
    rho = with_support({2, 5, 8, 11}, 14, GOLDEN)
    plus = add_integer(rho, 1)
    length = min(plus.psi(plus.depth), rho.psi(rho.depth) + 1, 60)
    assert product_prefix(plus, length)[1:] == product_prefix(rho, length - 1)


# ------------------------------------------- characteristic word product pair


@pytest.mark.parametrize(
    "slope,case",
    [
        (GOLDEN, "a1=1,a2=1"),
        (TWO_ONE, "a1>=2"),
        (MIXED, "a1>=2"),
        (TWO_THREE, "a1>=2"),
        (ONE_THREE, "a1=1,a2>=2"),
    ],
)
def test_characteristic_factorizations(slope, case):
    report = characteristic_factorizations(slope, 400)
    assert report.case == case
    assert report.ok
    assert report.first == report.second == characteristic_prefix(slope, 400)


def test_a_block_repeats_only_for_the_letters_still_missing():
    # the first block of [0;(2**20000)*] is s_0 taken a_1 - 2 times
    report = characteristic_factorizations(Slope((2**20000,), (0, 1)), 10)
    assert report == ("a1>=2", "0" * 10, "0" * 10, True)


def test_a_finite_slope_factorizes_as_every_extension_does():
    # within the q_D - 1 letters a finite slope's word certifies, its case
    # and products are those of every infinite extension of its quotients,
    # and one letter more is refused by those letters
    slopes = [Slope((a,)) for a in range(2, 6)] + [Slope((1, 1)), Slope((1, 4)), Slope((3, 2, 2))]
    slopes += seeded_finite_slopes(40, 46)
    answered = 0
    for slope in slopes:
        letters = certified_letters(slope)
        wider = (*extensions(slope), Slope(slope.quotients + (50,), (len(slope.quotients), 1)))
        for length in range(letters + 1):
            report = characteristic_factorizations(slope, length)
            for extension in wider:
                assert characteristic_factorizations(extension, length) == report, (slope, length)
            answered += 1
        with pytest.raises(DepthError, match=f"^prefix of length {letters + 1} passes the {letters} letters"):
            characteristic_factorizations(slope, letters + 1)
    assert answered > 1000
    # [0;1] certifies no letter, and its case turns on a_2 >= 2
    with pytest.raises(DepthError, match="^a_2 requested but only 1 quotients are known$"):
        characteristic_factorizations(Slope((1,)), 0)
