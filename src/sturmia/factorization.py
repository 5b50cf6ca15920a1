"""Reversed-standard-word products and the factorization trichotomy.

A digit window (b_1, ..., b_N) over a slope names the ascending product of
reversed standard words reversal(s_i)^{b_{i+1}}.  For non-integer windows
the product grows without bound and its prefix of any certified length is
well defined.  The shift of the characteristic word by a window equals the
product named by the complement window; characteristic words themselves
carry one explicit product pair per leading-quotient case.  Whether a word
admits zero, one, or two such products is decided entirely by the class of
its window, as `intercept.classify` states.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from itertools import chain, count

from .errors import DepthError, RangeError, UnsupportedInterceptError, shown
from .intercept import AlphaNumber, classify, complement, sturmian_prefix
from .slope import Slope
from .words import characteristic_prefix, factor_set, language_length, standard_word


def _blocks(slope: Slope, pairs: Iterable[tuple[int, int]], length: int) -> str:
    """Join reversal(s_level)^power blocks until `length` letters, and cut there.

    A block repeats its word no more often than the letters still missing
    need, so a huge power costs only those letters."""
    parts: list[str] = []
    built = 0
    for level, power in pairs:
        if power < 0:
            raise RangeError(f"negative exponent at level {level}")
        if power == 0:
            continue
        word = standard_word(slope, level)[::-1]
        block = word * min(power, -((built - length) // len(word)))
        parts.append(block)
        built += len(block)
        if built >= length:
            break
    if built < length:
        raise DepthError(f"product materializes {built} letters, need {shown(length)}")
    return "".join(parts)[:length]


def product_prefix(rho: AlphaNumber, length: int) -> str:
    """First letters of the ascending reversed-standard-word product.

    Rejects natural-integer windows: their product is a finite word, not a
    prefix of an infinite one.
    """
    if length < 0:
        raise RangeError(f"length must be >= 0, got {shown(length)}")
    report = classify(rho)
    if report.verdict == "natural-integer":
        raise UnsupportedInterceptError(
            "digit window is a natural integer: the product stays finite"
        )
    total = rho.psi(rho.depth)
    if total < length:
        raise DepthError(
            f"window materializes only {shown(total)} product letters, need {shown(length)}"
        )
    pairs = ((i, rho.digits[i]) for i in range(rho.depth))
    return _blocks(rho.slope, pairs, length)


class SplitReport(namedtuple("SplitReport", "ok level left right expected")):
    __slots__ = ()


def central_split_check(m: int, p: int, slope: Slope) -> SplitReport:
    """Check the two-sided split of a doubly clipped standard word.

    For m + p = q_{N+1} - 2 the first q_{N+1} - 2 letters of the level-(N+1)
    standard word must equal the length-m characteristic prefix followed by
    the integer product of p.
    """
    if m < 0 or p < 0:
        raise RangeError("both split sizes must be >= 0")
    total = m + p
    level = slope.level(total + 1)
    if slope.q(level) - 2 != total:
        raise RangeError(f"m+p = {shown(total)} is not q_N - 2 for any subscript N")
    expected = standard_word(slope, level)[:-2]
    # one prefix per length m + p; the descending product of standard words
    # that the digits of p name is its first p letters read backwards
    prefix = characteristic_prefix(slope, total)
    left = prefix[:m]
    right = prefix[:p][::-1]
    return SplitReport(expected == left + right, level, left, right, expected)


class DualityReport(namedtuple("DualityReport", "ok prefix_ok orbit_ok checked_length window")):
    __slots__ = ()


def duality_check(rho: AlphaNumber, length: int) -> DualityReport:
    """Shift-by-rho equals the product named by the complement window.

    Also glues the reversed complement side against the direct side and
    checks every window of the seam stays inside the slope's language: the
    finite-scale form of the two-sided orbit statement.
    """
    comp = complement(rho)
    lhs = sturmian_prefix(rho, length)
    rhs = product_prefix(comp, length)
    prefix_ok = lhs == rhs

    window = min(16, max(4, length // 8))
    seam_len = min(length, 40)
    seam = sturmian_prefix(comp, seam_len)[::-1] + lhs[:seam_len]
    slope = rho.slope
    reference = characteristic_prefix(slope, language_length(slope, window))
    language = factor_set(reference, window)
    orbit_ok = all(
        seam[j : j + window] in language for j in range(len(seam) - window + 1)
    )
    return DualityReport(
        ok=prefix_ok and orbit_ok,
        prefix_ok=prefix_ok,
        orbit_ok=orbit_ok,
        checked_length=length,
        window=window,
    )


class CharacteristicFactorizations(
    namedtuple("CharacteristicFactorizations", "case first second ok")
):
    __slots__ = ()


def characteristic_factorizations(slope: Slope, length: int) -> CharacteristicFactorizations:
    """Materialize and verify the product pair for the characteristic word.

    The applicable pair depends only on whether the first two quotients
    exceed 1; each product is compared letter-by-letter to the prefix.  A
    finite slope [0; a_1, ..., a_D] answers within `certified_letters` and
    is refused past them, as its prefix is.  Within them the products of
    every extension [0; a_1, ..., a_D, a_{D+1}, ...] spell the same letters,
    so they are read off [0; a_1, ..., a_D, 1*], whose level-D block is one
    copy of s_D; only the case label of [0; 1] needs a_2, and is refused.
    """
    target = characteristic_prefix(slope, length)
    a1 = slope.quotient(1)
    if a1 >= 2:
        case = "a1>=2"
    else:
        case = "a1=1,a2>=2" if slope.quotient(2) >= 2 else "a1=1,a2=1"
    if slope.period is None:
        slope = Slope(slope.quotients + (1,), (len(slope.quotients), 1))
    a2 = slope.quotient(2)
    # the two digit windows are one less than the two one-letter extensions
    # of the characteristic word; the odd-level window reads the same in
    # every case, the even-level one needs a level-1/level-2 head when the
    # first quotient is 1
    odd = ((2 * i + 1, slope.quotient(2 * i + 2)) for i in count(1))
    second = chain([(0, a1 - 1), (1, a2 - 1)], odd)
    if a1 >= 2:
        head, start = [(0, a1 - 2)], 1
    else:
        head, start = [(1, a2), (2, slope.quotient(3) - 1)], 2
    first = chain(head, ((2 * i, slope.quotient(2 * i + 1)) for i in count(start)))

    first_word = _blocks(slope, first, length)
    second_word = _blocks(slope, second, length)
    return CharacteristicFactorizations(
        case=case,
        first=first_word,
        second=second_word,
        ok=first_word == target == second_word,
    )
