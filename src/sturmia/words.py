"""Finite sturmian word machinery over {0, 1} alphabets.

Standard words follow s_-1 = "1", s_0 = "0", s_1 = s_0^{a_1 - 1} s_-1 and
s_{n+1} = s_n^{a_{n+1}} s_{n-1}, so |s_n| is the continuant q_n.  The
characteristic word of the slope is the limit of the s_n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import (
    DepthError,
    NotCentralError,
    RangeError,
    UndeterminedError,
)
from .ostrowski import encode
from .slope import Slope, interval_locate


# The longest standard word built.  q_n >= F_{n+1} on every slope, so from
# the golden slope's first level above the cap on, every s_n is over it, and
# the recursion below the cap is at most that many (39) levels deep.
MAX_STANDARD_LETTERS = 10**8
_CAP_LEVEL = Slope((1,), (0, 1)).level(MAX_STANDARD_LETTERS)


@lru_cache(maxsize=4096)
def standard_word(slope: Slope, n: int) -> str:
    """The standard word s_n of the slope; defined for n >= -1.

    Raises RangeError when s_n would have more than MAX_STANDARD_LETTERS
    letters, before any letter is built.
    """
    if n < -1:
        raise DepthError("standard words start at index -1")
    if n == -1:
        return "1"
    if n == 0:
        return "0"
    # a finite slope reads q_n, so DepthError past its depth comes first
    if (n >= _CAP_LEVEL and slope.known_depth is None) or slope.q(n) > MAX_STANDARD_LETTERS:
        raise RangeError(
            f"standard word s_{n} has more than {MAX_STANDARD_LETTERS} letters"
        )
    if n == 1:
        return "0" * (slope.quotient(1) - 1) + "1"
    return standard_word(slope, n - 1) * slope.quotient(n) + standard_word(slope, n - 2)


@lru_cache(maxsize=64)
def characteristic_prefix(slope: Slope, m: int) -> str:
    """First m letters of the characteristic word, assembled from digit blocks.

    With m = sum b_{i+1} q_i the prefix is the downward product
    s_N^{b_{N+1}} ... s_0^{b_1}.  Agrees with truncating any s_d of length
    >= m, which the tests cross-check.
    """
    if m < 0:
        raise RangeError("prefix length must be >= 0")
    if m == 0:
        return ""
    depth = slope.level(m)
    digits = encode(m, slope, depth).digits
    parts = []
    for i in range(depth - 1, -1, -1):
        if digits[i]:
            parts.append(standard_word(slope, i) * digits[i])
    word = "".join(parts)
    if len(word) != m:
        raise AssertionError("digit block product has the wrong length")
    return word


def language_length(slope: Slope, m: int) -> int:
    """Letters of the characteristic word that show every length-m factor.

    For m >= 1 in [q_n - 1, q_{n+1} - 2] this is m + q_{n+1} + q_n + 2.
    """
    n = interval_locate(m, slope).n
    return m + slope.q(n + 1) + slope.q(n) + 2


def shifted_characteristic_prefix(slope: Slope, k: int, m: int) -> str:
    """First m letters of the characteristic word shifted k places."""
    if k < 0:
        raise RangeError("shift must be >= 0")
    return characteristic_prefix(slope, k + m)[k:]


def mechanical_prefix(alpha: Fraction, rho: Fraction, n: int, kind: str = "lower") -> str:
    """First n letters of the mechanical word of slope alpha and intercept rho.

    Upper words take floor differences, lower words ceiling differences; both
    are evaluated in exact rational arithmetic.
    """
    alpha = Fraction(alpha)
    rho = Fraction(rho)
    if not 0 <= alpha <= 1:
        raise RangeError("mechanical slope must lie in [0, 1]")
    if kind == "upper":
        step = lambda k: math.floor((k + 1) * alpha + rho) - math.floor(k * alpha + rho)
    elif kind == "lower":
        step = lambda k: math.ceil((k + 1) * alpha + rho) - math.ceil(k * alpha + rho)
    else:
        raise ValueError(f"kind must be 'upper' or 'lower', got {kind!r}")
    return "".join(str(step(k)) for k in range(n))


def window_walk(word: str, n: int) -> tuple[list[str], list[dict[str, int]]]:
    """Distinct length-n windows of the word and the steps between them.

    Returns `windows`, the distinct length-n factors in order of first
    occurrence, and `step`, where `step[i][c] == j` means window i followed by
    the letter c shifts to window j; each entry is one distinct length-(n+1)
    factor `windows[i] + c`.  The window after window i depends only on it
    and the next letter, so a (window, letter) pair is sliced and hashed
    once, the first time it is seen, and looked up after that: the cost is
    O(L + p(n)·σ·n) for p(n) distinct windows over σ letters instead of
    O(L·n) (the window automaton of Blumer et al., TCS 40, 1985, at one
    length).  Ids stand for real strings, so the result is exact.
    """
    if n < 0 or n > len(word):
        raise RangeError(f"factor length {n} outside [0, {len(word)}]")
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


def factor_set(word: str, n: int) -> frozenset[str]:
    """All length-n factors occurring in the word."""
    return frozenset(window_walk(word, n)[0])


def complexity(word: str, n: int) -> int:
    """Number of distinct length-n factors of the word."""
    return len(window_walk(word, n)[0])


def special_factor(factors: frozenset[str], direction: str) -> str:
    """The unique left (right) special factor one letter shorter than `factors`.

    `factors` must be the complete set of length-(n+1) factors of a sturmian
    window; w is left special when 0w and 1w both occur, right special when
    w0 and w1 do.  Raises UndeterminedError when the window shows no witness.
    """
    if not factors:
        raise UndeterminedError("empty factor set")
    if direction == "left":
        candidates = {w[1:] for w in factors if ("0" + w[1:]) in factors and ("1" + w[1:]) in factors}
    elif direction == "right":
        candidates = {w[:-1] for w in factors if (w[:-1] + "0") in factors and (w[:-1] + "1") in factors}
    else:
        raise ValueError(f"direction must be 'left' or 'right', got {direction!r}")
    if len(candidates) > 1:
        raise UndeterminedError(f"multiple {direction} special candidates: window not sturmian")
    if not candidates:
        raise UndeterminedError(f"no {direction} special factor visible in this window")
    return candidates.pop()


def is_palindrome(word: str) -> bool:
    return word == word[::-1]


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


def fractional_power(word: str, exponent: Fraction | int) -> str:
    """word^exponent for rational exponent >= 0 with denominator scaling |word|."""
    if not word:
        raise RangeError("cannot take powers of the empty word")
    exponent = Fraction(exponent)
    if exponent < 0:
        raise RangeError("exponent must be >= 0")
    whole = int(exponent)
    rest = exponent - whole
    cut = math.floor(rest * len(word))
    return word * whole + word[:cut]


def balance_defect(word: str, n: int) -> int:
    """Largest difference of '1' counts over all pairs of length-n factors."""
    counts = {f.count("1") for f in factor_set(word, n)}
    return max(counts) - min(counts) if counts else 0
