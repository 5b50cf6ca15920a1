"""Repetition function of sturmian words: direct scan and closed forms.

The repetition function r(x, m) is the first index whose length-m window
duplicates an earlier one; equivalently the largest k such that the windows
starting at 0 .. k-1 are pairwise distinct.  For a characteristic word it is
constant equal to q_n on the interval [q_n - 1, q_{n+1} - 2]; for a shifted
word the interval splits into at most four rows whose values are driven by
the digits of the shift.  The breakpoints come from the values by the jump
law (r(x, m) != r(x, m - 1) exactly when r(x, m) = m + 1): a row after the
first starts at m = value - 1.  The closed forms here are cross-validated
against the direct scan in the test suite.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction

from .errors import DepthError, PrefixTooShortError, RangeError, shown
from .intercept import AlphaNumber
from .slope import Slope, interval_locate
from .words import MAX_STANDARD_LETTERS

# Fingerprint moduli of repetition_direct.  A scan of W windows modulo a
# prime P expects about W**2 / 2P false hits, each confirmed in place.  Up
# to _NARROW_WINDOWS windows it reduces modulo the prime 2**30 - 35, one
# 30-bit CPython digit, so every `%` takes the single-digit division path,
# and at most about two false hits are expected.  Past that it reduces
# modulo the prime 2**64 - 59, three digits, where about 3e-8 are expected
# at 10**6 windows.  An ASCII word is read one byte a letter in base 2**8,
# any other word as code points in base 2**32; both bases have order
# 268,435,447 modulo the narrow prime and 4,611,686,018,427,387,889 modulo
# the wide one, (P - 1) / 4 in each (tests/test_repetition.py checks all
# four), unlike a Mersenne modulus 2**61 - 1, where 2**32 has order 61 and
# windows of structured words would collide.
_NARROW_MODULUS = 2**30 - 35
_NARROW_WINDOWS = 2**16
_MODULUS = 2**64 - 59
# Code points in machine order, read four bytes at a time by memoryview
_UTF32 = "utf-32-le" if sys.byteorder == "little" else "utf-32-be"
if memoryview(bytes(4)).cast("I").itemsize != 4:
    raise ImportError("repetition_direct reads code points as 4-byte unsigned ints")


def repetition_direct(x_prefix: str, m: int) -> int:
    """First window index whose length-m factor repeats an earlier one.

    Certified: raises PrefixTooShortError when the prefix ends before any
    duplicate window is seen, rather than guessing.

    A Karp-Rabin rolling fingerprint (Karp & Rabin 1987): window i is read
    as a number mod a prime, _NARROW_MODULUS for at most _NARROW_WINDOWS
    windows and _MODULUS past that, and each next fingerprint comes from
    the last one in one step.  An ASCII word, as every word the library
    builds is (str.isascii, O(1)), is read one byte a letter in base 2**8;
    any other word as its code points in base 2**32 (lone surrogates
    included).  Each window is kept only as its fingerprint and first
    index; a fingerprint hit is confirmed against the prefix in place, and
    windows whose fingerprint collides with a different, earlier window are
    the only ones stored whole, so the answer is exact whatever the modulus
    or the reading.  One copy of the word in memory, 1 byte a letter for
    ASCII and 4 otherwise (an early repeat on 10**6 golden letters peaks
    at about 1 MB under tracemalloc), and O(len(x_prefix) + m) time while
    distinct windows keep distinct fingerprints.
    """
    if m < 1:
        raise RangeError(f"window length must be >= 1, got {shown(m)}")
    modulus = _NARROW_MODULUS if len(x_prefix) - m < _NARROW_WINDOWS else _MODULUS
    if x_prefix.isascii():
        codes = memoryview(x_prefix.encode("ascii"))
        base, head = 2**8, codes[:m]
    else:
        codes = memoryview(x_prefix.encode(_UTF32, "surrogatepass")).cast("I")
        base, head = 2**32, x_prefix[:m].encode("utf-32-be", "surrogatepass")
    fingerprint = int.from_bytes(head, "big") % modulus
    top = pow(base, m, modulus)  # weight of the letter leaving, once shifted
    first = {fingerprint: 0}
    setdefault = first.setdefault
    collided: set[str] = set()
    i = 0
    for out, new in zip(codes, codes[m:]):
        i += 1
        fingerprint = (fingerprint * base + new - out * top) % modulus
        if setdefault(fingerprint, i) != i:
            window = x_prefix[i : i + m]
            if x_prefix.startswith(window, first[fingerprint]) or window in collided:
                return i
            collided.add(window)
    raise PrefixTooShortError(
        f"no repeated length-{shown(m)} window within {len(x_prefix)} letters"
    )


def repetition_profile(word: str, m_max: int | None = None) -> list[int]:
    """r(x, m) for every m the word certifies, entry m - 1 for window length m.

    One online suffix automaton (Blumer et al. 1985): after letter e the
    suffix link of the last state has length B[e], the longest suffix of
    word[:e] that also ends earlier (Crochemore & Ilie 2008).  The window
    ending at e repeats an earlier one exactly when B[e] >= m, so
    r(x, m) = min{e : B[e] >= m} - m, read off one running maximum of B.
    The list ends at the largest m whose window repeats within the word; an
    m past it is what repetition_direct reports as PrefixTooShortError.
    With m_max the scan stops as soon as every m <= m_max is certified:
    the entries are the same, the list may just end earlier.

    O(len(word)) time, but every state keeps a dict of transitions (about
    290 bytes per letter), so a single m on a long word is read by
    repetition_direct, which is O(len(word) + m) as well and keeps one
    fingerprint per window.
    """
    length = [0]
    link = [-1]
    trans: list[dict[str, int]] = [{}]
    last = 0
    profile: list[int] = []
    top = 0  # max B so far, the number of certified m
    stop = len(word) if m_max is None else m_max
    for e, letter in enumerate(word, start=1):
        cur = len(length)
        length.append(length[last] + 1)
        trans.append({})
        p = last
        while p != -1 and letter not in trans[p]:
            trans[p][letter] = cur
            p = link[p]
        if p == -1:
            link.append(0)
        else:
            q = trans[p][letter]
            if length[p] + 1 == length[q]:
                link.append(q)
            else:
                # split q: the clone takes index cur + 1 in every row
                clone = cur + 1
                link.append(clone)
                length.append(length[p] + 1)
                link.append(link[q])
                trans.append(trans[q].copy())
                while p != -1 and trans[p].get(letter) == q:
                    trans[p][letter] = clone
                    p = link[p]
                link[q] = clone
        last = cur
        b = length[link[cur]]
        if b > top:
            # m = top + 1 .. b first repeat at the window ending here
            profile.extend(range(e - top - 1, e - b - 1, -1))
            top = b
            if top >= stop:
                break
    return profile


def profile_lookup(profile: list[int], m: int, letters: int) -> int:
    """r(x, m) from the profile of a `letters`-long prefix.

    Raises exactly what repetition_direct raises on that prefix.
    """
    if m < 1:
        raise RangeError(f"window length must be >= 1, got {shown(m)}")
    if m > len(profile):
        raise PrefixTooShortError(
            f"no repeated length-{shown(m)} window within {shown(letters)} letters"
        )
    return profile[m - 1]


class RepetitionRow(namedtuple("RepetitionRow", "m_lo m_hi value case")):
    """One constant segment of the repetition function inside an interval."""

    __slots__ = ()


def _case_5(q: int, q_hi: int, b: int, rho_n1: int) -> tuple[int, int, int, int]:
    """The values of case 5 (0 < b_{n+1} < a_{n+1} - 1) at level n, in row
    order, from q_n, q_{n+1}, b_{n+1} and rho_{n+1}."""
    return q, q_hi - rho_n1, q_hi - b * q, q_hi + q - rho_n1


def _level_rows(rho: AlphaNumber, n: int) -> Iterator[tuple[tuple[int, int, int, str], ...]]:
    """The rows of repetition_rows at levels n, n + 1, ..., one level a step,
    each a plain (m_lo, m_hi, value, case) tuple.

    Reads the ladder rows and the window's digits and residues once and
    carries (q_{n-1}, q_n, q_{n+1}), (b_n, b_{n+1}, b_{n+2}), (a_{n+1},
    a_{n+2}) and (rho_n, rho_{n+1}) from one level to the next.  Raises
    what repetition_rows raises at the first level it cannot build, so a
    walk over a window ends in DepthError at level depth - 1.
    """
    if n < 0:
        raise RangeError(f"interval level must be >= 0, got {shown(n)}")
    depth = rho.depth
    if n + 2 > depth:
        raise DepthError(
            f"closed form at level {shown(n)} needs digits through {shown(n + 2)},"
            f" window has {depth}"
        )
    q_row, a_row = rho.slope._grow(depth)  # q_row[i + 1] is q_i, a_row[i] is a_i
    digits, residues = rho.digits, rho.residues  # digits[i - 1] is b_i
    q_lo, q = q_row[n], q_row[n + 1]
    b_below, b_cur = digits[n - 1] if n else 0, digits[n]
    a, rho_n = a_row[n + 1], residues[n]
    while True:
        q_hi, b_above, a_above, rho_n1 = q_row[n + 2], digits[n + 1], a_row[n + 2], residues[n + 1]
        lo, hi = q - 1, q_hi - 2
        if lo > hi:
            # only level 0 with first quotient 1 degenerates this way
            raise RangeError(f"interval at level {n} is empty for this slope")

        if b_cur == 0 and b_above == a_above:
            values, case = (q,), "1"
        elif b_cur == 0 and b_below == 0:
            values, case = (q, q_hi - rho_n), "2"
        elif b_cur == 0 and a != 1:
            values, case = (q, q_hi - rho_n), "3"
        elif b_cur == 0:
            values, case = (q + q_lo - rho_n,), "4"
        elif 0 < b_cur < a - 1:
            values, case = _case_5(q, q_hi, b_cur, rho_n1), "5"
        elif b_cur == a - 1 and b_below == 0:
            values, case = (q, q + q_lo - rho_n, q + q_lo, 2 * q + q_lo - rho_n), "6"
        elif b_cur == a - 1:
            values, case = (q + q_lo - rho_n, q + q_lo, 2 * q + q_lo - rho_n), "7"
        else:
            # valid digits leave only b_{n+1} = a_{n+1}
            values, case = (q_lo, q + q_lo - rho_n), "8"

        # by the jump law a row after the first starts at its value - 1, and
        # each row ends one before the next starts; clip each row to
        # [lo, hi] and drop the empty ones
        rows = []
        m_lo, value = lo, values[0]
        for after in values[1:]:
            m_hi = after - 2
            if m_hi > hi:
                m_hi = hi
            if m_lo <= m_hi:
                rows.append((m_lo, m_hi, value, case))
            m_lo, value = after - 1, after
            if m_lo < lo:
                m_lo = lo
        if m_lo <= hi:
            rows.append((m_lo, hi, value, case))
        yield tuple(rows)

        n += 1
        if n + 2 > depth:
            raise DepthError(
                f"closed form at level {n} needs digits through {n + 2}, window has {depth}"
            )
        q_lo, q, b_below, b_cur, a, rho_n = q, q_hi, b_cur, b_above, a_above, rho_n1


def repetition_rows(rho: AlphaNumber, n: int) -> tuple[RepetitionRow, ...]:
    """Closed-form repetition segments covering [q_n - 1, q_{n+1} - 2].

    Dispatches on (b_{n+1}, b_{n+2}, b_n, a_{n+1}); every row carries its
    case tag.  Rows always tile the interval exactly.
    """
    return tuple(map(RepetitionRow._make, next(_level_rows(rho, n))))


def repetition_closed_form(rho: AlphaNumber, m: int) -> tuple[int, str]:
    """Closed-form r(x, m) for x the shift of the characteristic word by rho.

    Returns (value, case tag).  Needs digits through level n+2 where m sits
    in [q_n - 1, q_{n+1} - 2].
    """
    pos = interval_locate(m, rho.slope)
    # the rows tile the interval that holds m, so the first that ends at or
    # after m holds it
    for _, m_hi, value, case in next(_level_rows(rho, pos.n)):
        if m <= m_hi:
            break
    return value, case


def repetition_closed_forms(rho: AlphaNumber, m_hi: int) -> list[tuple[int, str]]:
    """[repetition_closed_form(rho, m) for m in 1..m_hi], one level at a time.

    Walks the levels from the one holding m = 1, expanding each level's
    rows over its m range; raises the same exception, at the same m, as
    the per-m closed form.  The list has one entry per m: a row that would
    take it past MAX_STANDARD_LETTERS entries is refused with RangeError, as
    a word that long is.
    """
    out: list[tuple[int, str]] = []
    if m_hi < 1:
        return out
    levels = _level_rows(rho, interval_locate(1, rho.slope).n)
    while len(out) < m_hi:
        m = len(out) + 1
        for lo, hi, value, case in next(levels):
            top = min(hi, m_hi)
            if top > MAX_STANDARD_LETTERS:
                raise RangeError(
                    f"closed forms through m = {shown(m_hi)} would list more than"
                    f" {MAX_STANDARD_LETTERS} values"
                )
            # a row past m_hi adds nothing
            out += [(value, case)] * max(0, top - max(lo, m) + 1)
    return out


def repetition_level(rho_n1: int, slope: Slope, m: int) -> int:
    """4-branch value of r(T^j(c), m) for an integer shift j = rho_{n+1}.

    Branch by the position of the shift relative to the common-part offsets
    (a_{n+1} - l - 1) q_n + r and (a_{n+1} - l) q_n (+ r).
    """
    pos = interval_locate(m, slope)
    n, l, r = pos.n, pos.l, pos.r
    q_lo, q, q_hi = slope.q(n - 1), slope.q(n), slope.q(n + 1)
    a = slope.quotient(n + 1)
    if not 0 <= rho_n1 < q_hi:
        raise RangeError(f"shift must lie in [0, {shown(q_hi)}), got {shown(rho_n1)}")
    if rho_n1 <= (a - l - 1) * q + r:
        return q
    if rho_n1 < (a - l) * q:
        return q_hi - rho_n1
    if rho_n1 <= (a - l) * q + r:
        return l * q + q_lo
    return q_hi - rho_n1 + q


class JumpReport(namedtuple("JumpReport", "holds checked failures")):
    """Verdict of the jump law r(x,m) != r(x,m-1) <=> r(x,m) = m+1."""

    __slots__ = ()


def repetition_jump_check(x_prefix: str, m_lo: int, m_hi: int) -> JumpReport:
    """Verify the jump law on m in [m_lo, m_hi] against one repetition profile."""
    if m_lo < 2:
        raise RangeError("jump law compares m with m-1; need m_lo >= 2")
    profile = repetition_profile(x_prefix, m_hi)
    values = {
        m: profile_lookup(profile, m, len(x_prefix)) for m in range(m_lo - 1, m_hi + 1)
    }
    failures = tuple(
        m
        for m in range(m_lo, m_hi + 1)
        if (values[m] != values[m - 1]) != (values[m] == m + 1)
    )
    return JumpReport(holds=not failures, checked=(m_lo, m_hi), failures=failures)


class DioTerm(namedtuple("DioTerm", "level family ratio")):
    """One ratio feeding the exponent estimate; family -1 marks generic rows."""

    __slots__ = ()


class DioEstimate(namedtuple("DioEstimate", "value mode witness")):
    __slots__ = ()


# Number of top digit levels whose hypothesis 0 < b_i < a_i - 1 selects the
# four-family formula; anything else falls back to the generic segment bound.
def _tail_start(depth: int) -> int:
    return max(1, depth // 2)


def _dio_ratios(rho: AlphaNumber, depth: int | None) -> tuple[str, list[tuple[int, int, int, int]]]:
    """The mode and the (level, family, numerator, denominator) of every
    ratio feeding the exponent estimate: the four families per tail level,
    or one generic ratio per closed-form row at levels 1 .. depth - 2."""
    d = rho.depth if depth is None else depth
    if d < 5:
        raise DepthError(f"need at least 5 digit levels, got {shown(d)}")
    if d > rho.depth:
        raise DepthError(f"window has {rho.depth} digits, cannot inspect {shown(d)}")
    start = _tail_start(d)
    q_row, a_row = rho.slope._grow(d)  # q_row[i + 1] is q_i, a_row[i] is a_i
    digits, residues = rho.digits, rho.residues  # digits[i - 1] is b_i

    ratios: list[tuple[int, int, int, int]] = []
    if all(0 < digits[i - 1] < a_row[i] - 1 for i in range(start, d + 1)):
        for n in range(start, d):
            q, q_hi = q_row[n + 1], q_row[n + 2]
            values = _case_5(q, q_hi, digits[n], residues[n + 1]) + (q_hi,)
            ratios += [(n, family, values[family + 1], values[family]) for family in range(4)]
        return "four-family", ratios
    # levels 1 .. d - 2; the range ends the walk before its DepthError
    for n, rows in zip(range(1, d - 1), _level_rows(rho, 1)):
        ratios += [(n, -1, m_hi, value) for _, m_hi, value, _ in rows]
    return "generic", ratios


def dio_estimate(rho: AlphaNumber, depth: int | None = None) -> DioEstimate:
    """Window estimate of the diophantine exponent of the shifted word.

    When the digits satisfy 0 < b_i < a_i - 1 on the inspected tail, uses the
    four ratio families in the exponent formula; otherwise the generic bound
    1 + max m / r(x, m), with the maximum taken at closed-form segment ends.
    Either way this estimates a limsup from a finite window: it is reported
    as an estimate, never as the limit.  The witness is the first maximal
    ratio of `_dio_ratios`, and the only one built as a Fraction.
    """
    mode, ratios = _dio_ratios(rho, depth)
    # the first maximal ratio: every denominator is positive, so comparing
    # cross products orders the ratios as comparing Fractions would
    top = ratios[0]
    for ratio in ratios:
        if ratio[2] * top[3] > top[2] * ratio[3]:
            top = ratio
    n, family, num, den = top
    witness = DioTerm(n, family, Fraction(num, den))
    return DioEstimate(1 + witness.ratio, mode, witness)
