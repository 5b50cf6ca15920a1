"""Formal intercepts of sturmian words, truncated at a finite depth.

An intercept is known through the tower of residues rho_n in [0, q_n), one
per level, linked by digit truncation; equivalently through its digit string
(b_1, ..., b_depth) with rho_n = sum_{i<n} b_{i+1} q_i.  Digits obey the same
conditions as Ostrowski digits of integers, but the string is a window into a
possibly infinite expansion, so every "eventual" notion below is reported
relative to the window together with a witness level.  Since every rho_n is
a truncation of the top residue's digits, one search of a word's prefix at
the top level recovers the whole tower.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple

from .errors import (
    DepthError,
    NotSturmianError,
    PrefixTooShortError,
    RangeError,
    UnsupportedInterceptError,
    shown,
)
from .ostrowski import AlphaNumber, _window, encode
from .slope import Slope
from .words import (
    _past_certified,
    certified_letters,
    characteristic_prefix,
    shifted_characteristic_prefix,
)


def zero(slope: Slope, depth: int) -> AlphaNumber:
    """The window of the characteristic word; a depth below 1 gives the
    empty window."""
    slope._grow(depth)  # the ladder refuses a depth past its budget first
    return AlphaNumber((0,) * max(depth, 0), slope)


def _sigma_digits(slope: Slope, depth: int, parity: int) -> tuple[int, ...]:
    """Digits of sigma0 (parity 0) or sigma1 (parity 1) at this depth, unvalidated."""
    a = slope._grow(depth)[1]  # a[i] is a_i
    depth = max(depth, 0)  # the empty window below depth 1
    digits = [0] * depth
    digits[1 + parity :: 2] = a[2 + parity : depth + 1 : 2]
    if parity and depth > 0:
        digits[0] = a[1] - 1
    return tuple(digits)


def sigma0(slope: Slope, depth: int) -> AlphaNumber:
    """Intercept of the characteristic word prefixed by 0: digits a_{2i+2} at odd indices."""
    return AlphaNumber(_sigma_digits(slope, depth, 0), slope)


def sigma1(slope: Slope, depth: int) -> AlphaNumber:
    """Intercept of the characteristic word prefixed by 1: a_1 - 1 then a_{2i+1} at even indices."""
    return AlphaNumber(_sigma_digits(slope, depth, 1), slope)


def _certifying_letters(slope: Slope, d: int) -> int:
    """Letters that certify depth d: q_{d+1} + q_d, increasing in d."""
    return slope.q(d + 1) + slope.q(d)


def intercept_from_prefix(prefix: str, slope: Slope, depth: int) -> AlphaNumber:
    """Recover the intercept digits of a sturmian word from a finite prefix.

    rho_N is the least shift k with the characteristic word matching the
    prefix on its first q_N - 1 letters, at the audited level N = depth + 1
    (depth when a_{depth+1} is out of reach); every lower residue rho_n is
    a truncation of its digits, so one search pins the whole tower.  The
    prefix must supply at least q_{depth+1} + q_depth letters.  Raises
    NotSturmianError when no shift below q_N matches.
    """
    need = _certifying_letters(slope, depth)
    if len(prefix) < need:
        raise PrefixTooShortError(
            f"need {shown(need)} letters to certify depth {shown(depth)}, got {len(prefix)}"
        )
    if set(prefix) - {"0", "1"}:
        raise NotSturmianError("prefix must be over the alphabet {0, 1}")
    top = depth + 1
    try:
        reference = characteristic_prefix(slope, 2 * slope.q(top))
    except DepthError:
        # slope window too short to audit the extra level; read to depth only
        top = depth
        reference = characteristic_prefix(slope, 2 * slope.q(top))
    q_top = slope.q(top)
    k = reference.find(prefix[: q_top - 1])
    if not 0 <= k < q_top:
        raise NotSturmianError(f"prefix of length {q_top - 1} does not occur as an early factor")
    # a prefix of a greedy expansion is valid
    return _window(encode(k, slope, top).digits[:depth], slope)


def sturmian_prefix(rho: AlphaNumber, m: int) -> str:
    """First m letters of the sturmian word with intercept rho.

    Uses the smallest level n with q_n - 1 >= m: the word agrees with the
    rho_n-shifted characteristic word on that many letters.
    """
    if m < 0:
        raise RangeError("prefix length must be >= 0")
    if m == 0:
        return ""
    slope = rho.slope
    certified = slope.q(rho.depth) - 1
    if m > certified:
        raise DepthError(f"window depth {rho.depth} certifies only {shown(certified)} letters")
    shift = rho.psi(slope.level(m))
    letters = certified_letters(slope)
    if letters is not None and shift + m > letters:
        raise _past_certified(
            slope, f"prefix of length {shown(m)} shifted by {shown(shift)} passes"
        )
    return shifted_characteristic_prefix(slope, shift, m)


def max_certified_length(rho: AlphaNumber) -> int:
    """Longest prefix of the word that this window determines: q_depth - 1
    letters and, on a finite slope [0; a_1, ..., a_D], the longest L whose
    letters rho_{level(L)} + L - 1 and before in the characteristic word
    are among the `certified_letters` of that word."""
    slope = rho.slope
    certified = slope.q(rho.depth) - 1
    letters = certified_letters(slope)
    if letters is None:
        return certified
    # rho_{level(L)} + L grows with L
    return bisect_right(range(1, certified + 1), letters, key=lambda L: rho.psi(slope.level(L)) + L)


def named_window(name: str, slope: Slope, depth: int) -> AlphaNumber:
    """The window `zero`, `sigma0` or `sigma1` names, at this depth, which on
    a finite slope [0; a_1, ..., a_D] stops at D, as in `integer_window`."""
    window = {"zero": zero, "sigma0": sigma0, "sigma1": sigma1}[name]
    top = slope.known_depth
    return window(slope, depth if top is None else min(depth, top))


def integer_window(k: int, slope: Slope, depth: int) -> AlphaNumber:
    """encode(k, slope, depth), the window of the k-fold shifted
    characteristic word.  On a finite slope [0; a_1, ..., a_D] the depth
    stops at D, and from D on a k past `certified_letters` raises
    DepthError."""
    top = slope.known_depth
    if top is not None and depth >= top:
        if k > certified_letters(slope):
            raise _past_certified(slope, f"shift {shown(k)} passes")
        depth = top
    return encode(k, slope, depth)


def _shift_window(k: int, slope: Slope, m: int) -> AlphaNumber:
    """integer_window(k, slope, d), the window that reads the first m letters
    of the k-fold shifted characteristic word, at the first level d with
    q_d > k + m, or at D when k + m passes `certified_letters`."""
    letters = certified_letters(slope)
    if letters is not None and k + m > letters:
        return integer_window(k, slope, slope.known_depth)
    return integer_window(k, slope, slope.level(k + m))


def add_integer(rho: AlphaNumber, k: int) -> AlphaNumber:
    """Intercept of the k-fold shift of the word of rho, at reduced depth.

    The result keeps the deepest level d < depth whose certifying letters
    q_{d+1} + q_d fit in the q_depth - 1 - k letters a depth-`depth` window
    determines after k are dropped, as re-extracting the intercept from
    those letters would; its digits are the first d of the greedy
    expansion of rho_L + k, where L is the level whose residue
    `sturmian_prefix` shifts by to read those letters.  A finite slope
    has the budget of any infinite extension of its quotients.
    """
    if k < 0:
        raise RangeError("only non-negative shifts are defined")
    if k == 0:
        return rho
    slope = rho.slope
    budget = slope.q(rho.depth) - 1 - k
    # the deepest out_depth < depth whose letters fit in the remaining ones
    out_depth = bisect_right(
        range(1, rho.depth), budget, key=lambda d: _certifying_letters(slope, d)
    )
    if out_depth < 1:
        raise DepthError(
            f"shift {shown(k)} leaves no certifiable level in a depth-{rho.depth} window"
        )
    need = k + _certifying_letters(slope, out_depth)
    value = rho.psi(slope.level(need)) + k
    letters = certified_letters(slope)
    if letters is not None and value > letters:
        raise _past_certified(slope, f"shift {shown(k)} needs {shown(value)} letters, more than")
    digits = encode(value, slope, max(out_depth, slope.level(value))).digits
    # a prefix of a valid window is valid
    return _window(digits[:out_depth], slope)


class ClassReport(namedtuple("ClassReport", "verdict witness evidence")):
    """Window verdict on the equivalence class of an intercept.

    verdict is one of "natural-integer", "sigma0-tail", "sigma1-tail",
    "non-zero"; witness is the first digit subscript from which the winning
    pattern holds through the window end (None for "non-zero").
    """

    __slots__ = ()


def _agree_from(x: tuple[int, ...], y: tuple[int, ...]) -> int:
    """Smallest index k with x[k:] == y[k:], for tuples of one length."""
    k = len(x)
    while k and x[k - 1] == y[k - 1]:
        k -= 1
    return k


def _default_tail(depth: int) -> int:
    """Digits of evidence a verdict needs by default: max(3, depth // 3),
    capped at the depth so that a window of one or two digits can still
    show its pattern."""
    return max(1, min(max(3, depth // 3), depth))


def classify(rho: AlphaNumber) -> ClassReport:
    """Zero-class trichotomy on the window.

    An intercept is equivalent to zero exactly when its digits are eventually
    zero, eventually the sigma0 pattern (full even-subscript digits), or
    eventually the sigma1 pattern.  The verdict requires at least
    `_default_tail(depth)` digits of evidence, otherwise "non-zero".

    The verdict also counts the reversed-standard-word products the shifted
    word admits (see `factorization`): a "non-zero" word has exactly one, a
    "natural-integer" word is a suffix of the characteristic word and has
    exactly two, and a sigma-tail word ends in a one-letter extension of the
    characteristic word and has none.  The two exact sigma windows, the
    one-letter extensions themselves, sit outside this trichotomy.
    """
    digits, slope, depth = rho.digits, rho.slope, rho.depth
    # the first digit subscript from which each pattern holds; b_1 <= a_1 - 1
    # in every window, so the sigma1 pattern (b_i = a_i at odd i) never
    # holds at subscript 1 and its witness is at least 2
    starts = (
        (1 + _agree_from(digits, (0,) * depth), "natural-integer"),
        (1 + _agree_from(digits, _sigma_digits(slope, depth, 0)), "sigma0-tail"),
        (1 + max(1, _agree_from(digits, _sigma_digits(slope, depth, 1))), "sigma1-tail"),
    )
    start, verdict = min(starts, key=lambda pair: pair[0])  # the earlier kind on ties
    evidence = depth + 1 - start
    if evidence < _default_tail(depth):
        return ClassReport("non-zero", None, 0)
    return ClassReport(verdict, start, evidence)


class EquivalenceReport(namedtuple("EquivalenceReport", "equivalent witness reason")):
    __slots__ = ()


def equivalent(rho: AlphaNumber, gamma: AlphaNumber) -> EquivalenceReport:
    """Window test for "the two words are shifts of each other".

    Two non-zero-class intercepts are equivalent exactly when their digits
    agree from some level on; zero-class windows are all equivalent to the
    zero intercept.  The witness is the first agreeing 0-based digit index.
    A shared tail of `_default_tail(depth)` digits (as in `classify`, over
    the shallower depth) settles equivalence.
    """
    if rho.slope != gamma.slope:
        raise ValueError("intercepts live over different slopes")
    depth = min(rho.depth, gamma.depth)
    tail = _default_tail(depth)
    # a shared digit tail settles it in every class, so test that first
    agree_from = _agree_from(rho.digits[:depth], gamma.digits[:depth])
    evidence = depth - agree_from
    if evidence >= tail:
        return EquivalenceReport(True, agree_from, f"digits agree from index {agree_from}")
    a, b = classify(rho), classify(gamma)
    zero_a, zero_b = a.verdict != "non-zero", b.verdict != "non-zero"
    if zero_a and zero_b:
        return EquivalenceReport(True, None, f"both zero class ({a.verdict}, {b.verdict})")
    if zero_a != zero_b:
        return EquivalenceReport(False, None, f"classes differ ({a.verdict} vs {b.verdict})")
    return EquivalenceReport(False, None, f"tail agreement only {evidence} < {tail} digits")


class ComplementReport(namedtuple("ComplementReport", "value stable_from top_level")):
    """Digits of the reversal-dual intercept plus the stability diagnostics.

    value holds the digits computed from the deepest usable support level;
    stable_from is the first level n at which every admissible support level
    M >= n yields the same residue, so digits above it are trustworthy.
    """

    __slots__ = ()


def complement(rho: AlphaNumber) -> AlphaNumber:
    return complement_report(rho).value


def complement_report(rho: AlphaNumber) -> ComplementReport:
    """The intercept whose word is the reversed other half of the orbit.

    At each level n the residue is Psi_n(N_M), N_M = q_{M+1} - 2 - rho_{M+1},
    for the next support level M = Lambda(n); the map is an involution away
    from the zero class and excludes natural integers, the empty window and
    the two sigma intercepts.  Levels with N_M < 0 (rho_{M+1} = q_{M+1} - 1)
    carry no information and are skipped; the rest are the usable levels.

    Each usable level costs O(1) big-integer operations and the report one
    `encode`, by two facts:

    1. N_M < q_{M+1}, so its greedy expansion starts with divmod(N_M, q_M)
       and the level-M residue of its tower is N_M mod q_M; `value` is the
       encoding of N_top mod q_top at depth top.
    2. A valid digit string of length n is the only one of its value below
       q_n (Ostrowski uniqueness, criterion 01), so two towers agree at level
       n exactly when their digits agree below n.  A tower that disagrees
       with `value` at any level n <= M therefore also disagrees at its own
       level M, and stable_from is 1 + the highest usable M < top with
       N_M mod q_M != value.psi(M), or 0 when there is none.
    """
    if classify(rho).verdict == "natural-integer":
        raise UnsupportedInterceptError("natural-integer windows have no complement")
    sup = [i for i, b in enumerate(rho.digits) if b]
    if not sup:
        raise UnsupportedInterceptError("zero window has no complement")
    slope = rho.slope
    if rho.digits in (_sigma_digits(slope, rho.depth, 0), _sigma_digits(slope, rho.depth, 1)):
        raise UnsupportedInterceptError("sigma intercepts are excluded from complementation")
    q = slope._grow(rho.depth)[0]  # q[i + 1] is q_i
    residues = rho.residues
    # (M, N_M) for each usable support level M, lowest first
    usable = [(m, n_m) for m in sup if (n_m := q[m + 2] - 2 - residues[m + 1]) >= 0]
    if not usable:
        raise UnsupportedInterceptError(
            "every support level has the maximal residue; window looks sigma-like"
        )
    top, n_top = usable[-1]
    value = encode(n_top % q[top + 1], slope, top)
    psi = value.residues
    stable_from = next(
        (m + 1 for m, n_m in reversed(usable[:-1]) if n_m % q[m + 1] != psi[m]), 0
    )
    return ComplementReport(value, stable_from, top)
