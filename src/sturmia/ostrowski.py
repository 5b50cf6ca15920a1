"""Ostrowski numeration over a slope.

A non-negative integer n < q_N is written n = sum b_{i+1} q_i over 0 <= i < N,
with digits constrained by: 0 <= b_1 <= a_1 - 1, 0 <= b_i <= a_i for i >= 2,
and b_{i+1} = a_{i+1} forces b_i = 0.  Digits are stored little-endian:
digits[i] is the coefficient b_{i+1} of q_i.  `AlphaNumber` is the one type
of a validated digit window; `encode` returns one.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import cached_property
from itertools import accumulate
from operator import mul

from .errors import DepthError, InvalidDigitsError, RangeError, shown, shown_tuple
from .slope import Slope


class ValidationReport(
    namedtuple("ValidationReport", "ok rule index message", defaults=(None, None, None))
):
    __slots__ = ()


_VALID = ValidationReport(True)


def _check(digits: tuple[int, ...], slope: Slope) -> tuple[ValidationReport, int]:
    """The validation report of the digits and, when they are valid, their
    value; one pass over (b_i, a_i, q_i).

    At each index i the pass checks the digit rules as one comparison
    0 <= b_i <= a_i - (b_{i-1} != 0), with b_0 counted as non-zero so that
    b_1 <= a_1 - 1, and adds b_i q_{i-1} to the running sum, which is the
    value when the rules hold at every index.  At the first index where
    they fail it names the rule that b_i breaks.  A finite slope read past
    its depth is checked on the digits it has quotients for: a rule broken
    there is reported, and otherwise growing raises DepthError.  The digits
    past the depth are never read, so they cannot change the outcome.  The
    digits are ints: `_typed` has passed them, or they are an AlphaNumber's.
    """
    n = len(digits)
    q, a = slope._ladder  # grown in place, a before q: q_n present means a_n is too
    if len(q) <= n + 1:
        # grow no further than a finite slope goes: the rules decide first
        slope._grow(n if slope.known_depth is None else min(n, slope.known_depth))
    past = n >= len(a)
    partial = 0
    cut = True  # b_0 counts as non-zero
    i = 0
    for b in digits[: len(a) - 1] if past else digits:
        i += 1
        if not 0 <= b <= a[i] - cut:
            break
        if b:
            partial += b * q[i]  # q[i] is q_{i-1}
        cut = b != 0
    else:
        if past:
            slope._grow(n)
        return _VALID, partial
    if b < 0 or b > a[i] or i == 1:
        report = ValidationReport(False, "digit-range", i, f"b_{i}={shown(b)} out of range")
    else:  # b_i = a_i after a non-zero b_{i-1}
        report = ValidationReport(
            False, "max-digit-adjacency", i, f"b_{i}=a_{i} requires b_{i-1}=0"
        )
    return report, partial


def _typed(digits: tuple) -> ValidationReport | None:
    """The digit-type violation at the first digit that is not an int, or
    None when every digit is one.

    A sum of ints is an int; a float, Fraction, Decimal or complex digit
    makes the sum one of those, and a digit that does not add to an int
    raises TypeError, so only then are the digits read one by one.
    """
    try:
        if sum(digits).__class__ is int:
            return None
    except TypeError:
        pass
    for i, b in enumerate(digits, start=1):
        if not isinstance(b, int):
            return ValidationReport(False, "digit-type", i, f"b_{i}={b!r} is not an integer")
    return None


def validate(digits: tuple[int, ...] | list[int], slope: Slope) -> ValidationReport:
    """Check the digit conditions; reports the first violated rule, and a
    digit that is not an int as the rule "digit-type"."""
    digits = tuple(digits)
    return _typed(digits) or _check(digits, slope)[0]


class AlphaNumber:
    """A depth-truncated formal intercept over a slope, little-endian digits.

    An immutable value: equality and hashing read `digits` and `slope`; the
    residue tower is cached in the instance dict and takes no part in them.
    """

    def __init__(self, digits: tuple[int, ...], slope: Slope) -> None:
        digits = tuple(digits)  # a copy: the caller's list stays theirs
        report = validate(digits, slope)
        if not report.ok:
            raise InvalidDigitsError(f"bad intercept digits: {report.message}")
        object.__setattr__(self, "digits", digits)
        object.__setattr__(self, "slope", slope)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable AlphaNumber")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable AlphaNumber")

    def __repr__(self) -> str:
        return f"AlphaNumber(digits={shown_tuple(self.digits)}, slope={self.slope!r})"

    def __eq__(self, other) -> bool:
        if other.__class__ is not AlphaNumber:
            return NotImplemented
        return self.digits == other.digits and self.slope == other.slope

    def __hash__(self) -> int:
        return hash((self.digits, self.slope))

    @property
    def depth(self) -> int:
        return len(self.digits)

    @cached_property
    def residues(self) -> tuple[int, ...]:
        """The residue tower (rho_0, rho_1, ..., rho_depth), built once in one
        pass over the digits and the ladder row q_0, q_1, ..."""
        q_row = self.slope._grow(self.depth - 1)[0]  # q_row[i + 1] is q_i
        return tuple(accumulate(map(mul, self.digits, q_row[1 : self.depth + 1]), initial=0))

    def psi(self, n: int) -> int:
        """Level-n residue rho_n = sum_{i<n} b_{i+1} q_i; levels <= 0 give 0."""
        if n <= 0:
            return 0
        if n > self.depth:
            raise DepthError(
                f"residue at level {shown(n)} needs depth {shown(n)}, window has {self.depth}"
            )
        return self.residues[n]

    def support(self) -> frozenset[int]:
        """Indices i < depth whose coefficient of q_i is non-zero."""
        return frozenset(i for i, b in enumerate(self.digits) if b != 0)


def encode(n: int, slope: Slope, depth: int) -> AlphaNumber:
    """Greedy expansion of 0 <= n < q_depth into `depth` digits.

    The window of the k-fold shifted characteristic word is encode(k, ...).
    The greedy digits of n < q_depth are its one valid expansion, so the
    window is built without a second validation pass.
    """
    if n < 0:
        raise RangeError(f"cannot encode negative integer {shown(n)}")
    if depth < 0:
        raise DepthError("depth must be >= 0")
    q = slope._grow(depth)[0]  # q[i + 1] is q_i
    if n >= q[depth + 1]:
        raise RangeError(f"{shown(n)} >= q_{depth} = {shown(q[depth + 1])}; increase depth")
    out = []  # b_depth, ..., b_1
    rest = n
    for q_i in q[depth:0:-1]:  # q_{depth-1}, ..., q_0
        if rest >= q_i:
            b, rest = divmod(rest, q_i)
        else:
            b = 0  # the rest stays as it is
        out.append(b)
    out.reverse()  # the last divisor is q_0 = 1, so no rest is left
    return _window(tuple(out), slope)


def _window(digits: tuple[int, ...], slope: Slope) -> AlphaNumber:
    """The AlphaNumber of digits already known to be valid, such as a greedy
    expansion or a prefix of a validated window, built without validating
    them again."""
    window = object.__new__(AlphaNumber)
    fields = window.__dict__  # the fields __init__ sets
    fields["digits"], fields["slope"] = digits, slope
    return window


def decode(digits: AlphaNumber | tuple[int, ...], slope: Slope | None = None) -> int:
    """Value of a digit string, from the same pass that validates it.

    Only a raw digit tuple has its digits' types checked: an AlphaNumber's
    are ints already.
    """
    if isinstance(digits, AlphaNumber):
        slope = digits.slope
        digits = digits.digits
    elif slope is None:
        raise ValueError("decode needs a slope for raw digit tuples")
    else:
        digits = tuple(digits)
        typed = _typed(digits)
        if typed:
            raise InvalidDigitsError(typed.message)
    report, value = _check(digits, slope)
    if report is not _VALID:
        raise InvalidDigitsError(report.message)
    return value


def all_digit_strings(slope: Slope, depth: int) -> Iterator[tuple[int, ...]]:
    """Yield every valid little-endian digit vector of the given depth.

    There are exactly q_depth of them, one per integer in [0, q_depth), in
    the order of (b_1, ..., b_depth) read as a word: each next vector raises
    the last digit that can still rise under its left neighbour and zeroes
    the digits after it, so depth costs no recursion.  The ladder is asked
    for the depth first, so a depth past its budget or past a finite slope
    is refused before any quotient is read.
    """
    quotients = slope._grow(depth)[1][1 : max(depth, 0) + 1]  # a_1, ..., a_depth
    digits = [0] * len(quotients)
    yield tuple(digits)
    while True:
        i = len(digits) - 1
        # digits[i] is b_{i+1}: at most a_{i+1}, less one for b_1 and after a non-zero b_i
        while i >= 0 and digits[i] == quotients[i] - (i == 0 or digits[i - 1] != 0):
            i -= 1
        if i < 0:
            return
        digits[i] += 1
        digits[i + 1 :] = [0] * (len(digits) - i - 1)
        yield tuple(digits)
