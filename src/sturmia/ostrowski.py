"""Ostrowski numeration over a slope.

A non-negative integer n < q_N is written n = sum b_{i+1} q_i over 0 <= i < N,
with digits constrained by: 0 <= b_1 <= a_1 - 1, 0 <= b_i <= a_i for i >= 2,
and b_{i+1} = a_{i+1} forces b_i = 0.  Digits are stored little-endian:
digits[i] is the coefficient b_{i+1} of q_i.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .errors import DepthError, InvalidDigitsError, RangeError
from .slope import Slope


class OstrowskiDigits(NamedTuple):
    """A valid digit string (b_1, ..., b_N) over a slope, little-endian."""

    digits: tuple[int, ...]
    slope: Slope

    @property
    def depth(self) -> int:
        return len(self.digits)

    def support(self) -> frozenset[int]:
        """Indices i with a non-zero coefficient of q_i."""
        return frozenset(i for i, b in enumerate(self.digits) if b != 0)


class ValidationReport(NamedTuple):
    ok: bool
    rule: str | None = None
    index: int | None = None
    message: str | None = None


_VALID = ValidationReport(True)


def _check(digits: tuple[int, ...], slope: Slope) -> tuple[ValidationReport, int]:
    """The validation report of the digits and, when they are valid, their
    value; one pass over (b_i, a_i, q_i).

    Alongside the digit rules it carries the partial sums of the equivalent
    form (the sum through b_l stays under q_l) and insists the two verdicts
    agree at every index up to the first violation; on valid digits the
    last partial sum is the value.  Negative digits stop the sums.
    """
    depth = slope.known_depth
    n = len(digits)
    # grow no further than a finite slope goes: the rules decide first
    q, _, a = slope._grow(n if depth is None or n <= depth else depth)
    report = _VALID
    partial = 0
    prev = 0
    for i, b in enumerate(digits if n < len(a) else digits[: len(a) - 1], start=1):
        a_i = a[i]
        if b < 0 or b > a_i or (i == 1 and b == a_i):
            report = ValidationReport(False, "digit-range", i, f"b_{i}={b} out of range")
        elif b == a_i and prev != 0:
            report = ValidationReport(
                False, "max-digit-adjacency", i, f"b_{i}=a_{i} requires b_{i-1}=0"
            )
        if b >= 0:
            partial += b * q[i]  # q[i] is q_{i-1}
            if (partial < q[i + 1]) != (report is _VALID):
                raise AssertionError(
                    f"digit rules and partial-sum form disagree on {digits} at "
                    f"index {i}: {report} vs partial sum {partial}, q_{i}={q[i + 1]}"
                )
        if report is not _VALID:
            break
        prev = b
    if n >= len(a) and (report.ok or min(digits) >= 0):
        # a finite slope read past its depth: DepthError, as growing does
        slope._grow(n)
    return report, partial


def validate(digits: tuple[int, ...] | list[int], slope: Slope) -> ValidationReport:
    """Check the digit conditions; reports the first violated rule.

    Also evaluates the equivalent partial-sum form (every prefix sum below
    level l stays under q_l) and insists the two verdicts agree.
    """
    return _check(tuple(digits), slope)[0]


def encode(n: int, slope: Slope, depth: int) -> OstrowskiDigits:
    """Greedy expansion of 0 <= n < q_depth into `depth` digits."""
    if n < 0:
        raise RangeError(f"cannot encode negative integer {n}")
    if depth < 0:
        raise DepthError("depth must be >= 0")
    q = slope._grow(depth)[0]  # q[i + 1] is q_i
    if n >= q[depth + 1]:
        raise RangeError(f"{n} >= q_{depth} = {q[depth + 1]}; increase depth")
    out = [0] * depth
    rest = n
    for i in range(depth - 1, -1, -1):
        out[i], rest = divmod(rest, q[i + 1])
    if rest != 0:
        raise AssertionError("greedy expansion left a remainder")
    return OstrowskiDigits(tuple(out), slope)


def decode(digits: OstrowskiDigits | tuple[int, ...], slope: Slope | None = None) -> int:
    """Value of a digit string, from the same pass that validates it."""
    if isinstance(digits, OstrowskiDigits):
        slope = digits.slope
        digits = digits.digits
    if slope is None:
        raise ValueError("decode needs a slope for raw digit tuples")
    report, value = _check(tuple(digits), slope)
    if not report.ok:
        raise InvalidDigitsError(report.message or "invalid digits")
    return value


def all_digit_strings(slope: Slope, depth: int) -> Iterator[tuple[int, ...]]:
    """Yield every valid little-endian digit vector of the given depth.

    There are exactly q_depth of them, one per integer in [0, q_depth).
    """

    def rec(i: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
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


class RelaxedCoefficients(NamedTuple):
    """Coefficients on a window [start, start + len - 1], each within [0, a_{i+1}].

    coefficients[j] multiplies q_{start + j}.  Such sums are not unique; they
    normalize to proper digits with support inside [start, top + 1] where top
    is the last window index, and a top carry of at most 1.
    """

    start: int
    coefficients: tuple[int, ...]

    @property
    def stop(self) -> int:
        """Exclusive end of the window."""
        return self.start + len(self.coefficients)


def normalize(relaxed: RelaxedCoefficients, slope: Slope) -> OstrowskiDigits:
    """Rewrite relaxed coefficients into valid digits via cascading cancellation.

    Repeatedly picks the largest index violating a digit rule and applies
    q_{i+1} = a_{i+1} q_i + q_{i-1} there.  The value is conserved at every
    step; the loop cannot push a carry past one slot above the window.
    """
    if relaxed.start < 0:
        raise RangeError("window start must be >= 0")
    top = relaxed.stop  # highest index the carry can reach
    c = [0] * (top + 1)
    for j, coeff in enumerate(relaxed.coefficients):
        c[relaxed.start + j] = coeff
    bounds = [slope.quotient(i + 1) for i in range(top + 1)]
    for i in range(relaxed.start, top):
        if not 0 <= c[i] <= bounds[i]:
            raise InvalidDigitsError(
                f"coefficient {c[i]} at index {i} outside [0, a_{i+1}={bounds[i]}]"
            )

    while True:
        i0 = -1
        for i in range(top - 1, -1, -1):
            if i == 0:
                if c[0] >= bounds[0]:
                    i0 = 0
            elif c[i] >= bounds[i] and c[i - 1] != 0:
                i0 = i
            if i0 >= 0:
                break
        if i0 < 0:
            break
        c[i0 + 1] += 1
        c[i0] -= bounds[i0]
        if i0 >= 1:
            c[i0 - 1] -= 1
        if c[i0] < 0 or (i0 >= 1 and c[i0 - 1] < 0):
            raise AssertionError("cancellation drove a coefficient negative")
        if i0 + 1 < top and c[i0 + 1] > bounds[i0 + 1]:
            raise AssertionError("cancellation overflowed the coefficient above")

    if c[top] > 1:
        raise AssertionError("top carry exceeded 1")
    result = OstrowskiDigits(tuple(c), slope)
    report = validate(result.digits, slope)
    if not report.ok:
        raise AssertionError(f"normalize produced invalid digits: {report}")
    return result
