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

