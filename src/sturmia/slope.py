"""Slopes given by continued fractions, their continuants and interval partition.

A slope is an irrational number in (0,1) known through its partial quotients
[0; a_1, a_2, ...], truncated at a finite depth or extended by an eventual
period.  All arithmetic is exact: continuants are big integers, convergents
are Fractions.
"""

from __future__ import annotations

import _thread
import re
from bisect import bisect_right
from collections import namedtuple
from collections.abc import Iterator, Sequence
from fractions import Fraction
from itertools import chain, cycle

from .errors import DepthError, RangeError, shown, shown_tuple

# Ladders only grow, under this lock; rungs already stored never change, so
# reading them needs no lock.  The interpreter has `_thread` loaded at start,
# while importing `threading` costs about a millisecond of every CLI call.
_GROW_LOCK = _thread.allocate_lock()

# The word of a fresh slope, as `words` keeps it: one empty piece and its
# running ends (0, 0).  Every slope starts from this one value, and a
# growth replaces it in the slope's own cell.
_NO_WORD = ((0, 0), ("",))

# The most bits a slope's continuant row may hold, counted as
# (n + 2) bits(q_n) for the row through q_n: golden-slope ladders stop near
# level 6950, and the deepest ones the benchmark builds (level 800,
# quotients up to 3) use about 2% of it.  Without a cap a ladder's size is
# quadratic in a depth that comes from user input, and grows with
# quotients that come from it too.
MAX_LADDER_BITS = 2**25


class Slope:
    """Partial quotients of [0; a_1, a_2, ...], with an optional periodic tail.

    `quotients` stores the explicitly given quotients a_1..a_D.  If `period`
    is (start, length), the block quotients[start:start+length] repeats
    forever past depth D; the block must end the stored list.

    Each slope owns one continuant ladder, the row q_n of
    q_{n+1} = a_{n+1} q_n + q_{n-1} and the row of quotients a_n it was
    built from, and beside it one prefix of its characteristic word, kept
    and grown by `words`.  Both grow on demand and take no part in
    equality, hashing, repr or pickling.  Slopes are immutable values.

    The ladder grows from one run of quotient indices (`_run`): the
    positions in `quotients` of a_i, a_{i+1}, ..., endless on a periodic
    slope and ending after a_D on a finite one.  The state walks of
    `torsion` read the same run.
    """

    __slots__ = ("quotients", "period", "_ladder", "_word")

    def __init__(self, quotients: tuple[int, ...], period: tuple[int, int] | None = None) -> None:
        # copies, so a caller's list can neither unhash the slope nor change
        # quotients the ladder has already read
        quotients = tuple(quotients)
        if not quotients:
            raise ValueError("at least one partial quotient is required")
        # ints exactly: a bool compares as an int but prints as a word
        if not all(type(a) is int and a >= 1 for a in quotients):
            raise ValueError("partial quotients must be integers >= 1")
        if period is not None:
            # a pair of ints (start, length) whose block ends the stored list
            period = tuple(period) if isinstance(period, Sequence) else ()
            pair = len(period) == 2 and all(type(v) is int for v in period)
            if not (pair and period[0] >= 0 and period[1] >= 1 and sum(period) == len(quotients)):
                raise ValueError("period must describe the tail of the stored quotients")
        object.__setattr__(self, "quotients", quotients)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "_ladder", ([0, 1], [0]))
        object.__setattr__(self, "_word", [_NO_WORD])

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Slope")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable Slope")

    def __repr__(self) -> str:
        # the period's two ints are at most the number of quotients
        return f"Slope(quotients={shown_tuple(self.quotients)}, period={self.period!r})"

    def __eq__(self, other) -> bool:
        if other.__class__ is not Slope:
            return NotImplemented
        return self.quotients == other.quotients and self.period == other.period

    def __hash__(self) -> int:
        return hash((self.quotients, self.period))

    def __reduce__(self):
        # a fresh ladder and word on the other side; slot state would be restored
        # through the refusing __setattr__
        return Slope, (self.quotients, self.period)

    @property
    def known_depth(self) -> int | None:
        """Largest usable quotient index, or None when unbounded."""
        return None if self.period is not None else len(self.quotients)

    def quotient(self, i: int) -> int:
        """The partial quotient a_i, indexed from 1."""
        if i < 1:
            raise DepthError(f"partial quotients are indexed from 1, got {shown(i)}")
        if i <= len(self.quotients):
            return self.quotients[i - 1]
        if self.period is None:
            raise DepthError(
                f"a_{shown(i)} requested but only {len(self.quotients)} quotients are known"
            )
        start, length = self.period
        return self.quotients[start + (i - 1 - start) % length]

    def _run(self, i: int) -> Iterator[int]:
        """The indices in `quotients` of a_i, a_{i+1}, ... (i >= 1): endless
        on a periodic slope, through a_D on a finite one of depth D.

        The quotients from a_i on depend only on the first index, so two
        levels with the same index read the same quotients from there on.
        """
        depth = len(self.quotients)
        if self.period is None:
            return iter(range(i - 1, depth))
        start, length = self.period
        first = i - 1 if i <= depth else start + (i - 1 - start) % length
        return chain(range(first, depth), cycle(range(start, depth)))

    def _grow(self, n: int, past: int | None = None) -> tuple[list[int], list[int]]:
        """The rows (q, a), extended through level n, or with `past` only
        through the first rung q_d > past, d <= n; DepthError past a finite
        depth, RangeError before the q row would hold more than
        MAX_LADDER_BITS bits.  q[i + 1] is q_i and a[i] is a_i (a[0] = 0 is
        the integer part a_0)."""
        q, quotients = self._ladder
        # q is appended last, so its length bounds both rows
        if len(q) <= n + 1 and (past is None or q[-1] <= past):
            # a finite slope stops at its depth, with DepthError, first
            top = n if self.known_depth is None else min(n, self.known_depth)
            # the row through q_top holds at most (top + 2) bits(q_top)
            # bits, and no rung has more bits than q_top
            rung_bits = MAX_LADDER_BITS // (top + 2)
            stored = self.quotients
            with _GROW_LOCK:
                # the next level, read under the lock: another thread may
                # have grown the rows since the check above
                level = len(q) - 1
                for k, i in zip(range(level, top + 1), self._run(level)):
                    if past is not None:
                        if q[-1] > past:
                            break
                        # any rung may be the last: each gets the share of
                        # its own level, and a refusal names it
                        top, rung_bits = k, MAX_LADDER_BITS // (k + 2)
                    a = stored[i]
                    q_next = a * q[-1] + q[-2]
                    if q_next.bit_length() > rung_bits:
                        raise RangeError(
                            f"continuants through q_{shown(top)} would hold more"
                            f" than {MAX_LADDER_BITS} bits"
                        )
                    quotients.append(a)
                    q.append(q_next)
            if len(q) <= n + 1 and (past is None or q[-1] <= past):
                # the run stopped after a_D, and a_{D+1} is refused
                self.quotient(len(q) - 1)
        return q, quotients

    def q(self, n: int) -> int:
        """The continuant q_n for n >= -1, from q_-1 = 0 and q_0 = 1."""
        if n < -1:
            raise DepthError(f"continuants are indexed from -1, got {shown(n)}")
        q = self._ladder[0]
        # the hot path reads a rung that already exists
        return q[n + 1] if n + 1 < len(q) else self._grow(n)[0][n + 1]

    def p(self, n: int) -> int:
        """The numerator p_n for n >= -1, walked in O(n) over a_1 .. a_n."""
        self.q(n)  # the ladder's refusals, and its rows grown through level n
        p_prev, p = 0, 1  # p_-2 and p_-1, so the step by a[0] = 0 gives p_0 = 0
        for a in self._ladder[1][: n + 1]:
            p_prev, p = p, a * p + p_prev
        return p

    def level(self, m: int) -> int:
        """The smallest d >= 0 with q_d > m."""
        q = self._ladder[0]
        if q[-1] <= m:
            # q_d >= F_{d+1} >= phi^(d-1) passes m from d - 1 >= 1.45 bits(m)
            # on, so one call, capped there, grows the rows to the rung past m
            self._grow(m.bit_length() * 3 // 2 + 2, past=m)
        return bisect_right(q, m, lo=1) - 1

    def __str__(self) -> str:
        # refusals write slopes: a quotient of too many digits is written
        # as `shown` writes it
        if self.period is None:
            return "[0;" + ",".join(map(shown, self.quotients)) + "]"
        start, length = self.period
        head = ",".join(map(shown, self.quotients[:start]))
        block = ",".join(map(shown, self.quotients[start:]))
        period = f"({block})*" if length > 1 else f"{block}*"
        return "[0;" + (head + "," if head else "") + period + "]"


_SLOPE_RE = re.compile(r"\[\s*0\s*;\s*(.*?)\s*\]\Z")
_GROUP_RE = re.compile(r"\(\s*([0-9][0-9,\s]*?)\s*\)\s*\*\s*\Z")
_SINGLE_RE = re.compile(r"([0-9]+)\s*\*\s*\Z")


def parse_slope(text: str) -> Slope:
    """Parse a slope literal like "[0;1,2,3]", "[0;1*]" or "[0;2,1,(3,1)*]"."""
    m = _SLOPE_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not a slope literal: {text!r}")
    body = m.group(1)
    period_items: list[int] | None = None
    gm = _GROUP_RE.search(body)
    if gm is not None:
        period_items = [int(t) for t in gm.group(1).split(",")]
        body = body[: gm.start()].rstrip().rstrip(",")
    else:
        sm = _SINGLE_RE.search(body)
        if sm is not None:
            period_items = [int(sm.group(1))]
            body = body[: sm.start()].rstrip().rstrip(",")
    head = [int(t) for t in body.split(",") if t.strip()] if body.strip() else []
    if period_items is None:
        return Slope(tuple(head))
    return Slope(tuple(head + period_items), (len(head), len(period_items)))


def convergent_value(slope: Slope, n: int) -> Fraction:
    """The convergent p_n/q_n as an exact reduced fraction."""
    if n < 1:
        raise DepthError("convergents are defined for n >= 1")
    return Fraction(slope.p(n), slope.q(n))


class IntervalPosition(namedtuple("IntervalPosition", "n l r")):
    """Unique writing m = (l+1) q_n + q_{n-1} - 2 - r for an integer m >= 1."""

    __slots__ = ()


def interval_locate(m: int, slope: Slope) -> IntervalPosition:
    """Locate m >= 1 in the partition by intervals [q_n - 1, q_{n+1} - 2].

    Within level n, sub-intervals are indexed by l: l = 0 covers
    [q_n - 1, q_n + q_{n-1} - 2] and each 1 <= l <= a_{n+1} - 1 covers
    [l q_n + q_{n-1} - 1, (l+1) q_n + q_{n-1} - 2].  Returns the unique
    (n, l, r) with m = (l+1) q_n + q_{n-1} - 2 - r and r inside the
    sub-interval width (q_{n-1} for l = 0, q_n otherwise).
    """
    if m < 1:
        raise RangeError(f"interval partition covers integers >= 1, got {shown(m)}")
    try:
        n = slope.level(m + 1) - 1
    except DepthError as exc:
        raise DepthError(f"m={shown(m)} exceeds the representable range of the slope") from exc
    q_nm1, q_n = slope.q(n - 1), slope.q(n)
    l = 0 if m <= q_n + q_nm1 - 2 else (m + 1 - q_nm1) // q_n
    r = (l + 1) * q_n + q_nm1 - 2 - m
    return IntervalPosition(n, l, r)
