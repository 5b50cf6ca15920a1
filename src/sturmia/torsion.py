"""Parity-word block streams and congruence identities on continuants.

A small block inventory scans any binary word with enough ones into a
unique block stream.  Scanning the parity word of the partial quotients
cuts the continuant ladder where each block starts; each cut difference
is even and its half glues into a digit window that is equivalent to its
own reversal dual.  Reducing the continuant pair mod N instead drives a
finite state walk whose repeated states certify divisibility identities
q_{n+k} = q_n mod N whose quotients have all their digits strictly
between the two ranks; the walk to the state cycle gives the first rank
from which every state recurs, where a search starts by default.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterator
from itertools import islice

from .errors import DepthError, ParityError, RangeError, UnsupportedInterceptError, shown
from .intercept import AlphaNumber, _default_tail, complement, equivalent
from .ostrowski import encode
from .slope import Slope
from .words import characteristic_prefix, factor_set, is_palindrome, language_length


# The block inventory {00, 01} and {1 0^k 1 x : k >= 0, x a letter} as one
# pattern.  It is prefix-free, so a scanner can commit to a block as soon
# as it has seen one, and the longest run of blocks at the start of a word
# is what a block-by-block scan finds.
_BLOCK = "0[01]|10*1[01]"
_BLOCK_RE = re.compile(_BLOCK)
_BLOCK_RUN_RE = re.compile(f"(?:{_BLOCK})*")


class BFactorization:
    """The block scan of `word`: blocks cover word[:cut], the rest is left over.

    Only the cut and whether it reaches the end are stored; the block list
    is split off when read.  Two scans are equal when their (blocks,
    leftover) are, which is the same as equal (word, cut) because a block
    stream is unique.
    """

    __slots__ = ("word", "cut", "complete")

    def __init__(self, word: str, cut: int):
        self.word = word
        self.cut = cut
        self.complete = cut == len(word)

    @property
    def blocks(self) -> tuple[str, ...]:
        return tuple(_BLOCK_RE.findall(self.word, 0, self.cut))

    @property
    def leftover(self) -> str:
        return self.word[self.cut :]

    @property
    def failure_at(self) -> int | None:
        """Position where the unmatched tail starts, None when complete."""
        return None if self.complete else self.cut

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.word, self.cut) == (other.word, other.cut)

    def __hash__(self) -> int:
        return hash((self.blocks, self.leftover))

    def __repr__(self) -> str:
        return f"BFactorization(blocks={self.blocks!r}, leftover={self.leftover!r})"


def b_factorize(u: str) -> BFactorization:
    """Greedy block scan; an unmatched tail is reported, not raised.

    The inventory is prefix-free, so the greedy scan finds the unique
    factorization whenever one exists.  A leftover is always extendable
    to a block, so on prefixes of infinite words the certified blocks
    are final.
    """
    return BFactorization(u, _BLOCK_RUN_RE.match(u).end())


def parity_word(slope: Slope, depth: int) -> str:
    """The partial quotients a_1..a_depth mod 2, one letter each.

    The ladder is asked for the depth first, so a depth past its budget or
    past a finite slope is refused before any quotient is read.
    """
    if depth < 1:
        raise RangeError(f"depth must be >= 1, got {shown(depth)}")
    a = slope._grow(depth)[1]  # a[i] is a_i
    return "".join(str(a_i % 2) for a_i in a[1 : depth + 1])


def _class_cuts(y: str) -> list[list[int]]:
    """The ladder cuts of the three block streams of y, those at index 0 or more.

    The streams are the block scans of y, 1y and 11y; exactly one of u,
    1u, 11u scans completely for every finite u, which is what makes them
    pairwise inequivalent.  A block starting at 0-based letter s of p + y
    cuts the continuant ladder at index s - |p| - 1, and the end of the run
    of blocks closes the last one, so no cut passes len(y) - 1.
    """
    cuts = []
    for p in ("", "1", "11"):
        word = p + y
        end = b_factorize(word).cut
        starts = [block.start() for block in _BLOCK_RE.finditer(word, 0, end)]
        if len(starts) < 2:
            raise ParityError("window too short to certify the three block streams")
        skip = len(p) + 1
        cuts.append([s - skip for s in (*starts, end) if s >= skip])
    return cuts


def _halved_window(slope: Slope, depth: int, inside: list[int]) -> AlphaNumber:
    """The digits of half the ladder difference across one block stream.

    Every block between consecutive cuts d < d' has an even difference
    q_{d'} - q_d, and the halves telescope: the window's value is half of
    q_{d'} - q_d for the first and last cuts d, d' of the window.
    That value is below q_depth and has one Ostrowski expansion, so one
    encode gives the window.
    """
    if len(inside) < 3:
        raise DepthError("window too shallow to glue at least two blocks")
    difference = slope.q(inside[-1]) - slope.q(inside[0])
    if difference % 2:
        raise AssertionError(f"ladder difference q_{inside[-1]} - q_{inside[0]} is odd")
    return encode(difference // 2, slope, depth)


def _too_shallow(depth: int) -> str:
    return f"depth {depth} is too shallow to certify the three self-dual classes"


def _check_self_dual_classes(classes: tuple[AlphaNumber, ...]) -> None:
    """Each class is equivalent to its complement, and no two classes agree.

    A window that cannot show this, or whose class the complement refuses
    (a natural-integer window, say), is too shallow: DepthError.
    """
    shallow = _too_shallow(classes[0].depth)
    for rho in classes:
        try:
            dual = complement(rho)
        except UnsupportedInterceptError as exc:
            raise DepthError(f"{shallow}: class {rho.digits} has no complement ({exc})") from exc
        if not equivalent(rho, dual).equivalent:
            raise DepthError(f"{shallow}: class {rho.digits} is not equivalent to its complement")
    for i in range(3):
        for j in range(i + 1, 3):
            if equivalent(classes[i], classes[j]).equivalent:
                raise DepthError(f"{shallow}: classes {i} and {j} are equivalent")


def self_complementary(slope: Slope, depth: int) -> tuple[AlphaNumber, ...]:
    """The three classes of windows equivalent to their reversal dual.

    Requires quotient parities that are not eventually even on the window;
    the eventually-even regime is covered by even_family instead.  Raises
    DepthError when the window is too shallow to certify the classes.
    `parity_word` asks the ladder for the window first, so a depth past its
    budget is refused before the parity word is built.
    """
    y = parity_word(slope, depth)
    if y.count("1") < 4:
        raise ParityError("parities look eventually even here; use even_family")
    classes = tuple(_halved_window(slope, depth, inside) for inside in _class_cuts(y))
    _check_self_dual_classes(classes)
    return classes


def even_family(slope: Slope, depth: int) -> tuple[AlphaNumber, ...]:
    """The three self-dual classes when quotients are eventually all even.

    Built from an even start index 2*k0 through the window; every digit is
    half the quotient above it, on even positions, odd positions, or all.
    Raises DepthError when the window is too shallow to certify the classes,
    before building them when the even tail is shorter than two levels more
    than the shared tail `equivalent` asks of a class and its complement.
    The ladder is asked for the depth first, so a depth past its budget or
    past a finite slope is refused before any quotient is read.
    """
    slope._grow(depth)
    start = depth + 1
    i = depth
    while i >= 1 and slope.quotient(i) % 2 == 0:
        start = i
        i -= 1
    even = depth - start
    if even < 4:
        raise ParityError("quotients are not eventually even on this window")
    # `equivalent` asks a class and its complement to share
    # _default_tail(depth) levels.  The two extra levels are measured, not
    # proved: over periodic slopes with heads up to 6 long, periods up to
    # 12 and even quotients up to 50, at depths 6-59, the all-position
    # class never shared that tail with its complement at margin 0, no
    # window certified at margin 0 or 1, and some did at margin 2
    need = _default_tail(depth) + 2
    if even < need:
        raise DepthError(
            f"{_too_shallow(depth)}: with an even tail of {even} < {need} levels,"
            " a class is not equivalent to its complement"
        )
    k0 = (start + 1) // 2
    s0, s1, s2 = [0] * depth, [0] * depth, [0] * depth
    for pos in range(2 * k0, depth):
        if pos % 2 == 0:
            s0[pos] = slope.quotient(pos + 1) // 2
        else:
            s1[pos] = slope.quotient(pos + 1) // 2
        s2[pos] = slope.quotient(pos + 1) // 2
    classes = tuple(AlphaNumber(tuple(d), slope) for d in (s0, s1, s2))
    _check_self_dual_classes(classes)
    return classes


class ComplementFamilyReport(
    namedtuple("ComplementFamilyReport", "ok even_ok odd_ok even_window odd_window")
):
    __slots__ = ()


def complement_family(M, slope: Slope, depth: int) -> ComplementFamilyReport:
    """Digitwise check of the dual formulas for gap-indexed full digits.

    The family on even positions 2i (i in M) carries full quotients; its
    dual is the family on the complementary index set shifted by q_3 - 2.
    The odd-position family pairs with q_4 - 2 the same way.
    """
    M = frozenset(M)
    if not M or min(M) < 2:
        raise RangeError("family indices start at 2")
    results = []
    windows = []
    for parity in (0, 1):
        digits = [0] * depth
        inside = [i for i in M if 2 * i + parity <= depth - 1]
        for i in inside:
            digits[2 * i + parity] = slope.quotient(2 * i + parity + 1)
        outside = [
            i for i in range(2, (depth - 1 - parity) // 2 + 1) if i not in M
        ]
        if len(inside) < 2 or len(outside) < 2:
            raise DepthError("window too small for both index families")
        rho = AlphaNumber(tuple(digits), slope)
        comp = complement(rho)
        value = slope.q(3 + parity) - 2 + sum(
            slope.quotient(2 * i + parity + 1) * slope.q(2 * i + parity)
            for i in outside
            if 2 * i + parity <= comp.depth - 1
        )
        expected = encode(value, slope, comp.depth)
        lo, hi = 1, comp.depth - 3
        if hi - lo < 4:
            raise DepthError("window too small to compare the dual family")
        results.append(comp.digits[lo:hi] == expected.digits[lo:hi])
        windows.append((lo, hi))
    return ComplementFamilyReport(
        ok=all(results),
        even_ok=results[0],
        odd_ok=results[1],
        even_window=windows[0],
        odd_window=windows[1],
    )


# ------------------------------------------------------------- mod-N machine


# The most levels `torsion_search` walks to the state cycle to find its
# default rank.  The golden slope's cycle mod N closes within 6 N levels.
MAX_RANK_WALK = 2**15


def _walk(slope: Slope, modulus: int) -> Iterator[tuple[tuple[int, int], int | None]]:
    """(q_n, p_n) mod the modulus for n = 0, 1, 2, ..., each with the index
    of a_{n+1} in the slope's quotients.

    On a finite slope of depth D, state D comes with None, and the walk
    raises DepthError past it.
    """
    # each quotient reduced once: a huge one would make every step slow
    quotients = [a % modulus for a in slope.quotients]
    (q0, p0), (q1, p1) = (0, 1), (1, 0)
    for i in slope._run(1):
        yield (q1, p1), i
        a = quotients[i]
        q0, p0, q1, p1 = q1, p1, (a * q1 + q0) % modulus, (a * p1 + p0) % modulus
    yield (q1, p1), None
    # the run stopped after a_D, and a_{D+1} is refused
    slope.quotient(len(quotients) + 1)


def _cycle(slope: Slope, modulus: int, limit: int) -> int | None:
    """The first rank n0 from which only recurring states appear, or None
    when the state cycle does not close by level `limit`.

    States are the continuant pairs (q_n, p_n) reduced mod the modulus, the
    first column of the ladder matrix [[q_n, q_{n-1}], [p_n, p_{n-1}]].
    Two consecutive states carry that matrix, and with the index of the
    next quotient they fix every later state, so the first repeat of
    (state_n, state_{n-1}, index of a_{n+1}) closes the cycle; states seen
    inside the cycle are exactly the recurring ones.
    """
    states: list[tuple[int, int]] = []
    previous = (0, 1)
    seen: dict = {}
    for n, (state, i) in zip(range(limit + 1), _walk(slope, modulus)):
        key = (state, previous, i)
        if key in seen:
            break
        seen[key] = n
        states.append(state)
        previous = state
    else:
        return None
    n0 = seen[key]
    recurring = set(states[n0:])
    while n0 > 0 and states[n0 - 1] in recurring:
        n0 -= 1
    return n0


class TorsionHit(
    namedtuple(
        "TorsionHit",
        "found modulus n k quotient_digits support state_trace reason",
        defaults=("",),
    )
):
    __slots__ = ()


def _reach(slope: Slope, n: int, k_max: int) -> int:
    """n + k_max + 2, the deepest level a search from rank n reads; RangeError
    when its continuants would pass the slope's ladder budget."""
    top = n + k_max + 2
    try:
        slope.q(top)
    except RangeError as exc:
        raise RangeError(f"rank n + k_max = {shown(n + k_max)} is out of reach: {exc}") from exc
    return top


def torsion_search(
    slope: Slope, modulus: int, n: int | None = None, k_max: int = 40
) -> TorsionHit:
    """Smallest k <= k_max with modulus | q_{n+k} - q_n, digits inside ]n, n+k[.

    When n is omitted, the first rank from which only recurring automaton
    states appear is used, read from a walk that stops where the state
    cycle closes; a cycle that does not close within MAX_RANK_WALK levels
    raises RangeError, and for a modulus of more than 512 bits within
    (MAX_RANK_WALK << 18) // bits^2 levels: each level multiplies two
    residues of that many bits, so its work grows with their square (and
    the walk's log of two residues a level holds at most 2^34 / bits <=
    2^25 bits, within a ladder's budget).  So does a rank n + k_max whose
    continuants would pass the slope's ladder budget, before the states
    from n on are walked (with n omitted, rank 0, the least, is checked
    before the walk too), and a modulus below 2, before anything is walked.
    The state walk guides; exact integer division and digit encoding
    certify.  A miss is a window verdict, not a proof.
    """
    if k_max < 2:
        raise RangeError(f"k_max must be >= 2, got {shown(k_max)}")
    if modulus < 2:
        raise RangeError(f"modulus must be >= 2, got {shown(modulus)}")
    if n is None:
        _reach(slope, 0, k_max)
        limit = min(MAX_RANK_WALK, (MAX_RANK_WALK << 18) // (modulus - 1).bit_length() ** 2)
        n = _cycle(slope, modulus, limit)
        if n is None:
            raise RangeError(
                f"the state cycle mod {shown(modulus)} does not close within"
                f" {limit} levels; give n"
            )
    elif n < 0:
        raise RangeError(f"n must be >= 0, got {shown(n)}")
    top = _reach(slope, n, k_max)
    states = [state for state, _ in islice(_walk(slope, modulus), top + 1)]
    for k in range(2, k_max + 1):
        difference = slope.q(n + k) - slope.q(n)
        if difference % modulus:
            continue
        digits = encode(difference // modulus, slope, top)
        supp = digits.support()
        if all(n < s < n + k for s in supp):
            return TorsionHit(
                found=True,
                modulus=modulus,
                n=n,
                k=k,
                quotient_digits=digits.digits,
                support=supp,
                state_trace=tuple(states[n : n + k + 1]),
            )
    return TorsionHit(
        found=False,
        modulus=modulus,
        n=n,
        k=None,
        quotient_digits=None,
        support=None,
        state_trace=tuple(states[n : n + k_max + 1]),
        reason=f"no admissible k <= {k_max} from n = {n}",
    )


def palindromic_center_word(slope: Slope, half_length: int) -> str:
    """Right half of the unique palindromic factor of length 2 half_length.

    The halves of the palindromic factors of the characteristic word nest
    into one infinite word, so this is its prefix of length half_length;
    its window is a reversal-dual fixed class, so this is an independent
    route to one self-complementary word.  The nesting itself is checked
    in the test suite, not here.
    """
    if half_length < 1:
        raise RangeError(f"half_length must be >= 1, got {shown(half_length)}")
    prefix = characteristic_prefix(slope, language_length(slope, 2 * half_length))
    factors = factor_set(prefix, 2 * half_length)
    if len(factors) != 2 * half_length + 1:
        raise AssertionError(
            f"{len(factors)} length-{2 * half_length} factors, expected {2 * half_length + 1}"
        )
    palindromes = [f for f in factors if is_palindrome(f)]
    if len(palindromes) != 1:
        raise AssertionError("even lengths carry a single palindrome")
    return palindromes[0][half_length:]
