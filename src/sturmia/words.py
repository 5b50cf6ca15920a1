"""Finite sturmian word machinery over {0, 1} alphabets.

Standard words follow s_-1 = "1", s_0 = "0", s_1 = s_0^{a_1 - 1} s_-1 and
s_{n+1} = s_n^{a_{n+1}} s_{n-1}, so |s_n| is the continuant q_n.  Each s_n
with n >= 1 is a prefix of the next, and the characteristic word c of the
slope is their limit, so s_n = c[:q_n].  Each slope keeps one prefix of c
beside its continuant ladder, grown on demand by `_grown` and spelled by
`_spelled` as references to strings of at most `_PIECE` letters, never
joined whole.  Standard words and characteristic prefixes are read off it
by `_read`, which copies only the letters it returns.
"""

from __future__ import annotations

import _thread
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from fractions import Fraction
from itertools import accumulate, pairwise

from .errors import DepthError, RangeError, shown
from .slope import IntervalPosition, Slope, interval_locate


# The longest word built.  q_n >= F_{n+1} on every slope, so from the
# golden slope's first level above the cap on, every s_n is over it:
# standard_word refuses those levels of an infinite slope before its ladder
# grows that deep.
MAX_STANDARD_LETTERS = 10**8
_CAP_LEVEL = Slope((1,), (0, 1)).level(MAX_STANDARD_LETTERS)

# Words only grow, under this lock; a stored word is never changed, only
# replaced by a longer one, so reading it needs no lock.  The ladder grows
# under its own lock, which the growth below takes in turn.
_GROW_LOCK = _thread.allocate_lock()


# The longest piece of a slope's word: a level of at most this many letters
# is one string, a longer one a list of references to such strings, and
# s_n^k of a short s_n repeats blocks of at most this many letters.  A word
# of 10^7 letters is then a few thousand references, while the words of a
# few thousand letters that most reads ask for lie in its first piece: on
# the five named slopes, at 2,000 and 20,000 letters, this cap spelled a
# word in 9 and 13 us, and pieces of sqrt(target) letters in 16 and 27 us
# (Python 3.11, 2 CPUs).
_PIECE = 4096
_ZEROS = "0" * _PIECE


def _grown(slope: Slope, m: int) -> tuple[Sequence[int], list[str]]:
    """The slope's prefix of c, grown to at least m letters, as the running
    ends (0, e_1, ..., e_k) of its pieces and the pieces
    p_i = c[e_{i-1}:e_i], each of 1 to _PIECE letters; a fresh slope's
    word is one empty piece.

    The caller has checked that m is at most MAX_STANDARD_LETTERS and, on a
    finite slope [0; a_1, ..., a_D], at most q_D.  The word grows to
    max(m, 2 |word|) letters, within both bounds, so a run of longer
    requests grows it O(log m) times.  Its pieces are references to a few
    distinct strings, so a word of L letters holds about 16 bytes for each
    of its O(L / _PIECE) pieces and copies no letter.  The rows grow once,
    through q_1 and the first rung q_d >= that target, or through a_D, and
    `_spelled` walks the levels up them.
    """
    cell = slope._word
    word = cell[0]
    if word[0][-1] >= m:
        return word
    with _GROW_LOCK:
        word = cell[0]
        if word[0][-1] >= m:
            return word  # another thread grew it meanwhile
        target = min(max(m, 2 * word[0][-1]), MAX_STANDARD_LETTERS)
        depth = slope.known_depth
        # q_{_CAP_LEVEL} > MAX_STANDARD_LETTERS >= target on every slope;
        # a target of 1 still reads q_1, which may equal q_0 = 1
        top = _CAP_LEVEL if depth is None else min(depth, _CAP_LEVEL)
        q, a = slope._grow(1) if target == 1 else slope._grow(top, past=target - 1)
        cell[0] = word = _spelled(q, a, target, depth)
    return word


def _spelled(
    q: list[int], a: list[int], target: int, depth: int | None
) -> tuple[Sequence[int], list[str]]:
    """The word `_grown` keeps for c[:target], or for s_D when a finite
    slope of depth D ends first, from the rows (q, a) grown through the
    first rung past target - 1.

    Each level s_{n+1} = s_n^{a_{n+1}} s_{n-1} is a list of pieces, one
    string while it or the target has at most _PIECE letters, from
    s_0 = "0" and s_1 = 0^{a_1 - 1} 1, whose zeros are cut into blocks of
    _PIECE; so a word is one piece exactly when it is that short.  Only
    the last level may pass the target, so it repeats s_n no more than
    ceil(target / |s_n|) times, and s_1 keeps at most `target` zeros.  The
    pieces up to the target are kept, the last one cut, and none is joined.
    """
    zeros = min(a[1] - 1, target)
    size, n = zeros + (zeros < target), 1  # |s_n|
    blocks = (size - 1) // _PIECE  # of zeros, before a last piece of 1 to _PIECE letters
    prev = ["0"]
    cur = [_ZEROS] * blocks + ["0" * (zeros - blocks * _PIECE) + "1" * (zeros < target)]
    while size < target and n != depth:
        k = min(a[n + 1], -(-target // size))
        grown = k * size + q[n]  # q[n] is q_{n-1} = |s_{n-1}|
        if grown <= _PIECE or target <= _PIECE:
            # one string, under 3 _PIECE letters when only the target is
            # short, and cut to it below
            level = [cur[0] * k + prev[0]]
        elif len(cur) > 1:
            level = cur * k + prev
        else:
            # blocks of r copies of a short s_n, so a huge quotient makes
            # about target / _PIECE references, not one per copy
            r = max(_PIECE // size, 1)
            level = [cur[0] * r] * (k // r) + [cur[0] * (k % r)] * (k % r > 0) + prev
        prev, cur, size, n = cur, level, grown, n + 1
    if len(cur) == 1:  # a word of at most _PIECE letters, as most are
        piece = cur[0][:target]
        return (0, len(piece)), [piece]
    ends = list(accumulate(map(len, cur), initial=0))
    i = bisect_left(ends, target)  # piece i - 1 reaches the target
    if i < len(ends):
        cur = cur[:i]
        cur[-1] = cur[-1][: target - ends[i - 1]]
        ends[i:] = [target]
    # eight bytes an end, where a list holds a 32-byte int beside each;
    # imported here, so that only a word past _PIECE letters loads it
    from array import array

    return array("q", ends), cur


def _read(slope: Slope, start: int, stop: int) -> str:
    """c[start:stop], for 0 <= start and a stop the caller has checked as
    `_grown` asks; "" when stop <= start.

    A window within one piece is one slice, found with no search when it
    lies in the first piece, as most short reads do, and with one bisection
    of the ends otherwise; a longer one joins the pieces that cover it,
    cutting the first and the last.  The word grows only when the window
    ends past it.
    """
    ends, pieces = slope._word[0]
    if stop <= ends[1]:
        return pieces[0][start:stop]
    if stop <= start:
        return ""
    if ends[-1] < stop:
        ends, pieces = _grown(slope, stop)
    i = bisect_right(ends, start) - 1  # the piece holding letter `start`
    first = ends[i]
    if stop <= ends[i + 1]:
        return pieces[i][start - first : stop - first]
    j = bisect_left(ends, stop, i + 2) - 1  # the piece holding letter stop - 1
    return "".join([pieces[i][start - first :], *pieces[i + 1 : j], pieces[j][: stop - ends[j]]])


def certified_letters(slope: Slope) -> int | None:
    """The letters of c the word of a finite slope [0; a_1, ..., a_D]
    certifies, q_D - 1, or None on a periodic slope: every read compares
    against it before it reads the ladder, and refuses past it."""
    depth = slope.known_depth
    return None if depth is None else slope.q(depth) - 1


def _past_certified(slope: Slope, read: str) -> DepthError:
    """The refusal of a read past `certified_letters`, such as `read` =
    "prefix of length 20 passes"."""
    letters = shown(certified_letters(slope))
    return DepthError(f"{read} the {letters} letters the word of {slope} certifies")


def _prefix_read(slope: Slope, start: int, stop: int) -> str:
    """c[start:stop], with the refusals of a prefix of length stop:
    RangeError when stop is negative or over MAX_STANDARD_LETTERS, and
    DepthError when stop passes `certified_letters`."""
    if stop < 0:
        raise RangeError("prefix length must be >= 0")
    if stop > MAX_STANDARD_LETTERS:
        raise RangeError(
            f"prefix of length {shown(stop)} has more than {MAX_STANDARD_LETTERS} letters"
        )
    letters = certified_letters(slope)
    if letters is not None and stop > letters:
        raise _past_certified(slope, f"prefix of length {shown(stop)} passes")
    return _read(slope, start, stop)


def standard_word(slope: Slope, n: int) -> str:
    """The standard word s_n of the slope; defined for n >= -1.

    Raises RangeError when s_n would have more than MAX_STANDARD_LETTERS
    letters, before the word grows.
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
            f"standard word s_{shown(n)} has more than {MAX_STANDARD_LETTERS} letters"
        )
    return _read(slope, 0, slope.q(n))


def characteristic_prefix(slope: Slope, m: int) -> str:
    """First m letters of the characteristic word.

    Raises RangeError past MAX_STANDARD_LETTERS letters, before the word
    grows.
    """
    return _prefix_read(slope, 0, m)


def language_length(slope: Slope, m: int) -> int:
    """Letters of the characteristic word that show every length-m factor.

    For m >= 1 in [q_n - 1, q_{n+1} - 2] this is m + q_{n+1} + q_n + 2.
    Refuses as `_language` does.
    """
    return _language(slope, m)[1]


def _language(slope: Slope, m: int) -> tuple[IntervalPosition, int]:
    """The level of m, `interval_locate`'s, and `language_length`, or the
    one refusal of a window length m: DepthError from m = `certified_letters`
    on, where its level passes a_D, then RangeError or DepthError when the
    length-m factors need more than MAX_STANDARD_LETTERS letters or more
    than the word certifies."""
    letters = certified_letters(slope)
    if letters is not None and m >= letters:
        raise _past_certified(slope, f"window length {shown(m)} needs more than")
    pos = interval_locate(m, slope)
    length = m + slope.q(pos.n + 1) + slope.q(pos.n) + 2
    if length > MAX_STANDARD_LETTERS:
        raise RangeError(
            f"window length {shown(m)} needs {shown(length)} letters,"
            f" more than {MAX_STANDARD_LETTERS}"
        )
    if letters is not None and length > letters:
        raise _past_certified(slope, f"window length {shown(m)} needs more than")
    return pos, length


def shifted_characteristic_prefix(slope: Slope, k: int, m: int) -> str:
    """First m letters of the characteristic word shifted k places."""
    if k < 0:
        raise RangeError("shift must be >= 0")
    return _prefix_read(slope, k, k + m)


def mechanical_prefix(alpha: Fraction, rho: Fraction, n: int, kind: str = "lower") -> str:
    """First n letters of the mechanical word of slope alpha and intercept rho.

    Upper words take floor differences, lower words ceiling differences;
    for alpha = a/b and rho = c/d, k alpha + rho is (k a d + c b) / (b d),
    so each floor or ceiling is one integer division.  An integer added to
    rho adds it to every floor and ceiling, so only rho mod 1 is read.
    Raises RangeError past MAX_STANDARD_LETTERS letters, before any is built.
    """
    alpha = Fraction(alpha)
    rho = Fraction(rho) % 1
    if not 0 <= alpha <= 1:
        raise RangeError("mechanical slope must lie in [0, 1]")
    step = alpha.numerator * rho.denominator
    start = rho.numerator * alpha.denominator
    den = alpha.denominator * rho.denominator
    if kind == "upper":
        values = ((k * step + start) // den for k in range(n + 1))
    elif kind == "lower":
        values = (-((-k * step - start) // den) for k in range(n + 1))
    else:
        raise ValueError(f"kind must be 'upper' or 'lower', got {kind!r}")
    if n > MAX_STANDARD_LETTERS:
        raise RangeError(
            f"mechanical word of {shown(n)} letters has more than {MAX_STANDARD_LETTERS}"
        )
    return "".join(str(y - x) for x, y in pairwise(values))


# The fewest letters a jump of `window_walk` skips: a try searches for the
# window and the next _MIN_JUMP letters, which must occur earlier for the
# jump to repay that search and the slicing and lookup it costs.
_MIN_JUMP = 64


def _extension(word: str, a: int, b: int, agree: int) -> int:
    """Letters on which word[a:] and word[b:] agree, for a < b, given that
    they agree on the first `agree` >= 1.

    Compares chunks that double and then halve with str.startswith, so an
    agreement of l letters costs O(log l) calls over O(l) letters.  A chunk
    the end of the word cuts short never matches, because b > a.
    """
    size = agree
    while word.startswith(word[a + agree : a + agree + size], b + agree):
        agree += size
        size *= 2
    while size > 1:
        size //= 2
        if word.startswith(word[a + agree : a + agree + size], b + agree):
            agree += size
    return agree


def window_walk(word: str, n: int) -> tuple[list[str], list[dict[str, int]]]:
    """Distinct length-n windows of the word and the steps between them.

    Returns `windows`, the distinct length-n factors in order of first
    occurrence, and `step`, where `step[i][c] == j` means window i followed by
    the letter c shifts to window j; each entry is one distinct length-(n+1)
    factor `windows[i] + c`.  The window after window i depends only on it
    and the next letter, so a (window, letter) pair is sliced and hashed
    once, the first time it is seen, and looked up after that (the window
    automaton of Blumer et al., TCS 40, 1985, at one length).

    Repeated stretches are skipped instead of stepped through.  When the
    window at position t also occurs at s < t and word[s+n:] and word[t+n:]
    agree on l letters, the windows at t+1 .. t+l are those at s+1 .. s+l,
    and each step among them repeats the step at s + i, which is recorded
    already: either s + i < t, or it repeats the step at s + i - (t - s) in
    turn (the self-reference of Ziv and Lempel's 1977 factoring).  So the
    walk moves to t + l at once and finds the window there by its string,
    and `windows` and `step` come out as a letter by letter walk makes
    them, in the same order.  A try takes for s the first occurrence of the
    window and the next _MIN_JUMP letters, so every try that finds one
    jumps.  Tries come after stretches of steps that found no new window:
    the first stretch is _MIN_JUMP steps, a jump resets it to one step and
    a try that finds nothing doubles it, so a run of misses costs O(log L)
    tries.  As without jumps, a stepped letter costs one dict lookup and
    each of the p(n)·σ distinct (window, letter) pairs one slice of n
    letters; a try adds a search of the prefix before it, and a jump over
    l letters O(log l) C comparisons of O(l) letters in all.  Ids stand for
    real strings, so the result is exact.
    """
    if n < 0 or n > len(word):
        raise RangeError(f"factor length {shown(n)} outside [0, {len(word)}]")
    length = len(word)
    windows = [word[:n]]
    ids = {windows[0]: 0}
    step: list[dict[str, int]] = [{}]
    cur = 0
    at = n  # the next letter to read; the current window ends before it
    stretch = _MIN_JUMP
    while True:
        known = len(windows)
        for c in word[at : at + stretch]:
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
        at += stretch
        if at >= length:
            return windows, step
        if len(windows) == known and at + _MIN_JUMP <= length:
            # the first occurrence of the window and all _MIN_JUMP next
            # letters; as it ends before `ahead`, it starts before the window
            ahead = at + _MIN_JUMP
            source = word.find(word[at - n : ahead], 0, ahead - 1)
            if source >= 0:
                at += _extension(word, source + n, at, _MIN_JUMP)
                cur = ids[word[at - n : at]]
                stretch = 1
                continue
        stretch *= 2


def factor_set(word: str, n: int) -> frozenset[str]:
    """All length-n factors occurring in the word."""
    return frozenset(window_walk(word, n)[0])


def complexity(word: str, n: int) -> int:
    """Number of distinct length-n factors of the word."""
    return len(window_walk(word, n)[0])


def is_palindrome(word: str) -> bool:
    return word == word[::-1]
