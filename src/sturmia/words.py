"""Finite sturmian word machinery over {0, 1} alphabets.

Standard words follow s_-1 = "1", s_0 = "0", s_1 = s_0^{a_1 - 1} s_-1 and
s_{n+1} = s_n^{a_{n+1}} s_{n-1}, so |s_n| is the continuant q_n.  Each s_n
with n >= 1 is a prefix of the next, and the characteristic word c of the
slope is their limit, so s_n = c[:q_n].  Each slope keeps beside its
continuant ladder only its standard words of at most `_PIECE` letters, and
`_read` spells any c[start:stop] off the recursion from them, copying only
the letters it returns.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import pairwise

from .errors import DepthError, RangeError, shown
from .slope import IntervalPosition, Slope, interval_locate


# The longest word built.  q_n >= F_{n+1} on every slope, so from the
# golden slope's first level above the cap on, every s_n is over it:
# standard_word refuses those levels of an infinite slope before its ladder
# grows that deep.
MAX_STANDARD_LETTERS = 10**8
_CAP_LEVEL = Slope((1,), (0, 1)).level(MAX_STANDARD_LETTERS)


# The longest standard word a slope keeps, and the longest block a read
# repeats a short word in: the words of a few thousand letters that most
# reads ask for are slices of a kept word, while a read of 10^7 letters
# joins a few thousand references to kept words and blocks.
_PIECE = 4096


def _read(slope: Slope, start: int, stop: int) -> str:
    """c[start:stop], for 0 <= start and a stop the caller has checked
    against MAX_STANDARD_LETTERS and, on a finite slope [0; a_1, ..., a_D],
    against q_D; "" when stop <= start.

    A window within the slope's longest kept word is one slice of it.
    Otherwise the window lies in s_n = c[:q_n] for
    n = max(level(stop - 1), 1), which `_spell` walks down; the kept words
    grow first through s_n, or through the last level of at most _PIECE
    letters, and the ladder through the rung past stop - 1.
    """
    kept = slope._word[0]  # (s_-1, s_0, ..., s_top)
    if stop <= len(kept[-1]) and len(kept) > 2:
        return kept[-1][start:stop]  # s_top = c[:q_top], as top >= 1
    if stop <= start:
        return ""
    n = max(slope.level(stop - 1), 1)
    q, a = slope._grow(n)  # q[i + 1] = q_i and a[i] = a_i
    top = len(kept) - 2
    if top < n and q[top + 2] <= _PIECE:
        grown = list(kept)
        while top < n and q[top + 2] <= _PIECE:
            top += 1
            grown.append(grown[top] * (a[top] - (top == 1)) + grown[top - 1])
        # a growth in another thread stores the same words, so either
        # tuple serves every read
        slope._word[0] = kept = tuple(grown)
    pieces: list[str] = []
    _spell(kept, q, a, n, start, stop, pieces, {})
    return "".join(pieces)


def _spell(
    kept: tuple[str, ...], q: list[int], a: list[int], m: int, start: int, stop: int,
    pieces: list[str], whole: dict[int, list[str]],
) -> None:
    """Adds s_m[start:stop] to `pieces`, for 0 <= start < stop <= |s_m|,
    walking down s_m = s_{m-1}^e s_{m-2}, e = a_m - [m = 1], to the kept
    words (s_-1, s_0, ..., s_top) and the rows (q, a).

    A window inside one copy of s_{m-1}, or inside s_{m-2}, moves down one
    level or two; a window across copies is the suffix of one copy, a run of
    whole copies, and a prefix of the next copy or of s_{m-2}, each but the
    run spelled the same way.  A window inside a kept word is a slice of it.
    `whole` holds the long s_m this read has spelled, by level.
    """
    top = len(kept) - 2
    while m > top:
        size = q[m]  # |s_{m-1}|
        head = (a[m] - (m == 1)) * size  # the copies of s_{m-1}
        if start >= head:
            m, start, stop = m - 2, start - head, stop - head
            continue
        first = start - start % size  # where the copy holding `start` begins
        if stop <= first + size:
            m, start, stop = m - 1, start - first, stop - first
            continue
        if start > first:
            _spell(kept, q, a, m - 1, start - first, size, pieces, whole)
            first += size
        end = min(stop, head)
        last = end - end % size  # where the copy holding letter `end` begins
        if last > first:  # a run of none would still spell a long s_{m-1}
            pieces += _copies(kept, a, m - 1, (last - first) // size, whole)
        if end > last:
            _spell(kept, q, a, m - 1, 0, end - last, pieces, whole)
        if stop == q[m + 1]:
            pieces += _copies(kept, a, m - 2, 1, whole)
        elif stop > head:
            _spell(kept, q, a, m - 2, 0, stop - head, pieces, whole)
        return
    pieces.append(kept[m + 1][start:stop])


def _copies(
    kept: tuple[str, ...], a: list[int], m: int, count: int, whole: dict[int, list[str]]
) -> list[str]:
    """s_m^count as pieces: blocks of at most _PIECE letters of copies of a
    kept s_m, so a huge count costs one reference a block, or `count` times
    the pieces of a long s_m, spelled once into `whole`."""
    if m < len(kept) - 1:
        word = kept[m + 1]
        per = _PIECE // len(word)
        if count <= per:
            return [word * count]
        return [word * per] * (count // per) + [word * (count % per)]
    pieces = whole.get(m)
    if pieces is None:
        e = a[m] - (m == 1)
        pieces = whole[m] = _copies(kept, a, m - 1, e, whole) + _copies(kept, a, m - 2, 1, whole)
    return pieces * count


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
    letters, before a letter is spelled.
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

    Raises RangeError past MAX_STANDARD_LETTERS letters, before a letter is
    spelled.
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
