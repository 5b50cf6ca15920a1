"""Factor graphs of a sturmian language at fixed window length.

At window length m the graph has the m+1 length-m factors as vertices and
the m+2 length-(m+1) factors as edges (w joins its prefix to its suffix).
One vertex is left special (two incoming arrows), one is right special (two
outgoing); the graph is the union of two cycles through the right special
vertex whose lengths q_n and l q_n + q_{n-1} are coprime, overlapping in a
common path that carries the longest central factor of length below the
next interval breakpoint.  The graph is read off the characteristic prefix
c that shows every length-m factor.  The left special vertex is c[:m] and
the right special vertex R its reversal, first seen r letters in, so the
common path is the windows at 0 .. r.  Each cycle is a return word of R
(Vuillon, European J. Combin. 22, 2001): from R's first arrow by the
cycle's letter to R's next occurrence, its last r vertices the common path.
The searches are str.find on c, and a vertex is the start of its window in
c; cycle lengths, coprimality and the common path cross-check the reading.
Only build_graph slices the vertex strings, and it checks that the m + 1 of
them are distinct.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .errors import PrefixTooShortError, RangeError
from .intercept import AlphaNumber, _shift_window, max_certified_length, sturmian_prefix
from .slope import IntervalPosition, Slope, interval_locate
from .words import MAX_STANDARD_LETTERS, characteristic_prefix


def _cycle_letter(level: int) -> str:
    # first letter of the two-letter tail of the standard word at this level
    return "1" if level % 2 == 0 else "0"


class RauzyGraph(
    namedtuple(
        "RauzyGraph",
        "m slope level vertices edges left_special right_special"
        " referent_cycle other_cycle common_path",
    )
):
    __slots__ = ()

    def cycle_edges(self, cycle: tuple[str, ...]) -> frozenset[tuple[str, str]]:
        k = len(cycle)
        return frozenset((cycle[i], cycle[(i + 1) % k]) for i in range(k))

    def to_dot(self) -> str:
        lines = ["digraph rauzy {"]
        for v in self.vertices:
            marks = []
            if v == self.left_special:
                marks.append("shape=box")
            if v == self.right_special:
                marks.append("peripheries=2")
            attrs = f" [{','.join(marks)}]" if marks else ""
            lines.append(f'  "{v}"{attrs};')
        referent = self.cycle_edges(self.referent_cycle)
        for s, t in self.edges:
            style = ' [style=bold]' if (s, t) in referent else ""
            lines.append(f'  "{s}" -> "{t}"{style};')
        lines.append("}")
        return "\n".join(lines)


def _cycles(
    slope: Slope, m: int, vertex_letters: int
) -> tuple[IntervalPosition, str, range, range]:
    """The checked cycles of the length-m graph, read off the characteristic
    prefix c, with each vertex given as the start of its window in c.

    Returns the level of m, c, and the starts of the referent cycle's own
    vertices and then the other cycle's: a cycle runs from the right
    special vertex at r through its own vertices, then along the common
    path from the left special vertex at 0 to r - 1.  Builds no vertex
    string and no list of vertices.
    Raises RangeError, before the prefix is built, when the prefix or the
    caller's `vertex_letters` would hold more than MAX_STANDARD_LETTERS
    letters, and `characteristic_prefix` DepthError past a finite word.
    """
    if m < 1:
        raise RangeError(f"window length must be >= 1, got {m}")
    pos = interval_locate(m, slope)
    q_lo, q = slope.q(pos.n - 1), slope.q(pos.n)
    # the letters that show every length-m factor, as `language_length` counts
    length = m + slope.q(pos.n + 1) + q + 2
    letters = max(vertex_letters, length)
    if letters > MAX_STANDARD_LETTERS:
        raise RangeError(
            f"window length {m} needs {letters} letters, more than {MAX_STANDARD_LETTERS}"
        )
    c = characteristic_prefix(slope, length)
    left = c[:m]
    right = left[::-1]
    r = c.find(right)
    if r != pos.r:
        raise AssertionError(f"common path has {r + 1} vertices, expected {pos.r + 1}")
    owns = []
    for level in (pos.n - 1, pos.n):
        # the cycle leaves the right special vertex at its first arrow by its
        # own letter and returns at the vertex's next occurrence, the last r
        # of its vertices the common path from the left special one
        t = c.find(right + _cycle_letter(level))
        k = c.find(right, t + 1) - t
        if t < 0 or k <= r or not c.startswith(left, t + k - r):
            raise AssertionError(
                f"the cycle by {_cycle_letter(level)} does not return to the right special vertex"
                " through the left special one"
            )
        owns.append(range(t + 1, t + k - r))
    lengths = tuple(r + 1 + len(own) for own in owns)
    expected = (q, pos.l * q + q_lo)
    if lengths != expected:
        raise AssertionError(f"cycle lengths {lengths}, expected {expected}")
    if gcd(*lengths) != 1:
        raise AssertionError("cycle lengths are not coprime")
    return pos, c, *owns


def build_graph(slope: Slope, m: int) -> RauzyGraph:
    """Graph of the length-m factors, built from a certified prefix.

    Raises RangeError, before the prefix is built, when the m + 1 vertex
    strings or the prefix would hold more than MAX_STANDARD_LETTERS letters.
    """
    return _graph(slope, m, *_cycles(slope, m, m * (m + 1)))


def _graph(slope: Slope, m: int, pos: IntervalPosition, c: str, *owns: range) -> RauzyGraph:
    """build_graph's graph from the cycles `_cycles` has read."""
    r = pos.r
    # vertex ids: the common path 0 .. r, then each cycle's own vertices
    windows = [c[s : s + m] for run in (range(r + 1), *owns) for s in run]
    order = sorted(range(len(windows)), key=windows.__getitem__)
    vertices = tuple(map(windows.__getitem__, order))
    # a repeated window sits next to its copy in sorted order
    distinct = len(vertices) - sum(map(str.__eq__, vertices, vertices[1:]))
    if distinct != m + 1:
        raise AssertionError(f"{distinct} length-{m} factors, expected {m + 1}")
    first = r + 1 + len(owns[0])
    ids = ([r, *range(r + 1, first), *range(r)], [r, *range(first, len(windows)), *range(r)])
    referent, other = (tuple(map(windows.__getitem__, ring)) for ring in ids)
    after = [0] * len(windows)
    for ring in ids:
        for i, j in zip(ring, ring[1:] + ring[:1]):
            after[i] = j
    edges = [(windows[i], windows[after[i]]) for i in order]
    # the right special vertex has two arrows, whose targets differ in their
    # last letter
    at = order.index(r)
    edges[at : at + 1] = sorted((windows[r], windows[ring[1 % len(ring)]]) for ring in ids)
    return RauzyGraph(
        m=m,
        slope=slope,
        level=pos,
        vertices=vertices,
        # the arrows reuse the vertex string objects
        edges=tuple(edges),
        left_special=windows[0],
        right_special=referent[0],
        referent_cycle=referent,
        other_cycle=other,
        common_path=tuple(windows[: r + 1]),
    )


def _laps(word: str, m: int, c: str, ring: tuple[range, ...]) -> int:
    """Whole laps the word's window path makes around the ring from its start.

    The ring is runs of consecutive window starts in c, in ring order.  From
    its p-th vertex the path follows the ring for one lap exactly when the
    next k letters are the last letters of the vertices p+1, ..., p+k, back
    at vertex p; so laps are counted by comparing letters.  Raises
    PrefixTooShortError when the word ends inside a lap that still agrees.
    """
    if len(word) < m:
        raise PrefixTooShortError(f"need at least {m} letters to form one window, got {len(word)}")
    head = word[:m]
    p = 0
    for run in ring:
        # the windows starting in the run end by run.stop - 1 + m
        at = c.find(head, run.start, run.stop + m - 1)
        if at >= 0:
            p += at - run.start
            break
        p += len(run)
    else:
        return 0
    # the window at s ends in the letter c[s + m - 1]
    tails = "".join(c[run.start + m - 1 : run.stop + m - 1] for run in ring)
    k = len(tails)
    lap = tails[p + 1 :] + tails[: p + 1]
    laps = 0
    while word.startswith(lap, m + laps * k):
        laps += 1
    start = m + laps * k
    if len(word) - start < k and lap.startswith(word[start:]):
        raise PrefixTooShortError(f"{len(word)} letters end inside lap {laps + 1} of a {k}-cycle")
    return laps


def count_turns(
    source: AlphaNumber | int,
    m: int,
    slope: Slope | None = None,
    cycle: str = "referent",
) -> int:
    """Number of consecutive laps the shifted word makes around a cycle.

    `source` is either a digit window or a plain integer shift of the
    characteristic word, read as its window (`_shift_window`); `slope`
    defaults to the window's own.  The cycles are read as window starts in
    the characteristic prefix, so no vertex string is built and memory
    grows linearly in m.

    Reads a prefix of the shifted word long enough to certify the most laps
    that cycle allows, capped at the window's `max_certified_length`, and
    `_laps` certifies the count or raises PrefixTooShortError.
    """
    if slope is None and isinstance(source, AlphaNumber):
        slope = source.slope
    if slope is None:
        raise ValueError("integer shifts need an explicit slope")
    if cycle not in ("referent", "other"):
        raise ValueError(f"cycle must be 'referent' or 'other', got {cycle!r}")
    if isinstance(source, AlphaNumber) and source.slope != slope:
        raise ValueError("digit window and graph live over different slopes")
    return _turns(source, m, slope, cycle, *_cycles(slope, m, 0))


def _turns(
    source: AlphaNumber | int,
    m: int,
    slope: Slope,
    cycle: str,
    pos: IntervalPosition,
    c: str,
    *owns: range,
) -> int:
    """count_turns, its arguments checked, on the cycles `_cycles` has read."""
    own = owns[cycle == "other"]
    ring = (range(pos.r, pos.r + 1), own, range(pos.r))
    k = pos.r + 1 + len(own)
    bound = slope.quotient(pos.n + 1) - pos.l if cycle == "referent" else 1
    length = (bound + 2) * k + 3 * (m + 1)
    if not isinstance(source, AlphaNumber):
        source = _shift_window(source, slope, length)
    word = sturmian_prefix(source, min(length, max_certified_length(source)))
    return _laps(word, m, c, ring)
