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
The searches are str.find on c, and a vertex v is the start of its window
in c, in the reading and in the RauzyGraph record alike, so its factor is
c[v : v + m]; the common path and the cycle lengths cross-check the
reading, and lengths q_n and l q_n + q_{n-1} are coprime as q_n and q_{n-1}
are, so no caller checks either again.  Only
RauzyGraph.to_dot makes strings: it slices the m + 1 windows, sorts them
and checks there that they are distinct, and only it is held to the
m(m + 1) letter budget of those strings.  So build_graph takes time and
memory linear in m and the prefix: on the golden slope 0.075 ms and a
0.25 MB tracemalloc peak at m = 2000, 0.61 ms and 0.95 MB at m = 8000
(best of 21, Python 3.11 on a 2-core machine).
"""

from __future__ import annotations

from collections import namedtuple

from .errors import PrefixTooShortError, RangeError, shown
from .intercept import AlphaNumber, _shift_window, max_certified_length, sturmian_prefix
from .slope import IntervalPosition, Slope
from .words import MAX_STANDARD_LETTERS, _language, characteristic_prefix


def _cycle_letter(level: int) -> str:
    # first letter of the two-letter tail of the standard word at this level
    return "1" if level % 2 == 0 else "0"


class RauzyGraph(
    namedtuple(
        "RauzyGraph",
        "m slope level prefix vertices edges left_special right_special"
        " referent_cycle other_cycle common_path",
    )
):
    """The length-m graph, each vertex the start of its window in `prefix`,
    the characteristic prefix the graph was read from.

    `vertices` lists the common path, then each cycle's own vertices;
    `edges` the referent cycle's arrows in ring order from the right special
    vertex, then the other cycle's arrows off the common path.  A cycle
    runs from the right special vertex, and the common path from the left
    special one.  Vertex v's factor is `prefix[v : v + m]`; only `to_dot`
    slices them all.
    """

    __slots__ = ()

    def to_dot(self) -> str:
        """The graph in Graphviz dot, vertices and arrows sorted by their
        factors: the left special vertex boxed, the right special one
        doubled, the referent cycle's arrows bold.

        Raises RangeError, before any factor is sliced, when the m + 1 of
        them would hold more than MAX_STANDARD_LETTERS letters, and
        AssertionError unless they are distinct.
        """
        m = self.m
        letters = m * (m + 1)
        if letters > MAX_STANDARD_LETTERS:
            raise RangeError(
                f"window length {shown(m)} needs {shown(letters)} letters,"
                f" more than {MAX_STANDARD_LETTERS}"
            )
        c, vertices = self.prefix, self.vertices
        names = [c[v : v + m] for v in vertices]
        order = sorted(range(len(names)), key=names.__getitem__)
        words = list(map(names.__getitem__, order))
        # a repeated factor sits next to its copy in sorted order
        distinct = len(words) - sum(map(str.__eq__, words, words[1:]))
        if distinct != m + 1:
            raise AssertionError(f"{distinct} length-{m} factors, expected {m + 1}")
        # each vertex by its place in the sorted factors
        rank = {vertices[i]: at for at, i in enumerate(order)}
        left, right = rank[self.left_special], rank[self.right_special]
        attrs = [""] * len(words)
        attrs[left] = " [shape=box]"
        attrs[right] = " [shape=box,peripheries=2]" if right == left else " [peripheries=2]"
        ring = [rank[v] for v in self.referent_cycle]
        bold = set(zip(ring, ring[1:] + ring[:1]))
        # sorted by source, then target: the right special vertex's two
        # targets differ in their last letter
        arrows = sorted([(rank[s], rank[t]) for s, t in self.edges])
        lines = [
            "digraph rauzy {",
            *[f'  "{word}"{attr};' for word, attr in zip(words, attrs)],
            *[
                f'  "{words[s]}" -> "{words[t]}"{" [style=bold]" * ((s, t) in bold)};'
                for s, t in arrows
            ],
            "}",
        ]
        return "\n".join(lines)


def _cycles(slope: Slope, m: int) -> tuple[IntervalPosition, str, range, range]:
    """The checked cycles of the length-m graph, read off the characteristic
    prefix c, with each vertex given as the start of its window in c.

    Returns the level of m, c, and the starts of the referent cycle's own
    vertices and then the other cycle's: a cycle runs from the right
    special vertex at r through its own vertices, then along the common
    path from the left special vertex at 0 to r - 1.  Builds no vertex
    string and no list of vertices.
    Refuses m as `words._language` does, before the prefix is built.
    """
    if m < 1:
        raise RangeError(f"window length must be >= 1, got {shown(m)}")
    pos, length = _language(slope, m)
    q_lo, q = slope.q(pos.n - 1), slope.q(pos.n)
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
    return pos, c, *owns


def build_graph(slope: Slope, m: int) -> RauzyGraph:
    """Graph of the length-m factors, built from a certified prefix, in
    time and memory linear in m and the prefix; m is refused as
    `words._language` refuses it, before the prefix is built.  Its vertex
    tuples hold window starts, each vertex one int object that every tuple
    shares."""
    pos, c, *owns = _cycles(slope, m)
    r = pos.r
    common = tuple(range(r + 1))
    referent_own, other_own = map(tuple, owns)
    right, path = common[r:], common[:r]
    referent = right + referent_own + path
    other = right + other_own + path
    # the other cycle leaves the common path at the right special vertex and
    # rejoins it at the left special one, at 0
    off = other[: len(other_own) + 1]
    return RauzyGraph(
        m=m,
        slope=slope,
        level=pos,
        prefix=c,
        vertices=common + referent_own + other_own,
        edges=(*zip(referent, referent[1:] + right), *zip(off, off[1:] + common[:1])),
        left_special=common[0],
        right_special=common[r],
        referent_cycle=referent,
        other_cycle=other,
        common_path=common,
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
        raise PrefixTooShortError(
            f"need at least {shown(m)} letters to form one window, got {len(word)}"
        )
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
    return _turns(source, m, slope, cycle, *_cycles(slope, m))


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
