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
The searches are str.find on c, the vertex strings are slices of it, and
cycle lengths, coprimality, the common path and the m + 1 distinct
vertices cross-check the reading.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .errors import PrefixTooShortError, RangeError
from .intercept import AlphaNumber, sturmian_prefix
from .slope import IntervalPosition, Slope, interval_locate
from .words import (
    MAX_STANDARD_LETTERS,
    characteristic_prefix,
    language_length,
    shifted_characteristic_prefix,
)


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

    def turns(self, source: AlphaNumber | int, cycle: str = "referent") -> int:
        """Number of consecutive laps the shifted word makes around a cycle.

        `source` is a digit window over this graph's slope or a plain
        integer shift of the characteristic word.  Counting consumes one
        cycle length per lap; running out of certified letters raises
        rather than undercounts.
        """
        rings = (self.referent_cycle, self.other_cycle)
        return _turns(source, self.slope, self.level, self.m, rings, cycle)

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
    slope: Slope, m: int
) -> tuple[IntervalPosition, list[str], list[int], list[int], list[int]]:
    """The checked graph behind build_graph, read off the characteristic prefix.

    Returns the level of m, the m + 1 vertex strings, their ids in sorted
    order, and the ids along the referent cycle and the other cycle, both
    starting at the right special vertex.  The common path is ids 0 .. r,
    from the left special vertex to the right special one.
    Raises RangeError, before the prefix is built, when the m + 1 vertex
    strings or the prefix would hold more than MAX_STANDARD_LETTERS letters.
    """
    if m < 1:
        raise RangeError(f"window length must be >= 1, got {m}")
    pos = interval_locate(m, slope)
    q_lo, q = slope.q(pos.n - 1), slope.q(pos.n)
    length = language_length(slope, m)
    letters = max(m * (m + 1), length)  # the vertex strings, or the prefix they are read from
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
    windows = [c[i : i + m] for i in range(r + 1)]
    rings = []
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
        first = len(windows)
        windows += [c[i : i + m] for i in range(t + 1, t + k - r)]
        rings.append([r, *range(first, len(windows)), *range(r)])
    referent, other = rings
    lengths, expected = (len(referent), len(other)), (q, pos.l * q + q_lo)
    if lengths != expected:
        raise AssertionError(f"cycle lengths {lengths}, expected {expected}")
    if gcd(*lengths) != 1:
        raise AssertionError("cycle lengths are not coprime")
    order = sorted(range(len(windows)), key=windows.__getitem__)
    ranked = list(map(windows.__getitem__, order))
    # a repeated window sits next to its copy in sorted order
    distinct = len(ranked) - sum(map(str.__eq__, ranked, ranked[1:]))
    if distinct != m + 1:
        raise AssertionError(f"{distinct} length-{m} factors, expected {m + 1}")
    arrows = len(windows) + 1  # one out of each vertex, and a second out of the right special one
    if arrows != m + 2:
        raise AssertionError(f"{arrows} length-{m + 1} factors, expected {m + 2}")
    return pos, windows, order, referent, other


def build_graph(slope: Slope, m: int) -> RauzyGraph:
    """Graph of the length-m factors, built from a certified prefix.

    Raises RangeError, before the prefix is built, when the m + 1 vertex
    strings or the prefix would hold more than MAX_STANDARD_LETTERS letters.
    """
    pos, windows, order, *ids = _cycles(slope, m)
    referent, other = (tuple(map(windows.__getitem__, ring)) for ring in ids)
    after = [0] * len(windows)
    for ring in ids:
        for i, j in zip(ring, ring[1:] + ring[:1]):
            after[i] = j
    edges = [(windows[i], windows[after[i]]) for i in order]
    # the right special vertex has two arrows, whose targets differ in their
    # last letter
    at = order.index(pos.r)
    edges[at : at + 1] = sorted((windows[pos.r], windows[ring[1 % len(ring)]]) for ring in ids)
    return RauzyGraph(
        m=m,
        slope=slope,
        level=pos,
        vertices=tuple(map(windows.__getitem__, order)),
        # the arrows reuse the vertex string objects
        edges=tuple(edges),
        left_special=windows[0],
        right_special=referent[0],
        referent_cycle=referent,
        other_cycle=other,
        common_path=tuple(windows[: pos.r + 1]),
    )


def _turns(
    source: AlphaNumber | int,
    slope: Slope,
    pos: IntervalPosition,
    m: int,
    rings: tuple[tuple[str, ...], tuple[str, ...]],
    cycle: str,
) -> int:
    """Laps around the named cycle of `rings` (referent, other) at level
    `pos`.  Both entry points come here, so they refuse inputs alike.

    Reads a prefix of the shifted word long enough to certify the most laps
    that cycle allows.  The characteristic word of a finite slope
    [0; a_1, ..., a_D] may end sooner: an integer shift then reads the
    q_D - 1 letters that word certifies, less the shift (none once the
    shift passes them), and `_laps` certifies the count or raises
    PrefixTooShortError.
    """
    if cycle not in ("referent", "other"):
        raise ValueError(f"cycle must be 'referent' or 'other', got {cycle!r}")
    if isinstance(source, AlphaNumber) and source.slope != slope:
        raise ValueError("digit window and graph live over different slopes")
    ring = rings[cycle == "other"]
    k = len(ring)
    bound = slope.quotient(pos.n + 1) - pos.l if cycle == "referent" else 1
    length = (bound + 2) * k + 3 * (m + 1)
    if isinstance(source, AlphaNumber):
        word = sturmian_prefix(source, length)
    else:
        if slope.known_depth is not None:
            length = min(length, max(slope.q(slope.known_depth) - 1 - source, 0))
        word = shifted_characteristic_prefix(slope, source, length) if length else ""
    return _laps(word, m, ring)


def _laps(word: str, m: int, ring: tuple[str, ...]) -> int:
    """Whole laps the word's window path makes around the ring from its start.

    From ring[p] the path follows the ring for one lap exactly when the next
    k letters are the last letters of ring[p+1], ..., ring[p+k], back at
    ring[p]; so laps are counted by comparing letters.  Raises
    PrefixTooShortError when the word ends inside a lap that still agrees.
    """
    if len(word) < m:
        raise PrefixTooShortError(f"need at least {m} letters to form one window, got {len(word)}")
    try:
        p = ring.index(word[:m])
    except ValueError:
        return 0
    k = len(ring)
    tails = "".join(v[-1] for v in ring)
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
    characteristic word; `slope` defaults to the window's own.  Counts and
    refuses as RauzyGraph.turns does, but keeps only the graph's cycles: no
    vertex or edge tuples are built.
    """
    if slope is None and isinstance(source, AlphaNumber):
        slope = source.slope
    if slope is None:
        raise ValueError("integer shifts need an explicit slope")
    pos, windows, _, *ids = _cycles(slope, m)
    rings = tuple(tuple(map(windows.__getitem__, ring)) for ring in ids)
    return _turns(source, slope, pos, m, rings, cycle)
