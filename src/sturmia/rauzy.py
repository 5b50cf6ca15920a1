"""Factor graphs of a sturmian language at fixed window length.

At window length m the graph has the m+1 length-m factors as vertices and
the m+2 length-(m+1) factors as edges (w joins its prefix to its suffix).
One vertex is left special (two incoming arrows), one is right special (two
outgoing); the graph is the union of two cycles through the right special
vertex whose lengths q_n and l q_n + q_{n-1} are coprime, overlapping in a
common path that carries the longest central factor of length below the
next interval breakpoint.  Identification of the referent cycle is by
length; the successor-letter rule for the two special arrows cross-checks
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import PrefixTooShortError, RangeError
from .intercept import AlphaNumber, sturmian_prefix
from .repetition import repetition_direct
from .slope import IntervalPosition, Slope, interval_locate
from .words import characteristic_prefix, shifted_characteristic_prefix, window_walk


def _cycle_letter(level: int) -> str:
    # first letter of the two-letter tail of the standard word at this level
    return "1" if level % 2 == 0 else "0"


@dataclass(frozen=True)
class RauzyGraph:
    m: int
    slope: Slope
    level: IntervalPosition
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    left_special: str
    right_special: str
    referent_cycle: tuple[str, ...]
    other_cycle: tuple[str, ...]
    common_path: tuple[str, ...]

    def successors(self, vertex: str) -> tuple[str, ...]:
        return tuple(t for s, t in self.edges if s == vertex)

    def cycle_edges(self, cycle: tuple[str, ...]) -> frozenset[tuple[str, str]]:
        k = len(cycle)
        return frozenset((cycle[i], cycle[(i + 1) % k]) for i in range(k))

    def common_word(self) -> str:
        return self.common_path[0] + "".join(v[-1] for v in self.common_path[1:])

    def turns(self, source: AlphaNumber | int, cycle: str = "referent") -> int:
        """Number of consecutive laps the shifted word makes around a cycle.

        `source` is a digit window over this graph's slope or a plain
        integer shift of the characteristic word.  Counting consumes one
        cycle length per lap; running out of certified letters raises
        rather than undercounts.
        """
        if cycle not in ("referent", "other"):
            raise ValueError(f"cycle must be 'referent' or 'other', got {cycle!r}")
        if isinstance(source, AlphaNumber) and source.slope != self.slope:
            raise ValueError("digit window and graph live over different slopes")
        ring = self.referent_cycle if cycle == "referent" else self.other_cycle
        k = len(ring)
        bound = self.slope.quotient(self.level.n + 1) - self.level.l if cycle == "referent" else 1
        length = (bound + 2) * k + 3 * (self.m + 1)
        if isinstance(source, AlphaNumber):
            word = sturmian_prefix(source, length)
        else:
            word = shifted_characteristic_prefix(self.slope, source, length)
        turns = 0
        while _turns_once(word, self, ring):
            turns += 1
            word = word[k:]
        return turns

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


def build_graph(slope: Slope, m: int) -> RauzyGraph:
    """Graph of the length-m factors, built from a certified prefix."""
    if m < 1:
        raise RangeError(f"window length must be >= 1, got {m}")
    pos = interval_locate(m, slope)
    q_lo, q, q_hi = slope.q(pos.n - 1), slope.q(pos.n), slope.q(pos.n + 1)
    word = characteristic_prefix(slope, m + q_hi + q + 2)

    windows, step = window_walk(word, m)
    if len(windows) != m + 1:
        raise AssertionError(f"{len(windows)} length-{m} factors, expected {m + 1}")
    vertices = tuple(sorted(windows))
    # each step is one length-(m+1) factor; its arrow reuses the vertex strings
    edges = tuple(
        sorted((windows[i], windows[j]) for i, row in enumerate(step) for j in row.values())
    )
    if len(edges) != m + 2:
        raise AssertionError(f"{len(edges)} length-{m + 1} factors, expected {m + 2}")

    out: dict[str, list[str]] = {v: [] for v in vertices}
    incoming: dict[str, list[str]] = {v: [] for v in vertices}
    for s, t in edges:
        out[s].append(t)
        incoming[t].append(s)
    (left,) = [v for v in vertices if len(incoming[v]) == 2]
    (right,) = [v for v in vertices if len(out[v]) == 2]

    cycles = []
    for first in out[right]:
        path = [right]
        cur = first
        while cur != right:
            path.append(cur)
            (cur,) = out[cur]
        cycles.append(tuple(path))
    by_len = {len(c): c for c in cycles}
    if set(by_len) != {q, pos.l * q + q_lo}:
        raise AssertionError(f"cycle lengths {sorted(by_len)}, expected {q} and {pos.l * q + q_lo}")
    referent, other = by_len[q], by_len[pos.l * q + q_lo]
    if gcd(len(referent), len(other)) != 1:
        raise AssertionError("cycle lengths are not coprime")

    def first_target(cycle: tuple[str, ...]) -> str:
        return cycle[1] if len(cycle) > 1 else cycle[0]

    if first_target(referent) != right[1:] + _cycle_letter(pos.n - 1):
        raise AssertionError("referent cycle leaves the right special vertex by the wrong letter")
    if first_target(other) != right[1:] + _cycle_letter(pos.n):
        raise AssertionError("other cycle leaves the right special vertex by the wrong letter")

    path = [left]
    while path[-1] != right:
        (nxt,) = out[path[-1]]
        path.append(nxt)
    if len(path) != pos.r + 1:
        raise AssertionError(f"common path has {len(path)} vertices, expected {pos.r + 1}")

    return RauzyGraph(
        m=m,
        slope=slope,
        level=pos,
        vertices=vertices,
        edges=edges,
        left_special=left,
        right_special=right,
        referent_cycle=referent,
        other_cycle=other,
        common_path=tuple(path),
    )


def trace(word_prefix: str, m: int) -> tuple[str, ...]:
    """Vertex path visited by the sliding length-m window of the word."""
    if len(word_prefix) < m:
        raise PrefixTooShortError(
            f"need at least {m} letters to form one window, got {len(word_prefix)}"
        )
    return tuple(word_prefix[i : i + m] for i in range(len(word_prefix) - m + 1))


def _turns_once(word: str, graph: RauzyGraph, cycle: tuple[str, ...]) -> bool:
    """Does the word turn around the cycle: repetition equals the cycle
    length and the first lap follows exactly the cycle's arrows."""
    k = len(cycle)
    if repetition_direct(word, graph.m) != k:
        return False
    lap = trace(word[: k + graph.m], graph.m)
    walked = {(lap[i], lap[i + 1]) for i in range(k)}
    return walked == set(graph.cycle_edges(cycle))


def count_turns(
    source: AlphaNumber | int,
    m: int,
    slope: Slope | None = None,
    cycle: str = "referent",
) -> int:
    """Number of consecutive laps the shifted word makes around a cycle.

    `source` is either a digit window or a plain integer shift of the
    characteristic word.  Builds the graph of length-m factors and counts
    on it with RauzyGraph.turns.
    """
    if isinstance(source, AlphaNumber):
        slope = source.slope
    if slope is None:
        raise ValueError("integer shifts need an explicit slope")
    if cycle not in ("referent", "other"):
        raise ValueError(f"cycle must be 'referent' or 'other', got {cycle!r}")
    return build_graph(slope, m).turns(source, cycle)
