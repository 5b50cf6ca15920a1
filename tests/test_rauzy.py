"""Tests for factor graphs: structure, cycles, common path, turning counts."""

import random
import sys
import tracemalloc
from collections import namedtuple
from math import gcd

import pytest

from sturmia import rauzy
from sturmia.acceptance import NAMED_FIVE
from sturmia.acceptance import _standard_words as recursive_standard_words
from sturmia.errors import DepthError, PrefixTooShortError, RangeError, SturmiaError
from sturmia.intercept import (
    AlphaNumber,
    _shift_window,
    max_certified_length,
    sturmian_prefix,
    zero,
)
from sturmia.ostrowski import encode
from sturmia.rauzy import RauzyGraph, _laps, build_graph, count_turns
from sturmia.repetition import repetition_direct
from sturmia.slope import (
    _NO_WORD,
    IntervalPosition,
    Slope,
    convergent_value,
    interval_locate,
    parse_slope,
)
from sturmia.words import (
    MAX_STANDARD_LETTERS,
    characteristic_prefix,
    is_palindrome,
    language_length,
    mechanical_prefix,
    shifted_characteristic_prefix,
    standard_word,
    window_walk,
)
from test_intercept import extensions, seeded_finite_slopes

GOLDEN = parse_slope("[0;1*]")
TWO_ONE = parse_slope("[0;2,(1)*]")
MIXED = parse_slope("[0;2,1,3,(2,1)*]")
ONE_THREE = parse_slope("[0;1,(3,1)*]")
THREES = parse_slope("[0;3*]")
SLOPES = [GOLDEN, TWO_ONE, MIXED, ONE_THREE, THREES]

# a graph as strings: its vertices and arrows as factors, sorted, and every
# other vertex as its factor
FactorView = namedtuple(
    "FactorView",
    "m slope level vertices edges left_special right_special"
    " referent_cycle other_cycle common_path",
)


def ring_arrows(ring: tuple) -> set[tuple]:
    """The arrows of a cycle given as its vertices in ring order."""
    return set(zip(ring, ring[1:] + ring[:1]))


def factor_view(g: RauzyGraph) -> FactorView:
    """The graph's factor view, each vertex v read as `g.prefix[v : v + g.m]`."""

    def f(v: int) -> str:
        return g.prefix[v : v + g.m]

    return FactorView(
        m=g.m,
        slope=g.slope,
        level=g.level,
        vertices=tuple(sorted(map(f, g.vertices))),
        edges=tuple(sorted((f(s), f(t)) for s, t in g.edges)),
        left_special=f(g.left_special),
        right_special=f(g.right_special),
        referent_cycle=tuple(map(f, g.referent_cycle)),
        other_cycle=tuple(map(f, g.other_cycle)),
        common_path=tuple(map(f, g.common_path)),
    )


# ------------------------------------------------------------------ structure


def test_golden_m2_structure():
    g = factor_view(build_graph(GOLDEN, 2))
    assert g.level == (3, 0, 1)
    assert set(g.vertices) == {"10", "01", "11"}
    assert g.left_special == "10"
    assert g.right_special == "01"
    assert g.referent_cycle == ("01", "11", "10")
    assert g.other_cycle == ("01", "10")
    assert g.common_path == ("10", "01")


def test_edges_reuse_vertex_objects():
    # at m = 2000 the starts pass the small ints Python keeps one copy of
    for slope in SLOPES:
        for m in (30, 2000):
            g = build_graph(slope, m)
            vertex_ids = {id(v) for v in g.vertices}
            assert all(id(s) in vertex_ids and id(t) in vertex_ids for s, t in g.edges)


def test_vertices_are_window_starts_in_the_prefix():
    # the common path, then each cycle's own vertices; the edges the
    # referent cycle in ring order, then the other cycle's off the path
    for slope in SLOPES:
        for m in (1, 2, 5, 30, 2000):
            g = build_graph(slope, m)
            r = g.level.r
            assert g.prefix == characteristic_prefix(slope, language_length(slope, m))
            assert all(type(v) is int for v in g.vertices)
            assert g.common_path == tuple(range(r + 1))
            assert (g.left_special, g.right_special) == (0, r)
            ring, other = g.referent_cycle, g.other_cycle
            off = other[: len(other) - r]
            assert g.vertices == g.common_path + ring[1 : len(ring) - r] + off[1:]
            assert g.edges == (*zip(ring, ring[1:] + ring[:1]), *zip(off, (*off[1:], 0)))


def reference_factors(word: str, n: int) -> set[str]:
    """The scan that slices every window and keeps the distinct ones."""
    return {word[i : i + n] for i in range(len(word) - n + 1)}


def test_dot_refuses_repeated_factors():
    # the one check that the m + 1 factors are distinct, an explicit raise
    # that python -O keeps
    for m in (1, 5, 40):
        g = build_graph(GOLDEN, m)
        repeated = g._replace(vertices=(*g.vertices[:-1], g.vertices[0]))
        with pytest.raises(AssertionError, match=f"^{m} length-{m} factors, expected {m + 1}$"):
            repeated.to_dot()


@pytest.mark.parametrize("slope", SLOPES)
def test_vertices_and_arrows_are_the_factor_sets(slope):
    # and the whole graph, through its factors and as dot, is the window
    # walk's
    for m in [*range(1, 61), 2000]:
        graph = build_graph(slope, m)
        g = factor_view(graph)
        pos = interval_locate(m, slope)
        word = characteristic_prefix(slope, 2 * (m + slope.q(pos.n + 1) + slope.q(pos.n)))
        vertices = reference_factors(word, m)
        arrows = {(w[:m], w[1:]) for w in reference_factors(word, m + 1)}
        assert len(vertices) == m + 1 and len(arrows) == m + 2
        assert g.vertices == tuple(sorted(vertices))
        assert g.edges == tuple(sorted(arrows))
        assert g == reference_graph(slope, m), m
        assert graph.to_dot() == reference_dot(g), m


def graph_peak(m):
    """build_graph(GOLDEN, m) and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        g = build_graph(GOLDEN, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(g.vertices) == m + 1
    return peak


def test_build_graph_memory_at_m_2000():
    # the vertices are window starts, not strings: the 2001 vertex strings
    # took 4.3 MB, where the starts, the arrows and the prefix take about
    # 0.25 MB, and count_turns reads the same cycles in about 0.05 MB
    assert graph_peak(2000) < 2**19


def test_build_graph_memory_at_m_8000():
    # 63 MB as strings, about 0.95 MB as starts (count_turns: about 0.19 MB)
    assert graph_peak(8000) < 2 * 2**20


def test_build_graph_reaches_past_the_vertex_string_budget():
    # 10^5 + 1 vertex strings would take 10^10 letters; the graph is read
    # off about 4 * 10^5, and only its dot rendering is refused
    g = build_graph(GOLDEN, 10**5)
    assert len(g.vertices) == 10**5 + 1 and len(g.edges) == 10**5 + 2
    n, l, r = g.level
    assert (len(g.referent_cycle), len(g.other_cycle)) == (GOLDEN.q(n), l * GOLDEN.q(n) + GOLDEN.q(n - 1))
    assert len(g.common_path) == r + 1
    c, m = g.prefix, g.m
    assert c[g.right_special : g.right_special + m] == c[g.left_special : g.left_special + m][::-1]
    with pytest.raises(RangeError, match="^window length 100000 needs 10000100000 letters"):
        g.to_dot()


def test_golden_m4_structure():
    g = build_graph(GOLDEN, 4)
    assert g.level.n == 4 and g.level.l == 0 and g.level.r == 2
    assert len(g.referent_cycle) == 5
    assert len(g.other_cycle) == 3
    assert len(g.common_path) == 3


def test_golden_m1_degenerate_common_path():
    # the two special vertices coincide; the common path is a single vertex
    g = factor_view(build_graph(GOLDEN, 1))
    assert g.left_special == g.right_special == "1"
    assert g.common_path == ("1",)
    assert len(g.referent_cycle) == 2
    assert g.other_cycle == ("1",)


def test_build_graph_rejects_zero():
    with pytest.raises(RangeError):
        build_graph(GOLDEN, 0)


def test_build_graph_letter_budget(monkeypatch):
    def no_prefix(*args):
        raise AssertionError("prefix built for a refused window length")

    class Unsliced(str):
        def __getitem__(self, at):
            raise AssertionError("factor sliced for a refused window length")

    # 10^4 + 1 vertex strings of 10^4 letters: the graph is built, and only
    # its dot rendering refuses them, before it slices a factor
    g = build_graph(GOLDEN, 10**4)
    with pytest.raises(RangeError, match="^window length 10000 needs 100010000 letters, more than 100000000$"):
        g._replace(prefix=Unsliced(g.prefix)).to_dot()
    monkeypatch.setattr(rauzy, "characteristic_prefix", no_prefix)
    # a short window whose prefix runs through the level of a huge quotient
    huge = parse_slope(f"[0;1,({MAX_STANDARD_LETTERS})*]")
    with pytest.raises(RangeError, match="needs 100000009 letters"):
        build_graph(huge, 5)


def test_a_finite_slope_refuses_by_the_letters_of_its_word():
    # m + q_3 + q_2 + 2 = 59193 letters, and the word certifies q_3 - 1 = 52385;
    # the window length is refused before a letter is built
    finite = parse_slope("[0;41,44,29]")
    message = "window length 5000 needs more than the 52385 letters the word of [0;41,44,29] certifies"
    for call in (build_graph, lambda slope, m: count_turns(0, m, slope), language_length):
        with pytest.raises(DepthError) as refusal:
            call(finite, 5000)
        assert str(refusal.value) == message
    assert finite._word == [_NO_WORD]
    # [0;3,2,2] certifies 16 letters: m = 4 reads all of them, m = 5 needs
    # more; from m = q_3 - 1 = 16 on, the level of m is past the word's a_3
    slope = parse_slope("[0;3,2,2]")
    assert language_length(slope, 4) == 16
    for m in (*range(5, 18), 30, 1000):
        refusal = rf"^window length {m} needs more than the 16 letters the word of \[0;3,2,2\] certifies$"
        for call in (build_graph, lambda slope, m: count_turns(0, m, slope), language_length):
            with pytest.raises(DepthError, match=refusal):
                call(slope, m)
    assert slope._word == [_NO_WORD]


def test_one_interval_locate_per_reading_of_the_cycles(monkeypatch):
    calls = []

    def counted(m, slope):
        calls.append(m)
        return interval_locate(m, slope)

    # every module of the package that binds it, so calls through a helper count
    for name, module in list(sys.modules.items()):
        if name.startswith("sturmia") and getattr(module, "interval_locate", 0) is interval_locate:
            monkeypatch.setattr(module, "interval_locate", counted)
    for slope in (*SLOPES, FINITE[0]):
        for m in (1, 2, 4, 30):
            if slope.known_depth is not None and m > 4:
                continue
            for call in (build_graph, lambda slope, m: count_turns(0, m, slope)):
                calls.clear()
                call(slope, m)
                assert calls == [m], (slope, m, call)


# --------------------------------------------------------------------- oracle


def reference_cycles(slope, m):
    """The graph by a checked walk, on the window ids and step table of
    `window_walk` over the whole language prefix: in-degrees find the left
    special vertex, and each cycle is walked from the letter by which it
    leaves the right special vertex.  It searches for no return word, so it
    is an independent build for build_graph to be checked against.

    Returns the level of m, the distinct length-m windows, the arrows as
    (window id, window id) pairs, and the ids along the referent cycle, the
    other cycle and the common path.
    """
    if m < 1:
        raise RangeError(f"window length must be >= 1, got {m}")
    length = language_length(slope, m)
    pos = interval_locate(m, slope)
    q_lo, q = slope.q(pos.n - 1), slope.q(pos.n)
    # build_graph's budget; the walk's m(m + 1) window letters stay far
    # below it at the lengths tested here
    if length > MAX_STANDARD_LETTERS:
        raise RangeError(
            f"window length {m} needs {length} letters, more than {MAX_STANDARD_LETTERS}"
        )
    windows, step = window_walk(characteristic_prefix(slope, length), m)
    if len(windows) != m + 1:
        raise AssertionError(f"{len(windows)} length-{m} factors, expected {m + 1}")
    arrows = [(i, j) for i, row in enumerate(step) for j in row.values()]
    if len(arrows) != m + 2:
        raise AssertionError(f"{len(arrows)} length-{m + 1} factors, expected {m + 2}")
    in_degree = [0] * len(windows)
    for _, j in arrows:
        in_degree[j] += 1
    (left,) = [i for i, d in enumerate(in_degree) if d == 2]
    (right,) = [i for i, row in enumerate(step) if len(row) == 2]

    def walk(vertex):
        path = []
        while vertex != right:
            path.append(vertex)
            (vertex,) = step[vertex].values()
        return path

    referent, other = (
        [right, *walk(step[right][rauzy._cycle_letter(n)])] for n in (pos.n - 1, pos.n)
    )
    lengths, expected = (len(referent), len(other)), (q, pos.l * q + q_lo)
    if lengths != expected:
        raise AssertionError(f"cycle lengths {lengths}, expected {expected}")
    if gcd(*lengths) != 1:
        raise AssertionError("cycle lengths are not coprime")
    path = [*walk(left), right]
    if len(path) != pos.r + 1:
        raise AssertionError(f"common path has {len(path)} vertices, expected {pos.r + 1}")
    return pos, windows, arrows, referent, other, path


def reference_graph(slope, m):
    """The factor view of the length-m graph, by the window walk."""
    pos, windows, arrows, *ids = reference_cycles(slope, m)
    referent, other, path = (tuple(windows[i] for i in ring) for ring in ids)
    return FactorView(
        m=m,
        slope=slope,
        level=pos,
        vertices=tuple(sorted(windows)),
        edges=tuple(sorted((windows[i], windows[j]) for i, j in arrows)),
        left_special=path[0],
        right_special=path[-1],
        referent_cycle=referent,
        other_cycle=other,
        common_path=path,
    )


def reference_rings(slope, m):
    pos, windows, _, *ids = reference_cycles(slope, m)
    return pos, tuple(tuple(windows[i] for i in ring) for ring in ids[:2])


def reference_turns(
    source: AlphaNumber | int,
    slope: Slope,
    pos: IntervalPosition,
    m: int,
    rings: tuple[tuple[str, ...], tuple[str, ...]],
    cycle: str,
) -> int:
    """Laps around the named cycle of `rings` (referent, other) at level
    `pos`, the rings given as vertex strings.

    Reads a prefix of the shifted word long enough to certify the most laps
    that cycle allows, as far as the word of the source's window certifies
    it; an integer shift is read as its window, `intercept._shift_window`.
    `reference_string_laps` certifies the count or raises
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
    if not isinstance(source, AlphaNumber):
        source = _shift_window(source, slope, length)
    word = sturmian_prefix(source, min(length, max_certified_length(source)))
    return reference_string_laps(word, m, ring)


def reference_string_laps(word: str, m: int, ring: tuple[str, ...]) -> int:
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


def start_rings(slope, m):
    """The characteristic prefix the cycles are read from, and the referent
    and other rings as runs of window starts in it, as count_turns hands
    them to `_laps`."""
    pos, c, *owns = rauzy._cycles(slope, m)
    r = pos.r
    return c, tuple((range(r, r + 1), own, range(r)) for own in owns)


def answer(call, *args):
    """The call's result, or its refusal as (type, message)."""
    try:
        return call(*args)
    except Exception as exc:
        return type(exc), str(exc)


def periodic_slopes_up_to_50(count, seed):
    """Periodic slopes, some with a head, with quotients drawn from 1..50."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        head = [rng.randint(1, 50) for _ in range(rng.randint(0, 2))]
        block = [rng.randint(1, 50) for _ in range(rng.randint(1, 3))]
        out.append(Slope((*head, *block), (len(head), len(block))))
    return out


FINITE = [parse_slope(s) for s in ("[0;3,2,2]", "[0;1,1,5,1]", "[0;7]")]
THOUSANDS = parse_slope("[0;1000*]")
ORACLE_SLOPES = list(
    dict.fromkeys([*SLOPES, *NAMED_FIVE, *periodic_slopes_up_to_50(12, 24), *FINITE, THOUSANDS])
)


def oracle_lengths(slope, seed):
    """Every m up to 150 and four seeded ones up to 3000."""
    rng = random.Random(f"{seed} {slope}")
    return [*range(1, 151), *sorted(rng.sample(range(151, 3001), 4))]


def assert_ends_are_vertices(g):
    vertex_ids = {id(v) for v in g.vertices}
    rest = [*(v for edge in g.edges for v in edge), *g.referent_cycle, *g.other_cycle]
    rest += [*g.common_path, g.left_special, g.right_special]
    assert {id(v) for v in rest} <= vertex_ids


@pytest.mark.parametrize("slope", ORACLE_SLOPES, ids=str)
def test_build_graph_matches_the_window_walk(slope):
    for m in oracle_lengths(slope, 1):
        g = answer(build_graph, slope, m)
        view = factor_view(g) if isinstance(g, RauzyGraph) else g
        assert view == answer(reference_graph, slope, m), (slope, m)
        if isinstance(g, RauzyGraph):
            assert_ends_are_vertices(g)


def reference_dot(view: FactorView) -> str:
    """The dot rendering of a factor view, as strings throughout."""
    lines = ["digraph rauzy {"]
    for v in view.vertices:
        marks = ["shape=box"] * (v == view.left_special) + ["peripheries=2"] * (v == view.right_special)
        lines.append(f'  "{v}"' + (f" [{','.join(marks)}]" if marks else "") + ";")
    bold = ring_arrows(view.referent_cycle)
    for s, t in view.edges:
        lines.append(f'  "{s}" -> "{t}"' + (" [style=bold]" if (s, t) in bold else "") + ";")
    return "\n".join(lines + ["}"])


@pytest.mark.parametrize("slope", ORACLE_SLOPES, ids=str)
def test_count_turns_matches_the_window_walk(slope):
    depth = slope.known_depth or 12
    windows = (zero(slope, depth), encode(3, slope, depth))
    for m in oracle_lengths(slope, 2)[::3]:
        rings = answer(reference_rings, slope, m)
        for source in (0, 3, 17, *windows):
            for cycle in ("referent", "other"):
                got = answer(count_turns, source, m, slope, cycle)
                if isinstance(rings[0], type):  # the graph itself is refused
                    assert got == rings
                else:
                    pos, cycles = rings
                    args = (source, slope, pos, m, cycles, cycle)
                    assert got == answer(reference_turns, *args), (slope, m, source, cycle)


def test_a_finite_slope_answers_within_its_prefix():
    # each cycle's return to the right special vertex lies inside the
    # m + q_{n+1} + q_n + 2 letters the graph reads, even where the word of
    # the finite slope [0;3,2,2] ends 17 letters in
    slope = FINITE[0]
    for m in (2, 3, 4):
        assert factor_view(build_graph(slope, m)) == reference_graph(slope, m)


def test_a_finite_slope_counts_turns_within_its_word():
    # the lap count reads at most the letters the finite word certifies, and
    # there its laps agree with those over the whole 17-letter word s_3 of
    # [0;3,2,2]: a_{n+1} - l around the referent cycle
    slope = FINITE[0]
    whole = standard_word(slope, slope.known_depth)
    assert len(whole) == 17
    for m, counts in ((1, (1, 0)), (2, (2, 0)), (3, (1, 0)), (4, (1, 0))):
        graph = factor_view(build_graph(slope, m))
        rings = (graph.referent_cycle, graph.other_cycle)
        assert tuple(reference_string_laps(whole, m, ring) for ring in rings) == counts, m
        c, starts = start_rings(slope, m)
        assert tuple(_laps(whole, m, c, ring) for ring in starts) == counts, m
        pos = graph.level
        assert counts[0] == slope.quotient(pos.n + 1) - pos.l
        for cycle, count in zip(("referent", "other"), counts):
            assert count_turns(0, m, slope, cycle) == count, (m, cycle)
    # a shift near the end of the word reads its window's letters: here the
    # first 6 agree with lap 2 of the referent cycle and leave the other
    for shift in (15, 16):
        with pytest.raises(PrefixTooShortError, match="^6 letters end inside lap 2 of a 3-cycle$"):
            count_turns(shift, 2, slope)
        assert count_turns(shift, 2, slope, "other") == 0
    # the digits of a shift past q_3 - 1 = 16 depend on quotients past a_3
    message = "^shift 17 passes the 16 letters the word of \\[0;3,2,2\\] certifies$"
    for cycle in ("referent", "other"):
        with pytest.raises(DepthError, match=message):
            count_turns(17, 2, slope, cycle)


def test_a_finite_slope_counts_turns_as_every_extension_does():
    # wherever count_turns answers on a finite slope, for an integer shift or
    # a window and around either cycle, the same shift or digits over three
    # infinite extensions of the quotients make as many laps
    rng = random.Random(35)
    answered = 0
    for slope in seeded_finite_slopes(60, 35):
        top = slope.known_depth
        q_top = slope.q(top)
        depths = [rng.randint(1, top) for _ in range(4)]
        windows = [encode(rng.randrange(slope.q(d)), slope, d) for d in depths]
        sources = [*(rng.randrange(q_top) for _ in range(4)), *windows]
        for m in range(1, q_top):
            needs = answer(language_length, slope, m)
            if type(needs) is not int or needs >= q_top:
                break  # the graph needs more letters than the word has, here and on
            for source in sources:
                for cycle in ("referent", "other"):
                    got = answer(count_turns, source, m, slope, cycle)
                    if type(got) is not int:
                        assert issubclass(got[0], SturmiaError), got
                        continue
                    answered += 1
                    for wider in extensions(slope):
                        same = source if type(source) is int else AlphaNumber(source.digits, wider)
                        assert count_turns(same, m, wider, cycle) == got, (slope, source, m)
        # the digits of a shift past the word's q_D - 1 letters depend on
        # quotients past a_D
        if type(answer(count_turns, 0, 1, slope)) is int:
            with pytest.raises(DepthError, match=f"^shift {q_top} passes the {q_top - 1} letters"):
                count_turns(q_top, 1, slope)
    assert answered > 12000


@pytest.mark.parametrize("slope", [*SLOPES, THOUSANDS], ids=str)
def test_an_integer_shift_turns_as_its_windows_do(slope):
    # count_turns reads a shift k as its window encode(k, slope, d): every
    # window of k counts as k does, or, too shallow for the letters the
    # count reads, refuses with PrefixTooShortError; from
    # d = max(level(k), level(m)) + 6 on, q_d passes k and those letters
    for m in (1, 2, 3, 5, 9, 17, 40, 150):
        for k in (0, 1, 2, 7, 30, 200, 1001):
            low = slope.level(k)
            deep = max(low, slope.level(m)) + 6
            for cycle in ("referent", "other"):
                expected = count_turns(k, m, slope, cycle)
                for d in range(low, deep + 1):
                    got = answer(count_turns, encode(k, slope, d), m, slope, cycle)
                    if got != expected:
                        refused = type(got) is tuple and got[0] is PrefixTooShortError
                        assert refused and d < deep, (k, m, d, got)


def test_a_large_shift_is_read_at_its_residue():
    # a shift k is read off the characteristic word from its residue at the
    # level of the letters read, so k = 10^9 builds a few hundred letters
    # where c[k:] would need 10^9, and the laps are those of T^k c, the upper
    # mechanical word of intercept (k + 1) alpha, here at a convergent far
    # past k
    golden = Slope((1,), (0, 1))  # a fresh slope, with no letters yet
    alpha = convergent_value(golden, 120)
    for k in (10**9, 10**15 + 3):
        word = mechanical_prefix(alpha, (k + 1) * alpha % 1, 400, "upper")
        for m in (1, 2, 5, 9, 17):
            c, starts = start_rings(golden, m)
            for cycle, ring in zip(("referent", "other"), starts):
                assert count_turns(k, m, golden, cycle) == _laps(word, m, c, ring), (k, m)
    kept = golden._word[0]  # s_-1, s_0, ..., the longest word read spells from
    assert len(kept) > 2 and len(kept[-1]) < 10**3


def test_count_turns_refuses_its_arguments_before_building_letters():
    # m = 10**6 would build about 3M letters before the cycles are read
    golden = Slope((1,), (0, 1))  # a fresh slope, with no letters yet
    with pytest.raises(ValueError, match="^cycle must be 'referent' or 'other', got 'bogus'$"):
        count_turns(0, 10**6, golden, "bogus")
    with pytest.raises(ValueError, match="^digit window and graph live over different slopes$"):
        count_turns(zero(MIXED, 40), 10**6, golden)
    assert golden._word == [_NO_WORD]


def flipped(prefix, at):
    """The prefix function with the letter at `at` of each prefix flipped."""

    def read(slope, n):
        word = prefix(slope, n)
        return word[:at] + "10"[int(word[at])] + word[at + 1 :]

    return read


def drawn(slope, m):
    """The graph's factor view and its dot rendering, which checks that the
    factors are distinct."""
    g = build_graph(slope, m)
    return factor_view(g), g.to_dot()


def test_a_flipped_prefix_letter_is_refused_or_changes_nothing(monkeypatch):
    # one wrong letter anywhere in the prefix either trips a check or leaves
    # the graph, as factors and as dot, and the turn counts as they are;
    # never a wrong answer
    true_prefix = rauzy.characteristic_prefix
    tally = {"refused": 0, "unchanged": 0}

    def refused_or_unchanged(calls, want, at, context):
        monkeypatch.setattr(rauzy, "characteristic_prefix", flipped(true_prefix, at))
        for (call, *args), expected in zip(calls, want):
            try:
                got = call(*args)
            except AssertionError:
                tally["refused"] += 1
                continue
            assert got == expected, (*context, at, call.__name__)
            tally["unchanged"] += 1
        monkeypatch.setattr(rauzy, "characteristic_prefix", true_prefix)

    rng = random.Random(2024)
    slopes = (GOLDEN, MIXED, THREES, parse_slope("[0;(7,2,30)*]"))
    for slope in slopes:
        for _ in range(160):
            m = rng.randint(1, 80)
            calls = [
                (drawn, slope, m),
                (count_turns, 0, m, slope),
                (count_turns, 1, m, slope, "other"),
            ]
            want = [call(*args) for call, *args in calls]
            at = rng.randrange(language_length(slope, m))
            refused_or_unchanged(calls, want, at, (slope, m))
    # the turn counts read no vertex string, so no check that the vertices
    # are distinct guards them: every flip at every short length
    for slope in slopes:
        for m in range(1, 31):
            calls = [(count_turns, 0, m, slope), (count_turns, 1, m, slope, "other")]
            want = [call(*args) for call, *args in calls]
            for at in range(language_length(slope, m)):
                refused_or_unchanged(calls, want, at, (slope, m))
    assert tally["refused"] > 0 and tally["unchanged"] > 0, tally


def reference_structure(g):
    """Special vertices, cycles and common path from string-keyed
    adjacency dicts over the public vertices and edges, cycles told apart
    by length."""
    out = {v: [] for v in g.vertices}
    incoming = {v: [] for v in g.vertices}
    for s, t in g.edges:
        out[s].append(t)
        incoming[t].append(s)
    (left,) = [v for v in g.vertices if len(incoming[v]) == 2]
    (right,) = [v for v in g.vertices if len(out[v]) == 2]
    cycles = []
    for first in out[right]:
        path, cur = [right], first
        while cur != right:
            path.append(cur)
            (cur,) = out[cur]
        cycles.append(tuple(path))
    by_len = {len(c): c for c in cycles}
    q = g.slope.q(g.level.n)
    referent, other = by_len[q], by_len[g.level.l * q + g.slope.q(g.level.n - 1)]
    path = [left]
    while path[-1] != right:
        (nxt,) = out[path[-1]]
        path.append(nxt)
    return left, right, referent, other, tuple(path)


@pytest.mark.parametrize("slope", SLOPES)
def test_cycles_and_common_path_match_string_adjacency(slope):
    for m in range(1, 61):
        g = factor_view(build_graph(slope, m))
        assert (
            g.left_special, g.right_special, g.referent_cycle, g.other_cycle, g.common_path
        ) == reference_structure(g)


@pytest.mark.parametrize("slope", SLOPES)
def test_cycle_length_law(slope):
    for m in range(1, 61):
        g = build_graph(slope, m)
        n, l, r = g.level
        assert len(g.referent_cycle) == slope.q(n)
        assert len(g.other_cycle) == l * slope.q(n) + slope.q(n - 1)
        # counting identity: cycles share exactly the common path
        assert len(g.referent_cycle) + len(g.other_cycle) == m + r + 2
        assert len(g.common_path) == r + 1


@pytest.mark.parametrize("slope", SLOPES)
def test_common_path_spells_central_word(slope):
    for m in range(1, 41):
        g = factor_view(build_graph(slope, m))
        n, l, r = g.level
        word = g.common_path[0] + "".join(v[-1] for v in g.common_path[1:])
        # the palindromic prefix of length m+r, i.e. the smallest central
        # factor of length >= m
        assert word == characteristic_prefix(slope, m + r)
        assert is_palindrome(word)
        if n >= 1:
            s = recursive_standard_words(slope, n)
            assert word == (s[n + 1] * (l + 1) + s[n])[:-2]


@pytest.mark.parametrize("slope", [GOLDEN, MIXED])
def test_edge_reversal_symmetry(slope):
    for m in (1, 2, 5, 9, 14):
        g = factor_view(build_graph(slope, m))
        edge_set = set(g.edges)
        assert {(t[::-1], s[::-1]) for s, t in edge_set} == edge_set


@pytest.mark.parametrize("slope", [GOLDEN, MIXED, ONE_THREE])
def test_special_arrows_avoid_common_path(slope):
    for m in (1, 3, 7, 12):
        g = build_graph(slope, m)
        path_edges = {
            (g.common_path[i], g.common_path[i + 1])
            for i in range(len(g.common_path) - 1)
        }
        for branch in [t for s, t in g.edges if s == g.right_special]:
            assert (g.right_special, branch) not in path_edges
        # both cycles contain the whole common path
        for ring in (g.referent_cycle, g.other_cycle):
            assert path_edges <= ring_arrows(ring)


def test_both_special_vertices_on_both_cycles():
    for m in (2, 4, 6, 10):
        g = build_graph(TWO_ONE, m)
        for ring in (g.referent_cycle, g.other_cycle):
            assert g.left_special in ring and g.right_special in ring


# -------------------------------------------------------------------- turning


def test_characteristic_turn_count_golden():
    # quotients are all 1 and l = 0 here: exactly one lap, never two
    assert count_turns(0, 2, GOLDEN) == 1
    assert count_turns(zero(GOLDEN, 12), 4) == 1


def test_characteristic_turn_count_matches_quotient_rule():
    for slope in (ONE_THREE, MIXED, THREES):
        for m in range(1, 25):
            pos = interval_locate(m, slope)
            expected = slope.quotient(pos.n + 1) - pos.l
            assert count_turns(0, m, slope) == expected, (slope.quotients, m)


def test_two_turns_on_branch_one():
    # level with quotient 3 entered at branch l = 1 leaves exactly 2 laps
    pos = interval_locate(9, ONE_THREE)
    assert pos.n == 3 and pos.l == 1
    assert count_turns(0, 9, ONE_THREE) == 2
    assert count_turns(1, 9, ONE_THREE) == 2


def test_shifted_words_turn_fewer_times():
    # a shift eats into the leading laps: counts only decrease with the shift
    for shift in range(0, 13):
        here = count_turns(shift, 9, ONE_THREE)
        assert 0 <= here <= 3


def test_no_word_turns_twice_around_other_cycle():
    for slope in (GOLDEN, MIXED):
        for m in (1, 2, 3, 5, 8, 12):
            for shift in range(0, 14):
                assert count_turns(shift, m, slope, cycle="other") <= 1


def reference_laps(word, m, ring):
    """Laps counted by scanning: the word's first repetition equals the
    cycle length and its first k + 1 windows walk exactly the cycle's
    arrows; then drop one lap's letters and look again."""
    k = len(ring)
    arrows = ring_arrows(ring)
    turns = 0
    while repetition_direct(word, m) == k:
        lap = [word[i : i + m] for i in range(k + 1)]
        if {(lap[i], lap[i + 1]) for i in range(k)} != arrows:
            break
        turns += 1
        word = word[k:]
    return turns


def outcome(count, *args):
    try:
        return count(*args)
    except PrefixTooShortError:
        return "short"


@pytest.mark.parametrize("slope", [GOLDEN, ONE_THREE, MIXED, THREES])
def test_laps_match_the_scanning_count(slope):
    for m in (1, 2, 3, 5, 9, 14):
        g = factor_view(build_graph(slope, m))
        c, starts = start_rings(slope, m)
        referent_bound = slope.quotient(g.level.n + 1) - g.level.l
        for ring, at, bound in zip((g.referent_cycle, g.other_cycle), starts, (referent_bound, 1)):
            k = len(ring)
            full = (bound + 2) * k + 3 * (m + 1)  # the length count_turns reads
            for shift in range(8):
                word = shifted_characteristic_prefix(slope, shift, full)
                # at the full length all three count, and agree
                assert reference_string_laps(word, m, ring) == reference_laps(word, m, ring)
                assert _laps(word, m, c, at) == reference_laps(word, m, ring)
                for cut in range(full):
                    strings = outcome(reference_string_laps, word[:cut], m, ring)
                    new = outcome(_laps, word[:cut], m, c, at)
                    old = outcome(reference_laps, word[:cut], m, ring)
                    assert new == strings, (slope.quotients, m, k, shift, cut)
                    if old != "short":
                        assert new == old, (slope.quotients, m, k, shift, cut)
                    if new == "short":
                        assert old == "short", (slope.quotients, m, k, shift, cut)


def test_count_turns_memory_at_m_8000():
    tracemalloc.start()
    try:
        turns = count_turns(0, 8000, GOLDEN)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert turns == 1
    # the 8001 vertices are window starts, not strings: those would take
    # 62 MB, where the starts, the prefix and the word read take about 1 MB
    assert peak < 2 * 2**20


@pytest.mark.parametrize("m", [10**4, 3 * 10**4])
def test_count_turns_reaches_past_the_vertex_string_budget(m):
    # m(m + 1) vertex letters would pass MAX_STANDARD_LETTERS; the prefix
    # the cycles are read from does not
    assert m * (m + 1) > MAX_STANDARD_LETTERS >= language_length(GOLDEN, m)
    assert count_turns(0, m, GOLDEN) == 1


def test_turns_via_alpha_number_window():
    rho = encode(3, GOLDEN, 12)
    assert count_turns(rho, 4) == count_turns(3, 4, GOLDEN)


def test_count_turns_guards():
    with pytest.raises(ValueError):
        count_turns(0, 2, GOLDEN, cycle="central")
    with pytest.raises(ValueError):
        count_turns(0, 2)


# ------------------------------------------------------------------------ dot


def test_dot_output_is_deterministic():
    g = build_graph(GOLDEN, 2)
    dot = g.to_dot()
    assert dot == build_graph(GOLDEN, 2).to_dot()
    assert dot.startswith("digraph")
    for v in g.vertices:
        assert f'"{g.prefix[v : v + g.m]}"' in dot
    assert dot.count("->") == len(g.edges)


def test_turns_from_one_reading_match_the_public_calls():
    # criterion 09 reads the cycles once for its vertices and count_turns
    for slope in (GOLDEN, ONE_THREE, MIXED):
        for m in (1, 2, 5, 9, 17):
            read = rauzy._cycles(slope, m)
            for shift in range(6):
                for cycle in ("referent", "other"):
                    turns = rauzy._turns(shift, m, slope, cycle, *read)
                    assert turns == count_turns(shift, m, slope, cycle)
            rho = encode(3, slope, 12)
            assert rauzy._turns(rho, m, slope, "referent", *read) == count_turns(rho, m)
