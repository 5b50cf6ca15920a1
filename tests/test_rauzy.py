"""Tests for factor graphs: structure, cycles, common path, turning counts."""

import tracemalloc

import pytest

from sturmia import rauzy
from sturmia.acceptance import _standard_words as recursive_standard_words
from sturmia.errors import PrefixTooShortError, RangeError
from sturmia.intercept import zero
from sturmia.ostrowski import encode
from sturmia.rauzy import _laps, build_graph, count_turns
from sturmia.repetition import repetition_direct
from sturmia.slope import interval_locate, parse_slope
from sturmia.words import (
    MAX_STANDARD_LETTERS,
    characteristic_prefix,
    is_palindrome,
    shifted_characteristic_prefix,
)

GOLDEN = parse_slope("[0;1*]")
TWO_ONE = parse_slope("[0;2,(1)*]")
MIXED = parse_slope("[0;2,1,3,(2,1)*]")
ONE_THREE = parse_slope("[0;1,(3,1)*]")
THREES = parse_slope("[0;3*]")
SLOPES = [GOLDEN, TWO_ONE, MIXED, ONE_THREE, THREES]


# ------------------------------------------------------------------ structure


def test_golden_m2_structure():
    g = build_graph(GOLDEN, 2)
    assert g.level == (3, 0, 1)
    assert set(g.vertices) == {"10", "01", "11"}
    assert g.left_special == "10"
    assert g.right_special == "01"
    assert g.referent_cycle == ("01", "11", "10")
    assert g.other_cycle == ("01", "10")
    assert g.common_path == ("10", "01")


def test_edges_reuse_vertex_objects():
    for slope in SLOPES:
        g = build_graph(slope, 30)
        vertex_ids = {id(v) for v in g.vertices}
        assert all(id(s) in vertex_ids and id(t) in vertex_ids for s, t in g.edges)


def reference_factors(word: str, n: int) -> set[str]:
    """The scan that slices every window and keeps the distinct ones."""
    return {word[i : i + n] for i in range(len(word) - n + 1)}


@pytest.mark.parametrize("slope", SLOPES)
def test_vertices_and_arrows_are_the_factor_sets(slope):
    for m in [*range(1, 61), 2000]:
        g = build_graph(slope, m)
        pos = interval_locate(m, slope)
        word = characteristic_prefix(slope, 2 * (m + slope.q(pos.n + 1) + slope.q(pos.n)))
        vertices = reference_factors(word, m)
        arrows = {(w[:m], w[1:]) for w in reference_factors(word, m + 1)}
        assert len(vertices) == m + 1 and len(arrows) == m + 2
        assert g.vertices == tuple(sorted(vertices))
        assert g.edges == tuple(sorted(arrows))


def test_build_graph_memory_at_m_2000():
    tracemalloc.start()
    try:
        g = build_graph(GOLDEN, 2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(g.vertices) == 2001
    # the 2001 vertex strings take 4.1 MB; a second set of 2002 arrow
    # strings of 2001 letters would add as much again
    assert peak < 6 * 2**20


def test_golden_m4_structure():
    g = build_graph(GOLDEN, 4)
    assert g.level.n == 4 and g.level.l == 0 and g.level.r == 2
    assert len(g.referent_cycle) == 5
    assert len(g.other_cycle) == 3
    assert len(g.common_path) == 3


def test_golden_m1_degenerate_common_path():
    # the two special vertices coincide; the common path is a single vertex
    g = build_graph(GOLDEN, 1)
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

    monkeypatch.setattr(rauzy, "characteristic_prefix", no_prefix)
    # 10^4 + 1 vertex strings of 10^4 letters
    with pytest.raises(RangeError, match="needs 100010000 letters"):
        build_graph(GOLDEN, 10**4)
    # a short window whose prefix runs through the level of a huge quotient
    huge = parse_slope(f"[0;1,({MAX_STANDARD_LETTERS})*]")
    with pytest.raises(RangeError, match="needs 100000009 letters"):
        build_graph(huge, 5)


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
        g = build_graph(slope, m)
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
        g = build_graph(slope, m)
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
        g = build_graph(slope, m)
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
            assert path_edges <= set(g.cycle_edges(ring))


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


def reference_laps(word, g, ring):
    """Laps counted by scanning: the word's first repetition equals the
    cycle length and its first k + 1 windows walk exactly the cycle's
    arrows; then drop one lap's letters and look again."""
    k, m = len(ring), g.m
    turns = 0
    while repetition_direct(word, m) == k:
        lap = [word[i : i + m] for i in range(k + 1)]
        if {(lap[i], lap[i + 1]) for i in range(k)} != g.cycle_edges(ring):
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
        g = build_graph(slope, m)
        referent_bound = slope.quotient(g.level.n + 1) - g.level.l
        for ring, bound in ((g.referent_cycle, referent_bound), (g.other_cycle, 1)):
            k = len(ring)
            full = (bound + 2) * k + 3 * (m + 1)  # the length RauzyGraph.turns reads
            for shift in range(8):
                word = shifted_characteristic_prefix(slope, shift, full)
                # at the full length both count, and agree
                assert _laps(word, m, ring) == reference_laps(word, g, ring)
                for cut in range(full):
                    new = outcome(_laps, word[:cut], m, ring)
                    old = outcome(reference_laps, word[:cut], g, ring)
                    if old != "short":
                        assert new == old, (slope.quotients, m, k, shift, cut)
                    if new == "short":
                        assert old == "short", (slope.quotients, m, k, shift, cut)


def test_count_turns_memory_at_m_2000():
    tracemalloc.start()
    try:
        turns = count_turns(0, 2000, GOLDEN)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert turns == 1
    # the walk's 2001 window strings take 4.1 MB (count_turns builds no
    # sorted vertex or edge tuples); counting laps by letters adds no window
    # slices on top of them
    assert peak < 6 * 2**20


def test_turns_via_alpha_number_window():
    rho = encode(3, GOLDEN, 12)
    assert count_turns(rho, 4) == count_turns(3, 4, GOLDEN)


def test_count_turns_guards():
    with pytest.raises(ValueError):
        count_turns(0, 2, GOLDEN, cycle="central")
    with pytest.raises(ValueError):
        count_turns(0, 2)


@pytest.mark.parametrize(
    "source, slope, cycle",
    [
        (zero(GOLDEN, 30), TWO_ONE, "referent"),
        (zero(MIXED, 12), GOLDEN, "other"),
        (0, GOLDEN, "central"),
    ],
)
def test_count_turns_refuses_as_graph_turns_does(source, slope, cycle):
    # a window over another slope than the one given is refused, not
    # counted over its own slope
    with pytest.raises(ValueError) as graph_refusal:
        build_graph(slope, 5).turns(source, cycle)
    with pytest.raises(ValueError) as count_refusal:
        count_turns(source, 5, slope, cycle)
    assert str(count_refusal.value) == str(graph_refusal.value)


# ------------------------------------------------------------------------ dot


def test_dot_output_is_deterministic():
    g = build_graph(GOLDEN, 2)
    dot = g.to_dot()
    assert dot == build_graph(GOLDEN, 2).to_dot()
    assert dot.startswith("digraph")
    for v in g.vertices:
        assert f'"{v}"' in dot
    assert dot.count("->") == len(g.edges)


def test_turns_on_a_built_graph_match_count_turns():
    for slope in (GOLDEN, ONE_THREE, MIXED):
        for m in (1, 2, 5, 9, 17):
            graph = build_graph(slope, m)
            for shift in range(6):
                for cycle in ("referent", "other"):
                    assert graph.turns(shift, cycle) == count_turns(shift, m, slope, cycle)
            rho = encode(3, slope, 12)
            assert graph.turns(rho) == count_turns(rho, m)


def test_graph_turns_guards():
    graph = build_graph(GOLDEN, 3)
    with pytest.raises(ValueError, match="cycle must be"):
        graph.turns(0, cycle="central")
    with pytest.raises(ValueError, match="different slopes"):
        graph.turns(zero(MIXED, 12))
