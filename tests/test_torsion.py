"""Block factorizations of parity words and continuant congruences."""

import itertools
import random
import re
from collections import namedtuple
from dataclasses import dataclass
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmia.acceptance import NAMED_FIVE
from sturmia.errors import DepthError, ParityError, RangeError, SturmiaError
from sturmia.intercept import (
    AlphaNumber,
    _default_tail,
    complement,
    equivalent,
    intercept_from_prefix,
)
from sturmia.ostrowski import decode, encode
from sturmia.slope import Slope, parse_slope
from sturmia.torsion import (
    MAX_RANK_WALK,
    TorsionHit,
    _check_self_dual_classes,
    _class_cuts,
    _cycle,
    _walk,
    b_factorize,
    complement_family,
    even_family,
    palindromic_center_word,
    parity_word,
    self_complementary,
    torsion_search,
)
from sturmia.words import characteristic_prefix, factor_set

GOLDEN = parse_slope("[0;1*]")
ONE_TWO = parse_slope("[0;(1,2)*]")
TWO_TWO = parse_slope("[0;2*]")
MIXED = parse_slope("[0;2,1,3,(2,1)*]")
HEADED = parse_slope("[0;3,(2,3,4)*]")


def all_words(max_len: int):
    for length in range(max_len + 1):
        for bits in itertools.product("01", repeat=length):
            yield "".join(bits)


def inventory(max_len: int) -> list:
    words = ["00", "01"]
    for k in range(max_len - 3 + 1):
        for x in "01":
            words.append("1" + "0" * k + "1" + x)
    return [w for w in words if len(w) <= max_len]


def headed_slopes(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        head = [rng.randint(1, 5) for _ in range(rng.randint(1, 4))]
        period = [rng.randint(1, 5) for _ in range(rng.randint(1, 4))]
        yield Slope(tuple(head + period), (len(head), len(period)))


# ----------------------------------------------------------- block inventory


def is_one_block(word: str) -> bool:
    return b_factorize(word).blocks == (word,)


def test_block_membership():
    for block in ("00", "01", "110", "111", "10010", "1000011"):
        assert is_one_block(block)
    for bad in ("", "0", "1", "10", "11", "010", "100", "1010 ", "10110", "0000"):
        assert not is_one_block(bad)
    # the scan reads a word as one block exactly when the explicit list has it
    blocks = frozenset(inventory(12))
    for u in all_words(12):
        assert is_one_block(u) == (u in blocks), u


def test_block_inventory_is_prefix_free():
    words = inventory(18)
    for a in words:
        for b in words:
            if a != b:
                assert not b.startswith(a)


def test_factorize_examples():
    fact = b_factorize("0001")
    assert fact.blocks == ("00", "01") and fact.complete
    assert fact.failure_at is None

    fact = b_factorize("10010")
    assert fact.blocks == ("10010",) and fact.complete

    fact = b_factorize("10000")
    assert fact.blocks == () and fact.leftover == "10000"
    assert fact.failure_at == 0

    fact = b_factorize("1" + "0" * 30)
    assert not fact.complete and fact.blocks == ()

    fact = b_factorize("0111010")
    assert fact.blocks == ("01", "110") and fact.leftover == "10"
    assert fact.failure_at == 5
    # leftover of a greedy scan is always a proper block prefix
    assert fact.leftover in ("0", "1") or set(fact.leftover[1:]) <= {"0"}


def test_exactly_one_of_three_scans_completes():
    # the finite trichotomy: u, 1u, 11u admit exactly one full block scan
    for u in all_words(16):
        done = sum(b_factorize(prefix + u).complete for prefix in ("", "1", "11"))
        assert done == 1, u


def test_factorization_count_matches_greedy():
    # count every block factorization by dynamic programming over the
    # explicit inventory; it being prefix-free, there is at most one and
    # greedy finds it
    blocks = frozenset(inventory(12))
    for u in all_words(12):
        ways = [0] * (len(u) + 1)
        ways[0] = 1
        for j in range(1, len(u) + 1):
            for i in range(j):
                if ways[i] and u[i:j] in blocks:
                    ways[j] += ways[i]
        assert ways[-1] <= 1
        assert (ways[-1] == 1) == b_factorize(u).complete


def greedy_factorize(u: str) -> tuple:
    """The block-by-block scan b_factorize used before its regular expression."""
    blocks = []
    pos = 0
    while pos < len(u):
        if u[pos] == "0":
            end = pos + 2
            if end > len(u):
                break
        else:
            one = u.find("1", pos + 1)
            if one < 0 or one + 2 > len(u):
                break
            end = one + 2
        blocks.append(u[pos:end])
        pos = end
    return tuple(blocks), u[pos:]


def test_factorize_matches_greedy_scan():
    blocks = frozenset(inventory(14))
    for u in all_words(14):
        fact = b_factorize(u)
        assert (fact.blocks, fact.leftover) == greedy_factorize(u), u
        assert blocks.issuperset(fact.blocks)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="01", max_size=60))
def test_trichotomy_property(u):
    done = sum(b_factorize(prefix + u).complete for prefix in ("", "1", "11"))
    assert done == 1


# -------------------------------------------------------------- parity words


def test_parity_word_text():
    assert parity_word(GOLDEN, 8) == "11111111"
    assert parity_word(MIXED, 7) == "0110101"
    assert parity_word(TWO_TWO, 5) == "00000"
    with pytest.raises(RangeError):
        parity_word(GOLDEN, 0)


def block_streams(y: str) -> list[tuple[int, tuple[str, ...]]]:
    """Reference: the three block streams of y as (first cut, blocks).

    They are the block lists of y, 1y and 11y, the last two without their
    first block, which covers the prepended letters; a block starting at
    1-based letter p of y cuts the continuant ladder at index p - 2.
    """
    base, one, two = (b_factorize(p + y).blocks for p in ("", "1", "11"))
    return [(-1, base), (len(one[0]) - 2, one[1:]), (len(two[0]) - 3, two[1:])]


def stream_cuts(first: int, blocks: tuple[str, ...]) -> list[int]:
    """Every cut of a block stream: one per block start, one after the last."""
    cuts = [first]
    for block in blocks:
        cuts.append(cuts[-1] + len(block))
    return cuts


def test_class_cuts_constant_one():
    assert block_streams("1" * 21)[0] == (-1, ("111",) * 7)
    assert _class_cuts("1" * 21) == [
        [2, 5, 8, 11, 14, 17, 20],
        [1, 4, 7, 10, 13, 16, 19],
        [0, 3, 6, 9, 12, 15, 18],
    ]


def test_class_cuts_alternating():
    assert block_streams("10" * 10) == [(-1, ("1010",) * 5), (1, ("1010",) * 4), (0, ("01",) * 9)]
    assert _class_cuts("10" * 10) == [
        [3, 7, 11, 15, 19],
        [1, 5, 9, 13, 17],
        [0, 2, 4, 6, 8, 10, 12, 14, 16, 18],
    ]


def test_class_cuts_guards():
    # a stream of fewer than two blocks certifies nothing
    for y in ("100000", "11", "1" * 4 + "0"):
        with pytest.raises(ParityError, match="^window too short to certify the three block streams$"):
            _class_cuts(y)


def test_class_cuts_are_the_block_stream_cuts_from_index_0():
    rng = random.Random(20261021)
    refused = 0
    for _ in range(3000):
        y = "".join(rng.choice("0111") for _ in range(rng.randint(2, 40)))
        if min(len(b_factorize(p + y).blocks) for p in ("", "1", "11")) < 2:
            with pytest.raises(ParityError):
                _class_cuts(y)
            refused += 1
            continue
        expected = [[d for d in stream_cuts(*stream) if d >= 0] for stream in block_streams(y)]
        assert _class_cuts(y) == expected, y
    assert 200 < refused < 600


# ---------------------------------------------------- halved ladder identities


@pytest.mark.parametrize("slope", [GOLDEN, ONE_TWO, MIXED])
def test_block_ladder_identities(slope):
    # doubled forms of the per-block glue identities, pure ladder algebra
    q = slope.q
    for i in range(13):
        a = slope.quotient(i + 2)
        assert q(i + 2) - q(i) == a * q(i + 1)
        for k in range(9):
            lhs = q(i + 3 + k) - q(i)
            rhs = (slope.quotient(i + 3 + k) - 1) * q(i + 2 + k)
            rhs += sum(
                slope.quotient(i + 2 + l) * q(i + 1 + l) for l in range(1, k + 1)
            )
            rhs += (slope.quotient(i + 2) + 1) * q(i + 1)
            assert lhs == rhs


def test_fibonacci_closing_identities():
    q = GOLDEN.q
    for n in range(11):
        assert q(n + 3) - q(n) == 2 * q(n + 1)
        assert q(n + 6) - q(n) == 4 * q(n + 3)
        assert q(n + 8) - q(n) == 3 * (q(n + 5) + q(n + 3))
        assert q(n + 20) - q(n) == 5 * (
            q(n + 16) + q(n + 13) + q(n + 11) + q(n + 9) + q(n + 6) + q(n + 3)
        )


# ------------------------------------------------------ self-dual intercepts


def test_self_complementary_golden():
    classes = self_complementary(GOLDEN, 21)
    supports = [sorted(rho.support()) for rho in classes]
    assert supports[0] == [3, 6, 9, 12, 15, 18]
    assert supports[1] == [2, 5, 8, 11, 14, 17]
    assert supports[2] == [1, 4, 7, 10, 13, 16]
    # the offset-0 class is fixed digit for digit, not only up to tails
    comp = complement(classes[0])
    assert comp.digits == classes[0].digits[: comp.depth]


def test_self_complementary_one_two():
    classes = self_complementary(ONE_TWO, 20)
    supports = [sorted(rho.support()) for rho in classes]
    assert supports[0] == [4, 5, 8, 9, 12, 13, 16, 17]
    assert supports[1] == [2, 3, 6, 7, 10, 11, 14, 15]
    assert supports[2] == [1, 3, 5, 7, 9, 11, 13, 15, 17]
    for rho in classes:
        assert equivalent(rho, complement(rho)).equivalent
    for a, b in itertools.combinations(classes, 2):
        assert not equivalent(a, b).equivalent


def test_self_complementary_needs_odd_quotients():
    with pytest.raises(ParityError):
        self_complementary(TWO_TWO, 20)


def quotient_reads(monkeypatch) -> list[int]:
    """The indices i of every a_i that Slope.quotient returns from now on."""
    reads = []
    quotient = Slope.quotient

    def spy(slope, i):
        value = quotient(slope, i)
        reads.append(i)
        return value

    monkeypatch.setattr(Slope, "quotient", spy)
    return reads


def test_self_complementary_asks_the_ladder_before_the_parity_word(monkeypatch):
    # parity_word asks the ladder for the window before it reads a quotient
    reads = quotient_reads(monkeypatch)
    for depth in (10**7, 10**30):
        with pytest.raises(RangeError, match=f"^continuants through q_{depth} would hold more"):
            self_complementary(GOLDEN, depth)
    # an eventually even slope past the budget: the ladder refuses before ParityError
    with pytest.raises(RangeError, match="^continuants through q_10000000 would hold more"):
        self_complementary(TWO_TWO, 10**7)
    # a finite slope read past its depth: the ladder's refusal, worded as the parity word's was
    with pytest.raises(DepthError, match=r"^a_4 requested but only 3 quotients are known$"):
        self_complementary(Slope((1, 2, 3)), 20)
    assert reads == []
    # within the budget the parity word is built as before, after the ladder
    with pytest.raises(ParityError):
        self_complementary(TWO_TWO, 20)
    with pytest.raises(RangeError, match="^depth must be >= 1, got 0$"):
        self_complementary(GOLDEN, 0)
    assert len(self_complementary(GOLDEN, 21)) == 3


@pytest.mark.parametrize(
    "walk, error, message",
    [
        # a depth past the ladder's budget is refused before any quotient is read
        (lambda: parity_word(GOLDEN, 10**5), RangeError, "continuants through q_100000 would"),
        (lambda: parity_word(GOLDEN, 10**30), RangeError, f"continuants through q_{10**30} would"),
        (lambda: even_family(TWO_TWO, 10**6), RangeError, "continuants through q_1000000 would"),
        (
            lambda: even_family(TWO_TWO, 10**5000),
            RangeError,
            "continuants through q_<an integer of 16610 bits> would",
        ),
        # a finite slope read past its depth names a_{D+1}
        (lambda: even_family(Slope((2, 2, 2)), 5), DepthError, "a_4 requested but only 3"),
        (lambda: parity_word(Slope((2, 2, 2)), 5), DepthError, "a_4 requested but only 3"),
    ],
)
def test_the_walks_over_quotients_ask_the_ladder_first(monkeypatch, walk, error, message):
    reads = quotient_reads(monkeypatch)
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        walk()
    assert reads == []


@pytest.mark.parametrize(
    "build, literal, depth, reason",
    [
        # the window cannot tell two classes apart
        (self_complementary, "[0;(3,1,2,1,1,1,2,2,1,1,2,1)*]", 14, "classes 1 and 2 are equivalent"),
        # the even tail is too short for a class to match its complement
        (even_family, "[0;(2,4,6,4,3,6,4)*]", 59, "is not equivalent to its complement"),
        # a class window is a natural integer, which the complement refuses
        (self_complementary, "[0;1*]", 9, "natural-integer windows have no complement"),
        (self_complementary, "[0;2,1,3,(2,1)*]", 17, "natural-integer windows have no complement"),
    ],
)
def test_self_dual_classes_too_shallow_to_certify(build, literal, depth, reason):
    with pytest.raises(DepthError, match=f"depth {depth} is too shallow to certify") as info:
        build(parse_slope(literal), depth)
    assert reason in str(info.value)


def halved_blocks(slope, depth, stream):
    """Reference: half the ladder difference of a block stream, block by block.

    Each block between cuts d < d' inside [0, depth - 1] halves
    q_{d'} - q_d into coefficients of q_{d+1}..q_{d'-1}, under the parity
    its letters promise; the halves sum to the window's value.
    """
    bounds = stream_cuts(*stream)
    pairs = [
        (bounds[j], block)
        for j, block in enumerate(stream[1])
        if bounds[j] >= 0 and bounds[j + 1] <= depth - 1
    ]
    assert len(pairs) >= 2
    coeffs = [0] * depth
    for d, block in pairs:
        if block in ("00", "01"):
            a = slope.quotient(d + 2)
            assert a % 2 == 0
            coeffs[d + 1] += a // 2
        else:
            k = len(block) - 3
            lo, hi = slope.quotient(d + 2), slope.quotient(d + 3 + k)
            assert lo % 2 == 1 and hi % 2 == 1
            coeffs[d + 1] += (lo + 1) // 2
            for l in range(1, k + 1):
                middle = slope.quotient(d + 2 + l)
                assert middle % 2 == 0
                coeffs[d + 1 + l] += middle // 2
            coeffs[d + 2 + k] += (hi - 1) // 2
    assert all(0 <= c <= slope.quotient(i + 1) for i, c in enumerate(coeffs))
    value = sum(c * slope.q(i) for i, c in enumerate(coeffs))
    first, last = pairs[0][0], pairs[-1][0] + len(pairs[-1][1])
    assert 2 * value == slope.q(last) - slope.q(first)
    return value


# seeded slopes with an odd quotient in the period, so their parity words
# are not eventually even
ODD_TAILED = [s for s in headed_slopes(16, 17) if any(a % 2 for a in s.quotients[s.period[0] :])]


@pytest.mark.parametrize("slope", [*NAMED_FIVE, *ODD_TAILED], ids=str)
def test_self_complementary_matches_block_halving(slope):
    checked = 0
    for depth in range(16, 45):
        try:
            classes = self_complementary(slope, depth)
        except SturmiaError:
            continue  # too few odd quotients, or a zero-class window
        for rho, stream in zip(classes, block_streams(parity_word(slope, depth))):
            assert rho.digits == encode(halved_blocks(slope, depth, stream), slope, depth).digits
            checked += 1
    assert checked >= 3 * 25


def test_even_family_two_two():
    s0, s1, s2 = even_family(TWO_TWO, 20)
    assert sorted(s0.support()) == list(range(2, 20, 2))
    assert sorted(s1.support()) == list(range(3, 20, 2))
    assert sorted(s2.support()) == list(range(2, 20))
    assert set(s2.digits[2:]) == {1}
    # with q_1 - 2 = 0 the even-position class is literally its own dual
    comp = complement(s0)
    assert comp.digits == s0.digits[: comp.depth]
    for rho in (s0, s1, s2):
        assert equivalent(rho, complement(rho)).equivalent
    with pytest.raises(ParityError):
        even_family(GOLDEN, 20)


def built_even_classes(slope, depth):
    """The three even-family windows, built without the early tail check."""
    start = depth + 1
    while start > 1 and slope.quotient(start - 1) % 2 == 0:
        start -= 1
    digits = [[0] * depth for _ in range(3)]
    for pos in range(2 * ((start + 1) // 2), depth):
        half = slope.quotient(pos + 1) // 2
        digits[pos % 2][pos] = digits[2][pos] = half
    return tuple(AlphaNumber(tuple(d), slope) for d in digits)


def test_even_family_refuses_short_even_tails_early():
    rng = random.Random(20261018)
    refused = built = 0
    margins = set()  # even tail less the shared tail `equivalent` asks, per refusal
    # odd and even heads, periods up to 12 long, large even quotients and
    # up to two odd quotients per period
    for _ in range(60):
        head = [rng.randint(1, 9) for _ in range(rng.randint(0, 6))]
        period = [rng.choice((2, 4, 6, 8, 10, 20, 50)) for _ in range(rng.randint(1, 12))]
        if rng.random() < 0.7:
            for _ in range(rng.randint(1, 2)):
                period[rng.randrange(len(period))] = rng.choice((1, 3, 5, 7, 9, 21))
        slope = Slope(tuple(head + period), (len(head), len(period)))
        for depth in range(6, 60):
            try:
                classes = even_family(slope, depth)
            except ParityError:
                continue
            except DepthError as exc:
                tail = re.search(r"even tail of (\d+) < (\d+) levels", str(exc))
                if tail is None:
                    continue
                refused += 1
                margins.add(int(tail[1]) - _default_tail(depth))
                with pytest.raises(DepthError, match="is not equivalent to its complement"):
                    _check_self_dual_classes(built_even_classes(slope, depth))
            else:
                built += 1
                assert classes == built_even_classes(slope, depth)
    assert refused > 50 and built > 500
    # margins 0 and 1 are refused too, and no longer tail is
    assert {0, 1} <= margins and max(margins) == 1


def test_complement_family_golden():
    report = complement_family({2, 4, 6, 8, 10}, GOLDEN, 24)
    assert report.ok and report.even_ok and report.odd_ok
    report = complement_family({2, 5, 8, 11}, GOLDEN, 24)
    assert report.ok
    with pytest.raises(RangeError):
        complement_family({1, 3}, GOLDEN, 24)
    with pytest.raises(DepthError):
        complement_family({2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, GOLDEN, 24)


def test_complement_of_sparse_even_window():
    # support {4, 8, 12} pairs with {1, 6, 10}: the complementary even
    # levels plus the depth-3 remainder folded into the bottom digit
    digits = [0] * 16
    for i in (4, 8, 12):
        digits[i] = 1
    comp = complement(AlphaNumber(tuple(digits), GOLDEN))
    assert sorted(comp.support()) == [1, 6, 10]


# ------------------------------------------------------------- mod-N machine


def walked_states(slope, modulus, depth):
    """The states (q_n, p_n) mod the modulus, n = 0 .. depth, that `_walk`
    yields: the walk `_cycle` and `torsion_search` read."""
    return [state for state, _ in islice(_walk(slope, modulus), depth + 1)]


def cycle_rank(slope, modulus, depth):
    """`_cycle`'s default rank, or DepthError when the cycle does not close
    by level `depth`, as in `full_walk_rank`."""
    n0 = _cycle(slope, modulus, depth)
    if n0 is None:
        raise DepthError("window too shallow to close the state cycle")
    return n0


def test_automaton_golden_mod2():
    log = full_walk_automaton_states(GOLDEN, 2, 30)
    assert (log.n0, log.preperiod, log.period) == (0, 0, 3)
    assert log.states[:4] == ((1, 0), (1, 1), (0, 1), (1, 0))
    assert log.recurring == {(1, 0), (1, 1), (0, 1)}
    assert _cycle(GOLDEN, 2, 30) == 0
    assert walked_states(GOLDEN, 2, 30) == list(log.states)


def test_automaton_two_two_mod2():
    log = full_walk_automaton_states(TWO_TWO, 2, 20)
    assert log.period == 2
    assert set(log.states) == {(1, 0), (0, 1)}
    assert _cycle(TWO_TWO, 2, 20) == 0


@pytest.mark.parametrize("slope", [GOLDEN, TWO_TWO, ONE_TWO, MIXED])
@pytest.mark.parametrize("modulus", [2, 3, 4, 5])
def test_automaton_state_bounds(slope, modulus):
    states = walked_states(slope, modulus, 120)
    assert len(set(states)) <= modulus * modulus
    assert (0, 0) not in states
    for n, state in enumerate(states):
        assert state[0] == slope.q(n) % modulus


def matrix_walk_states(slope, modulus, depth):
    """Reference: first columns of the products [[a_1, 1], [1, 0]] ... [[a_n, 1], [1, 0]] mod N."""
    mat = ((1, 0), (0, 1))
    states = [(1, 0)]
    for n in range(1, depth + 1):
        a = slope.quotient(n) % modulus
        (x, y), (z, w) = mat
        mat = ((x * a + y) % modulus, x % modulus), ((z * a + w) % modulus, z % modulus)
        states.append((mat[0][0], mat[1][0]))
    return states


@pytest.mark.parametrize("slope", [GOLDEN, TWO_TWO, ONE_TWO, MIXED, HEADED, *headed_slopes(6, 5)])
@pytest.mark.parametrize("modulus", [2, 3, 5, 7])
def test_automaton_states_match_matrix_walk(slope, modulus):
    assert walked_states(slope, modulus, 150) == matrix_walk_states(slope, modulus, 150)


def quotient_position(slope, i):
    """Reference: the index of a_i in slope.quotients, folding the period."""
    if slope.period is None or i <= len(slope.quotients):
        return i - 1
    start, length = slope.period
    return start + (i - 1 - start) % length


WalkLog = namedtuple("WalkLog", "states recurring n0 preperiod period")


def full_walk_automaton_states(slope, modulus, depth):
    """Reference: walk all `depth` levels first, then look for the first repeat."""
    walk = [(0, 1), (1, 0)]
    for n in range(1, depth + 1):
        a = slope.quotient(n)
        (q0, p0), (q1, p1) = walk[-2], walk[-1]
        walk.append(((a * q1 + q0) % modulus, (a * p1 + p0) % modulus))
    states = walk[1:]
    seen = {}
    cycle = None
    for n in range(depth + 1):
        key = (walk[n + 1], walk[n], quotient_position(slope, n + 1))
        if key in seen:
            cycle = (seen[key], n)
            break
        seen[key] = n
    if cycle is None:
        raise DepthError("window too shallow to close the state cycle")
    first, again = cycle
    recurring = frozenset(states[first:again])
    n0 = first
    while n0 > 0 and states[n0 - 1] in recurring:
        n0 -= 1
    return WalkLog(tuple(states), recurring, n0, first, again - first)


def full_walk_rank(slope, modulus, depth):
    return full_walk_automaton_states(slope, modulus, depth).n0


def outcome(call, *args):
    """What a call returns, or the type and text of the DepthError it raises."""
    try:
        return call(*args)
    except DepthError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("slope", [GOLDEN, TWO_TWO, ONE_TWO, MIXED, HEADED, *headed_slopes(6, 5)])
@pytest.mark.parametrize("modulus", [2, 3, 5, 7])
def test_cycle_rank_matches_the_full_walk(slope, modulus):
    for depth in (1, 4, 9, 150):
        assert outcome(cycle_rank, slope, modulus, depth) == outcome(
            full_walk_rank, slope, modulus, depth
        )


def test_cycle_rank_matches_the_full_walk_on_headed_and_finite_slopes():
    finite = [Slope((1, 2, 3)), Slope((2, 1, 1, 4, 1))]
    for slope in [*headed_slopes(600, 11), *finite]:
        for modulus in (2, 3, 4):
            for depth in (3, 200):
                assert outcome(cycle_rank, slope, modulus, depth) == outcome(
                    full_walk_rank, slope, modulus, depth
                )
                assert outcome(walked_states, slope, modulus, depth) == outcome(
                    matrix_walk_states, slope, modulus, depth
                )
    # the default rank's walk mod 64: the cycle closes at level 96
    log = full_walk_automaton_states(GOLDEN, 64, 8 * 64 * 64)
    assert (log.n0, log.preperiod, log.period) == (0, 0, 96)
    assert _cycle(GOLDEN, 64, 96) == 0
    assert _cycle(GOLDEN, 64, 95) is None


def reference_torsion_search(slope, modulus, n, k_max):
    """Reference: `torsion_search` on continuants from one `quotient(i)` per level."""
    if n is None:
        n = full_walk_rank(slope, modulus, 400)
    top = n + k_max + 2
    q = [0, 1]
    for i in range(1, top + 1):
        q.append(slope.quotient(i) * q[-1] + q[-2])
    states = matrix_walk_states(slope, modulus, top)
    for k in range(2, k_max + 1):
        difference = q[n + k + 1] - q[n + 1]
        if difference % modulus:
            continue
        digits = encode(difference // modulus, slope, top)
        if all(n < s < n + k for s in digits.support()):
            return TorsionHit(True, modulus, n, k, digits.digits, digits.support(), tuple(states[n : n + k + 1]))
    reason = f"no admissible k <= {k_max} from n = {n}"
    return TorsionHit(False, modulus, n, None, None, None, tuple(states[n : n + k_max + 1]), reason)


@pytest.mark.parametrize("text", ["[0;1,1,5,1]", "[0;7]", "[0;2,3,(1,2)*]", "[0;2,1,3,4,1,1]", "[0;3,(2,3,4)*]"])
@pytest.mark.parametrize("grown", [None, 3, 30])
def test_walks_read_the_quotient_run_as_one_quotient_per_level(text, grown):
    # the ladder, grown or not, does not change what the walks read
    slope = parse_slope(text)
    if grown is not None:
        outcome(slope.q, grown)
    for modulus in (2, 3, 4, 5):
        for depth in (1, 2, 4, 5, 6, 7, 40):
            assert outcome(cycle_rank, slope, modulus, depth) == outcome(
                full_walk_rank, slope, modulus, depth
            ), (modulus, depth)
            assert outcome(walked_states, slope, modulus, depth) == outcome(
                matrix_walk_states, slope, modulus, depth
            ), (modulus, depth)
        for n in (None, 0, 1, 3):
            for k_max in (2, 3, 8):
                assert outcome(torsion_search, slope, modulus, n, k_max) == outcome(
                    reference_torsion_search, slope, modulus, n, k_max
                ), (modulus, n, k_max)


def assert_cycle_repeats(slope, log):
    """From the preperiod on, states and quotients read repeat with the period."""
    first, period = log.preperiod, log.period
    for n in range(first, len(log.states) - period):
        assert log.states[n] == log.states[n + period], (str(slope), n)
        assert slope.quotient(n + 1) == slope.quotient(n + 1 + period), (str(slope), n)
    assert log.recurring == set(log.states[first : first + period])


def test_automaton_cycle_after_a_head():
    log = full_walk_automaton_states(HEADED, 3, 60)
    assert (log.preperiod, log.period) == (1, 6)
    assert_cycle_repeats(HEADED, log)
    assert _cycle(HEADED, 3, 60) == log.n0


def test_automaton_cycles_repeat_on_headed_slopes():
    for slope in headed_slopes(600, 11):
        for modulus in (2, 3, 4):
            log = full_walk_automaton_states(slope, modulus, 200)
            assert_cycle_repeats(slope, log)
            assert _cycle(slope, modulus, 200) == log.n0


@pytest.mark.parametrize(
    "modulus,k,support",
    [(2, 3, {5}), (4, 6, {7}), (3, 8, {7, 9}), (5, 20, {7, 10, 13, 15, 17, 20})],
)
def test_torsion_search_golden_canonical(modulus, k, support):
    hit = torsion_search(GOLDEN, modulus, n=4)
    assert hit.found and hit.k == k
    assert hit.support == support
    assert len(hit.state_trace) == k + 1
    assert hit.state_trace[0][0] == hit.state_trace[-1][0]


def test_torsion_search_default_rank():
    hit = torsion_search(GOLDEN, 2)
    assert (hit.n, hit.k, hit.support) == (0, 3, {1})
    hit = torsion_search(TWO_TWO, 2)
    assert (hit.n, hit.k, hit.support) == (0, 2, {1})


@pytest.mark.parametrize("slope", NAMED_FIVE, ids=str)
def test_default_rank_is_the_long_walk_n0(slope):
    # the rank a walk to the cycle reads is the n0 of a log far past it
    for modulus in range(2, 71):
        n0 = full_walk_rank(slope, modulus, max(80, 8 * modulus * modulus))
        assert torsion_search(slope, modulus, k_max=2).n == n0, modulus


@pytest.mark.parametrize("slope", [GOLDEN, TWO_TWO, ONE_TWO, MIXED])
@pytest.mark.parametrize("modulus", [2, 3, 4, 5])
def test_torsion_search_certifies_identity(slope, modulus):
    for n in (4, 7):
        hit = torsion_search(slope, modulus, n=n)
        assert hit.found
        value = decode(hit.quotient_digits, slope)
        assert slope.q(n + hit.k) - slope.q(n) == modulus * value
        assert all(n < s < n + hit.k for s in hit.support)


def test_torsion_search_not_found():
    miss = torsion_search(GOLDEN, 7, n=4, k_max=3)
    assert not miss.found and miss.k is None
    assert miss.support is None and miss.reason
    assert len(miss.state_trace) == 4


def test_torsion_search_guards():
    with pytest.raises(RangeError):
        torsion_search(GOLDEN, 1)
    # the modulus is checked before the explicit-rank path divides by it
    for modulus in (-3, 0, 1):
        with pytest.raises(RangeError, match=f"modulus must be >= 2, got {modulus}"):
            torsion_search(GOLDEN, modulus, n=4)
    # the golden cycle mod 65 closes at level 140; mod 6250 it takes 37,500
    assert torsion_search(GOLDEN, 65).n == 0
    with pytest.raises(RangeError, match=f"does not close within {MAX_RANK_WALK} levels"):
        torsion_search(GOLDEN, 6250)
    # a level's work grows with the square of the modulus's bits, and so
    # the walk's limit shrinks: 2**33 // 601**2 = 23781 levels, and
    # 2**33 // 16610**2 = 31 levels for 10**5000; up to 512 bits it walks
    # all of MAX_RANK_WALK
    with pytest.raises(RangeError, match="does not close within 23781 levels; give n$"):
        torsion_search(GOLDEN, 2**600 + 1)
    huge = Slope((2**20000,), (0, 1))
    with pytest.raises(RangeError, match="does not close within 31 levels; give n$"):
        torsion_search(huge, 10**5000, k_max=17)
    with pytest.raises(RangeError, match=f"does not close within {MAX_RANK_WALK} levels"):
        torsion_search(GOLDEN, 2**511 + 1)
    # every rank reads through level k_max + 2, so with n omitted that level
    # is asked of the ladder before the walk
    for slope, k_max in ((GOLDEN, 30000), (Slope((2**20000,), (0, 1)), 40)):
        with pytest.raises(RangeError, match=f"^rank n \\+ k_max = {k_max} is out of reach"):
            torsion_search(slope, 6250, k_max=k_max)
    # an explicit rank needs no walk to find it; one whose continuants pass
    # the ladder budget is refused, and the error names it
    assert torsion_search(GOLDEN, 6250, n=4).n == 4
    for n, k_max in ((30000, 40), (4, 30000), (10**8, 40)):
        with pytest.raises(RangeError, match=f"rank n \\+ k_max = {n + k_max} is out of reach"):
            torsion_search(GOLDEN, 3, n=n, k_max=k_max)
    with pytest.raises(RangeError):
        torsion_search(GOLDEN, 2, k_max=1)
    with pytest.raises(RangeError):
        torsion_search(GOLDEN, 2, n=-1)


# -------------------------------------------------- palindromic cross-check


@pytest.mark.parametrize(
    "slope,half,depth,class_depth",
    [(GOLDEN, 150, 9, 21), (ONE_TWO, 400, 8, 20)],
)
def test_palindromic_halves_land_in_one_class(slope, half, depth, class_depth):
    x = palindromic_center_word(slope, half)
    assert len(x) == half
    with pytest.raises(RangeError, match="^half_length must be >= 1, got 0$"):
        palindromic_center_word(slope, 0)
    assert x in characteristic_prefix(slope, 6 * half)
    rho = intercept_from_prefix(x, slope, depth)
    verdicts = [
        equivalent(rho, cls).equivalent for cls in self_complementary(slope, class_depth)
    ]
    assert verdicts.count(True) == 1


def doubling_center_word(slope, half_length):
    """Reference: double the prefix until it shows all 2h + 1 factors of length 2h."""
    word = ""
    length = 4 * half_length + 8
    for half in sorted({max(1, half_length // 4), half_length // 2, half_length}):
        if half < 1:
            continue
        while len(factors := factor_set(characteristic_prefix(slope, length), 2 * half)) < 2 * half + 1:
            length *= 2
        (palindrome,) = [f for f in factors if f == f[::-1]]
        word = palindrome[half:]
    return word


@pytest.mark.parametrize("slope", [GOLDEN, TWO_TWO, MIXED, HEADED])
def test_palindromic_center_word_matches_doubling_search(slope):
    for half in (1, 2, 3, 7, 30, 101):
        assert palindromic_center_word(slope, half) == doubling_center_word(slope, half)


def test_palindromic_center_word_nests():
    long = palindromic_center_word(GOLDEN, 120)
    short = palindromic_center_word(GOLDEN, 40)
    assert long.startswith(short)


@dataclass(frozen=True)
class EagerFactorization:
    """BFactorization as a frozen dataclass that splits its blocks at once."""

    blocks: tuple
    leftover: str

    @property
    def complete(self) -> bool:
        return not self.leftover

    @property
    def failure_at(self):
        if self.complete:
            return None
        return sum(len(b) for b in self.blocks)


EAGER_BLOCK_RE = re.compile("0[01]|10*1[01]")
EAGER_RUN_RE = re.compile("(?:0[01]|10*1[01])*")


def eager_factorize(u: str) -> EagerFactorization:
    run = EAGER_RUN_RE.match(u).group()
    return EagerFactorization(tuple(EAGER_BLOCK_RE.findall(run)), u[len(run):])


def test_lazy_blocks_match_eager_scan():
    previous = previous_ref = None
    for u in all_words(14):
        for p in ("", "1", "11"):
            fact, ref = b_factorize(p + u), eager_factorize(p + u)
            assert fact.blocks == ref.blocks and fact.leftover == ref.leftover, p + u
            assert fact.complete == ref.complete and fact.failure_at == ref.failure_at
            assert fact == b_factorize(p + u) and hash(fact) == hash(ref)
            if previous is not None:
                assert (fact == previous) == (ref == previous_ref)
            assert repr(fact) == repr(ref).replace("EagerFactorization", "BFactorization")
            previous, previous_ref = fact, ref
