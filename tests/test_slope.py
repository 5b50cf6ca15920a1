"""Slope parsing, continuants, convergents and the interval partition."""

import bisect
import copy
import itertools
import pickle
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmia.errors import DepthError, RangeError
from sturmia.slope import (
    MAX_LADDER_BITS,
    Slope,
    convergent_value,
    interval_locate,
    parse_slope,
)

GOLDEN = Slope((1,), (0, 1))


def test_golden_continuants_depth6():
    assert tuple(GOLDEN.q(n) for n in range(-1, 7)) == (0, 1, 1, 2, 3, 5, 8, 13)


def test_two_one_one_continuants_depth4():
    slope = Slope((2,), (0, 1))
    assert tuple(slope.q(n) for n in range(-1, 5)) == (0, 1, 2, 5, 12, 29)


def test_pinned_slope_2_1_1_depth4():
    slope = Slope((2, 1, 1, 1), None)
    assert tuple(slope.q(n) for n in range(-1, 5)) == (0, 1, 2, 3, 5, 8)


def test_depth0_seed_row():
    assert tuple(GOLDEN.q(n) for n in range(-1, 1)) == (0, 1)
    assert tuple(Slope((4, 2, 7)).q(n) for n in range(-1, 1)) == (0, 1)


def test_continuant_recurrence_generic():
    slope = parse_slope("[0;3,1,2,(1,4)*]")
    for n in range(1, 12):
        assert slope.q(n + 1) == slope.quotient(n + 1) * slope.q(n) + slope.q(n - 1)
        assert slope.p(n + 1) == slope.quotient(n + 1) * slope.p(n) + slope.p(n - 1)


def test_golden_convergents():
    assert convergent_value(GOLDEN, 2) == Fraction(1, 2)
    assert convergent_value(GOLDEN, 5) == Fraction(5, 8)


def test_convergent_matches_direct_evaluation():
    slope = parse_slope("[0;2,3,1,4,2]")
    for n in range(1, 6):
        value = Fraction(0)
        for a in reversed([slope.quotient(i) for i in range(1, n + 1)]):
            value = Fraction(1, a + value)
        assert convergent_value(slope, n) == value


def test_quotient_indexing_and_period():
    slope = parse_slope("[0;1,1,2,(3,1)*]")
    assert [slope.quotient(i) for i in range(1, 10)] == [1, 1, 2, 3, 1, 3, 1, 3, 1]
    finite = parse_slope("[0;5,4]")
    assert finite.quotient(2) == 4
    with pytest.raises(DepthError):
        finite.quotient(3)


@pytest.mark.parametrize("text", ["[0;1*]", "[0;3,(2,3,4)*]", "[0;1,1,2,(3,1)*]", "[0;5,4]"])
def test_position_folds_the_period(text):
    slope = parse_slope(text)
    depth = slope.known_depth or 40
    positions = list(itertools.islice(slope._run(1), depth))
    assert positions[: len(slope.quotients)] == list(range(len(slope.quotients)))
    assert [slope.quotients[p] for p in positions] == [slope.quotient(i) for i in range(1, depth + 1)]
    # a run from a_i goes on as the run from a_1 does, and stops after a_D on a finite slope
    for i in range(1, depth + 2):
        assert list(itertools.islice(slope._run(i), depth + 1 - i)) == positions[i - 1 :]
    if slope.period is None:
        assert list(slope._run(1)) == positions
        assert list(slope._run(depth + 1)) == list(slope._run(10**30)) == []
    # equal positions read equal quotients from there on
    for i, j in itertools.combinations(range(1, depth - 8), 2):
        if positions[i - 1] == positions[j - 1]:
            assert [slope.quotient(i + t) for t in range(8)] == [slope.quotient(j + t) for t in range(8)]


def test_parse_and_str_roundtrip():
    for text in ["[0;1*]", "[0;2,1,(3,1)*]", "[0;4,4,4]", "[0;1,1,2,(3,1)*]"]:
        slope = parse_slope(text)
        assert parse_slope(str(slope)) == slope


def test_parse_rejects_garbage():
    for text in ["[1;2,3]", "[0;]", "0;1,2", "[0;0,1]", "[0;(1,2)*,3]"]:
        with pytest.raises((ValueError, DepthError)):
            parse_slope(text)


def test_interval_locate_pinned_values():
    assert interval_locate(5, GOLDEN) == (4, 0, 1)
    assert interval_locate(2, GOLDEN) == (3, 0, 1)


def test_interval_locate_small_slope_with_a1_3():
    # I_0 = [0, 1]; within it the sub-interval of index l covers the single
    # point (l+1) - 2, so m = 1 falls at l = 2 with r = 0.
    slope = parse_slope("[0;3,(1)*]")
    assert interval_locate(1, slope) == (0, 2, 0)


def test_interval_locate_rejects_zero():
    with pytest.raises(RangeError):
        interval_locate(0, GOLDEN)


def test_interval_empty_head_intervals():
    # a_1 = a_2 = 1: levels 0 and 1 contain no integer m >= 1.
    for m in range(1, 40):
        assert interval_locate(m, GOLDEN).n >= 2
    # a_1 = 2: level 0 is empty, level 1 is not.
    slope = parse_slope("[0;2,(1)*]")
    assert interval_locate(1, slope).n == 1


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=5), min_size=8, max_size=8),
    st.integers(min_value=1, max_value=2000),
)
def test_interval_partition_tiles(quotients, m):
    slope = Slope(tuple(quotients), (7, 1))
    n, l, r = interval_locate(m, slope)
    assert m == (l + 1) * slope.q(n) + slope.q(n - 1) - 2 - r
    assert 0 <= l <= slope.quotient(n + 1) - 1
    assert 0 <= r < (slope.q(n - 1) if l == 0 else slope.q(n))
    assert slope.q(n) - 1 <= m <= slope.q(n + 1) - 2


def test_interval_partition_is_a_bijection():
    slope = parse_slope("[0;3,1,2,(2)*]")
    seen = {}
    for m in range(1, 500):
        key = interval_locate(m, slope)
        assert key not in seen
        seen[key] = m


# ------------------------------------------------------------------ ladder


def test_ladder_is_independent_of_access_order():
    deep_first, shallow_first = parse_slope("[0;2,1,3,(2,1)*]"), parse_slope("[0;2,1,3,(2,1)*]")
    deep_first.p(60)
    downward = [(deep_first.q(n), deep_first.p(n)) for n in range(60, -2, -1)]
    upward = [(shallow_first.q(n), shallow_first.p(n)) for n in range(-1, 61)]
    assert downward[::-1] == upward
    assert deep_first == shallow_first
    assert hash(deep_first) == hash(Slope(deep_first.quotients, deep_first.period))


def test_level_is_the_smallest_index_past_m():
    slope = parse_slope("[0;2,3,(1,2)*]")
    for m in range(0, 3000):
        d = slope.level(m)
        assert slope.q(d) > m
        assert d == 0 or slope.q(d - 1) <= m


@pytest.mark.parametrize("text", ["[0;1*]", "[0;3,1,2,(1,4)*]", "[0;1,(100,1)*]", "[0;7,2,9]"])
def test_level_grows_the_ladder_only_to_the_level(text):
    # level() grows many rungs per call, never one past the answer
    for m in (0, 1, 2, 17, 10**6, 10**40, 3**90 - 1):
        slope = parse_slope(text)
        try:
            d = slope.level(m)
        except DepthError:
            assert slope.q(len(slope.quotients)) <= m
            continue
        assert slope.q(d) > m and (d == 0 or slope.q(d - 1) <= m)
        assert len(slope._ladder[0]) == d + 2


@pytest.mark.parametrize("text", ["[0;1*]", "[0;3,1,2,(1,4)*]", "[0;7,2,9]"])
def test_p_grows_the_ladder_only_to_its_level(text):
    depth = parse_slope(text).known_depth or 40
    p = reference_rows(parse_slope(text), depth)[1]
    for n in range(-1, depth + 1):
        slope = parse_slope(text)
        assert slope.p(n) == p[n + 1]
        assert len(slope._ladder[0]) == max(n, 0) + 2


def test_finite_slope_raises_one_past_its_depth():
    finite = Slope((2, 1, 3))
    # and below the first index of each row
    with pytest.raises(DepthError, match="^partial quotients are indexed from 1, got 0$"):
        finite.quotient(0)
    with pytest.raises(DepthError, match="^continuants are indexed from -1, got -2$"):
        finite.q(-2)
    with pytest.raises(DepthError, match="^convergents are defined for n >= 1$"):
        convergent_value(finite, 0)
    assert finite.q(3) == 11
    with pytest.raises(DepthError):
        finite.q(4)
    with pytest.raises(DepthError):
        finite.p(4)
    top = finite.q(3)
    assert finite.level(top - 1) == 3
    with pytest.raises(DepthError):
        finite.level(top)
    # the last interval [q_2 - 1, q_3 - 2] is located, the next is not
    assert interval_locate(top - 2, finite).n == 2
    with pytest.raises(DepthError):
        interval_locate(top - 1, finite)


def test_ladder_refuses_rows_past_the_bit_budget():
    golden = parse_slope("[0;1*]")
    with pytest.raises(RangeError, match="continuants through q_100000 would hold more"):
        golden.q(100_000)
    # refused before the rows grew past their share of the budget
    assert len(golden._ladder[0]) < 1000
    assert golden.q(6950) == golden.q(6949) + golden.q(6948)
    with pytest.raises(RangeError, match="through q_6951 "):
        golden.q(6951)
    assert len(golden._ladder[0]) == 6952
    # a quotient is input too: one rung past the budget is refused alone
    wide = Slope((2 ** (MAX_LADDER_BITS // 2),), (0, 1))
    with pytest.raises(RangeError, match="through q_1 "):
        wide.q(1)
    with pytest.raises(RangeError):
        interval_locate(2 ** (MAX_LADDER_BITS // 2), golden)


def climb_under_threads(reference, shared):
    """Grow every shared slope's ladder from 6 threads at once; the workers' exceptions."""
    errors = []

    def climb(offset):
        try:
            for slope in shared:
                for n in range(offset, 400, 6):
                    slope.level(reference.q(n))
                    slope.q(n)
                    slope.p(n + 1)
        except BaseException as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=climb, args=(k,)) for k in range(6)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    return errors


def test_ladder_grows_consistently_under_threads():
    reference = parse_slope("[0;2,1,3,(2,1)*]")
    reference.q(400)
    shared = [parse_slope("[0;2,1,3,(2,1)*]") for _ in range(8)]
    assert climb_under_threads(reference, shared) == []
    for slope in shared:
        assert tuple(slope.q(n) for n in range(-1, 401)) == tuple(reference.q(n) for n in range(-1, 401))
        assert [slope.p(n) for n in range(402)] == [reference.p(n) for n in range(402)]


@pytest.mark.parametrize("slope", [GOLDEN, parse_slope("[0;2,3,(1,2)*]")], ids=str)
@pytest.mark.parametrize("n", [200, 400, 799])
def test_interval_partition_tiles_deep_levels(slope, n):
    q_lo, q, q_hi = slope.q(n - 1), slope.q(n), slope.q(n + 1)
    # both ends of the level, of its l = 0 sub-interval, and of the next one
    samples = {q - 1, q, q + q_lo - 2, q + q_lo - 1, (q + q_hi) // 2, q_hi - 3, q_hi - 2}
    for m in sorted(m for m in samples if m <= q_hi - 2):
        pos = interval_locate(m, slope)
        assert pos.n == n
        assert m == (pos.l + 1) * q + q_lo - 2 - pos.r
        assert 0 <= pos.l <= slope.quotient(n + 1) - 1
        assert 0 <= pos.r < (q_lo if pos.l == 0 else q)
    assert interval_locate(q_hi - 1, slope).n == n + 1


def quotient_row(slope, n):
    """The ladder's quotient row through level n, as a[1..n]."""
    return slope._grow(n)[1][1 : n + 1]


@pytest.mark.parametrize(
    "text", ["[0;1*]", "[0;2,1,3,(2,1)*]", "[0;(1,2)*]", "[0;3,1,2,4]", "[0;5]"]
)
def test_quotient_row_matches_quotient(text):
    slope = parse_slope(text)
    depth = slope.known_depth or 300
    # grown in steps, as the readers of the ladder grow it
    for n in (0, 1, depth // 2, depth):
        assert quotient_row(slope, n) == [slope.quotient(i) for i in range(1, n + 1)]
    assert len(slope._ladder[1]) == len(slope._ladder[0]) - 1


def test_quotient_row_grows_consistently_under_threads():
    reference = parse_slope("[0;2,1,3,(2,1)*]")
    shared = [parse_slope("[0;2,1,3,(2,1)*]") for _ in range(8)]
    assert climb_under_threads(reference, shared) == []
    expected = [reference.quotient(i) for i in range(1, 401)]
    for slope in shared:
        assert quotient_row(slope, 400) == expected
        assert len(slope._ladder[1]) == len(slope._ladder[0]) - 1


def reference_rows(slope, n):
    """The rows q_{-1..n}, p_{-1..n} and a_{1..n}, from one `quotient(i)` per level."""
    q, p, a = [0, 1], [1, 0], []
    for i in range(1, n + 1):
        a.append(slope.quotient(i))
        q.append(a[-1] * q[-1] + q[-2])
        p.append(a[-1] * p[-1] + p[-2])
    return q, p, a


RUN_SLOPES = ["[0;1,1,5,1]", "[0;7]", "[0;2,3,(1,2)*]", "[0;1*]", "[0;(1,2)*]", "[0;3,(2,3,4)*]", "[0;2,1,3,4,1,1]"]


@pytest.mark.parametrize("text", RUN_SLOPES)
@pytest.mark.parametrize("order", ["rising", "falling", "shuffled"])
def test_ladder_rows_match_one_quotient_per_level(text, order):
    depth = parse_slope(text).known_depth or 60
    q, p, a = reference_rows(parse_slope(text), depth)
    levels = list(range(-1, depth + 1))
    if order == "falling":
        levels.reverse()
    elif order == "shuffled":
        random.Random(depth).shuffle(levels)
    slope = parse_slope(text)
    for n in levels:
        assert slope.q(n) == q[n + 1] and slope.p(n) == p[n + 1]
    assert slope._ladder == (q, [0, *a])
    samples = sorted({0, *(q[d + 1] + step for d in range(depth) for step in (-1, 0))})
    assert [slope.level(m) for m in samples] == [
        next(d for d in range(depth + 1) if q[d + 1] > m) for m in samples
    ]


def test_ladder_refusals_past_the_run():
    finite = parse_slope("[0;1,1,5,1]")
    for grow in (finite.q, finite.p, finite._grow):
        with pytest.raises(DepthError, match=r"^a_5 requested but only 4 quotients are known$"):
            grow(5)
    with pytest.raises(DepthError, match=r"^a_5 requested but only 4 quotients are known$"):
        finite.q(10**30)
    # the rows through a_D were grown before the refusal
    assert finite._ladder == (reference_rows(finite, 4)[0], [0, 1, 1, 5, 1])
    for text in ("[0;1*]", "[0;2,3,(1,2)*]"):
        slope = parse_slope(text)
        with pytest.raises(RangeError, match=f"^continuants through q_{10**30} would hold more"):
            slope.q(10**30)
        with pytest.raises(RangeError, match=f"^continuants through q_{10**30 + 1} would hold more"):
            slope.p(10**30 + 1)
        assert slope._ladder == ([0, 1], [0])


def skip_estimate_level(slope, m):
    """`Slope.level` as a loop of `_grow` calls, each through the rungs an
    estimate of bits per rung shows to lie at or below m: the reference for
    the one call that grows the rows to the first rung past m."""
    q = slope._ladder[0]
    if q[-1] <= m:
        step = (max(slope.quotients) + 1).bit_length()
        while q[-1] <= m:
            skip = (m.bit_length() - q[-1].bit_length() - 1) // step
            slope._grow(len(q) - 2 + max(1, skip))
    return bisect.bisect_right(q, m, lo=1) - 1


WIDE = (2 ** (MAX_LADDER_BITS // 2),)
LEVEL_SWEEP_SLOPES = {
    "golden": lambda: Slope((1,), (0, 1)),
    "[0;1000*]": lambda: Slope((1000,), (0, 1)),
    "wide": lambda: Slope(WIDE, (0, 1)),
    "[0;3,1,2,(1,4)*]": lambda: parse_slope("[0;3,1,2,(1,4)*]"),
    "[0;7,2,9]": lambda: Slope((7, 2, 9)),
    "[0;1,1,5,1]": lambda: Slope((1, 1, 5, 1)),
    "[0;1000,1,1000]": lambda: Slope((1000, 1, 1000)),
    "finite wide": lambda: Slope((3,) + WIDE),
}


def level_sweep(make):
    """m from 0 to 2^(MAX_LADDER_BITS // 2): small values, both sides of the
    slope's first rungs, and both sides of powers of two up to the top."""
    samples = {0, 1, 2, 3, 17, 10**6, 10**40, 3**90 - 1}
    rungs = make()
    for n in range(12):
        try:
            samples |= {rungs.q(n) - 1, rungs.q(n)}
        except (DepthError, RangeError):
            break
    for e in (64, 1000, 5000, 10_000, 20_000, 100_000, 2**20, MAX_LADDER_BITS // 2):
        samples |= {2**e - 1, 2**e}
    return sorted(samples)


@pytest.mark.parametrize("name", LEVEL_SWEEP_SLOPES)
def test_level_answers_as_the_skip_estimate_loop(name):
    make = LEVEL_SWEEP_SLOPES[name]
    for m in level_sweep(make):
        reference, slope = make(), make()
        try:
            expected = skip_estimate_level(reference, m)
        except (DepthError, RangeError) as exc:
            expected = type(exc)
        try:
            got = slope.level(m)
        except (DepthError, RangeError) as exc:
            got = type(exc)
        assert got == expected, (name, m)
        if isinstance(got, int):
            assert len(slope._ladder[0]) == len(reference._ladder[0]) == got + 2
        # every rung grown to find the first rung past m got its own level's share
        for k, q_k in enumerate(slope._ladder[0][1:]):
            assert q_k.bit_length() <= MAX_LADDER_BITS // (k + 2), (name, m, k)


@pytest.mark.parametrize("name", LEVEL_SWEEP_SLOPES)
def test_level_grows_a_fresh_slope_in_one_call(name, monkeypatch):
    grow, calls = Slope._grow, []

    def counted(slope, *args, **kwargs):
        before = len(slope._ladder[0])
        try:
            return grow(slope, *args, **kwargs)
        finally:
            calls.append(len(slope._ladder[0]) > before)

    make = LEVEL_SWEEP_SLOPES[name]
    monkeypatch.setattr(Slope, "_grow", counted)
    for m in level_sweep(make):
        calls.clear()
        try:
            make().level(m)
        except (DepthError, RangeError):
            assert len(calls) == 1
            continue
        # q_0 = 1 answers m = 0 without growing
        assert calls == ([True] if m >= 1 else [])


def test_level_refusal_names_the_rung_it_stopped_at():
    with pytest.raises(RangeError, match=r"^continuants through q_6951 would hold more"):
        Slope((1,), (0, 1)).level(2 ** (MAX_LADDER_BITS // 2))
    with pytest.raises(RangeError, match=r"^continuants through q_1 would hold more"):
        Slope(WIDE, (0, 1)).level(1)
    with pytest.raises(DepthError, match=r"^a_4 requested but only 3 quotients are known$"):
        Slope((7, 2, 9)).level(10**40)


# ---------------------------------------------------------------- value semantics

COPIES = {"pickle": lambda value: pickle.loads(pickle.dumps(value)), "deepcopy": copy.deepcopy}


def test_slope_constructor_checks():
    with pytest.raises(ValueError, match="at least one partial quotient is required"):
        Slope(())
    # a bool compares as an int, but would print as a word in refusals
    for quotients in ((1, 0), (2, -1), (1, 2.0), (True, 2), (1, False)):
        with pytest.raises(ValueError, match="partial quotients must be integers >= 1"):
            Slope(quotients)
    for period in ((0, 1), (0, 2), (-1, 4), (3, 0)):
        with pytest.raises(ValueError, match="period must describe the tail"):
            Slope((1, 2, 3), period)
    # the period is a pair of ints, refused at construction and not at its
    # first use
    for period in ((0.0, 2.0), (0, 2.0), 5, (0, 2, 3), (2,), (False, 2), (1, True), "02", {0, 2}):
        with pytest.raises(ValueError, match="period must describe the tail"):
            Slope((1, 2), period)
    assert Slope((1, 2, 3), (1, 2)).period == (1, 2)
    assert Slope((1, 2), [0, 2]).period == (0, 2)


def test_slope_repr_equality_and_hash():
    slope = parse_slope("[0;2,3,(1,2)*]")
    assert repr(slope) == "Slope(quotients=(2, 3, 1, 2), period=(2, 2))"
    assert repr(Slope((4, 2, 7))) == "Slope(quotients=(4, 2, 7), period=None)"
    twin = Slope((2, 3, 1, 2), (2, 2))
    twin.q(40)  # the ladder takes no part in equality or hashing
    assert slope == twin and hash(slope) == hash(twin)
    assert slope != Slope((2, 3, 1, 2)) and slope != Slope((2, 3, 1, 2), (3, 1))
    assert slope != ((2, 3, 1, 2), (2, 2))
    assert slope.__eq__(((2, 3, 1, 2), (2, 2))) is NotImplemented
    assert slope != interval_locate(5, slope)
    assert len({slope, twin, GOLDEN}) == 2


def test_slope_copies_list_inputs():
    quotients, period = [1, 2], [1, 1]
    slope = Slope(quotients, period)
    assert slope == Slope((1, 2), (1, 1)) and hash(slope) == hash(Slope((1, 2), (1, 1)))
    assert slope.quotients == (1, 2) and slope.period == (1, 1)
    ladder = [slope.q(n) for n in range(7)]
    quotients[1] = 5
    period[0] = 0
    assert slope == Slope((1, 2), (1, 1)) and slope.quotient(2) == 2
    assert [slope.q(n) for n in range(7)] == ladder
    assert [slope.q(n) for n in range(7)] == [Slope((1, 2), (1, 1)).q(n) for n in range(7)]


def test_slope_fields_cannot_be_assigned():
    slope = parse_slope("[0;1*]")
    for name, value in (
        ("quotients", (2,)), ("period", None), ("_ladder", None), ("_word", None), ("extra", 1)
    ):
        with pytest.raises(AttributeError):
            setattr(slope, name, value)
    for name in ("quotients", "period", "_ladder", "_word"):
        with pytest.raises(AttributeError):
            delattr(slope, name)
    assert slope.quotients == (1,) and slope.period == (0, 1) and slope.q(5) == 8


@pytest.mark.parametrize("copy_of", COPIES.values(), ids=COPIES)
def test_slope_copies_are_equal_with_their_own_ladder(copy_of):
    slope = parse_slope("[0;2,1,3,(2,1)*]")
    slope.q(30)
    other = copy_of(slope)
    assert other is not slope
    assert other == slope and hash(other) == hash(slope) and repr(other) == repr(slope)
    assert [other.q(n) for n in range(-1, 41)] == [slope.q(n) for n in range(-1, 41)]
    assert other._ladder[0] is not slope._ladder[0]
