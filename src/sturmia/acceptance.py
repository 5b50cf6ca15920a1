"""Runnable acceptance checks, one per numbered release criterion.

`CHECKS` is the registry: a table of (name, check) pairs, and a
criterion's number is its position there, so the table alone numbers and
names the criteria.  A check returns its pass detail, or raises `_Failed`
with the first counterexample it meets; `run_check` turns either into a
CheckResult, so the registry can print a one-line verdict per criterion.
Whatever else stops a check, a library refusal or a contract check, is
its verdict too: a FAIL whose detail reads "Type: message" on one line.
The pytest suite and the `verify` CLI subcommand both drive this module.
Randomized corpora are seeded and capped so the whole battery stays fast
and reproducible; caps are reported in the result details.  Criteria
01-03, 05-07, 09, 12 and 14 split their corpora into independent items
(slopes, window-length ranges, rational pairs, or for 12 pieces of at
most 2^12 words of one length, weighed by their letters, plus its
parse-count oracle) and work them on every usable CPU through `_fan_out`,
with the serial run's results and first counterexample; 04, 08, 10, 11
and 13 run no faster split and stay in process.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from collections import namedtuple
from collections.abc import Callable
from fractions import Fraction
from functools import partial
from operator import add, attrgetter

from .errors import SturmiaError
from .factorization import central_split_check, characteristic_factorizations, duality_check
from .intercept import (
    AlphaNumber,
    add_integer,
    classify,
    complement,
    equivalent,
    intercept_from_prefix,
    sturmian_prefix,
    zero,
)
from .ostrowski import all_digit_strings, decode, encode
from .rauzy import _cycles, _turns
from .repetition import (
    dio_estimate,
    profile_lookup,
    repetition_closed_forms,
    repetition_level,
    repetition_profile,
    repetition_rows,
)
from .slope import Slope, convergent_value, interval_locate, parse_slope
from .torsion import (
    b_factorize,
    complement_family,
    even_family,
    palindromic_center_word,
    self_complementary,
    torsion_search,
)
from .words import characteristic_prefix, complexity, mechanical_prefix

SEED = 20260814

GOLDEN = parse_slope("[0;1*]")
TWO_ONE = parse_slope("[0;2,(1)*]")
MIXED = parse_slope("[0;2,1,3,(2,1)*]")
TWO_THREE = parse_slope("[0;2,3,(1,2)*]")
ONE_THREE = parse_slope("[0;1,3,(2,1)*]")
TWO_TWO = parse_slope("[0;2*]")

NAMED_FIVE = (GOLDEN, TWO_ONE, MIXED, TWO_THREE, ONE_THREE)


class CheckResult(namedtuple("CheckResult", "number name passed detail")):
    __slots__ = ()

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"[{verdict}] criterion {self.number:2d} {self.name}: {self.detail}"


class _Failed(Exception):
    """A criterion's counterexample; its one argument is the failure detail."""


def _detail(exc: Exception) -> str:
    """The FAIL detail of whatever stopped a check: a `_Failed`'s bare
    detail, any other exception's `Type: message` with the message's lines
    joined by spaces, or its type's name alone for an empty message."""
    if isinstance(exc, _Failed):
        return str(exc)
    message = " ".join(str(exc).splitlines())
    return f"{type(exc).__name__}: {message}" if message else type(exc).__name__


def _usable_cpus() -> int:
    """CPUs this process may run on, or 1 where a corpus must run serially.

    That is where the affinity mask cannot be read, where `os.fork` is
    missing, and while another thread is alive: a fork copies only the
    calling thread, so a lock another thread holds (a ladder's
    `_GROW_LOCK`) would stay held in the child, and Python 3.12+ warns on
    such a fork.  The threads are the kernel's count, which that warning
    reads too; where it cannot be read, the corpus runs serially.
    """
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        return 1
    return 1 if threads > 1 else len(os.sched_getaffinity(0))


def _runs(items: tuple, weights: list[int], parts: int) -> list[tuple]:
    """items cut into at most `parts` contiguous runs of about equal weight:
    each cut falls where the weight before it comes closest to its share."""
    sums = list(itertools.accumulate(weights))
    cuts = [0]
    for part in range(1, parts):
        later = range(cuts[-1] + 1, len(items))
        if not later:
            break
        cuts.append(min(later, key=lambda i: abs(sums[i - 1] * parts - sums[-1] * part)))
    cuts.append(len(items))
    return [items[a:b] for a, b in zip(cuts, cuts[1:])]


def _fan_out(work: Callable, items: tuple, weights: list[int]) -> list:
    """[work(item) for item in items], split across the usable CPUs.

    The items are cut into contiguous runs of about equal weight, one per
    usable CPU.  The first run is worked here and each other run in an
    `os.fork`ed child, which pickles its results, or the exception it
    raised, to a pipe and leaves through `os._exit`.  The runs are read
    back in corpus order, so the results and the first exception raised
    are the serial run's; a child's exception is raised again with the
    child's traceback as its cause, and one that does not survive pickling
    as a `_Failed` of the detail `run_check` gives it.  Where a pipe or a
    fork cannot be made, that run and the rest are worked here.  Every
    child is reaped before this returns or raises, its pipe read to the end
    first, so a child never blocks on a full pipe.
    """
    runs = _runs(items, weights, _usable_cpus())
    if len(runs) < 2:
        return [work(item) for item in items]
    import pickle

    children = {}  # run index -> (pid, read end of its pipe)
    try:
        for index in range(1, len(runs)):
            try:
                read, write = os.pipe()
            except OSError:
                break
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                break
            if pid == 0:
                _child(work, runs[index], write, [read, *(fd for _, fd in children.values())])
            os.close(write)
            children[index] = pid, read
        results = []
        for index, run in enumerate(runs):
            if index not in children:
                results += [work(item) for item in run]
                continue
            pid, read = children.pop(index)
            data, code = _reap(pid, read)
            if code:
                raise ChildProcessError(f"criterion child process {pid} ended with exit code {code}")
            ok, value, trace = pickle.loads(data)
            if not ok:
                raise value from RuntimeError(f"in criterion child process {pid}:\n{trace}")
            results += value
        return results
    finally:
        for pid, read in children.values():
            _reap(pid, read)


def _child(work: Callable, run: tuple, write: int, unused: list[int]) -> None:
    """A forked child's whole life: pickle (True, results, "") or (False,
    the exception raised, its formatted traceback) to `write`, then leave
    through `os._exit`, so that no exit handler or buffered output of the
    parent runs twice.  `unused` are the pipe ends the child inherited and
    closes."""
    import pickle

    status = 1
    try:
        for fd in unused:
            os.close(fd)
        try:
            data = pickle.dumps((True, [work(item) for item in run], ""))
        except BaseException as exc:  # raised again in the parent
            import traceback

            trace = traceback.format_exc()
            try:
                data = pickle.dumps((False, exc, trace))
                pickle.loads(data)
            except Exception:
                # an exception that does not survive pickling comes back
                # as the FAIL detail the serial run would print for it
                data = pickle.dumps((False, _Failed(_detail(exc)), trace))
        view = memoryview(data)
        while view:
            view = view[os.write(write, view) :]
        status = 0
    finally:
        os._exit(status)


def _reap(pid: int, read: int) -> tuple[bytes, int]:
    """Everything a child wrote to its pipe, read to the end, and the
    child's exit code (minus the signal that ended it) once it has ended."""
    blocks = []
    try:
        while block := os.read(read, 1 << 16):
            blocks.append(block)
    finally:
        os.close(read)
        _, status = os.waitpid(pid, 0)
    return b"".join(blocks), os.waitstatus_to_exitcode(status)


def _seeded_slopes(
    count: int, seed: int, cap_level: int = 12, cap: int = 100_000
) -> tuple[Slope, ...]:
    """Random periodic slopes with quotients in [1, 5], continuant-capped.

    Draws favour small quotients (weights 16, 8, 4, 2, 1) so the rejection
    loop terminates quickly; the cap keeps exhaustive sweeps within budget
    and is part of the reported corpus description.  A draw is rejected on
    its continuant, walked over its quotients, before any Slope is built.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        qs = tuple(rng.choices(range(1, 6), cum_weights=(16, 24, 28, 30, 31), k=12))
        q_prev, q = 0, 1
        for a in itertools.islice(itertools.cycle(qs), cap_level):
            q_prev, q = q, a * q + q_prev
        if q <= cap:
            out.append(Slope(qs, (0, len(qs))))
    return tuple(out)


def _seeded_digits(rng: random.Random, slope: Slope, depth: int) -> tuple[int, ...]:
    """One valid digit window drawn uniformly-ish with local fix-ups."""
    digits = []
    prev = 0
    for i in range(1, depth + 1):
        hi = slope.quotient(i) - 1 if i == 1 else slope.quotient(i)
        b = rng.randint(0, hi)
        if i >= 2 and b == slope.quotient(i) and prev != 0:
            b -= 1
        digits.append(b)
        prev = b
    return tuple(digits)


def _ten_slopes() -> tuple[Slope, ...]:
    return (GOLDEN,) + _seeded_slopes(9, SEED)


# --------------------------------------------------------------- criteria


def _round_trip(slope: Slope) -> None:
    """Criterion 01 on one slope."""
    for n in range(min(slope.q(12), 100_000)):
        if decode(encode(n, slope, 12)) != n:
            raise _Failed(f"n={n} on {slope}")
    values = sorted(decode(d, slope) for d in all_digit_strings(slope, 7))
    if values != list(range(slope.q(7))):
        raise _Failed(f"uniqueness on {slope}")


def check_01_ostrowski_round_trip() -> str:
    """decode(encode(n)) identity below q_12 and depth-7 uniqueness."""
    slopes = _ten_slopes()
    # every slope round-trips its min(q_12, 10^5) integers
    weights = [min(slope.q(12), 100_000) for slope in slopes]
    _fan_out(_round_trip, slopes, weights)
    total = sum(weights)
    return f"{total} integers round-tripped on {len(slopes)} slopes; depth-7 bijection exhaustive"


def _standard_words(slope: Slope, depth: int) -> list[str]:
    """[s_-1, s_0, ..., s_depth] by the recursion s_1 = s_0^{a_1 - 1} s_-1
    and s_n = s_{n-1}^{a_n} s_{n-2}, independent of the grown word that
    `words` slices."""
    words = ["1", "0"]
    for n in range(1, depth + 1):
        words.append(words[-1] * (slope.quotient(n) - (n == 1)) + words[-2])
    return words


def _prefix_product(slope: Slope) -> None:
    """Criterion 02 on one slope."""
    depth = slope.level(501)
    blocks = _standard_words(slope, depth)
    reference = blocks[depth + 1]
    for m in range(1, 501):
        digits = encode(m, slope, depth).digits
        product = "".join(
            blocks[i + 1] * digits[i] for i in range(depth - 1, -1, -1) if digits[i]
        )
        if product != reference[:m] or characteristic_prefix(slope, m) != product:
            raise _Failed(f"m={m} on {slope}")


def check_02_prefix_product() -> str:
    """Descending product of standard words equals the plain truncation."""
    slopes = _ten_slopes()
    # every slope checks the same 500 prefixes
    _fan_out(_prefix_product, slopes, [1] * len(slopes))
    return f"m <= 500 on {len(slopes)} slopes ({500 * len(slopes)} prefixes)"


def _complexity(slope: Slope) -> None:
    """Criterion 03 on one slope."""
    for n in range(1, 51):
        level = interval_locate(n, slope).n
        window = n + slope.q(level + 1) + 10
        prefix = characteristic_prefix(slope, window)
        if complexity(prefix, n) != n + 1:
            raise _Failed(f"n={n} on {slope}")


def check_03_complexity() -> str:
    """Window complexity n+1 once the prefix passes one recurrence span.

    The certified span is n plus the continuant above the repetition level:
    a prefix of n + r(c, n) letters can miss the last new factor when the
    next quotient is large, so the margin uses q_{level+1} >= r(c, n).
    """
    slopes = _ten_slopes()
    # every slope checks the same 50 window lengths
    _fan_out(_complexity, slopes, [1] * len(slopes))
    return f"n <= 50 on {len(slopes)} slopes"


def check_04_repetition_intervals() -> str:
    """The repetition profile reads q_n on the whole interval [q_n - 1, q_{n+1} - 2]."""
    slopes = (GOLDEN, TWO_ONE) + _seeded_slopes(5, SEED + 4, cap_level=9, cap=100)
    pairs = 0
    for slope in slopes:
        prefix = characteristic_prefix(slope, 3 * slope.q(9))
        profile = repetition_profile(prefix, slope.q(9) - 2)
        for n in range(9):
            q_n, q_n1 = slope.q(n), slope.q(n + 1)
            for m in range(max(1, q_n - 1), q_n1 - 1):
                if profile_lookup(profile, m, len(prefix)) != q_n:
                    raise _Failed(f"m={m}, n={n} on {slope}")
                pairs += 1
    return f"{pairs} (m, n) pairs, n <= 8, on {len(slopes)} slopes (seeded caps q_9 <= 100)"


def _closed_form_oracle(slope: Slope) -> tuple[int, int, set[str]]:
    """Criterion 05 on one slope; its (pairs, level checks, cases seen)."""
    pairs = levels = 0
    cases = set()
    m_top = slope.q(7) - 2
    for digits in all_digit_strings(slope, 8):
        rho = AlphaNumber(digits, slope)
        deep = AlphaNumber(digits + (0,) * 4, slope)
        word = sturmian_prefix(deep, 2 * m_top + 4)
        profile = repetition_profile(word, m_top)
        closed = repetition_closed_forms(rho, m_top)
        for m, (value, case) in enumerate(closed, start=1):
            cases.add(case)
            if value != profile_lookup(profile, m, len(word)):
                raise _Failed(f"digits={digits}, m={m}, case={case} on {slope}")
            pairs += 1
        for m in (1, 2, m_top // 2 + 1, m_top):
            value, case = closed[m - 1]
            if case == "1":
                continue
            n = interval_locate(m, slope).n
            if repetition_level(rho.psi(n + 1), slope, m) != value:
                raise _Failed(f"4-branch level formula: digits={digits}, m={m} on {slope}")
            levels += 1
    return pairs, levels, cases


def check_05_closed_form_oracle() -> str:
    """Closed-form repetition versus the repetition profile, exhaustive at depth 8.

    Outside case 1 the closed form also matches the 4-branch level formula
    for the integer shift rho_{n+1}, at four m per window.
    """
    slopes = (GOLDEN, parse_slope("[0;3,1,2,(1)*]")) + _seeded_slopes(
        5, SEED + 5, cap_level=8, cap=120
    )
    # a slope's windows are its q_8 digit strings, each read at q_7 - 2 m
    weights = [slope.q(8) * slope.q(7) for slope in slopes]
    tallies = _fan_out(_closed_form_oracle, slopes, weights)
    pairs = sum(tally[0] for tally in tallies)
    levels = sum(tally[1] for tally in tallies)
    cases = set().union(*(tally[2] for tally in tallies))
    return (
        f"{pairs} pairs, no discrepancies, cases seen {sorted(cases)} "
        f"on {len(slopes)} slopes (caps q_8 <= 120); "
        f"4-branch level formula agrees at {levels} (window, m) outside case 1"
    )


def _intercept_bijection(slope: Slope) -> None:
    """Criterion 06 on one slope: 200 windows recovered, every tenth one
    shifted."""
    rng = random.Random(SEED + 6)
    # the shifts draw from a generator of their own, so `rng` draws the same
    # windows with or without them
    shifts = random.Random(SEED + 60)
    need = slope.q(11) + slope.q(10)
    for index in range(200):
        digits = _seeded_digits(rng, slope, 10)
        deep = AlphaNumber(digits + (0,) * 3, slope)
        prefix = sturmian_prefix(deep, need)
        back = intercept_from_prefix(prefix, slope, 10)
        if back.digits != digits:
            raise _Failed(f"digits={digits} on {slope}")
        if index % 10 == 0:
            # 1 <= k <= q_9 leaves q_11 + q_10 - k letters: at least the
            # q_10 + q_9 that certify depth 9, fewer than depth 10 needs
            k = shifts.randint(1, slope.q(9))
            shifted = intercept_from_prefix(prefix[k:], slope, 9)
            if add_integer(deep, k).digits[:9] != shifted.digits:
                raise _Failed(f"shift k={k} of digits={digits} on {slope}")


def check_06_intercept_bijection() -> str:
    """Digit recovery from the word the digits generate, depth 10, and the
    shift by an integer against the digits of the word it leaves."""
    # every slope reads 200 windows, each from a prefix of q_11 + q_10 letters
    weights = [slope.q(11) + slope.q(10) for slope in NAMED_FIVE]
    _fan_out(_intercept_bijection, NAMED_FIVE, weights)
    return (
        f"{200 * len(NAMED_FIVE)} seeded windows across {len(NAMED_FIVE)} slopes; "
        f"{20 * len(NAMED_FIVE)} integer shifts agree with the letters they leave"
    )


def _duality(slope: Slope) -> None:
    """Criterion 07 on one slope: 25 windows and two dual families."""
    rng = random.Random(SEED + 7)
    accepted = 0
    for _ in range(400):
        if accepted == 25:
            break
        rho = AlphaNumber(_seeded_digits(rng, slope, 16), slope)
        if classify(rho).verdict != "non-zero":
            continue
        try:
            comp = complement(rho)
            back = complement(comp)
        except SturmiaError:
            # the window cannot certify both directions; draw again
            continue
        if comp.psi(comp.depth) < 300 or classify(comp).verdict != "non-zero":
            continue
        report = duality_check(rho, 300)
        if not report.ok:
            raise _Failed(f"digits={rho.digits} on {slope}")
        if not equivalent(back, rho).equivalent:
            raise _Failed(f"involution failed for {rho.digits} on {slope}")
        accepted += 1
    if accepted < 25:
        raise _Failed(f"only {accepted} usable corpus windows on {slope}")
    for indices in ({2, 4, 6, 8, 10}, {2, 5, 8, 11}):
        if not complement_family(indices, slope, 24).ok:
            raise _Failed(f"dual family of {sorted(indices)} on {slope}")


def check_07_duality() -> str:
    """Shift word equals the complement's product word; complement involutes;
    the dual formulas of two gap-indexed full-digit families hold."""
    # every slope checks 25 windows, each on a 300-letter prefix
    _fan_out(_duality, NAMED_FIVE, [1] * len(NAMED_FIVE))
    return (
        f"{25 * len(NAMED_FIVE)} non-zero-class intercepts, prefix length 300; dual formulas "
        "of families {2,4,6,8,10} and {2,5,8,11} at depth 24 on 5 slopes"
    )


def check_08_characteristic_factorizations() -> str:
    """Both product factorizations of the characteristic word, three cases,
    and the central split of every clipped standard word s_N, N >= 2, up to
    q_N = 150."""
    seen = set()
    splits = 0
    for slope in NAMED_FIVE:
        report = characteristic_factorizations(slope, 400)
        if not report.ok:
            raise _Failed(f"{slope}")
        seen.add(report.case)
        for n in range(2, slope.level(150)):
            total = slope.q(n) - 2
            for m in range(total + 1):
                if not central_split_check(m, total - m, slope).ok:
                    raise _Failed(f"central split m={m}, p={total - m} on {slope}")
                splits += 1
    if seen != {"a1=1,a2=1", "a1=1,a2>=2", "a1>=2"}:
        raise _Failed(f"cases covered: {sorted(seen)}")
    return (
        f"three quotient cases verified to length 400; central split holds "
        f"for all {splits} m + p = q_N - 2 with N >= 2, q_N <= 150 on 5 slopes"
    )


def _rauzy_graphs(item: tuple[Slope, range]) -> None:
    """Criterion 09 on one slope's window lengths m."""
    slope, lengths = item
    window = zero(slope, 24)  # the characteristic word's, deep enough for every m here
    for m in lengths:
        # the vertices and the turns, on one reading of the cycles
        read = pos, c, *owns = _cycles(slope, m)
        starts = itertools.chain(range(pos.r + 1), *owns)
        if len({c[v : v + m] for v in starts}) != m + 1:
            raise _Failed(f"vertices at m={m} on {slope}")
        turns = _turns(window, m, slope, "referent", *read)
        if turns != slope.quotient(pos.n + 1) - pos.l:
            raise _Failed(f"turns at m={m} on {slope}")


def check_09_rauzy() -> str:
    """Distinct vertex factors and turn counts on every graph up to m=150.

    The vertices are the window starts of the cycles `_cycles` reads, the
    common path and each cycle's own run; `_cycles` holds the cycle lengths
    q_n and l q_n + q_{n-1}, coprime as q_n and q_{n-1} are."""
    # every slope builds the same 150 graphs, cut at m = 90 into two items;
    # a graph's work grows with m
    items = tuple((slope, m) for slope in NAMED_FIVE for m in (range(1, 91), range(91, 151)))
    _fan_out(_rauzy_graphs, items, [sum(m) for _, m in items])
    return "all m <= 150 on 5 slopes"


def check_10_torsion() -> str:
    """Continuant congruences certified by digit supports, golden slope."""
    details = []
    for modulus, k_ref in ((2, 3), (4, 6), (3, 8), (5, 20)):
        anchored = torsion_search(GOLDEN, modulus, n=4)
        if not anchored.found or anchored.k != k_ref:
            raise _Failed(f"N={modulus} at n=4 gave k={anchored.k}")
        hit = torsion_search(GOLDEN, modulus)
        if not hit.found or hit.k > k_ref:
            raise _Failed(f"N={modulus} default search k={hit.k}")
        for n in range(hit.n, hit.n + 31):
            again = torsion_search(GOLDEN, modulus, n=n)
            if not again.found:
                raise _Failed(f"N={modulus} no identity at n={n}")
            value = decode(again.quotient_digits, GOLDEN)
            if GOLDEN.q(n + again.k) - GOLDEN.q(n) != modulus * value:
                raise _Failed(f"N={modulus} arithmetic at n={n}")
        details.append(f"N={modulus}: k={k_ref} at n=4, k={hit.k} from n={hit.n}")
    return "; ".join(details) + "; identities re-verified for 31 ranks each"


def check_11_self_complementary() -> str:
    """Three reversal-fixed classes per slope, plus the all-even family.

    `self_complementary` and `even_family` refuse unless each class is
    equivalent to its complement and no two agree.  The palindromic center
    word, read at depth 6, lands in exactly one class.
    """
    for slope in NAMED_FIVE:
        classes = self_complementary(slope, 20)
        center = palindromic_center_word(slope, slope.q(7) + slope.q(6))
        rho = intercept_from_prefix(center, slope, 6)
        hits = sum(equivalent(rho, cls).equivalent for cls in classes)
        if hits != 1:
            raise _Failed(f"center word meets {hits} classes on {slope}")
    even_family(TWO_TWO, 20)
    return (
        "3 classes at depth 20 on 5 slopes; S0/S1/S2 family on the all-even slope; "
        "palindromic center word in exactly one class on 5 slopes"
    )


def _word(index: int, length: int) -> str:
    """The word at `index` in the product order of `length` letters."""
    return format(index, f"0{length}b") if length else ""


def _b_flags(length: int, head: str) -> bytes:
    """One byte per word of `length` letters that starts with `head`, in
    product order: 1 where b_factorize scans the word completely, else 0.

    Each word is one `+` of a head (`head` and the first half of the free
    letters) and a tail (the rest), from one list of tails made per call.
    """
    free = length - len(head)
    tails = list(map("".join, itertools.product("01", repeat=free // 2)))
    heads = map(head.__add__, map("".join, itertools.product("01", repeat=free - free // 2)))
    words = itertools.starmap(add, itertools.product(heads, tails))
    return bytes(map(attrgetter("complete"), map(b_factorize, words)))


def _parse_counts(blocks: frozenset[str], longest: int) -> list[bytes]:
    """min(parse count, 2) over `blocks` of every word of up to `longest`
    letters, one bytes per length in product order.

    The words grow one letter at a time, depth first: ways[j] counts the
    parses of u[:j], so u + x keeps the counts of u and adds one, over the
    blocks that end at its last letter.  `index` is the place of u in its
    length's product order.
    """
    counts = [bytearray(1 << n) for n in range(longest + 1)]
    stack = [("", 0, (1,))]
    while stack:
        u, index, ways = stack.pop()
        counts[len(u)][index] = min(ways[-1], 2)
        if len(u) < longest:
            for bit, ux in enumerate((u + "0", u + "1")):
                count = sum(w for i, w in enumerate(ways) if w and ux[i:] in blocks)
                stack.append((ux, 2 * index + bit, ways + (count,)))
    return list(map(bytes, counts))


def check_12_b_factorization() -> str:
    """Prefix-free inventory, at-most-one parsing, and the finite trichotomy."""
    inventory = ["00", "01"] + [
        "1" + "0" * k + "1" + x for k in range(16) for x in "01"
    ]
    # the parse-count oracle reads this explicit list, not the block pattern
    # b_factorize runs; it holds every block of up to 18 letters
    blocks = frozenset(inventory)
    for a in inventory:
        for b in inventory:
            if a != b and b.startswith(a):
                raise _Failed(f"{a} prefixes {b}")
    # the words p + u (p in "", "1", "11"; |u| <= 16) are every word of up
    # to 16 letters and "1" + u, "11" + u for |u| = 16, each scanned once
    # into one flag byte per word, in product order.  For |u| = k, "1" + u
    # and "11" + u are the last 2^k words one and two lengths up, so
    # lengths 17 and 18 start there.  Each length is cut into pieces of at
    # most 2^12 words from the place its words start: 75 items, each
    # weighed by its letters.  The parse-count oracle is the last item,
    # weighed as the 240,000 letters b_factorize scans in its time.
    starts = [range({17: 1 << 16, 18: 3 << 16}.get(n, 0), 1 << n, 1 << 12) for n in range(19)]
    pieces = [(n, start) for n in range(19) for start in starts[n]]
    jobs = [
        *(partial(_b_flags, n, _word(start >> 12, max(n - 12, 0))) for n, start in pieces),
        partial(_parse_counts, blocks, 12),
    ]
    weights = [*(n * min(1 << n, 1 << 12) for n, _ in pieces), 240_000]
    *scans, counts = _fan_out(lambda job: job(), jobs, weights)
    scans = iter(scans)
    flags = [b"".join(itertools.islice(scans, len(run))) for run in starts]
    del scans  # the pieces go before the sums, which hold 64 KB integers
    for k in range(17):
        triple = (flags[k], flags[k + 1][-(1 << k) :], flags[k + 2][-(1 << k) :])
        # each flag is one byte, 0 or 1, so the three slices add as integers
        # without carries, and the sum is 0x0101...01 exactly when every
        # word has one complete form; only a failing sum is scanned
        total = sum(int.from_bytes(flag, "big") for flag in triple)
        if total != int.from_bytes(b"\x01" * (1 << k), "big"):
            for i, done in enumerate(map(sum, zip(*triple))):
                if done != 1:
                    raise _Failed(f"trichotomy at {_word(i, k)!r}")
    # a word's flag is 1 exactly when it has one parse, so every count byte
    # equals its flag; the failure reported is the first by length, then
    # product order
    for n, count in enumerate(counts):
        if count != flags[n]:
            i = next(i for i, (c, f) in enumerate(zip(count, flags[n])) if c != f)
            raise _Failed(f"uniqueness at {_word(i, n)!r}")
    return (
        f"inventory prefix-free; trichotomy on {(1 << 17) - 1} words (<= 16); "
        "parse count <= 1 cross-checked to length 12"
    )


def check_13_dio_estimate() -> str:
    """Golden window value against 1 + phi; family formula against generic."""
    phi = (1 + math.sqrt(5)) / 2
    est = dio_estimate(zero(GOLDEN, 25))
    if abs(float(est.value) - (1 + phi)) >= 1e-3:
        raise _Failed(f"golden value {float(est.value)}")
    for text, digit in (("[0;4*]", 2), ("[0;5*]", 3)):
        slope = parse_slope(text)
        rho = AlphaNumber((digit,) * 14, slope)
        family = dio_estimate(rho)
        if family.mode != "four-family":
            raise _Failed(f"{text} missed the hypothesis")
        generic = 1 + max(
            Fraction(row.m_hi, row.value)
            for n in range(1, rho.depth - 1)
            for row in repetition_rows(rho, n)
        )
        # The family estimate refreshes on alternating depth parities, so a
        # single last step can be degenerate; one window term is the larger
        # of the final two one-level refinements.
        v14, v13, v12 = (float(dio_estimate(rho, depth=d).value) for d in (14, 13, 12))
        step = max(abs(v14 - v13), abs(v13 - v12))
        gap = abs(float(family.value - generic))
        if gap > step:
            raise _Failed(f"{text}: gap {gap} above window term {step}")
    return (
        f"golden window value {float(est.value):.6f} within 1e-3 of 1+phi; "
        "family/generic gap below one window term on two slopes"
    )


def _mechanical(item: Slope | tuple[Fraction, Fraction, str]) -> None:
    """Criterion 14 on one convergent slope or one rational (alpha, rho, side)."""
    if isinstance(item, Slope):
        depth = item.level(2 * 202)
        alpha = convergent_value(item, depth)
        if mechanical_prefix(alpha, alpha, 200, "lower") != characteristic_prefix(item, 200):
            raise _Failed(f"{item}")
        return
    alpha, rho, side = item
    word = mechanical_prefix(alpha, rho, 240, side)
    for n in range(1, 31):
        if complexity(word, n) > n + 1:
            raise _Failed(f"alpha={alpha}, rho={rho}, n={n}")


def check_14_mechanical_oracle() -> str:
    """Convergent-slope mechanical words, then rational complexity bounds."""
    rng = random.Random(SEED + 14)
    pairs = []
    for _ in range(50):
        den = rng.randint(2, 40)
        alpha = Fraction(rng.randint(0, den), den)
        rho = Fraction(rng.randint(0, den), rng.randint(1, 40))
        pairs.append((alpha, rho, rng.choice(("lower", "upper"))))
    # a slope reads 200 letters once, a pair 240 letters at each of 30 n
    weights = [200] * len(NAMED_FIVE) + [240 * 30] * len(pairs)
    _fan_out(_mechanical, NAMED_FIVE + tuple(pairs), weights)
    return "5 convergent slopes exact to 200; 50 rational pairs stay below n+1"


CHECKS: tuple[tuple[str, Callable[[], str]], ...] = (
    ("ostrowski-round-trip", check_01_ostrowski_round_trip),
    ("prefix-product", check_02_prefix_product),
    ("sturmian-complexity", check_03_complexity),
    ("repetition-intervals", check_04_repetition_intervals),
    ("closed-form-oracle", check_05_closed_form_oracle),
    ("intercept-bijection", check_06_intercept_bijection),
    ("duality", check_07_duality),
    ("characteristic-factorizations", check_08_characteristic_factorizations),
    ("rauzy-structure", check_09_rauzy),
    ("torsion-identities", check_10_torsion),
    ("self-complementary", check_11_self_complementary),
    ("b-factorization", check_12_b_factorization),
    ("dio-estimate", check_13_dio_estimate),
    ("mechanical-oracle", check_14_mechanical_oracle),
)


def run_check(number: int) -> CheckResult:
    if not 1 <= number <= len(CHECKS):
        raise ValueError(f"criteria are numbered 1..{len(CHECKS)}, got {number}")
    name, check = CHECKS[number - 1]
    try:
        detail = check()
    except Exception as exc:
        return CheckResult(number, name, False, _detail(exc))
    return CheckResult(number, name, True, detail)
