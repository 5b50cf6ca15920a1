"""The four workloads: seeded operation lists, how each operation calls
sturmia, and how its output is checked.

An operation is plain JSON (slope index, integers, digit lists, argv), so
the parent process generates and checks operations while a fresh worker
process runs them.  Generation and checks lean on the benchmark's own
`Ladder` (continuants, interval positions, mechanical words) rather than on
the code under test; the few checks that need sturmia itself (complement
involution, closed form against the direct scan) run in the parent, never
in the measured process.  Nothing here imports sturmia at module level.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import random

WORKLOADS = ("verify", "deep", "long-words", "cli-mix")

# The five named slopes of the acceptance suite, as (head, period).
NAMED_SLOPES = (
    ((), (1,)),
    ((2,), (1,)),
    ((2, 1, 3), (2, 1)),
    ((2, 3), (1, 2)),
    ((1, 3), (2, 1)),
)

# The modules a workload imports during set-up.
SETUP_IMPORTS = {
    "verify": ("sturmia", "sturmia.acceptance"),
    "deep": ("sturmia", "sturmia.intercept"),
    "long-words": ("sturmia",),
    "cli-mix": ("sturmia", "sturmia.cli"),
}

CLI_DEPTH = 24


def literal(head, period) -> str:
    """Slope literal accepted by sturmia's parse_slope."""
    block = f"({','.join(map(str, period))})*" if len(period) > 1 else f"{period[0]}*"
    return "[0;" + "".join(f"{a}," for a in head) + block + "]"


def digest(word: str) -> str:
    return hashlib.blake2b(word.encode("ascii"), digest_size=16).hexdigest()


class Ladder:
    """Partial quotients, continuants and interval positions of one slope,
    computed by the benchmark itself so that checks never trust the code
    under test."""

    def __init__(self, head, period):
        self.head = tuple(head)
        self.period = tuple(period)
        self._q = [0, 1]
        self._p = [1, 0]
        self._word = ""

    def a(self, i: int) -> int:
        if i <= len(self.head):
            return self.head[i - 1]
        return self.period[(i - 1 - len(self.head)) % len(self.period)]

    def _grow(self, n: int) -> None:
        while len(self._q) < n + 2:
            a = self.a(len(self._q) - 1)
            self._q.append(a * self._q[-1] + self._q[-2])
            self._p.append(a * self._p[-1] + self._p[-2])

    def q(self, n: int) -> int:
        self._grow(n)
        return self._q[n + 1]

    def p(self, n: int) -> int:
        self._grow(n)
        return self._p[n + 1]

    def level(self, m: int) -> int:
        """The n with q_n - 1 <= m <= q_{n+1} - 2."""
        n = 0
        while self.q(n + 1) - 2 < m:
            n += 1
        return n

    def position(self, m: int) -> tuple[int, int, int]:
        """(n, l, r) with m = (l+1) q_n + q_{n-1} - 2 - r."""
        n = self.level(m)
        q_lo, q = self.q(n - 1), self.q(n)
        l = 0 if m <= q + q_lo - 2 else (m + 1 - q_lo) // q
        return n, l, (l + 1) * q + q_lo - 2 - m

    def interval(self, n: int) -> tuple[int, int]:
        return self.q(n) - 1, self.q(n + 1) - 2

    def depth_for(self, length: int) -> int:
        """Smallest d with q_d - 1 >= length."""
        d = 0
        while self.q(d) - 1 < length:
            d += 1
        return d

    def valid(self, digits) -> bool:
        for i, b in enumerate(digits, start=1):
            a = self.a(i)
            if b < 0 or b > (a - 1 if i == 1 else a):
                return False
            if i > 1 and b == a and digits[i - 2] != 0:
                return False
        return True

    def value(self, digits) -> int:
        return sum(b * self.q(i) for i, b in enumerate(digits))

    def word(self, length: int) -> str:
        """Characteristic prefix as the lower mechanical word of a convergent
        p_d/q_d with q_d > 2(length + 2), in integer arithmetic."""
        if len(self._word) < length:
            build = max(length, 2 * len(self._word))
            d = 1
            while self.q(d) <= 2 * (build + 2):
                d += 1
            p, q = self.p(d), self.q(d)
            ceil = [-((-j * p) // q) for j in range(1, build + 2)]
            self._word = "".join("01"[ceil[k + 1] - ceil[k]] for k in range(build))
        return self._word[:length]


# ------------------------------------------------------------ generation


def strata(rng: random.Random, lo: float, hi: float, k: int, log: bool = False) -> list[int]:
    """k integers, one drawn from each of k equal slices of [lo, hi].

    Stratified draws keep the total work of a workload nearly the same for
    every seed while each seed still picks its own inputs.
    """
    if log:
        lo, hi = math.log(lo), math.log(hi)
    out = []
    for j in range(k):
        x = lo + (hi - lo) * (j + rng.random()) / k
        out.append(int(round(math.exp(x) if log else x)))
    rng.shuffle(out)
    return out


def random_digits(rng: random.Random, lad: Ladder, depth: int) -> list[int]:
    digits = []
    for i in range(1, depth + 1):
        a = lad.a(i)
        b = rng.randint(0, a - 1 if i == 1 else a)
        if i >= 2 and b == a and digits[-1] != 0:
            b -= 1
        digits.append(b)
    return digits


TAILS = ("natural-integer", "sigma0-tail", "sigma1-tail", "non-zero")


def tail_digits(rng: random.Random, lad: Ladder, depth: int, kind: str, phase: int = 0) -> list[int]:
    """Random head, then depth//2 trailing digits following a pattern whose
    classify verdict is `kind`.  The "non-zero" tail puts a 1 on every third
    subscript, which matches none of the three zero-class patterns."""
    digits = random_digits(rng, lad, depth)
    start = depth - depth // 2 + 1
    for i in range(start, depth + 1):
        a = lad.a(i)
        if kind == "natural-integer":
            b = 0
        elif kind == "sigma0-tail":
            b = a if i % 2 == 0 else 0
        elif kind == "sigma1-tail":
            b = a if i % 2 == 1 else 0
        else:
            b = 1 if i % 3 == phase else 0
        digits[i - 1] = b
    if digits[start - 1] == lad.a(start):
        digits[start - 2] = 0
    return digits


def seeded_slope(rng: random.Random):
    """A periodic slope whose period is a shuffle of (1, 1, 2, 3), so its
    continuants grow at nearly the same rate for every seed."""
    head = tuple(rng.choice((1, 2, 3)) for _ in range(2))
    return head, tuple(rng.sample((1, 1, 2, 3), 4))


def canonical(head, period):
    """The shortest (head, period) spelling of an eventually periodic slope,
    so that two spellings of one slope compare equal."""
    period = tuple(period)
    for size in range(1, len(period) + 1):
        if len(period) % size == 0 and period[:size] * (len(period) // size) == period:
            period = period[:size]
            break
    head = tuple(head)
    while head and head[-1] == period[-1]:
        head, period = head[:-1], period[-1:] + period[:-1]
    return head, period


def fresh_slope(rng: random.Random, seen: set):
    """A slope not in `seen` (compared in canonical form), which it joins.
    Quotients run from 1 to 5, small ones likelier."""
    weights = (16, 8, 4, 2, 1)
    while True:
        head = tuple(rng.choices(range(1, 6), weights, k=rng.randint(0, 3)))
        period = tuple(rng.choices(range(1, 6), weights, k=rng.randint(1, 3)))
        key = canonical(head, period)
        if key not in seen:
            seen.add(key)
            return head, period


def generate(workload: str, seed: int, scale: float = 1.0) -> dict:
    """The operation list of one workload: {"pool": [(head, period), ...],
    "ops": [...]}.  The same workload and seed give the same list.

    `scale` shrinks every count and size (the smoke test uses it); 1.0 is
    the benchmark.
    """
    rng = random.Random(f"{workload}:{seed}")

    def count(k: int) -> int:
        return max(1, round(k * scale))

    if workload == "verify":
        return {"pool": [], "ops": [{"kind": "criterion", "n": n} for n in range(1, 15)][: count(14)]}
    if workload == "cli-mix":
        return {"pool": [], "ops": _cli_ops(rng, count)}
    pool = list(NAMED_SLOPES) + [seeded_slope(rng)]
    ladders = [Ladder(h, p) for h, p in pool]
    make = _deep_ops if workload == "deep" else _long_word_ops
    return {"pool": pool, "ops": make(rng, ladders, count, scale)}


DEEP_LEVEL = 800
# Every query kind gets the same number of queries on every slope of the
# pool.  Nothing in the repository records how often each query is asked,
# so no kind is weighted over another; README.md says why.
PER_KIND = 4
TORSION_MODULI = (2, 5, 7, 11)
COMPLEMENT_DEPTHS = (24, 48, 72, 96)


def _deep_ops(rng, ladders, count, scale) -> list[dict]:
    top = max(24, round(DEEP_LEVEL * min(1.0, 4 * scale)))
    k = count(PER_KIND)
    ops: list[dict] = []
    firsts: list[dict] = []
    for s, lad in enumerate(ladders):
        # one of the slope's locates sits at the top level and builds its
        # whole ladder; it runs before the slope's other queries so the cold
        # cost sits in a fixed set of operations
        lo, hi = lad.interval(top - 1)
        firsts.append({"kind": "locate", "s": s, "m": rng.randint(lo, hi)})
        for n in strata(rng, 24, top - 2, k - 1):
            lo, hi = lad.interval(n)
            ops.append({"kind": "locate", "s": s, "m": rng.randint(lo, hi)})
        for d in strata(rng, 24, top, k):
            ops.append({"kind": "roundtrip", "s": s, "n": rng.randrange(lad.q(d)), "d": d})
        for j, depth in enumerate(strata(rng, 24, 200, k)):
            digits = [0] * depth if j % 4 == 0 else random_digits(rng, lad, depth)
            n = rng.randint(2, depth - 2)  # level 1 can hold only m = 0
            lo, hi = lad.interval(n)
            ops.append({"kind": "closed_form", "s": s, "digits": digits, "m": rng.randint(lo, hi)})
        for j, depth in enumerate(strata(rng, 24, 96, k)):
            kind = TAILS[j % 4]
            ops.append({"kind": "classify", "s": s, "digits": tail_digits(rng, lad, depth, kind), "expect": kind})
        for j, depth in enumerate(strata(rng, 24, 96, k)):
            rho = tail_digits(rng, lad, depth, "non-zero")
            same = j % 2 == 0
            other = tail_digits(rng, lad, depth, "non-zero", phase=0 if same else 1)
            if same:
                other[depth // 3:] = rho[depth // 3:]
                if other[depth // 3] == lad.a(depth // 3 + 1) and depth // 3 >= 1:
                    other[depth // 3 - 1] = 0
            ops.append({"kind": "equivalent", "s": s, "digits": rho, "other": other, "expect": same})
        # complement_report's cost grows steeply with depth and the tail of
        # this workload sits among these queries, so their depths are fixed
        # (drawn depths would make the tail swing with the seed)
        for depth in COMPLEMENT_DEPTHS[:k]:
            ops.append({"kind": "complement", "s": s, "digits": tail_digits(rng, lad, depth, "non-zero")})
        for modulus in TORSION_MODULI[:k]:
            ops.append({"kind": "torsion", "s": s, "N": modulus})
        for depth in strata(rng, 24, 96, k):
            ops.append({"kind": "dio", "s": s, "digits": random_digits(rng, lad, depth)})
    rng.shuffle(ops)
    # each slope's first query is its top-level locate
    for first in firsts:
        at = next((i for i, op in enumerate(ops) if op["s"] == first["s"]), len(ops))
        ops.insert(at, first)
    return ops


def _long_word_ops(rng, ladders, count, scale) -> list[dict]:
    big = 10 ** max(3, round(6 + math.log10(max(scale, 1e-3))))
    top_m = max(200, round(10_000 * min(1.0, 10 * scale)))
    top_graph = max(40, top_m // 5)
    k = count(PER_KIND)
    scans: list[dict] = []
    ops: list[dict] = []
    for s, lad in enumerate(ladders):
        for m in strata(rng, 1000, big, k, log=True):
            ops.append({"kind": "char_prefix", "s": s, "m": m})
        for m in strata(rng, 1000, big // 10, k, log=True):
            depth = lad.depth_for(m) + 2
            ops.append({"kind": "sturm_prefix", "s": s, "m": m, "digits": random_digits(rng, lad, depth)})
        # on a named slope one direct scan runs at m near 1e4, first of all
        # queries: the named slopes' continuants do not depend on the seed,
        # so neither does the cost of these scans, and the memory peak they
        # set does not depend on what the shuffled queries left in the caches
        direct = k
        if s < len(NAMED_SLOPES):
            n = lad.level(top_m)
            lo = lad.q(n) - 1
            scans.append(_direct_op(rng, s, lad, rng.randint(lo, lo + lad.q(n) // 256), shifted=False))
            direct -= 1
        for j, m in enumerate(strata(rng, 200, 2000, direct, log=True)):
            ops.append(_direct_op(rng, s, lad, m, shifted=j % 2 == 0))
        for m_lo in strata(rng, 50, 400, k):
            m_hi = m_lo + 10
            n = lad.level(m_hi)
            ops.append({"kind": "jump", "s": s, "m_lo": m_lo, "m_hi": m_hi,
                        "L": m_hi + lad.q(n + 1) + lad.q(n) + 2})
        # complexity is n + 1 only once the prefix passes one recurrence span
        n_top = 500
        while n_top + lad.q(lad.level(n_top) + 1) + 10 > big // 10:
            n_top -= 1
        for n in strata(rng, 1, n_top, k):
            ops.append({"kind": "complexity", "s": s, "L": big // 10, "n": n})
        for length in strata(rng, 1000, big // 10, k, log=True):
            ops.append({"kind": "factorizations", "s": s, "length": length})
        for length in strata(rng, 300, 1000, k):
            ops.append({"kind": "duality", "s": s, "length": length, "digits": None,
                        "draw": rng.randrange(2 ** 32)})
        # graph memory is quadratic in m, so each slope's largest graph sits
        # in a narrow band just below m = 2000 and the peak barely moves
        # with the seed
        graph_ms = strata(rng, top_graph // 10, top_graph - top_graph // 20, k - 1, log=True)
        graph_ms.append(top_graph - rng.randrange(max(1, top_graph // 40)))
        for m in graph_ms:
            ops.append({"kind": "graph", "s": s, "m": m})
        for m in strata(rng, top_graph // 10, top_graph, k, log=True):
            ops.append({"kind": "turns", "s": s, "m": m})
    rng.shuffle(ops)
    return scans + ops


def _direct_op(rng, s, lad, m, shifted) -> dict:
    n = lad.level(m)
    length = m + lad.q(n + 1) + lad.q(n) + 2
    digits = None
    if shifted:
        digits = random_digits(rng, lad, lad.depth_for(length) + 1) + [0, 0]
    return {"kind": "direct", "s": s, "m": m, "L": length, "digits": digits}


def _digit_spec(rng, lad, depth) -> str:
    return "b:" + ",".join(map(str, random_digits(rng, lad, depth)))


# The CLI's subcommands (verify aside), each with the formats it offers and
# the query variants it takes.
CLI_CELLS = (
    ("word", ("text", "json"), ("word-prefix", "word-shift", "word-standard")),
    ("ostrowski", ("text", "json", "csv"), ("ostrowski-encode", "ostrowski-decode")),
    ("intercept", ("text", "json"), ("intercept",)),
    ("rauzy", ("text", "json", "dot"), ("rauzy",)),
    ("repetition", ("csv", "json", "text"), ("repetition",)),
    ("factorize", ("text", "json"), ("factorize-word", "factorize-slope")),
    ("torsion", ("json", "text"), ("torsion",)),
)
CLI_PER_CELL = 120
NAMED_SHARE = 10  # one query in this many runs on a named slope


def _cli_ops(rng, count) -> list[dict]:
    """The same number of argv lists for every subcommand and format (17
    cells of 120, about 2,000), a cell's variants taking turns.  One query
    in ten runs on a named slope; every other query draws a slope that no
    earlier query used."""
    d = CLI_DEPTH
    seen = {canonical(h, p) for h, p in NAMED_SLOPES}
    ops = []
    for _, formats, variants in CLI_CELLS:
        for fmt in formats:
            for i in range(count(CLI_PER_CELL)):
                if i % NAMED_SHARE == NAMED_SHARE - 1:
                    head, period = NAMED_SLOPES[rng.randrange(len(NAMED_SLOPES))]
                else:
                    head, period = fresh_slope(rng, seen)
                lad = Ladder(head, period)
                argv = _cli_argv(rng, variants[i % len(variants)], lad, literal(head, period), d)
                ops.append({"kind": "cli", "argv": argv + ["--depth", str(d), "--format", fmt]})
    rng.shuffle(ops)
    return ops


def _cli_argv(rng, name, lad, slope, d) -> list[str]:
    if name == "word-prefix":
        return ["word", "prefix", "--slope", slope, "--len", str(rng.randint(20, 2000))]
    if name == "word-shift":
        spec = str(rng.randrange(min(lad.q(d), 10 ** 6)))
        return ["word", "prefix", "--slope", slope, "--intercept", spec, "--len", str(rng.randint(20, 500))]
    if name == "word-standard":
        level = 1
        while lad.q(level + 1) <= 2000:
            level += 1
        return ["word", "standard", "--slope", slope, "--level", str(rng.randint(1, level))]
    if name == "ostrowski-encode":
        return ["ostrowski", "--slope", slope, "--encode", str(rng.randrange(lad.q(d)))]
    if name == "ostrowski-decode":
        return ["ostrowski", "--slope", slope, "--decode", ",".join(map(str, random_digits(rng, lad, d)))]
    if name == "intercept":
        spec = rng.choice(("sigma0", "sigma1", _digit_spec(rng, lad, d), str(rng.randrange(1, 10 ** 4))))
        return ["intercept", "--slope", slope, "--intercept", spec]
    if name == "rauzy":
        return ["rauzy", "--slope", slope, "--m", str(rng.randint(1, 40))]
    if name == "repetition":
        spec = rng.choice(("zero", _digit_spec(rng, lad, d), str(rng.randrange(1, 10 ** 3))))
        return ["repetition", "--slope", slope, "--intercept", spec, "--m-max", str(rng.randint(5, 30))]
    if name == "factorize-word":
        word = "".join(rng.choice("01") for _ in range(rng.randint(4, 40)))
        return ["factorize", "--word", word]
    if name == "factorize-slope":
        return ["factorize", "--slope", slope, "--len", str(rng.randint(50, 1000))]
    return ["torsion", "--slope", slope, "-N", str(rng.choice((2, 3, 4, 5, 7)))]


def prepare(plan: dict) -> None:
    """Fill in inputs that need sturmia to find: duality windows that can be
    certified in both directions, drawn as acceptance criterion 07 draws
    them.  Runs in the parent, so the measured process starts cold."""
    pending = [op for op in plan["ops"] if op["kind"] == "duality" and op["digits"] is None]
    if not pending:
        return
    from sturmia.errors import SturmiaError
    from sturmia.intercept import AlphaNumber, classify, complement
    from sturmia.slope import parse_slope

    for op in pending:
        head, period = plan["pool"][op["s"]]
        slope = parse_slope(literal(head, period))
        lad = Ladder(head, period)
        rng = random.Random(op["draw"])
        depth = max(16, lad.depth_for(4 * op["length"]))
        while op["digits"] is None:
            rho = AlphaNumber(tuple(random_digits(rng, lad, depth)), slope)
            if classify(rho).verdict != "non-zero":
                continue
            try:
                comp = complement(rho)
                complement(comp)
            except SturmiaError:
                continue
            if comp.psi(comp.depth) >= op["length"] and classify(comp).verdict == "non-zero":
                op["digits"] = list(rho.digits)


# -------------------------------------------------------------- execution


class Program:
    """The code under test as the worker calls it.  Functions are looked up
    on their modules at call time, so a tracer that rebinds module names
    sees every call."""

    def __init__(self, workload: str, pool):
        for name in SETUP_IMPORTS[workload]:
            importlib.import_module(name)
        self.lib = importlib.import_module("sturmia")
        self.slopes = [self.lib.parse_slope(literal(h, p)) for h, p in pool]


def execute(prog: Program, op: dict):
    """Run one operation and return its raw result."""
    kind = op["kind"]
    lib = prog.lib
    if kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = lib.cli.dispatch(op["argv"])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        return code, out.getvalue(), err.getvalue()
    if kind == "criterion":
        return lib.acceptance.run_check(op["n"])
    slope = prog.slopes[op["s"]] if "s" in op else None
    rho = lib.AlphaNumber(tuple(op["digits"]), slope) if op.get("digits") is not None else None
    if kind == "locate":
        return lib.interval_locate(op["m"], slope)
    if kind == "roundtrip":
        encoded = lib.encode(op["n"], slope, op["d"])
        return encoded.digits, lib.decode(encoded)
    if kind == "closed_form":
        return lib.repetition_closed_form(rho, op["m"])
    if kind == "classify":
        return lib.classify(rho)
    if kind == "equivalent":
        return lib.equivalent(rho, lib.AlphaNumber(tuple(op["other"]), slope))
    if kind == "complement":
        return lib.intercept.complement_report(rho)
    if kind == "torsion":
        return lib.torsion_search(slope, op["N"])
    if kind == "dio":
        return lib.dio_estimate(rho)
    if kind == "char_prefix":
        return lib.characteristic_prefix(slope, op["m"])
    if kind == "sturm_prefix":
        return lib.sturmian_prefix(rho, op["m"])
    if kind == "direct":
        word = lib.characteristic_prefix(slope, op["L"]) if rho is None else lib.sturmian_prefix(rho, op["L"])
        return lib.repetition_direct(word, op["m"])
    if kind == "jump":
        return lib.repetition.repetition_jump_check(lib.characteristic_prefix(slope, op["L"]), op["m_lo"], op["m_hi"])
    if kind == "graph":
        return lib.build_graph(slope, op["m"])
    if kind == "turns":
        return lib.count_turns(0, op["m"], slope=slope)
    if kind == "complexity":
        return lib.complexity(lib.characteristic_prefix(slope, op["L"]), op["n"])
    if kind == "factorizations":
        return lib.characteristic_factorizations(slope, op["length"])
    if kind == "duality":
        return lib.duality_check(rho, op["length"])
    raise ValueError(f"unknown operation kind {kind!r}")


def observe(prog: Program, op: dict, result):
    """Compact, JSON-ready summary of a result, taken outside the timed
    region; the parent checks it."""
    kind = op["kind"]
    if kind == "cli":
        code, out, err = result
        envelope = None
        if op["argv"][-1] == "json" and code in (0, 1):
            envelope = envelope_errors(out, prog.lib.cli.JSON_SCHEMA)
        found = None
        if op["argv"][0] == "torsion" and op["argv"][-1] == "json" and envelope == []:
            found = json.loads(out)["result"]["found"]
        elif op["argv"][0] == "torsion" and op["argv"][-1] == "text":
            found = "no admissible" not in out
        return {"code": code, "out": len(out), "err": err[-200:], "envelope": envelope, "found": found}
    if kind == "criterion":
        return {"passed": result.passed, "detail": result.detail}
    if kind == "locate":
        return list(result)
    if kind == "roundtrip":
        return {"digits": list(result[0]), "value": result[1]}
    if kind == "closed_form":
        return list(result)
    if kind == "classify":
        return result.verdict
    if kind == "equivalent":
        return result.equivalent
    if kind == "complement":
        return {"digits": list(result.value.digits), "stable_from": result.stable_from, "top": result.top_level}
    if kind == "torsion":
        digits = None if result.quotient_digits is None else list(result.quotient_digits)
        return {"found": result.found, "n": result.n, "k": result.k, "digits": digits}
    if kind == "dio":
        return {"value": [result.value.numerator, result.value.denominator], "mode": result.mode}
    if kind in ("char_prefix", "sturm_prefix"):
        return {"len": len(result), "digest": digest(result)}
    if kind in ("direct", "turns", "complexity"):
        return result
    if kind == "jump":
        return {"holds": result.holds, "failures": list(result.failures)}
    if kind == "graph":
        return [len(result.referent_cycle), len(result.other_cycle), len(result.common_path)]
    if kind in ("factorizations", "duality"):
        return result.ok
    raise ValueError(f"unknown operation kind {kind!r}")


def envelope_errors(text: str, schema: dict) -> list[str]:
    """Where a JSON document departs from the envelope schema (the subset of
    JSON Schema that cli.JSON_SCHEMA uses: type, required, properties,
    enum)."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"not JSON: {exc}"]
    errors: list[str] = []
    _schema_walk(doc, schema, "$", errors)
    return errors


_TYPES = {
    "object": dict, "string": str, "integer": int, "boolean": bool,
    "null": type(None), "array": list, "number": (int, float),
}


def _schema_walk(value, schema: dict, path: str, errors: list[str]) -> None:
    kinds = schema.get("type")
    if kinds is not None:
        kinds = [kinds] if isinstance(kinds, str) else kinds
        bool_ok = "boolean" in kinds
        if (isinstance(value, bool) and not bool_ok) or not isinstance(value, tuple(_TYPES[k] for k in kinds)):
            errors.append(f"{path}: expected {kinds}")
            return
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in {schema['enum']}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                errors.append(f"{path}: missing {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                _schema_walk(value[key], sub, f"{path}.{key}", errors)


# ----------------------------------------------------------------- checks


class Checker:
    """Checks observations against expectations the benchmark derives on
    its own.  Expensive expectations are computed once per run and reused
    for every pass."""

    def __init__(self, plan: dict):
        self.plan = plan
        self.ladders = [Ladder(h, p) for h, p in plan["pool"]]
        self._memo: dict = {}

    def failure(self, index: int, obs) -> str | None:
        """None when the observation is correct, else the reason."""
        op = self.plan["ops"][index]
        if isinstance(obs, dict) and "raised" in obs:
            return f"raised {obs['raised']}"
        key = (index, json.dumps(obs, sort_keys=True))
        if key not in self._memo:
            self._memo[key] = getattr(self, "_check_" + op["kind"])(op, obs)
        return self._memo[key]

    def _lad(self, op) -> Ladder:
        return self.ladders[op["s"]]

    def _check_criterion(self, op, obs):
        return None if obs["passed"] else f"criterion {op['n']} failed: {obs['detail']}"

    def _check_cli(self, op, obs):
        command = op["argv"][0]
        if obs["err"]:
            return f"stderr: {obs['err']!r}"
        if obs["envelope"]:
            return f"envelope: {obs['envelope'][:3]}"
        if obs["code"] == 1 and command == "torsion" and obs["found"] is False:
            return None
        if obs["code"] != 0:
            return f"exit {obs['code']}"
        if obs["out"] == 0:
            return "no output"
        return None

    def _check_locate(self, op, obs):
        lad, m = self._lad(op), op["m"]
        n, l, r = obs
        q_lo, q = lad.q(n - 1), lad.q(n)
        width = q_lo if l == 0 else q
        lo, hi = lad.interval(n)
        if m != (l + 1) * q + q_lo - 2 - r or not 0 <= r < width or not lo <= m <= hi:
            return f"({n}, {l}, {r}) does not place m={m}"
        if not 0 <= l <= lad.a(n + 1) - 1:
            return f"l={l} exceeds a_{n + 1} - 1"
        return None

    def _check_roundtrip(self, op, obs):
        lad = self._lad(op)
        digits = obs["digits"]
        if obs["value"] != op["n"]:
            return f"decode(encode({op['n']})) = {obs['value']}"
        if len(digits) != op["d"] or not lad.valid(digits) or lad.value(digits) != op["n"]:
            return "encode returned digits that do not spell n"
        return None

    def _check_closed_form(self, op, obs):
        lad = self._lad(op)
        value, case = obs
        n = lad.level(op["m"])
        if not any(op["digits"]):
            return None if value == lad.q(n) else f"characteristic r = {value} != q_{n}"
        if case not in "12345678" or not 1 <= value <= lad.q(n + 1) + lad.q(n):
            return f"closed form ({value}, {case}) out of range"
        return None

    def _check_classify(self, op, obs):
        return None if obs == op["expect"] else f"verdict {obs} != {op['expect']}"

    def _check_equivalent(self, op, obs):
        return None if obs == op["expect"] else f"equivalent {obs} != {op['expect']}"

    def _check_complement(self, op, obs):
        lad = self._lad(op)
        if not lad.valid(obs["digits"]):
            return "complement digits invalid"
        from sturmia.errors import SturmiaError
        from sturmia.intercept import AlphaNumber, complement, equivalent
        from sturmia.slope import parse_slope

        slope = parse_slope(literal(*self.plan["pool"][op["s"]]))
        rho = AlphaNumber(tuple(op["digits"]), slope)
        try:
            back = complement(AlphaNumber(tuple(obs["digits"]), slope))
        except SturmiaError as exc:
            return f"complement of the complement raised {exc}"
        return None if equivalent(back, rho).equivalent else "complement is not an involution"

    def _check_torsion(self, op, obs):
        if not obs["found"]:
            return None
        lad, n, k, digits = self._lad(op), obs["n"], obs["k"], obs["digits"]
        if lad.q(n + k) - lad.q(n) != op["N"] * lad.value(digits):
            return f"q_{n + k} - q_{n} != {op['N']} * value"
        if not all(n < i < n + k for i, b in enumerate(digits) if b):
            return "support outside ]n, n+k["
        return None

    def _check_dio(self, op, obs):
        num, den = obs["value"]
        return None if num > den > 0 and obs["mode"] in ("four-family", "generic") else f"estimate {obs}"

    def _check_char_prefix(self, op, obs):
        expect = self._lad(op).word(op["m"])
        return None if obs == {"len": len(expect), "digest": digest(expect)} else "prefix differs from the mechanical word"

    def _check_sturm_prefix(self, op, obs):
        lad, m = self._lad(op), op["m"]
        n = lad.depth_for(m)
        shift = lad.value(op["digits"][:n])
        expect = lad.word(shift + m)[shift:]
        return None if obs == {"len": m, "digest": digest(expect)} else "shifted prefix differs from the mechanical word"

    def _check_direct(self, op, obs):
        lad, m = self._lad(op), op["m"]
        if op["digits"] is None:
            expect = lad.q(lad.level(m))
        else:
            from sturmia.intercept import AlphaNumber
            from sturmia.repetition import repetition_closed_form
            from sturmia.slope import parse_slope

            rho = AlphaNumber(tuple(op["digits"]), parse_slope(literal(*self.plan["pool"][op["s"]])))
            expect = repetition_closed_form(rho, m)[0]
        return None if obs == expect else f"direct scan {obs} != closed form {expect}"

    def _check_jump(self, op, obs):
        return None if obs["holds"] else f"jump law fails at {obs['failures']}"

    def _check_graph(self, op, obs):
        lad = self._lad(op)
        n, l, r = lad.position(op["m"])
        expect = [lad.q(n), l * lad.q(n) + lad.q(n - 1), r + 1]
        return None if obs == expect else f"cycles {obs} != {expect}"

    def _check_turns(self, op, obs):
        lad = self._lad(op)
        n, l, _ = lad.position(op["m"])
        return None if obs == lad.a(n + 1) - l else f"turns {obs} != a_{n + 1} - l"

    def _check_complexity(self, op, obs):
        return None if obs == op["n"] + 1 else f"complexity {obs} != n + 1"

    def _check_factorizations(self, op, obs):
        return None if obs else "factorizations disagree with the prefix"

    def _check_duality(self, op, obs):
        return None if obs else "duality check failed"
