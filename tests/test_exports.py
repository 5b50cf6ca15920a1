"""Every name in `sturmia.__all__` answers or refuses in bounded time.

A hypothesis sweep calls each export on small, huge and negative ints,
short words, and finite and periodic slopes (one with a 20,001-bit
quotient), drawn by each parameter's annotation.  Each call must return,
raise a `SturmiaError`, or raise one of the documented `ValueError`s, before
a per-call alarm; a generator must yield its first item the same way.  A
`ValueError` from the interpreter's limit on int-to-str conversion fails:
every refusal writes its integers through `errors.shown`.
"""

import inspect
import signal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sturmia
from sturmia import SturmiaError
from sturmia.intercept import encode, sigma0, zero
from sturmia.slope import Slope, parse_slope

class Lit:
    """A drawn argument that hypothesis prints as its source text, so that a
    failing example reads as the call that fails: repr() of a 16,610-bit int
    raises ValueError, and the repr of a slope or a window that holds one
    names the int only by its bit length."""

    def __init__(self, text: str, value):
        self.text, self.value = text, value

    def __repr__(self) -> str:
        return self.text


def resolve(arg):
    """The value a drawn argument stands for, inside tuples too."""
    if isinstance(arg, Lit):
        return arg.value
    if isinstance(arg, tuple):
        return tuple(map(resolve, arg))
    return arg


GOLDEN = parse_slope("[0;1*]")
FINITE = parse_slope("[0;3,2,2]")
EVEN = parse_slope("[0;2*]")
SLOPES = [
    Lit("golden", GOLDEN),
    Lit("[0;3,2,2]", FINITE),
    Lit("[0;2,3,(1,2)*]", parse_slope("[0;2,3,(1,2)*]")),
    Lit("[0;2*]", EVEN),
    Lit("Slope((2**20000,), (0, 1))", Slope((2**20000,), (0, 1))),
]
INTS = [
    Lit(text, eval(text))
    for text in ("0", "1", "-1", "2", "17", "10**6", "10**30", "10**5000", "-10**5000")
]
WORDS = ["", "0", "01" * 50, "2", "0" * 1000]
FRACTIONS = [
    Fraction(0),
    Fraction(1, 2),
    Fraction(2, 3),
    Lit("Fraction(10**30, 10**30 + 1)", Fraction(10**30, 10**30 + 1)),
]


def _windows() -> list[Lit]:
    """Valid windows on every slope, at a few depths (at most D on a finite one)."""
    out = []
    for slope in SLOPES:
        s = slope.value
        for depth in (2, 3, 17):
            if s.known_depth is not None and depth > s.known_depth:
                continue
            out += [
                Lit(f"zero({slope}, {depth})", zero(s, depth)),
                Lit(f"sigma0({slope}, {depth})", sigma0(s, depth)),
            ]
            if s.q(depth) > 17:
                out.append(Lit(f"encode(17, {slope}, {depth})", encode(17, s, depth)))
    return out


WINDOWS = _windows()

# the ValueErrors the library documents, by the start of their message
DOCUMENTED = (
    "at least one partial quotient is required",
    "partial quotients must be integers >= 1",
    "period must describe the tail of the stored quotients",
    "not a slope literal",
    "kind must be 'upper' or 'lower'",
    "decode needs a slope for raw digit tuples",
    "intercepts live over different slopes",
    "integer shifts need an explicit slope",
    "cycle must be 'referent' or 'other'",
    "digit window and graph live over different slopes",
)

ints = st.sampled_from(INTS)
windows = st.sampled_from(WINDOWS)
digit_tuples = st.lists(ints, max_size=3).map(tuple)
BY_ANNOTATION = {
    "int": ints,
    "int | None": st.none() | ints,
    "str": st.sampled_from(WORDS),
    "Slope": st.sampled_from(SLOPES),
    "Slope | None": st.none() | st.sampled_from(SLOPES),
    "AlphaNumber": windows,
    "AlphaNumber | int": windows | ints,
    "AlphaNumber | tuple[int, ...]": windows | digit_tuples,
    "tuple[int, ...]": digit_tuples,
    "tuple[int, ...] | list[int]": digit_tuples,
    "tuple[int, int] | None": st.none() | st.tuples(ints, ints),
    "Fraction": st.sampled_from(FRACTIONS) | ints,
}


def _arguments(name: str):
    """The positional arguments of one call of the export `name`: each
    parameter drawn by its annotation (an int where it has none), and a
    parameter with a default sometimes left out, with those after it."""
    try:
        parameters = list(inspect.signature(getattr(sturmia, name)).parameters.values())
    except ValueError:  # an exception type: its one argument is a message
        return st.tuples(st.sampled_from(WORDS))
    drawn = [
        BY_ANNOTATION.get(p.annotation, ints) if p.annotation is not p.empty else ints
        for p in parameters
    ]
    required = sum(p.default is p.empty for p in parameters)
    return st.integers(required, len(parameters)).flatmap(lambda n: st.tuples(*drawn[:n]))


CALLS = st.sampled_from(sturmia.__all__).flatmap(
    lambda name: st.tuples(st.just(name), _arguments(name))
)


class Overran(BaseException):
    """The per-call alarm; a BaseException, so no `except Exception` takes it."""


def _overran(signum, frame):
    raise Overran


def call(name: str, args: tuple, budget: float = 5.0):
    """sturmia.<name>(*args), and the first item when it returns an iterator,
    under an alarm of `budget` seconds."""
    args = resolve(args)
    previous = signal.signal(signal.SIGALRM, _overran)
    signal.setitimer(signal.ITIMER_REAL, budget)
    try:
        result = getattr(sturmia, name)(*args)
        if inspect.isgenerator(result):
            next(result, None)
        return result
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="no interval timer here")
@settings(max_examples=250, deadline=None)
@given(CALLS)
# calls that walked without bound, or died writing their refusal
@example(("parity_word", (SLOPES[0], INTS[6])))
@example(("even_family", (SLOPES[3], INTS[7])))
@example(("all_digit_strings", (SLOPES[0], INTS[7])))
@example(("interval_locate", (INTS[7], Lit("Slope((7, 2, 9))", Slope((7, 2, 9))))))
@example(("characteristic_prefix", (SLOPES[1], INTS[7])))
@example(("encode", (INTS[8], SLOPES[0], 5)))
@example(("decode", ((INTS[7],), SLOPES[0])))
@example(("repetition_direct", ("0101", INTS[8])))
@example(("torsion_search", (SLOPES[0], INTS[8])))
@example(("build_graph", (SLOPES[0], INTS[8])))
@example(("complexity", ("0101", INTS[7])))
def test_every_export_answers_or_refuses_in_bounded_time(named_call):
    name, args = named_call
    try:
        call(name, args)
    except SturmiaError:
        pass
    except ValueError as exc:
        assert str(exc).startswith(DOCUMENTED), (name, args, exc)
    except Overran:
        raise AssertionError(f"{name}{args} ran past its alarm") from None
