"""Exception types shared across the package, and `shown`, the one writer
of the integers their messages and the reprs of slopes and windows name."""


class SturmiaError(Exception):
    """Base class for all package-specific errors."""


class DepthError(SturmiaError):
    """A partial quotient, digit or continuant beyond the known depth was requested."""


class RangeError(SturmiaError):
    """An integer falls outside the representable range for the requested depth."""


class InvalidDigitsError(SturmiaError):
    """A digit sequence violates the numeration conditions."""


class PrefixTooShortError(SturmiaError):
    """The supplied finite prefix does not determine the requested quantity."""


class NotSturmianError(SturmiaError):
    """A word prefix is incompatible with the sturmian language of the slope."""


class UnsupportedInterceptError(SturmiaError):
    """The operation excludes this intercept class (zero class, sigma-type, ...)."""


class ParityError(SturmiaError):
    """The partial-quotient parities violate a construction's hypothesis."""


def shown(n: int) -> str:
    """An int as every refusal message writes it: its decimal digits, or,
    where the interpreter refuses to convert that many digits
    (sys.get_int_max_str_digits), its sign and bit length, such as
    "<an integer of 16610 bits>", so that building a refusal never raises
    ValueError."""
    try:
        return str(n)
    except ValueError:
        sign = "a negative" if n < 0 else "an"
        return f"<{sign} integer of {abs(n).bit_length()} bits>"


def shown_tuple(values: tuple[int, ...]) -> str:
    """A tuple of ints as repr() writes it, with each int as `shown` writes
    it, so that the repr of a slope or a window never raises ValueError."""
    inner = ", ".join(map(shown, values))
    return f"({inner},)" if len(values) == 1 else f"({inner})"
