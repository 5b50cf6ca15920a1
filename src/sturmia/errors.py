"""Exception types shared across the package."""


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


class CaseDispatchError(SturmiaError):
    """No branch of a closed-form case table matched; surfaced, never guessed."""


class ParityError(SturmiaError):
    """The partial-quotient parities violate a construction's hypothesis."""
