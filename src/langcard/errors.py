"""Exception hierarchy shared across the toolkit."""

import math


def int_text(n):
    """The positive integer ``n`` in decimal, or in scientific notation with
    three digits (``9.99e4999``, truncated) when it has more digits than
    CPython turns into text (``sys.get_int_max_str_digits()``, 4,300 by
    default), so that a message may quote any estimate."""
    try:
        return str(n)
    except ValueError:
        e = int(math.log10(n))  # may be one off either way
        while n >= 10 ** (e + 1):
            e += 1
        while n < 10**e:
            e -= 1
        lead = n // 10 ** (e - 2)
        return f"{lead // 100}.{lead % 100:02d}e{e}"


class LangcardError(Exception):
    """Base class for all toolkit errors.

    The command line reports an error as ``label: message`` on stderr and
    exits with ``exit_code``; subclasses set both.
    """

    exit_code = 2
    label = "error"


class ModelParseError(LangcardError):
    """Malformed automaton or trace file.

    Carries the 1-based line number when the offending line is known.
    """

    exit_code = 2
    label = "input error"

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class AlphabetMismatchError(LangcardError):
    """Two automata do not share the same ordered alphabet."""

    exit_code = 2
    label = "input error"


class DivergentStarError(LangcardError):
    """Kleene star applied to a series with a unit constant term."""


class ZeroConstantDenominatorError(LangcardError):
    """Coefficient extraction needs a denominator with nonzero constant term."""


class NonIntegerCoefficientError(LangcardError):
    """A language series produced a fractional count; internal inconsistency."""


class ResourceLimitError(LangcardError):
    """A configured work budget (time, restarts, steps) was exceeded."""

    exit_code = 3
    label = "resource limit"


class SizeGuardError(LangcardError):
    """A method refused to run because its output would be too large."""

    exit_code = 4
    label = "refused"

    def __init__(self, message, estimate=None):
        self.estimate = estimate
        super().__init__(message)


class UnsuitableModelError(LangcardError, ValueError):
    """A method cannot run on the given model: an empty language, no trace
    of the requested length, states that cannot be reached, or states that
    cannot be told apart."""

    exit_code = 4
    label = "refused"


class IndistinguishableStatesError(UnsuitableModelError):
    """A characterization set was requested for a non-minimal automaton."""
