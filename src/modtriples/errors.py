"""Exception hierarchy shared by all modules.

Every domain error raised by the engine derives from SymbolicError, so
callers (in particular the CLI) can map any domain failure to a single
"error" exit path while still matching specific conditions by type.
"""


class SymbolicError(Exception):
    """Base class for all domain errors raised by this package."""


class DegenerateInput(SymbolicError):
    """Input outside the operation's domain (zero polynomial, constant map, ...)."""


class NotEffective(SymbolicError):
    """A divisor that had to be effective has a negative multiplicity."""


class NotFiniteOverSource(SymbolicError):
    """A correspondence leg collapses to a point where finiteness is required."""


class NotInteriorPreserving(SymbolicError):
    """A map does not send the source interior into the target interior."""


class NotDisjoint(SymbolicError):
    """Operation requires a triple whose two divisors have disjoint supports."""


class NotExcellent(SymbolicError):
    """Operation requires a correspondence in excellent position."""


class NotMinClass(SymbolicError):
    """Triple is not in the class bridged to two-divisor objects."""


class NotManClass(SymbolicError):
    """Triple is not in the class bridged to boundary/modulus data."""


class NotAdmissible(SymbolicError):
    """A correspondence that had to be admissible is not."""


class TypeMismatch(SymbolicError):
    """Objects fed to an operation do not fit together (e.g. middle triples differ)."""


class UnsupportedComposition(SymbolicError):
    """Composition fell outside the supported fragment.

    Carries the offending component pair so callers can report exactly
    which pairing was rejected.  This is a first-class outcome of
    ``compose``, not an internal failure.
    """

    def __init__(self, left, right):
        self.left = left
        self.right = right
        super().__init__(f"unsupported component pairing: {left!r} with {right!r}")


class CertificationError(SymbolicError):
    """An internally derived object failed its mandatory re-certification.

    Raised when a result that theory guarantees to be valid (e.g. a
    composite of admissible cycles) fails its admissibility re-check.
    Seeing this exception means a bug, and the test suites treat it as
    a failure rather than skipping the instance.
    """


class ParseError(SymbolicError):
    """Text or JSON input did not match the published grammar/schema.

    ``line`` and ``column`` locate the error in the input text: JSON syntax
    errors and errors at a token of a literal carry them.  An error with no
    place in the text, such as a bad command-line value or a schema error in
    a parsed document, keeps ``line=None``, and the message names no place."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + where)
