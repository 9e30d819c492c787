"""Exception types shared across the package."""

from __future__ import annotations


class MaxcycError(Exception):
    """Base class for every error raised by this package."""


class CapExceeded(MaxcycError):
    """Enumeration grew past the configured order cap or degree cap."""


class NotSubgroup(MaxcycError):
    """The alleged subgroup is not contained in the parent group."""


class NotNormal(MaxcycError):
    """The subgroup is not invariant under conjugation by the parent."""


class NotProper(MaxcycError):
    """A proper subgroup was required but the whole group was given."""


class NoSuchNormal(MaxcycError):
    """No normal subgroup matches the requested (order, index) selector."""


class NotFrobenius(MaxcycError):
    """The given decomposition G = NH is not a Frobenius group."""


class NotPGroup(MaxcycError):
    """The operation requires a group of prime-power order."""


class GroupIsCyclic(MaxcycError):
    """The operation requires a noncyclic group."""


class NotExponentP(MaxcycError):
    """The operation requires a p-group of exponent p and order >= p**2."""


class HypothesisFailed(MaxcycError):
    """A stated hypothesis of the check does not hold for the inputs."""


class ClassificationFailed(MaxcycError):
    """No expected structure matched; indicates a bug, not bad input."""


class InternalCheckError(MaxcycError):
    """A precondition that an internal algorithm relies on does not hold;
    indicates a bug."""


class ArityError(MaxcycError):
    """A group-family parameter violates its arithmetic constraint."""


class ParseError(MaxcycError):
    """Group-spec text could not be parsed.

    Carries the character index of the failure in the spec text and the set
    of token kinds that would have been accepted there.
    """

    def __init__(self, position: int, expected: tuple[str, ...], found: str = ""):
        self.position = position
        self.expected = tuple(expected)
        self.found = found
        what = f", found {found!r}" if found else ""
        super().__init__(
            f"parse error at index {position}: expected {' | '.join(self.expected)}{what}"
        )

    def __reduce__(self):
        return type(self), (self.position, self.expected, self.found)


class CorpusError(MaxcycError):
    """A corpus file is malformed.  Carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        self.message = message
        super().__init__(f"corpus line {line_no}: {message}")

    def __reduce__(self):
        return type(self), (self.line_no, self.message)
