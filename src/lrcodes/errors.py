"""Exception hierarchy shared by all lrcodes modules."""


class LrcError(Exception):
    """Base class for all errors raised by this package."""


class NotAPrimePower(LrcError):
    """Field order is below 2 or not a prime power."""


class UnsupportedField(LrcError):
    """Field order is above 2^16, or a power p^e of an odd prime p with e >= 2."""


class NotAFieldElement(LrcError, ValueError):
    """A symbol is not an int in [0, q) (bools are refused too)."""


class DivisionByZero(LrcError, ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class DuplicateAbscissa(LrcError):
    """Interpolation points share an x coordinate."""


class NoSubgroup(LrcError):
    """No multiplicative or additive subgroup of the requested size exists."""


class TooManyBlocks(LrcError):
    """More cosets requested than the field supports."""


class NotConstantOnBlocks(LrcError):
    """Candidate polynomial is not constant on every partition block."""


class SEqualsOne(LrcError):
    """n mod (r+1) = 1 is outside the construction's parameter range."""


class FieldTooSmall(LrcError):
    """The padded length exceeds the number of usable field points."""


class RateBoundViolated(LrcError):
    """k exceeds n - ceil(n/(r+1))."""


class LengthMismatch(LrcError):
    """Message or word has the wrong number of symbols."""


class IndexOutOfRange(LrcError, IndexError):
    """Coordinate index outside [1, n]."""


class Unrecoverable(LrcError):
    """Erasure pattern leaves the decoding system rank-deficient."""


class BudgetExceeded(LrcError):
    """Requested work or storage is larger than the allowed budget or cap."""


class InternalInconsistency(LrcError):
    """A property guaranteed by construction failed; indicates a bug."""
