"""Exception types shared across the package.

Everything raised on purpose derives from So3InvError, so callers can
catch one base class at the CLI boundary.  Names state the violated
precondition rather than the module that noticed it.
"""


class So3InvError(Exception):
    """Base class for all deliberate failures in this package."""


class BadPrecision(So3InvError):
    """A numeric working precision is too low: below one decimal digit,
    or, for the surgery oracle, below the digits its error bound needs
    to keep the value within 1e-9."""


class NotAnOddPrime(So3InvError):
    """The level parameter must be an odd prime."""


class ZeroInverse(So3InvError):
    """Attempted to invert the zero residue."""


class DenominatorDivisibleByK(So3InvError):
    """A rational whose denominator vanishes modulo the prime."""


class MixedModulus(So3InvError):
    """Ring operation between elements living at different primes."""


class IntegralityFailure(So3InvError):
    """A quantity that must be an integer (or integral vector) is not."""


class NonzeroConstantInExp(So3InvError):
    """Series composition requires an inner constant term of zero."""


class BadNormalization(So3InvError):
    """A series whose leading coefficient must equal one does not."""


class NotCoprime(So3InvError):
    """Arguments required to be coprime are not."""


class ZeroLowerLeft(So3InvError):
    """Matrix phase is undefined when the lower-left entry vanishes."""


class NonIntegerPhi(So3InvError):
    """The matrix phase evaluated to a non-integer."""


class NotRHS(So3InvError):
    """Manifold has infinite first homology; invariants here need |H1| finite."""


class EvenColor(So3InvError):
    """Colors must be odd integers."""


class BoundViolation(So3InvError):
    """A structural bound on expansion coefficients failed."""


class ChainDegenerate(So3InvError):
    """A surgery denominator is divisible by the prime and no
    re-presentation of the manifold avoids it."""


class DivisibilityFailure(IntegralityFailure):
    """Exact division left a remainder that should have vanished."""


class PDivisibleByK(So3InvError):
    """A Seifert fiber order is divisible by the prime."""


class H1DivisibleByK(So3InvError):
    """|H1| is divisible by the prime; the identity is not defined there."""


class PhaseNotReducible(So3InvError):
    """An extended phase did not collapse into the cyclotomic ring."""


class DiamondMismatch(So3InvError):
    """Reduction of an exact prefactor disagrees with its series image."""


class HZero(NotRHS):
    """Euler-number-like invariant vanishes; manifold is not a RHS."""


class NoClosedForm(So3InvError):
    """The presentation has no closed form for the requested quantity."""


class InsufficientTerms(So3InvError):
    """A truncated series is too short for the requested comparison."""


class InsufficientModulus(So3InvError):
    """Combined CRT modulus too small to pin down a rational coefficient."""
