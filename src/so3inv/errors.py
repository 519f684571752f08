"""Exception types shared across the package.

Everything raised on purpose derives from So3InvError, so callers can
catch one base class at the CLI boundary.  Names state the violated
precondition rather than the module that noticed it.
"""


class So3InvError(Exception):
    """Base class for all deliberate failures in this package."""


class NotAnOddPrime(So3InvError):
    """The level parameter must be an odd prime."""


class ZeroInverse(So3InvError):
    """Attempted to invert the zero residue."""


class DenominatorDivisibleByK(So3InvError):
    """A rational whose denominator vanishes modulo the prime."""


class MixedModulus(So3InvError):
    """Ring operation between elements living at different primes."""


class NotAUnit(So3InvError):
    """Element has no multiplicative inverse in the ring."""


class IntegralityFailure(So3InvError):
    """A quantity that must be an integer (or integral vector) is not."""


class NonUnitDivisor(So3InvError):
    """Series division requires an invertible constant term."""


class NonzeroConstantInExp(So3InvError):
    """Series exponential requires a vanishing constant term."""


class FactorialNotInvertible(So3InvError):
    """A factorial in a denominator is divisible by the prime."""


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
    """A continued-fraction denominator is divisible by the prime."""


class DivisibilityFailure(So3InvError):
    """Exact division left a remainder that should have vanished."""


class NonIntegralAssembly(So3InvError):
    """Assembled invariant has non-integer coordinates."""


class PDivisibleByK(So3InvError):
    """Surgery coefficient numerator is divisible by the prime."""


class H1DivisibleByK(So3InvError):
    """|H1| is divisible by the prime; the identity is not defined there."""


class PhaseNotReducible(So3InvError):
    """An extended phase did not collapse into the cyclotomic ring."""


class DiamondMismatch(So3InvError):
    """Reduction of an exact prefactor disagrees with its series image."""


class HZero(So3InvError):
    """Euler-number-like invariant vanishes; manifold is not a RHS."""


class InsufficientTerms(So3InvError):
    """A truncated series is too short for the requested comparison."""


class InsufficientModulus(So3InvError):
    """Combined CRT modulus too small to pin down a rational coefficient."""
