"""Exception hierarchy shared by every module in the package."""


class DlogSidonError(Exception):
    """Base class for all errors raised by this package."""


class InvalidModulus(DlogSidonError):
    """A primitive-root or discrete-log modulus is not prime."""


class DLogUndefined(DlogSidonError):
    """The residue is 0 modulo the modulus, so no power of the generator reaches it."""


class DLogTooLarge(DlogSidonError):
    """A baby-step giant-step search over the whole unit group mod q would
    take more than arith.MAX_BABY_STEPS baby steps, so no log mod q is
    taken."""


class PrecisionAmbiguity(DlogSidonError):
    """A boundary comparison landed inside the guard band.

    Block edges and range bounds are decided by comparing an exact integer
    against a high-precision exponent. If the two agree to within 2^-64 we
    refuse to decide rather than risk a silent misassignment.
    """


class BasisGap(DlogSidonError):
    """A basis entry was requested that cannot be materialized."""


class ExcludedPrime(DlogSidonError):
    """The prime equals one of its own basis primes, so a digit is undefined."""

    def __init__(self, p, k, index):
        super().__init__(f"prime {p} equals basis prime q_{index}, no digit in block {k}")
        self.p = p
        self.k = k
        self.index = index


class DigitOutOfRange(DlogSidonError):
    """A digit falls outside [0, radix) and cannot be encoded uniquely."""


class ValueTooLarge(DlogSidonError):
    """The value needs more basis entries than can be materialized."""


class PrefixTooShort(DlogSidonError):
    """The counting bound exceeds the range covered by the generated prefix."""


class ArityOutOfRange(DlogSidonError):
    """Collision arity below 2 was requested."""


class AuditTooLarge(DlogSidonError):
    """An exhaustive audit would hold more subset sums than the engine allows."""


class MissingDigits(DlogSidonError):
    """Structural facts need digit vectors, but only raw values were given."""


class SieveTooLarge(DlogSidonError):
    """A sieve would list more integers than arith.SIEVE_LIMIT, or a prime
    count would leave the int64 range of its arrays."""


class DegreeTooLarge(DlogSidonError):
    """Polynomial degree beyond the supported enumeration bound."""


class NotIrreducible(DlogSidonError):
    """The polynomial modulus is not irreducible."""


class RatioBoundExceeded(DlogSidonError):
    """A removed-fraction exceeded the allowed bound plus slack."""


class ConsistencyError(DlogSidonError):
    """An internal cross-check that should hold by construction failed."""
