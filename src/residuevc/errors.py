"""Exception types shared across the package."""


class ResidueVCError(Exception):
    """Base class for all errors raised by this package."""


class NotPrime(ResidueVCError):
    """The modulus failed a deterministic primality check."""


class EvenPrime(ResidueVCError):
    """q = 2 was requested; residue subgroups of index r >= 2 need odd q."""


class FieldTooLarge(ResidueVCError):
    """The modulus is too large for the field's discrete-log table."""


class TooSmall(ResidueVCError):
    """The modulus is below the minimum the operation supports."""


class IndexNotDividing(ResidueVCError):
    """The subgroup index r does not divide q - 1."""


class WidthOverflow(ResidueVCError):
    """Subset size exceeds the 63-bit signature width."""


class EmptyFold(ResidueVCError):
    """fold_patterns was called on a width-0 pattern vector."""


class NTooLarge(ResidueVCError):
    """Requested subset size would need a pattern table beyond the memory bound."""


class LengthMismatch(ResidueVCError):
    """Paired sequences (subset elements and coset targets) differ in length."""


class Infeasible(ResidueVCError):
    """An exhaustive verification would exceed its operation budget."""
