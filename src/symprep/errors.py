"""Exception hierarchy shared across the package, and `decimal`, which
writes the counts their messages and the reports name."""


def decimal(n):
    """The int n in decimal, as str(n) writes it, also past the interpreter's
    int-to-str digit limit (4300 digits by default), where str(n) raises
    ValueError: a longer n is split at a power of ten near the middle of its
    digits and the halves are written in turn."""
    try:
        return int.__repr__(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + decimal(-n)
    k = n.bit_length() * 3 // 20  # about half the digits, and 10^k <= n
    high, low = divmod(n, 10 ** k)
    return decimal(high) + decimal(low).zfill(k)


class SymprepError(Exception):
    """Base class for all library errors."""


class InvalidCartanType(SymprepError):
    """Unrecognized or out-of-range Cartan letter/rank combination."""


class DimensionMismatch(SymprepError):
    """Vector length incompatible with the ambient lattice."""


class WeylCapExceeded(SymprepError):
    """Weyl group larger than the configured enumeration cap."""

    def __init__(self, order, cap):
        super().__init__(
            f"group too large: |W| = {decimal(order)} exceeds the enumeration "
            f"cap {decimal(cap)}"
        )
        self.order = order
        self.cap = cap


class BudgetExceeded(SymprepError):
    """Irrep dimension or symmetric-power budget exceeded."""


class NotACharacter(SymprepError):
    """Weight multiset is not the character of a genuine module."""


class ValidationError(SymprepError):
    """A representation spec fails the symplectic admissibility checks."""

    code = "Invalid"

    def __init__(self, weight, message=None):
        self.weight = tuple(weight)
        super().__init__(message or f"{self.code}({self.weight})")


class NotSelfDual(ValidationError):
    code = "NotSelfDual"


class OddOrthogonalMultiplicity(ValidationError):
    code = "OddOrthogonalMultiplicity"


class NotDominant(ValidationError):
    code = "NotDominant"


class SpecFormatError(SymprepError):
    """Malformed input document; carries field-addressed messages."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class DomainError(SymprepError):
    """Argument outside the domain of a partial map (a section target off a*)."""


class StageNotRealizable(SymprepError):
    """A reduction stage finds no hyperbolic pair on its model: a defect."""


class NumericalDegeneracy(SymprepError):
    """Rank thresholds could not separate numerical subspaces."""


class InternalConsistencyError(SymprepError):
    """Two independent computations of the same quantity disagree; a defect."""
