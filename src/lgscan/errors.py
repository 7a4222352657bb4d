"""Exception hierarchy for lgscan."""


class LgscanError(Exception):
    """Base class for all lgscan errors."""


class NotHermitian(LgscanError):
    """Operator has an anti-Hermitian part larger than the tolerance."""


class NotPSD(LgscanError):
    """Operator has an eigenvalue below the PSD tolerance."""


class BadAxis(LgscanError):
    """Rotation axis is not a unit 3-vector."""


class InvalidEffect(LgscanError):
    """Effect parameters violate |x| + |m| <= 1."""


class BadSubset(LgscanError):
    """Requested time subset is not contained in the measured set."""


class NoBracket(LgscanError):
    """Threshold search found no sign change on the eta bracket."""


class ConfigError(LgscanError):
    """Malformed scan configuration; `field` names the ScanConfig field at fault."""

    def __init__(self, message: str, field: str | None = None) -> None:
        super().__init__(message)
        self.field = field


class InvariantError(LgscanError):
    """A numerical invariant that should hold by construction was violated."""
