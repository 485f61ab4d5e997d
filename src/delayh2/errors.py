"""Exception hierarchy shared by all delayh2 modules."""


class DelayH2Error(Exception):
    """Base class for all errors raised by this package."""


class UnstableSystem(DelayH2Error):
    """An operation that requires a stable A-matrix received an unstable one."""


class SolverFailure(DelayH2Error):
    """A numerical solve failed (singular system or no convergence)."""


class AssumptionViolated(DelayH2Error):
    """Problem data breaks a standing assumption (normalization,
    stabilizability, positive delays, nested patterns...)."""


class NotStronglyConnected(DelayH2Error):
    """The communication graph leaves some ordered node pair unreachable."""


class DimensionMismatch(DelayH2Error):
    """Matrix or block dimensions are mutually inconsistent."""


class QIViolation(DelayH2Error):
    """The delay constraint is not quadratically invariant for this plant."""


class IllPosed(DelayH2Error):
    """A feedback interconnection is not well posed."""


class ConfigError(DelayH2Error):
    """A problem configuration file is malformed or inconsistent."""
