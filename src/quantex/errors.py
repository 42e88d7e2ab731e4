"""Exception and warning types shared across the library."""


class QuantexError(Exception):
    """Base class for library errors."""


class FactorError(QuantexError, ValueError):
    """Factor index out of range or factor of the wrong kind."""


class HermiticityError(QuantexError, ValueError):
    """An operation required a hermitian operator and did not get one."""


class NormalizationError(QuantexError, ValueError):
    """State vector norm outside the allowed band."""


class CoherentTailError(QuantexError, ValueError):
    """Fock cutoff too small for the requested coherent amplitude."""


class ToleranceError(QuantexError, RuntimeError):
    """A numerical-tolerance guard tripped during evolution or auditing.

    Signals that the cutoff is too small or the time step too large; the
    CLI maps this to exit code 3.
    """


class ConfigError(QuantexError, ValueError):
    """Scenario configuration failed schema or physics-domain validation."""


class RegimeError(QuantexError, ValueError):
    """Parameters are outside the documented validity regime of a fit."""


class RegimeWarning(UserWarning):
    """Parameters are outside the documented validity regime of a formula."""
