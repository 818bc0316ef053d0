"""Exception types raised by the library.

All inherit from ValueError so callers that only care about "bad input"
can catch one base class.
"""


class TrfocusError(ValueError):
    """Base class for every validation or processing error in trfocus."""


class ParameterError(TrfocusError):
    """An argument is outside its allowed range or malformed."""


class AliasingError(ParameterError):
    """Requested bandwidth exceeds what the sample rate can represent."""


class DegenerateProbeError(TrfocusError):
    """Deconvolution probe is identically zero."""


class IllConditionedError(TrfocusError):
    """Unregularized deconvolution with near-zero spectral bins."""


class DegenerateChannelError(TrfocusError):
    """All channel impulse responses are zero; no precoder exists."""


class DimensionMismatchError(TrfocusError):
    """Array shapes, tap counts or antenna counts are inconsistent."""


class InvalidTargetError(TrfocusError):
    """Multi-user targets are duplicated or off the receiver grid."""


class EdgePeakError(TrfocusError):
    """Profile peak sits at the record edge; no bracketing half-power
    crossing exists."""


class DegenerateBackgroundError(TrfocusError):
    """Focusing-gain background region is empty or identically zero."""


class ConfigError(TrfocusError):
    """Experiment configuration is invalid."""
