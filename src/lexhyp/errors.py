"""Exception types shared across the package."""


class LexhypError(Exception):
    """Base class for all package-specific errors."""


class ParseError(LexhypError, ValueError):
    """Malformed graph text or spec string."""


class ValidationError(LexhypError, ValueError):
    """Structurally invalid input (loop, duplicate edge, disconnected, ...)."""


class SizeCapError(LexhypError):
    """An instance exceeds a configured size cap; construction fails fast."""


class GeodesicCapError(LexhypError):
    """Geodesic enumeration for one endpoint pair exceeded the configured cap.

    Carries the offending pair.  Raised by the witness search, it also
    carries `value`, the exact delta from the value sweep, which enumerates
    no geodesics: only the witness triangle is missing.
    """

    def __init__(self, pair, cap, value=None):
        self.pair = pair
        self.cap = cap
        self.value = value
        msg = f"geodesic cap {cap} exceeded for pair {pair}"
        if value is not None:
            msg += f" (delta = {value}; no witness within the cap)"
        super().__init__(msg)
