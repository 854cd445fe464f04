"""Exception taxonomy shared across the laboratory."""


class BanachLabError(Exception):
    """Base class for every error raised by this package."""


class DomainError(BanachLabError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ConfigError(BanachLabError, ValueError):
    """A configuration object (schedule, base spec, run config) is invalid."""


class ResolutionError(BanachLabError):
    """The stored truncation is too shallow for the requested resolution."""

    def __init__(self, message: str, required_level: int | None = None):
        super().__init__(message)
        self.required_level = required_level


class HypothesisError(BanachLabError):
    """A lemma hypothesis fails, so its formula is not certified here."""


class ParameterError(BanachLabError):
    """A tuning parameter is infeasible for the requested certificate."""

    def __init__(self, message: str, max_feasible: float | None = None):
        super().__init__(message)
        self.max_feasible = max_feasible


class PremiseError(BanachLabError):
    """The premise of a conditional check fails on the given inputs."""

    def __init__(self, message: str, offending: tuple | None = None):
        super().__init__(message)
        self.offending = offending or ()


class WitnessNotFoundError(BanachLabError):
    """A constructive search exhausted its iteration cap.

    Carries diagnostics; does not refute the property being witnessed.
    """

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ConstructionError(BanachLabError):
    """A compound construction could not satisfy its postconditions."""


class SamplingError(BanachLabError):
    """No feasible sample was found within the given budget."""


class DataError(BanachLabError):
    """Input data is too short or malformed for the requested analysis."""


class CertificateFailure(BanachLabError):
    """A certified inequality failed re-verification (exit code 2 in the CLI)."""

    def __init__(self, message: str, inequality: str | None = None):
        super().__init__(message)
        self.inequality = inequality
