"""Exception types shared across the package."""

__all__ = ["ConfigError", "NumericsError", "QuadratureError"]


class ConfigError(ValueError):
    """Invalid configuration or parameters supplied by the caller."""


class NumericsError(RuntimeError):
    """A numerical routine failed to reach its accuracy target."""


class QuadratureError(NumericsError):
    """Quadrature did not meet its error tolerance."""
