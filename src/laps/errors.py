"""Error types shared across the package."""

from __future__ import annotations


class LapsError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(LapsError):
    """Invalid problem description. Carries every violation found."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ResourceLimitError(LapsError):
    """A configured resource cap would be exceeded."""
