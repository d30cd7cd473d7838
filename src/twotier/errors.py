"""Errors that the command layer maps to distinct exit codes, and the
keyed refusal that the configuration layer names a key by."""


class ToolkitError(Exception):
    pass


class ConfigError(ToolkitError):
    """Invalid or inconsistent configuration."""


class BudgetError(ToolkitError):
    """An enumeration would exceed the configured budget."""


class OptionError(ValueError):
    """A constructor's refusal of the value of its parameter `field`, which
    ``config`` reports under that parameter's config key."""
    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field
