"""Error types shared across the simulator."""


class UnilluminatedElementError(ValueError):
    """A surface element falls outside the feed pattern (zero incident power)."""


class ConfigError(ValueError):
    """Invalid simulation configuration; `field` names the offending entry."""

    def __init__(self, field, message):
        super().__init__(f"config field '{field}': {message}")
        self.field = field
