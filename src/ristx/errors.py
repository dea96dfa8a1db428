"""Error types shared across the simulator."""


class ConfigError(ValueError):
    """Invalid simulation configuration; `field` names the offending entry."""

    def __init__(self, field, message):
        super().__init__(f"config field '{field}': {message}")
        self.field = field
