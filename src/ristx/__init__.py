"""Reflecting-surface single-RF MIMO downlink simulator and phase tuner."""

__version__ = "0.1.0"

from .solver import EffectiveMatrix, PhaseCodebook, solve  # noqa: F401
from .harness import SimConfig, preset_config, run_sweep, run_trial  # noqa: F401
