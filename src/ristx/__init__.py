"""Reflecting-surface single-RF MIMO downlink simulator and phase tuner."""

__version__ = "0.1.0"

from .channel import (  # noqa: F401
    Cell,
    UserLargeScale,
    assemble_channel,
    compensating_gains,
    draw_fading,
    draw_users,
    large_scale_gains,
)
from .geometry import (  # noqa: F401
    ElementGrid,
    FeedPattern,
    SurfaceModel,
    layout_elements,
    pattern_gain,
    propagation_coeffs,
    wrap_phase,
)
from .metrics import (  # noqa: F401
    TrialResult,
    average_power,
    db10,
    distortion,
    papr,
    received_mse,
    transmit_block,
    trial_result,
)
from .baseline import mf_post_gains, mf_precode_block  # noqa: F401
from .solver import (  # noqa: F401
    BlockSolution,
    EffectiveMatrix,
    PhaseCodebook,
    SolverOptions,
    TuningSolution,
    initial_phase_vector,
    quantize_phases,
    solve,
    solve_block,
    spectral_norm_sq,
)
from .harness import (  # noqa: F401
    SimConfig,
    build_surface,
    derive_trial_streams,
    preset_config,
    run_sweep,
    run_trial,
)
