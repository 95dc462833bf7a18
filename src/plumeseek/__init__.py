"""Multi-agent chemical plume source localization.

Grid Bayes filtering over source hypotheses, information-driven sensor
placement (exact and FFT-accelerated squared-SNR tiers), cooperative search
episodes, and a hybrid RL control layer.
"""

from .belief import (
    AllMassLost,
    MeasurementRecord,
    SourcePosterior,
    UnsupportedReference,
    hpd_region,
    info_gain_bits,
    map_estimate,
    posterior_from_weights,
    posterior_update,
    uniform_posterior,
)
from .field import (
    GridSpec,
    KernelGridMismatch,
    OffsetKernel,
    PlumeParams,
    concentration,
    snr_area_fraction,
    squared_snr_kernel,
)
from .planner import (
    CostModel,
    ScoreMap,
    compute_score_map,
    eig_exact,
    movement_cost,
    select_next,
    snr_score_map_bruteforce,
    snr_score_map_fft,
)
from .swarm import (
    EpisodeLog,
    SimConfig,
    StepRecord,
    World,
    cost_only_policy,
    random_policy,
    run_episode,
    sense,
    steps_to_ig,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
