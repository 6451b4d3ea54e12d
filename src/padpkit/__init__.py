"""padpkit: directional-scanning-sounding simulation and multipath estimation.

Synthesizes noisy wideband scan observations, extracts multipath delay,
angle and power with two omnidirectional-synthesis baselines and an
in-beam refinement estimator, and evaluates them against Fisher-information
lower bounds with a seeded Monte Carlo harness.
"""

from ._version import __version__
from .antenna import (
    AntennaPattern,
    ChiSaturationError,
    PatternKind,
    Side,
    chi,
    gain,
    invert_chi,
    invert_chi_closed,
    invert_chi_tabulated,
    kappa_from_hpbw,
    load_pattern_csv,
    power_gain,
)
from .crlb import (
    CrlbReport,
    SingularFimError,
    crlb_from_fim,
    crlb_from_fims,
    crlb_single_alpha,
    crlb_single_bounds,
    crlb_single_phi,
    crlb_sweep,
    fim,
    fim_sweep,
)
from .estimation import (
    Method,
    MpcEstimate,
    PeakConfig,
    coarse_peaks_2d,
    estimate_haed,
    estimate_o1,
    estimate_o2,
    haed_plus_refine,
    haed_refine,
    o2_deembed_constant,
    synth_omni_max,
    synth_omni_sum,
)
from .experiments import (
    ErrorStats,
    MonteCarloConfig,
    associate,
    rmsee,
    run_sweep,
    uniform_offset_study,
)
from .synthesis import (
    ArrayConfig,
    MpcTruth,
    Padp,
    SoundingConfig,
    Workspace,
    add_noise,
    assemble_padp,
    cfr_to_cir,
    pdp,
    simulate_padp,
    synth_cfr,
)

__all__ = [name for name in dir() if not name.startswith("_")]
