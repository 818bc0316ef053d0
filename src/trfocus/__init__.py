"""trfocus: time-reversal spatiotemporal focusing, simulated at desk scale.

Synthetic rich-scattering channels over a linear receiver grid, chirp
sounding with Wiener deconvolution, multi-antenna time-reversal
precoding, multi-user links, and the focusing figures of merit.
"""

from .channel import (
    CavityParams,
    ChannelEnsemble,
    PathSet,
    RxGrid,
    SPEED_OF_LIGHT_M_S,
    build_ensemble,
    draw_paths,
    load_ensemble,
    save_ensemble,
    spatial_correlation_theory,
)
from .errors import (
    AliasingError,
    ConfigError,
    DegenerateBackgroundError,
    DegenerateChannelError,
    DegenerateProbeError,
    DimensionMismatchError,
    EdgePeakError,
    IllConditionedError,
    InvalidTargetError,
    ParameterError,
    TrfocusError,
)
from .experiment import (
    PRESETS,
    ScenarioConfig,
    config_from_preset,
    reproduce,
    run_experiment,
    sound_cirs,
)
from .link import SpaceTimeField, TrdmaResult, focus_field, trdma_link
from .metrics import (
    SpatialProfile,
    focusing_gain,
    isi_ratio,
    sir,
    spatial_profile,
    temporal_fwhm,
)
from .precoding import equivalence_residual, mrt_weights, tr_filters
from .signalops import gen_chirp, inband_nmse_db

__version__ = "0.1.0"
