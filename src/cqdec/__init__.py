"""cqdec: numerical laboratory for sequential yes/no decoding of cq channels."""

from .bounds import (
    BoundCheck,
    BoundReport,
    GammaBound,
    check_amplitude_lower_bound,
    check_trace_power_bounds,
    gamma_lower_bound,
    rate_condition,
)
from .budgets import DEFAULT_BUDGETS, Budgets
from .channel import CQChannel, builtin_channel, holevo_chi, make_channel
from .codebook import Codebook, sample_codebook
from .decoder import (
    ABORT_ATYPICAL,
    ABORT_EXHAUSTED,
    DECODED,
    DecoderPlan,
    ErrorReport,
    POVMSet,
    Transcript,
    average_amplitude,
    build_plan,
    build_povm,
    exact_error_probability,
    simulate_trial,
    verify_mixture_identity,
)
from .errors import ConfigError, CqdecError, ResourceBudgetError, ValidationError
from .linalg import SpectralDecomposition, spectral_decompose
from .pgm import pgm_error_probability
from .typicality import (
    MaskedHermitian,
    TypicalModel,
    TypicalityParams,
    build_rho_tilde,
    build_typical_model,
    classical_typical_set,
    conditional_labels,
    subordination_gap,
)

__version__ = "0.1.0"
