"""Sequential unsharp qubit measurements at three times: Leggett-Garg
inequalities (standard, Wigner, entropic), no-signaling-in-time diagnostics,
joint-measurability criteria, and parameter-space scan tooling."""

from .errors import (
    BadAxis,
    BadSubset,
    ConfigError,
    InvalidEffect,
    InvariantError,
    LgscanError,
    NoBracket,
    NotHermitian,
    NotPSD,
)
from .inequalities import (
    ELGI_SPECS,
    ElgiSpec,
    InequalityResult,
    SLGI_SPECS,
    SlgiSpec,
    WLGI_SPECS,
    WlgiSpec,
    elgi_all,
    shannon_entropy,
    slgi_all,
    slgi_closed_form_biased,
    slgi_closed_form_spin,
    wlgi_all,
)
from .jointmeas import (
    JmVerdict,
    biased_pair_threshold,
    jm_verdict,
    lg_combined_pair_threshold,
    lg_triple_threshold,
    pairwise_jm_general,
    pairwise_jm_unbiased,
    triplewise_jm_unbiased,
    unbiased_pair_threshold,
)
from .linalg import (
    IDENTITY,
    Operator,
    PauliCoeffs,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    eig_hermitian,
    from_pauli,
    qubit_unitary,
    sqrt_psd,
    to_pauli,
)
from .measurement import (
    Effect,
    JointDistribution,
    QubitState,
    Schedule,
    correlator,
    effect_at_time,
    luders_update,
    run_schedule,
)
from .nsit import (
    DisturbanceReport,
    ThresholdCheck,
    disturbance_closed_forms,
    disturbance_report,
    nsit_satisfied,
    wlgi_threshold_check,
)
from .scan import (
    ScanConfig,
    ScanRecord,
    ScanTable,
    axis_from_angles,
    figure_records,
    report,
    scan,
    threshold_eta,
)

__version__ = "0.1.0"
