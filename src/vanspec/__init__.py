"""Asymptotic spectra of d-fold random Vandermonde matrices and LMMSE
field-reconstruction error under lossy wireless sensor sampling."""

__version__ = "0.1.0"

from .moments import (  # noqa: F401
    asymptotic_moment,
    density_power_integrals,
    moment_table,
)
from .partitions import (  # noqa: F401
    SetPartition,
    enumerate_partitions,
    is_noncrossing,
    lattice_count,
    vandermonde_coefficient,
)
from .reconstruct import (  # noqa: F401
    LmmseResult,
    generate_spectrum,
    lmmse,
    mse_monte_carlo,
    observe,
)
from .sampling import (  # noqa: F401
    GxClosedForm,
    GxDiscreteAtoms,
    SamplingDistribution,
    uniform_distribution,
)
from .scenarios import (  # noqa: F401
    ClusterHierarchy,
    csma_success_profile,
    default_collision_model,
    fading_distribution,
    fading_gx,
    hole_distribution,
    quadrant_hierarchy,
)
from .spectral import (  # noqa: F401
    DFoldVandermonde,
    EtaUTable,
    SpectrumSummary,
    aesd,
    asymptotic_mse,
    build_eta_table,
    build_vandermonde,
    compare_scaled_aesd,
    empirical_eta,
    empirical_moment,
    eta_mixture,
    eta_u_table,
    gram_eigenvalues,
    histogram,
    mixture_span,
    transform_scaled_lsd,
)
