"""Weighted Poisson integrals on the unit disk: kernels, derivatives,
Hardy/Bergman norms, regime classification, and ellipticity diagnostics."""

from .specfun import (
    ConvergenceError,
    gamma,
    pochhammer,
    hyp2f1,
    hyp2f1_dx,
    gauss_value,
    beta_integral,
)
from .kernel import (
    AlphaParam,
    BoundaryData,
    QuadSpec,
    ResolutionWarning,
    c_alpha,
    poisson_integral,
    circle_poisson_values,
    boundary_derivative,
    read_boundary_csv,
    write_boundary_csv,
    radial_grid,
)
from .derivs import (
    DerivField,
    circle_derivs,
    deriv_field,
    dr_f,
    dtheta_f,
    dz_dzbar_f,
    read_deriv_csv,
    sine_moment,
    sine_moment_exact,
    write_deriv_csv,
)
from .norms import (
    GrowthReport,
    KernelQuantity,
    NormEstimate,
    bergman_norm,
    dfield_norms,
    divergence_probe,
    hardy_norm,
    integral_mean,
    lp_norm_circle,
)
from .regimes import (
    CertificationRecord,
    RegimeClass,
    certification_grid,
    check_angular_derivative_bound,
    check_distance_integral_bound,
    check_kernel_mean_bound,
    check_scaled_kernel_bound,
    classify,
)
from .mappings import (
    HypMonomial,
    log_series_boundary,
    log_series_derivs,
    log_series_field,
    log_series_value,
    phase_boundary,
    phase_field,
    phase_fourier_coeff,
    phase_wirtinger,
)
from .elliptic import EllipticReport, ellipticity_report, min_kprime

__version__ = "0.1.0"
