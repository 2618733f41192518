"""Exact horizontal calculus, extremal operators, and sampled verification
of fully nonlinear PDE inequalities on Heisenberg groups.

The package has four layers: hgroup (group structure and horizontal
derivatives), operators (Pucci-type extremal operators and Bellman
envelopes), gallery (closed-form radial fields), and checker (sampled
verification with deterministic reports).  cli exposes them as the heispde
command.
"""

from .checker import (
    BarrierBundle,
    CheckReport,
    ConvergenceResult,
    OperatorSpec,
    Region,
    TabulatedField,
    check_inequality,
    check_lyapunov,
    check_tabulated,
    convergence_study,
    fd_h_hessian,
    lyapunov_fixture,
    sample_region,
)
from .gallery import (
    ProfileRegimeError,
    RadialProfile,
    ScalarField,
    field_from_profile,
    make_profile,
    profile_catalog,
)
from .hgroup import (
    HeisDims,
    dilate,
    eta,
    group_inverse,
    group_mul,
    h_gradient,
    h_hessian,
    hnorm,
    hperp,
)
from .operators import (
    Ellipticity,
    HJBCoefficients,
    PucciAlpha,
    hjb_inf,
    hjb_sup,
    pnorm_operator,
    sym_eigenvalues,
)

__version__ = "0.1.0"

__all__ = [
    "BarrierBundle",
    "CheckReport",
    "ConvergenceResult",
    "Ellipticity",
    "HJBCoefficients",
    "HeisDims",
    "OperatorSpec",
    "ProfileRegimeError",
    "PucciAlpha",
    "RadialProfile",
    "Region",
    "ScalarField",
    "TabulatedField",
    "__version__",
    "check_inequality",
    "check_lyapunov",
    "check_tabulated",
    "convergence_study",
    "dilate",
    "eta",
    "fd_h_hessian",
    "field_from_profile",
    "group_inverse",
    "group_mul",
    "h_gradient",
    "h_hessian",
    "hjb_inf",
    "hjb_sup",
    "hnorm",
    "hperp",
    "lyapunov_fixture",
    "make_profile",
    "pnorm_operator",
    "profile_catalog",
    "sample_region",
    "sym_eigenvalues",
]
