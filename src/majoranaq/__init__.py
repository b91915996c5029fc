"""Majorana phase-space Q-function dynamics for interacting fermions.

A phase point is a real antisymmetric 2M x 2M matrix; the Q-function of a
fermionic state is its overlap with a normal-ordered Gaussian basis operator
at that point, built here from its Wick expansion over the Pfaffians of the
phase point's even principal submatrices, whose minors give its derivatives
exactly.  This package evaluates the closed-form drift and diffusion of the
resulting generalized Fokker-Planck equation, exposes an exact Fock-space
oracle for M <= 5, and verifies the structural claims (traceless diffusion,
divergence-free drift, boundary tangency, equivalence with exact Liouville
dynamics) against it.
"""

from .tensors import (
    PairIndex,
    PhasePoint,
    CouplingMatrix,
    QuarticCoupling,
    HamiltonianSpec,
    pair_enumerate,
    pair_count,
    antisymmetrize_quartic,
    domain_margin,
    random_boundary_point,
    random_interior_point,
    standard_complex_structure,
)
from .kernel import (
    x_plus_minus,
    x_component,
    re_x,
    im_x,
    contract_quartic,
    diffusion,
    diffusion_expanded,
    diffusion_channels,
    ChannelDecomposition,
    drift_bar,
    div_diffusion,
    drift,
    drift_alternative,
    drift_matrix,
    fpe_rhs,
    conservative_rhs,
    tangency_residual,
)
from .fock import (
    MajoranaSet,
    build_majoranas,
    jordan_wigner_ladders,
    build_hamiltonian,
    gaussian_basis,
    qfunction,
    q_derivatives,
    covariance_of_basis,
    exact_dqdt,
    verify_quadratic_identities,
    verify_four_gamma,
    verify_fpe,
    FpeCheck,
    verify_moment_identity_m1,
    random_density_matrix,
    check_density_matrix,
)
from .dynamics import (
    Trajectory,
    flow,
    polar_project,
    ChannelSpectrum,
    channel_spectrum,
    gaussian_covariance_comparison,
)
from .hubbard import HubbardPreset, preset_hubbard, fermi_hubbard_matrix, hubbard_comparison
from .config import ModelConfig, load_config, parse_config, emit_config, config_to_spec
from . import errors, suites

__version__ = "0.1.0"
