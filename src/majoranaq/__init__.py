"""Majorana phase-space Q-function dynamics for interacting fermions.

A phase point is a real antisymmetric 2M x 2M matrix; the Q-function of a
fermionic state is its overlap with a normal-ordered Gaussian basis operator
at that point, built here from its Wick expansion over the Pfaffians of the
phase point's even principal submatrices; the Pfaffian minor rule gives its
derivatives exactly.  This package evaluates the closed-form drift and
diffusion of the resulting generalized Fokker-Planck equation, exposes an
exact Fock-space oracle for M <= 6 (the 3-site Hubbard chain), and verifies
the structural claims (traceless diffusion, divergence-free drift, boundary
tangency, equivalence with exact Liouville dynamics) against it.

Every exported function is run by a command line of :mod:`majoranaq.cli`.
The cross-checks that only the tests run, such as the explicit polynomial
form of the diffusion, the ladder-operator build of the Hubbard chain and
the covariance transport against exact evolution, are oracles in ``tests/``.
"""

# The public names of each submodule.  ``import majoranaq`` loads no
# submodule: a name is imported from its module on first access (PEP 562), so
# each command line loads only the modules it runs.
#
# Start-up is most of every command line, so no value type is a dataclass,
# whose decorator generates and compiles its methods in every process.  Plain
# records are ``typing.NamedTuple``s; types that validate their fields or
# cache derived arrays are plain classes that refuse attribute assignment
# (``tensors._Frozen``).  No command loads ``dataclasses``.
_EXPORTS = {
    "tensors": (
        "PairIndex",
        "PhasePoint",
        "CouplingMatrix",
        "QuarticCoupling",
        "HamiltonianSpec",
        "pair_enumerate",
        "pair_count",
        "domain_margin",
        "random_points",
        "random_boundary_point",
        "random_interior_point",
        "standard_complex_structure",
    ),
    "kernel": (
        "diffusion",
        "diffusion_channels",
        "ChannelDecomposition",
        "drift_bar",
        "div_diffusion",
        "drift",
        "drift_alternative",
        "drift_matrix",
        "tangency_residual",
    ),
    "fock": (
        "build_majoranas",
        "jordan_wigner_ladders",
        "build_hamiltonian",
        "gaussian_basis",
        "q_derivatives",
        "exact_dqdt",
        "verify_quadratic_identities",
        "verify_four_gamma",
        "verify_fpe",
        "FpeCheck",
        "verify_moment_identity_m1",
        "random_density_matrix",
    ),
    "dynamics": ("Trajectory", "flow"),
    "hubbard": ("chain_entries",),
    "config": ("ModelConfig", "load_config", "parse_config", "config_to_spec"),
    "errors": (),
    "suites": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

# the largest mode count any command runs, the cap of ``flow`` (x is then
# 32 x 32; a coupling on all 496 packed pairs compiles a 3.9 MB block); the
# suites' caps are lower, and a Hubbard chain has at most half as many sites
_MAX_M = 16

__all__ = [*_EXPORTS, *_MODULE_OF]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        # the import statement's own route, which binds the submodule here
        # and which ``python -X importtime`` logs; importlib.import_module
        # loads it unlogged
        __import__(f"{__name__}.{name}")
        return globals()[name]
    if name in _MODULE_OF:
        return getattr(__getattr__(_MODULE_OF[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
