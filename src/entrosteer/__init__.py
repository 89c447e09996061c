"""Entropic steering witnesses for discrete bipartite and Gaussian states.

Six witness families built on entropic uncertainty relations: conditional and
mutual-information pairs, full mutually-unbiased-basis sets, a modular
sum/difference form for discrete systems, and Gaussian conditional-entropy and
variance-product forms for two-mode states. Monte Carlo surveys, threshold
bisection, and a command-line front end sit on top.

The namespace is lazy (PEP 562): ``import entrosteer`` loads neither the
submodules nor numpy, so the command-line entry point can settle numpy's BLAS
threading before numpy is first imported. The first exported name looked up
imports the submodules and binds every name in ``__all__``.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "cvgauss": (
        "GaussianState",
        "entropic_sumdiff_cv",
        "reid_sumdiff_cv",
        "symplectic_eigenvalues",
        "tmsv",
        "walborn_cv",
    ),
    "infotheory": (
        "ProbVector",
        "concurrence",
        "conditional_entropy",
        "entanglement_of_formation",
        "modular_sum_entropy",
        "mutual_information",
        "shannon_entropy",
        "von_neumann_entropy",
    ),
    "measure": (
        "JointDistribution",
        "Povm",
        "ProjectiveBasis",
        "as_povm",
        "is_mub_set",
        "joint_distribution",
        "measurement_distribution",
        "mub_set",
        "overlap_omega",
        "pauli_bases",
        "povm_omega",
        "rotate_basis",
    ),
    "montecarlo": (
        "BracketError",
        "OptimizationResult",
        "basis_sweep",
        "optimize_bases",
        "ppt_min_eigenvalue",
        "sample_ensemble",
        "separable_audit",
        "separable_sample",
        "soundness_audit",
        "survey_fig1",
        "survey_fig1_states",
        "survey_fig2",
        "threshold_bisect",
    ),
    "qmat": (
        "DensityMatrix",
        "PureState",
        "partial_trace",
        "partial_transpose",
        "random_mixed_state",
        "random_pure_state",
        "random_unitary",
        "singlet_state",
        "werner_state",
    ),
    "witness": (
        "WitnessReport",
        "mub_conditional",
        "mub_mi",
        "pair_conditional",
        "pair_symmetric_mi",
        "sanchez_ruiz_bound",
        "sumdiff_discrete",
        "violation_gap",
    ),
}

# exported name -> the submodule that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Bind every export at once, as the eager imports did: the namespace then
    # never holds some names and not others, so code that swaps a module's
    # functions and restores them (a tracer) finds each one bound or none.
    namespace = globals()
    for export, module in _MODULE_OF.items():
        namespace[export] = getattr(import_module(f".{module}", __name__), export)
    return namespace[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
