"""Verification laboratory for the porous medium equation on finite graphs.

The package integrates ``du/dt = L(u^m)`` on finite weighted graphs,
decides discrete curvature-dimension conditions empirically, and checks the
time-scaled regularity and Harnack estimates that those conditions imply.
``_EXPORTS`` below is the one declaration of the public names: each
module's ``__all__`` is read from it, and the package re-exports them all.

``import pmelab`` loads none of its modules.  A public name, or a module
such as ``pmelab.cd``, is imported on first access (PEP 562) and then bound
in the package namespace, so a process that only builds graphs never loads
the solver or the curvature search.
"""

import importlib

# module -> its public names, in the order the package re-exports them; each
# module sets ``__all__`` from its entry, and since this file imports no
# submodule, reading the map loads nothing more
_EXPORTS = {
    "cd": (
        "SearchConfig", "AdmissibilityResult", "AdmissibleConfig", "CDReport", "is_admissible", "cd_ratio",
        "verify_cd_at", "empirical_optimal_d", "complete_graph_certificate", "ChainWitness",
        "chain_counterexample", "lattice_cd_check", "chain_limit_curvature", "complete_graph_f",
        "z_lattice_cd_check",
    ),
    "errors": (
        "PMELabError", "ValidationError", "DomainError", "AdmissibilityError", "NoPathError", "LambdaOneError",
        "StiffnessError",
    ),
    "estimates": (
        "EstimateReport", "ab_check", "diff_harnack_residual", "harnack_rhs_path", "harnack_rhs_distance",
        "harnack_check", "quadratic_minorant_check", "minorant_ratio", "integral_min_inequality_check",
        "lemma61_check", "lemma63_check",
    ),
    "graphs": (
        "Graph", "build_graph", "complete_graph", "path_graph", "square_graph", "lattice_window",
        "graph_distance", "k_min", "two_hop_ball", "load_edge_list", "save_edge_list", "resolve_graph",
        "GENERATOR_HELP",
    ),
    "operators": (
        "as_field", "check_exponent", "check_mixing", "laplacian", "laplacian_field", "exp_remainder",
        "exp_remainder_m", "difference_sum", "pressure", "pressure_inverse", "gradient_energy",
        "gradient_energy_field", "carre_du_champ", "curvature_form", "curvature_form_mixed",
        "mixed_laplacian", "mixed_laplacian_field", "upsilon", "tilde_upsilon", "psi_H", "tilde_psi", "gamma",
        "d_m", "d_m_alpha", "g_quantity",
    ),
    "solver": (
        "SolverConfig", "SolverStats", "Trajectory", "Measure", "counting_measure", "pme_rhs", "integrate",
        "exact_two_point", "renyi_entropy", "entropy_dissipation_residual", "pressure_equation_residual",
        "write_trajectory_csv", "read_trajectory_csv", "load_initial_condition", "rhs",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "artifacts")

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module("." + name, __name__)  # the import binds it here
    if name not in _MODULE_OF:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _MODULE_OF[name], __name__), name)
    globals()[name] = value  # later lookups are plain namespace hits
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
