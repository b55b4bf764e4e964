"""Verification laboratory for the porous medium equation on finite graphs.

The package integrates ``du/dt = L(u^m)`` on finite weighted graphs,
decides discrete curvature-dimension conditions empirically, and checks the
time-scaled regularity and Harnack estimates that those conditions imply.
"""

from .cd import (
    AdmissibleConfig,
    CDReport,
    ChainWitness,
    SearchConfig,
    cd_ratio,
    chain_counterexample,
    chain_limit_curvature,
    complete_graph_certificate,
    complete_graph_f,
    empirical_optimal_d,
    is_admissible,
    lattice_cd_check,
    verify_cd_at,
    z_lattice_cd_check,
)
from .errors import (
    AdmissibilityError,
    DomainError,
    LambdaOneError,
    NoPathError,
    PMELabError,
    StiffnessError,
    ValidationError,
)
from .estimates import (
    EstimateReport,
    ab_check,
    diff_harnack_residual,
    harnack_check,
    harnack_rhs_distance,
    harnack_rhs_path,
    integral_min_inequality_check,
    lemma61_check,
    lemma63_check,
    minorant_ratio,
    quadratic_minorant_check,
)
from .graphs import (
    Graph,
    build_graph,
    complete_graph,
    graph_distance,
    k_min,
    lattice_window,
    load_edge_list,
    path_graph,
    resolve_graph,
    save_edge_list,
    square_graph,
    two_hop_ball,
)
from .operators import (
    as_field,
    carre_du_champ,
    curvature_form,
    curvature_form_mixed,
    d_m,
    d_m_alpha,
    difference_sum,
    exp_remainder,
    exp_remainder_m,
    g_quantity,
    gamma,
    gradient_energy,
    gradient_energy_field,
    laplacian,
    laplacian_field,
    mixed_laplacian,
    mixed_laplacian_field,
    pressure,
    pressure_inverse,
    psi_H,
    tilde_psi,
    tilde_upsilon,
    upsilon,
)
from .solver import (
    Measure,
    SolverConfig,
    SolverStats,
    Trajectory,
    counting_measure,
    entropy_dissipation_residual,
    exact_two_point,
    integrate,
    load_initial_condition,
    pme_rhs,
    pressure_equation_residual,
    read_trajectory_csv,
    renyi_entropy,
    rhs,
    write_trajectory_csv,
)

__version__ = "0.1.0"
