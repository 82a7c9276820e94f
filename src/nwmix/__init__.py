"""Simulation and verification toolkit for small-world random graph mixing.

Generate Newman-Watts graphs (a ring plus sparse random shortcuts), measure
lazy-random-walk mixing times, profile connected-set conductance across
dyadic volume scales, count branching-process root subtrees in exact
rationals, and evaluate the explicit constants used in conductance-based
mixing bounds.
"""

from .conductance import (
    CutStats,
    EnumerationBudgetError,
    FRBound,
    ScaleEntry,
    ScaleProfile,
    connected_set_counts,
    connected_sets,
    cut_stats,
    fr_bound,
    num_scales,
)
from .constants import (
    ConstantSet,
    GridValue,
    RegimeError,
    chernoff_phi,
    constants_for,
    cycle_subset_count,
    cycle_subset_tally,
    expected_connected_sets_bound,
    solve_beta,
    solve_small_c_constants,
    solve_xk,
)
from .experiments import (
    ExperimentConfig,
    QuietArc,
    ScalingRecord,
    VerificationError,
    connected_set_bound_check,
    quiet_arc,
    quiet_arc_threshold,
    run_conductance,
    run_quiet_arc,
    run_scaling,
    run_subtree_verification,
    write_mu_table,
)
from .graphs import (
    GraphSpec,
    GraphValidationError,
    UndirectedGraph,
    blow_up,
    blow_up_shortcut_probability,
    build_ring,
    complete_graph,
    read_graph,
    sample_small_world,
    write_graph,
)
from .rng import derive_seed, make_rng
from .subtrees import (
    MCEstimate,
    OffspringLaw,
    binomial_law,
    binomial_plus_law,
    brute_force_mu,
    count_root_embeddings,
    count_root_subtrees,
    deterministic_law,
    deterministic_subtree_count,
    explicit_law,
    factorial_moments,
    mu_by_functional_equation,
    mu_by_lagrange,
    mu_poisson_closed_form,
    mu_upper_bound_weak,
    poisson_law,
    subset_moments,
)
from .walks import (
    EscapeResult,
    LazyKernel,
    MixingResult,
    WalkError,
    escape_time,
    mixing_time,
    point_mass,
    sample_starts,
    stationary,
    tv_distance,
    validate_distribution,
)

__version__ = "0.1.0"
