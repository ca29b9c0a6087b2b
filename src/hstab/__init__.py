"""Algebraic invariants of torus-equivariant degenerations of toric
Fano varieties: exact polytope geometry, weight-ring asymptotics, the
H and Donaldson-Futaki invariants, Duistermaat-Heckman measures, and
optimal product degenerations."""

__version__ = "0.1.0"

from . import errors
from .corpus import BARYCENTER_ZERO, CORPUS_NAMES, corpus_path, load_corpus
from .invariants import (
    InvariantReport,
    build_report,
    df_invariant,
    h_invariant,
    hamiltonian_shift_check,
    jensen_gap,
)
from .lattice_geom import (
    LatticePolytope,
    SimplicialDecomposition,
    barycenter,
    boundary_integral,
    build_polytope,
    interior_integral,
    is_reflexive,
    lattice_points,
    lattice_stats,
    load_polytope,
    normalized_volume,
    translate,
    triangulate,
    volume,
)
from .optimal_degeneration import (
    OptimizationResult,
    StabilityVerdict,
    h_gradient,
    h_hessian,
    h_stability_verdict,
    maximize_h,
    mu_supremum,
    recession_slope,
)
from .simplex_calculus import (
    AffineForm,
    Simplex,
    exp_divided_difference,
    integral_exp_simplex,
    integral_linear_simplex,
    simplex,
)
from .weight_rings import (
    DHSample,
    WeightTable,
    b0_b1_exact,
    c0_bruteforce,
    c0_estimate,
    c0_exact,
    c0_lipschitz_check,
    dh_exp_moment,
    dh_measure,
    fit_b0_b1,
    laurent_fit,
    load_weight_table,
    save_weight_table,
    total_weight,
    weight_character,
    weight_table_toric,
)

__all__ = [name for name in dir() if not name.startswith("_")]
