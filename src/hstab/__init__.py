"""Algebraic invariants of torus-equivariant degenerations of toric
Fano varieties: exact polytope geometry, weight-ring asymptotics, the
H and Donaldson-Futaki invariants, Duistermaat-Heckman measures, and
optimal product degenerations.

The package root imports nothing up front.  Each public name, and each
submodule named in ``__all__``, is loaded on first attribute access
(PEP 562), so ``import hstab`` is cheap and numpy is imported only by the
modules that build arrays: ``weight_rings``, ``optimal_degeneration`` and
the lattice enumeration in ``lattice_geom``.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_SUBMODULES = (
    "corpus",
    "errors",
    "invariants",
    "lattice_geom",
    "optimal_degeneration",
    "simplex_calculus",
    "weight_rings",
)

# public name -> the submodule that defines it
_ORIGIN = {
    name: module
    for module, names in {
        "corpus": ("BARYCENTER_ZERO", "CORPUS_NAMES", "corpus_path", "load_corpus"),
        "invariants": (
            "InvariantReport",
            "build_report",
            "df_invariant",
            "h_invariant",
            "hamiltonian_shift_check",
            "jensen_gap",
        ),
        "lattice_geom": (
            "LatticePolytope",
            "SimplicialDecomposition",
            "b0_b1_exact",
            "barycenter",
            "boundary_integral",
            "build_polytope",
            "interior_integral",
            "is_reflexive",
            "lattice_points",
            "lattice_stats",
            "load_polytope",
            "normalized_volume",
            "translate",
            "triangulate",
            "volume",
        ),
        "optimal_degeneration": (
            "OptimizationResult",
            "StabilityVerdict",
            "h_gradient",
            "h_hessian",
            "h_stability_verdict",
            "maximize_h",
            "mu_supremum",
            "recession_slope",
        ),
        "simplex_calculus": (
            "AffineForm",
            "Simplex",
            "exp_divided_difference",
            "integral_exp_simplex",
            "integral_linear_simplex",
            "simplex",
        ),
        "weight_rings": (
            "DHSample",
            "WeightTable",
            "c0_bruteforce",
            "c0_estimate",
            "c0_exact",
            "c0_lipschitz_check",
            "dh_exp_moment",
            "dh_measure",
            "fit_b0_b1",
            "laurent_fit",
            "load_weight_table",
            "save_weight_table",
            "total_weight",
            "weight_character",
            "weight_table_toric",
        ),
    }.items()
    for name in names
}

__all__ = sorted([*_SUBMODULES, *_ORIGIN])


def __getattr__(name):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
