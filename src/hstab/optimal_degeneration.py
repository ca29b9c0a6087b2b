"""Maximization of the H-invariant over torus directions.

H is smooth and concave on the Lie algebra of the torus, with

    grad H_i(xi) = V G_i(xi) - (n-1)! B_i,
    Hess H(xi)   = -V Cov_xi(x),

where G is the mean and Cov the covariance of the Gibbs measure
e^{-<x,xi>} dx / Z on P, and B_i = int_{dP} x_i dsigma.  On reflexive P,
(n-1)! B = V q with q = (n+1)/n * barycenter, so the recession slope is

    lim_{s->inf} H(s eta)/s = V (min_P <x, eta> - <q, eta>),  |eta| = 1.

All slopes are negative, so H has a maximizer, iff <u_F, q> < 1 on every
facet.  ``maximize_h`` checks this once, exactly, before a damped Newton
ascent from xi = 0, which then converges globally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import lattice_geom as lg
from .errors import Inconclusive, NumericalCheckFailed
from .invariants import df_raw, h_raw, require_reflexive
from .simplex_calculus import exp_moments

# shift the Newton system so its top eigenvalue is at most this
_EIGENVALUE_FLOOR = -1e-8
_ARMIJO = 1e-4
_MAX_HALVINGS = 60


def _grad_hess(P, xf: Sequence[float], order: int):
    """Gradient of H and, at order 2, its Hessian (else None) from one
    moment pass; the Gibbs mean and covariance are the normalized first and
    centred second moments.  The Hessian is exactly symmetric, as
    ``exp_moments`` fills i2 symmetrically."""
    _, i0, i1, i2 = exp_moments(lg.triangulate(P).simplices, xf, order)
    v = float(lg.normalized_volume(P))
    mean = np.array(i1) / i0
    b = np.array([float(c) for c in lg.boundary_moment_vector(P)])
    grad = v * mean - math.factorial(P.dim - 1) * b
    if order < 2:
        return grad, None
    cov = np.array(i2) / i0 - np.outer(mean, mean)
    return grad, -v * cov


def h_gradient(P, xi) -> np.ndarray:
    """Gradient of H: V * (Gibbs mean) - (n-1)! * (boundary moments)."""
    require_reflexive(P)
    return _grad_hess(P, lg.as_float_vector(xi, P.dim), order=1)[0]


def h_hessian(P, xi) -> np.ndarray:
    """Hessian of H: the negated Gibbs covariance scaled by V, exactly
    symmetric; negative definite for full-dimensional P."""
    require_reflexive(P)
    return _grad_hess(P, lg.as_float_vector(xi, P.dim), order=2)[1]


def _q(P) -> list:
    """q = (n+1)/n * barycenter, exact: V q = (n-1)! B on reflexive P."""
    return [Fraction(P.dim + 1, P.dim) * b for b in lg.barycenter(P)]


def recession_slope(P, eta) -> float:
    """Asymptotic slope lim H(s eta)/s along a unit direction, in the
    closed form V min_P <x - q, eta> that holds on reflexive P."""
    require_reflexive(P)
    ef = np.array(lg.as_float_vector(eta, P.dim))
    norm = float(np.linalg.norm(ef))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"direction must be a unit vector, |eta| = {norm}")
    q = _q(P)
    least = min(
        math.fsum(float(c - t) * e for c, t, e in zip(v, q, ef.tolist()))
        for v in P.vertices
    )
    return float(lg.normalized_volume(P)) * least


def _unbounded_witness(P) -> Optional[np.ndarray]:
    """-u_F/|u_F| for the first facet F with <u_F, q> >= 1, where the
    slope is V (<u_F, q> - 1)/|u_F| >= 0; None when H has a maximizer."""
    q = _q(P)
    for f in P.facets:
        if sum(u * t for u, t in zip(f.normal, q)) >= f.offset:
            u = np.array(f.normal, dtype=float)
            return -u / np.linalg.norm(u)
    return None


@dataclass(frozen=True)
class OptimizationResult:
    """Terminal state of one H-maximization run."""

    status: str  # converged | unbounded_direction | max_iterations
    xi_star: np.ndarray
    h_star: float
    grad_norm: float
    hessian_max_eigenvalue: float
    iterations: int
    flat_direction: bool
    direction: Optional[np.ndarray] = None  # witness for unbounded runs
    trace: Optional[list] = None

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def maximize_h(
    P, tol: float = 1e-9, max_iter: int = 200, keep_trace: bool = False
) -> OptimizationResult:
    """Damped Newton ascent of H from xi = 0.

    Without a maximizer it ends at once as unbounded_direction, with a
    facet witness as ``direction``.  Newton systems are shifted so the
    working Hessian has top eigenvalue <= -1e-8; steps use Armijo
    backtracking (parameter 1e-4, halving), and a line search that
    exhausts 60 halvings ends the run as max_iterations.  Deterministic.
    """
    require_reflexive(P)
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter}")
    n = P.dim

    trace: Optional[list] = [] if keep_trace else None
    xi = np.zeros(n)
    h_val = 0.0
    iterations = 0

    witness = _unbounded_witness(P)
    if witness is not None:
        return OptimizationResult(
            status="unbounded_direction",
            xi_star=xi,
            h_star=h_val,
            grad_norm=float("nan"),
            hessian_max_eigenvalue=float("nan"),
            iterations=0,
            flat_direction=False,
            direction=witness,
            trace=trace,
        )

    status = "max_iterations"
    grad, hess = _grad_hess(P, xi, order=2)  # always at the current xi
    for it in range(max_iter):
        gnorm = float(np.linalg.norm(grad))
        if trace is not None:
            trace.append(
                {
                    "iteration": it,
                    "xi": xi.tolist(),
                    "h": h_val,
                    "grad_norm": gnorm,
                }
            )
        if gnorm < tol:
            status = "converged"
            break

        top = float(np.linalg.eigvalsh(hess)[-1])
        work = hess
        if top > _EIGENVALUE_FLOOR:
            work = hess - (top - _EIGENVALUE_FLOOR) * np.eye(n)
        step = np.linalg.solve(work, -grad)
        slope = float(grad @ step)  # > 0 since work is negative definite

        s = 1.0
        for _ in range(_MAX_HALVINGS):
            cand = xi + s * step
            h_cand = h_raw(P, cand)
            if h_cand >= h_val + _ARMIJO * s * slope:
                break
            s *= 0.5
        else:
            break  # the line search failed: status stays max_iterations

        xi = cand
        h_val = h_cand
        iterations = it + 1
        # Jensen ordering must hold at every iterate
        if not float(df_raw(P, xi)) >= h_val - 1e-9:
            raise NumericalCheckFailed("DF fell below H along the ascent", xi)
        grad, hess = _grad_hess(P, xi, order=2)

    final_top = float(np.linalg.eigvalsh(hess)[-1])
    return OptimizationResult(
        status=status,
        xi_star=xi,
        h_star=h_val,
        grad_norm=float(np.linalg.norm(grad)),
        hessian_max_eigenvalue=final_top,
        iterations=iterations,
        flat_direction=bool(_EIGENVALUE_FLOOR < final_top <= 0.0),
        direction=None,
        trace=trace,
    )


def mu_supremum(P, result: Optional[OptimizationResult] = None) -> float:
    """sup of the mu-functional over product degenerations:
    n V - sup H.  ``result`` defaults to a fresh ``maximize_h(P)``;
    raises Inconclusive unless the run converged."""
    require_reflexive(P)
    if result is None:
        result = maximize_h(P)
    if not result.converged:
        raise Inconclusive(
            f"optimizer terminated with status {result.status}; mu supremum undefined",
            status=result.status,
        )
    return P.dim * float(lg.normalized_volume(P)) - result.h_star


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of the product-degeneration stability search."""

    stable: bool
    label: str  # Hstable_wrt_product_degenerations | Hunstable
    qualifier: str
    description: str  # "label (qualifier)"
    witness_xi: tuple
    h_at_witness: float
    hessian_max_eigenvalue: float


_QUALIFIER = "searched torus-product degenerations only"


def h_stability_verdict(
    P, result: Optional[OptimizationResult] = None
) -> StabilityVerdict:
    """Stable iff the barycenter is 0, exactly: at xi = 0 the Gibbs mean is
    the barycenter, so grad H(0) = V bary - V q = -V bary / n, and H(0) = 0
    with H strictly concave.  The witness fields are the final state of
    ``result`` (default a fresh ``maximize_h(P)``) at any status, with
    h_at_witness > 0 once the ascent took a step; an unbounded run's facet
    witness is its ``direction``."""
    require_reflexive(P)
    if result is None:
        result = maximize_h(P)
    stable = all(b == 0 for b in lg.barycenter(P))
    label = "Hstable_wrt_product_degenerations" if stable else "Hunstable"
    return StabilityVerdict(
        stable=stable,
        label=label,
        qualifier=_QUALIFIER,
        description=f"{label} ({_QUALIFIER})",
        witness_xi=tuple(result.xi_star.tolist()),
        h_at_witness=result.h_star,
        hessian_max_eigenvalue=result.hessian_max_eigenvalue,
    )
