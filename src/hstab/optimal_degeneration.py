"""Maximization of the H-invariant over torus directions.

H is smooth and concave on the Lie algebra of the torus, with

    grad H_i(xi) = V G_i(xi) - (n-1)! B_i,
    Hess H(xi)   = -V Cov_xi(x),

where G is the mean and Cov the covariance of the Gibbs measure
e^{-<x,xi>} dx / Z on P, and B_i = int_{dP} x_i dsigma.  A damped Newton
ascent from xi = 0 therefore converges globally whenever a maximizer
exists; directions eta along which H(s eta) grows affinely are detected by
the recession slope

    lim_{s->inf} H(s eta)/s = V min_P <x, eta> - (n-1)! int_{dP} <x,eta> dsigma

and reported as unbounded rather than iterated into.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import lattice_geom as lg
from .errors import Inconclusive
from .invariants import df_raw, h_raw, require_reflexive
from .simplex_calculus import exp_moments

# shift the Newton system so its top eigenvalue is at most this
_EIGENVALUE_FLOOR = -1e-8
_ARMIJO = 1e-4
_MAX_HALVINGS = 60
_XI_GUARD = 1e3


def _boundary_moment_float(P) -> np.ndarray:
    return np.array([float(b) for b in lg.boundary_moment_vector(P)])


def _grad_hess(P, xf: Sequence[float], order: int):
    """Gradient of H and, at order 2, its exactly symmetrized Hessian (else
    None) from one moment pass; the Gibbs mean and covariance are the
    normalized first and centred second moments."""
    _, i0, i1, i2 = exp_moments(lg.triangulate(P).simplices, xf, order)
    v = float(lg.normalized_volume(P))
    mean = np.array(i1) / i0
    grad = v * mean - math.factorial(P.dim - 1) * _boundary_moment_float(P)
    if order < 2:
        return grad, None
    cov = np.array(i2) / i0 - np.outer(mean, mean)
    hess = -v * cov
    return grad, (hess + hess.T) / 2.0


def h_gradient(P, xi) -> np.ndarray:
    """Gradient of H: V * (Gibbs mean) - (n-1)! * (boundary moments)."""
    require_reflexive(P)
    return _grad_hess(P, lg.as_float_vector(xi, P.dim), order=1)[0]


def h_hessian(P, xi) -> np.ndarray:
    """Hessian of H: the negated Gibbs covariance scaled by V, symmetrized
    exactly; negative definite for full-dimensional P."""
    require_reflexive(P)
    return _grad_hess(P, lg.as_float_vector(xi, P.dim), order=2)[1]


def recession_slope(P, eta) -> float:
    """Asymptotic slope lim H(s eta)/s along a unit direction."""
    require_reflexive(P)
    ef = np.array(lg.as_float_vector(eta, P.dim))
    norm = float(np.linalg.norm(ef))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"direction must be a unit vector, |eta| = {norm}")
    vmin = min(
        math.fsum(float(c) * e for c, e in zip(v, ef.tolist()))
        for v in P.vertices
    )
    v = float(lg.normalized_volume(P))
    boundary = float(_boundary_moment_float(P) @ ef)
    return v * vmin - math.factorial(P.dim - 1) * boundary


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


def _probe_directions(P, xi: np.ndarray):
    """Recession probes along xi/|xi| and all +-coordinate directions;
    returns a witness direction with nonnegative slope, if any."""
    n = P.dim
    dirs = []
    norm = float(np.linalg.norm(xi))
    if norm > 0:
        dirs.append(xi / norm)
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        dirs.extend([e, -e])
    for eta in dirs:
        if recession_slope(P, eta) >= 0:
            return eta
    return None


def maximize_h(
    P, tol: float = 1e-9, max_iter: int = 200, keep_trace: bool = False
) -> OptimizationResult:
    """Damped Newton ascent of H from xi = 0.

    Newton systems are shifted so the working Hessian has top eigenvalue
    <= -1e-8; steps use Armijo backtracking (parameter 1e-4, halving).
    When the line search exhausts 60 halvings or |xi| leaves the 1e3 ball,
    recession slopes are probed and any nonnegative one terminates the run
    as unbounded_direction.  Deterministic for fixed (P, tol, max_iter).
    """
    require_reflexive(P)
    if not (tol > 0):
        raise ValueError("tol must be positive")
    n = P.dim

    trace: Optional[list] = [] if keep_trace else None
    xi = np.zeros(n)
    h_val = 0.0
    iterations = 0

    witness = _probe_directions(P, xi)
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
    last = None  # (grad, hess) of the loop's evaluation at the current xi
    for it in range(max_iter):
        grad, hess = _grad_hess(P, xi, order=2)
        last = grad, hess
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
        accepted = False
        cand = xi
        h_cand = h_val
        for _ in range(_MAX_HALVINGS):
            cand = xi + s * step
            h_cand = h_raw(P, cand)
            if h_cand >= h_val + _ARMIJO * s * slope:
                accepted = True
                break
            s *= 0.5

        if not accepted or float(np.linalg.norm(cand)) > _XI_GUARD:
            witness = _probe_directions(P, cand if accepted else xi)
            if witness is not None:
                status = "unbounded_direction"
                return OptimizationResult(
                    status=status,
                    xi_star=xi,
                    h_star=h_val,
                    grad_norm=gnorm,
                    hessian_max_eigenvalue=top,
                    iterations=iterations,
                    flat_direction=False,
                    direction=witness,
                    trace=trace,
                )
            if not accepted:
                status = "max_iterations"
                break

        xi = cand
        last = None
        h_val = h_cand
        iterations = it + 1
        # Jensen ordering must hold at every iterate
        if not float(df_raw(P, xi)) >= h_val - 1e-9:
            raise ArithmeticError("DF fell below H along the ascent")

    # a converged run or a failed line search ends where it last evaluated
    if last is None:
        last = _grad_hess(P, xi, order=2)
    final_grad, final_hess = last
    final_top = float(np.linalg.eigvalsh(final_hess)[-1])
    return OptimizationResult(
        status=status,
        xi_star=xi,
        h_star=h_val,
        grad_norm=float(np.linalg.norm(final_grad)),
        hessian_max_eigenvalue=final_top,
        iterations=iterations,
        flat_direction=bool(_EIGENVALUE_FLOOR < final_top <= 0.0),
        direction=None,
        trace=trace,
    )


def mu_supremum(P, result: Optional[OptimizationResult] = None) -> float:
    """sup of the mu-functional over product degenerations:
    n V - sup H.  Requires a converged maximization."""
    require_reflexive(P)
    if result is None:
        result = maximize_h(P)
    if not result.converged:
        raise Inconclusive(
            f"optimizer terminated with status {result.status}; "
            "mu supremum undefined",
            status=result.status,
        )
    return P.dim * float(lg.normalized_volume(P)) - result.h_star


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of the product-degeneration stability search."""

    stable: bool
    label: str  # Hstable_wrt_product_degenerations | Hunstable
    qualifier: str
    witness_xi: tuple
    h_at_witness: float
    hessian_max_eigenvalue: float

    @property
    def description(self) -> str:
        return f"{self.label} ({self.qualifier})"


_QUALIFIER = "searched torus-product degenerations only"


def h_stability_verdict(
    P, result: Optional[OptimizationResult] = None
) -> StabilityVerdict:
    """Stable when the maximizer is the trivial degeneration (xi* = 0 with
    negative-definite Hessian, hence H < 0 away from 0 by strict
    concavity); otherwise unstable with the maximizer as witness."""
    require_reflexive(P)
    if result is None:
        result = maximize_h(P)
    if not result.converged:
        raise Inconclusive(
            f"optimizer terminated with status {result.status}; "
            "no stability verdict",
            status=result.status,
        )
    at_origin = float(np.linalg.norm(result.xi_star)) < 1e-8
    stable = at_origin and result.hessian_max_eigenvalue < 0
    return StabilityVerdict(
        stable=stable,
        label="Hstable_wrt_product_degenerations" if stable else "Hunstable",
        qualifier=_QUALIFIER,
        witness_xi=tuple(result.xi_star.tolist()),
        h_at_witness=result.h_star,
        hessian_max_eigenvalue=result.hessian_max_eigenvalue,
    )
