"""The H-invariant and Donaldson-Futaki invariant of product degenerations.

For a reflexive polytope P with normalized volume V = n! vol(P), a torus
direction xi determines a product degeneration whose invariants are

    H(xi)  = -V log(c0(xi)/V) - 2 (n-1)! b1(xi)
    DF(xi) = n! (b0(xi) - (2/n) b1(xi))

with c0(xi) = n! int_P e^{-<x,xi>} dx, b0 = int_P <x,xi> dx and
b1 = (1/2) int_{dP} <x,xi> dsigma.  Jensen's inequality gives DF >= H with
equality only at xi = 0; the gap has the cancellation-free form
n! b0 + V log(c0/V).

Both invariants are normalization-independent on reflexive input; the raw
formulas are kept callable on arbitrary polytopes so the shift check can
evaluate them on translates, where the reflexive gate would refuse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import lattice_geom as lg
from .errors import NotReflexive, NumericalCheckFailed
from .lattice_geom import as_exact_vector, as_float_vector, b0_b1_exact
from .simplex_calculus import _safe_exp, exp_moments


def require_reflexive(P) -> None:
    if not lg.is_reflexive(P):
        raise NotReflexive(
            f"polytope {P.name or '<unnamed>'} is not reflexive "
            "(integer vertices with every facet offset 1 are required)"
        )


def _log_ratio_b0_b1(P, xf: tuple):
    """(log(c0/V), b0, b1) at a float direction from one moment pass;
    log(c0/V) is computed fully in log space, so the n! cancels."""
    shift, i0, _, _ = exp_moments(lg.triangulate(P).simplices, xf, order=0)
    log_ratio = shift + math.log(i0) - math.log(float(lg.volume(P)))
    b0, b1 = b0_b1_exact(P, xf)
    return log_ratio, b0, b1


def _h(P, log_ratio: float, b1) -> float:
    v = float(lg.normalized_volume(P))
    return -v * log_ratio - 2.0 * math.factorial(P.dim - 1) * float(b1)


def _df(n: int, b0, b1) -> Fraction:
    return math.factorial(n) * (b0 - Fraction(2, n) * b1)


def _gap(P, xf: tuple, log_ratio: float, b0, b1) -> float:
    """n! b0 + V log(c0/V) at xf, checked against the literal DF - H."""
    v = float(lg.normalized_volume(P))
    gap = math.factorial(P.dim) * float(b0) + v * log_ratio
    literal = float(_df(P.dim, b0, b1)) - _h(P, log_ratio, b1)
    if not abs(gap - literal) <= 1e-12 * max(1.0, abs(gap)):
        raise NumericalCheckFailed(
            "jensen gap disagrees with DF - H beyond roundoff", xf
        )
    return gap


def h_raw(P, xi) -> float:
    """H without the reflexivity gate (used on translates)."""
    xf = as_float_vector(xi, P.dim)
    if not any(xf):
        return 0.0  # exact normalization: c0(0) = V and b1(0) = 0
    log_ratio, _, b1 = _log_ratio_b0_b1(P, xf)
    return _h(P, log_ratio, b1)


def df_raw(P, xi) -> Fraction:
    """DF without the reflexivity gate, exact in exact arithmetic."""
    b0, b1 = b0_b1_exact(P, as_exact_vector(xi, P.dim))
    return _df(P.dim, b0, b1)


def h_invariant(P, xi) -> float:
    """H(xi) for a reflexive polytope; H(0) = 0 exactly."""
    require_reflexive(P)
    return h_raw(P, xi)


def df_invariant(P, xi):
    """DF(xi) for a reflexive polytope; exact rational when xi is exact
    (and linear in xi: DF(s xi) = s DF(xi))."""
    require_reflexive(P)
    return df_raw(P, xi)


def jensen_gap(P, xi) -> float:
    """DF(xi) - H(xi) >= 0, computed from the cancellation-free expression
    n! b0 + V log(c0/V) and checked against the literal difference."""
    require_reflexive(P)
    xf = as_float_vector(xi, P.dim)
    if not any(xf):
        return 0.0
    return _gap(P, xf, *_log_ratio_b0_b1(P, xf))


@dataclass(frozen=True)
class ShiftCheck:
    """Invariance certificate for one Hamiltonian shift."""

    delta: float  # |H(P+u, xi) - H(P, xi)|
    df_delta: float  # |DF(P+u, xi) - DF(P, xi)|
    ok: bool


def hamiltonian_shift_check(P, xi, u) -> ShiftCheck:
    """Evaluate H and DF on P and on the translate P+u with the ungated
    formulas; for reflexive P both must agree (the boundary identity
    sigma(dP) = n vol(P) makes the shift terms cancel, so the two DF
    values are equal as Fractions)."""
    require_reflexive(P)
    shifted = lg.translate(P, u)
    delta = abs(h_raw(shifted, xi) - h_raw(P, xi))
    df_shifted, df = df_raw(shifted, xi), df_raw(P, xi)
    ok = bool(delta < 1e-9 and df_shifted == df)
    return ShiftCheck(delta=delta, df_delta=abs(float(df_shifted - df)), ok=ok)


@dataclass(frozen=True)
class InvariantReport:
    """All scalar invariants of one (polytope, direction) pair."""

    polytope_name: str
    dim: int
    xi: tuple  # floats
    volume: Fraction
    normalized_volume: Fraction
    c0: float
    b0: Fraction
    b1: Fraction
    h: float
    df: float
    df_exact: Fraction
    jensen_gap: float


def build_report(P, xi) -> InvariantReport:
    """Aggregate report; raises NotReflexive on non-Fano-normalized input,
    and NumericalCheckFailed, carrying the float direction, when the gap
    DF - H is below -1e-9 or disagrees with the literal DF - H (``_gap``).
    """
    require_reflexive(P)
    xf = as_float_vector(xi, P.dim)
    xe = as_exact_vector(xi, P.dim)
    n = P.dim
    vol = lg.volume(P)
    v = lg.normalized_volume(P)
    # b0/b1 are reported at the exact direction; H and the gap use the
    # float direction, as h_invariant and jensen_gap do.  The two are one
    # direction unless xi was given as exact "p/q" strings.
    if any(xf):
        log_ratio, b0_f, b1_f = _log_ratio_b0_b1(P, xf)
        log_c0 = math.log(math.factorial(n) * float(vol)) + log_ratio
        # c0 itself can overflow a double long before its logarithm does
        c0 = _safe_exp(log_c0)
        h = _h(P, log_ratio, b1_f)
        gap = _gap(P, xf, log_ratio, b0_f, b1_f)
    else:
        c0 = float(v)
        h = gap = 0.0
    if any(xf) and xe == as_exact_vector(xf, n):
        b0, b1 = b0_f, b1_f
    else:
        b0, b1 = b0_b1_exact(P, xe)
    df_exact = _df(n, b0, b1)
    if not gap >= -1e-9:
        raise NumericalCheckFailed("Jensen gap is negative beyond tolerance", xf)

    return InvariantReport(
        polytope_name=P.name,
        dim=n,
        xi=xf,
        volume=vol,
        normalized_volume=v,
        c0=c0,
        b0=b0,
        b1=b1,
        h=h,
        df=float(df_exact),
        df_exact=df_exact,
        jensen_gap=gap,
    )
