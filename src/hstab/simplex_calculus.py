"""Exact and transcendental integrals over simplices.

Linear integrands are handled in exact rational arithmetic.  Exponential
integrands reduce, in barycentric coordinates, to divided differences of
exp over the vertex values: for an n-simplex S with vertices v_0..v_n and
a linear form a,

    int_S exp(-<a, x>) dx = n! vol(S) * exp[th_0, ..., th_n],

with th_k = -<a, v_k> and exp[...] the divided difference of exp over the
(possibly repeated) nodes.  First and second moments insert repeated
nodes:

    int_S x_i exp(-<a, x>) dx
        = n! vol(S) * sum_k v_{k,i} exp[th_0..th_n, th_k]
    int_S x_i x_j exp(-<a, x>) dx
        = n! vol(S) * sum_{k,l} v_{k,i} v_{l,j} c_{kl},
    c_{kl} = exp[th_0..th_n, th_k, th_l]   (k != l)
    c_{kk} = 2 exp[th_0..th_n, th_k, th_k].

Divided differences are evaluated top down on sorted nodes: the
recursion

    exp[x_0..x_r] = (exp[x_1..x_r] - exp[x_0..x_{r-1}]) / (x_r - x_0)

while the nodes span more than 1e-4, and the mean-shifted series

    exp[x_0..x_r] = exp(mu) * sum_{k>=0} h_k(x - mu) / (r + k)!

(h_k the complete homogeneous symmetric polynomials) below it, so
confluent and clustered nodes lose no accuracy to cancellation.  A node
set that is one tight block costs a single series; the series builds h_k
one degree at a time and stops at its first negligible term.  One moment
pass keeps one memo keyed by sorted node tuple, holding whole node sets
and every sub-range the recursion reads alike, so each distinct vertex is
converted once and each distinct sub-range evaluated once per pass, however
many node sets and simplices share it; nothing is kept after the pass
returns.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DegenerateSimplex

# series kicks in below this node span; safe well before cancellation hurts
_SERIES_SPAN = 1e-4
# absolute tail cutoff for the shifted series
_SERIES_TAIL = 1e-16
_SERIES_MAX_TERMS = 60


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _dot(p, q):
    return sum((a * b for a, b in zip(p, q)), Fraction(0))


def _int_det(rows) -> int:
    """Exact determinant of a square integer matrix by Bareiss's
    fraction-free elimination (every division is exact); det([]) = 1."""
    a = [list(r) for r in rows]
    k = len(a)
    sign, prev = 1, 1
    for col in range(k):
        piv = next((r for r in range(col, k) if a[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        p = a[col][col]
        for r in range(col + 1, k):
            for c in range(col + 1, k):
                a[r][c] = (a[r][c] * p - a[r][col] * a[col][c]) // prev
        prev = p
    return sign * prev


def _scaled_points(points) -> tuple:
    """(D, rows): rational points times their common denominator D, as
    rows of Python ints; D = 1 for lattice points."""
    den = math.lcm(*{x.denominator for p in points for x in p})
    return den, [[x.numerator * (den // x.denominator) for x in p] for p in points]


@dataclass(frozen=True)
class AffineForm:
    """Affine function x -> <coeffs, x> + const over exact rationals."""

    coeffs: tuple
    const: Fraction = Fraction(0)

    def __call__(self, point) -> Fraction:
        return _dot(self.coeffs, point) + self.const

    @classmethod
    def coordinate(cls, i: int, dim: int) -> "AffineForm":
        return cls(coeffs=tuple(Fraction(1 if j == i else 0) for j in range(dim)))

    @classmethod
    def constant(cls, value, dim: int) -> "AffineForm":
        return cls(coeffs=tuple(Fraction(0) for _ in range(dim)), const=Fraction(value))

    @classmethod
    def linear(cls, coeffs) -> "AffineForm":
        return cls(coeffs=tuple(Fraction(c) for c in coeffs))


@dataclass(frozen=True)
class Simplex:
    """Simplex given by its vertex tuple (exact rational coordinates).

    Full-dimensional when it has n+1 affinely independent vertices in R^n;
    the integral operations below require that and raise DegenerateSimplex
    otherwise.
    """

    vertices: tuple

    @property
    def dim(self) -> int:
        return len(self.vertices[0])

    def volume(self) -> Fraction:
        """Euclidean volume |det(edges)| / n!, exact; zero if degenerate.
        The determinant is taken once per simplex (see ``_volume``)."""
        return self._volume

    @functools.cached_property
    def _volume(self) -> Fraction:
        # cached_property writes the instance __dict__ directly, so it works
        # on the frozen dataclass and leaves eq, hash and repr alone
        n = self.dim
        if len(self.vertices) != n + 1:
            raise DegenerateSimplex(
                f"need {n + 1} vertices in R^{n}, got {len(self.vertices)}"
            )
        # n! * D^n * vol is |det| of the edges of the vertices scaled by D
        den, pts = _scaled_points(self.vertices)
        rows = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]
        return Fraction(abs(_int_det(rows)), math.factorial(n) * den**n)


def _simplex_of_volume(vertices: tuple, volume: Fraction) -> Simplex:
    """Simplex whose volume the caller has already taken as |det(edges)| /
    n! of these vertices, e.g. from rows it holds scaled to integers; the
    value is seeded into the ``_volume`` cache, so no rescale follows."""
    S = Simplex(vertices=vertices)
    S.__dict__["_volume"] = volume
    return S


def simplex(vertices) -> Simplex:
    """Build a Simplex from any nested sequence of rationals; rejects
    wrong vertex counts and flat vertex sets up front."""
    S = Simplex(
        vertices=tuple(tuple(Fraction(c) for c in v) for v in vertices)
    )
    if len(S.vertices) != S.dim + 1:
        raise DegenerateSimplex(
            f"need {S.dim + 1} vertices in R^{S.dim}, got {len(S.vertices)}"
        )
    if S.volume() == 0:
        raise DegenerateSimplex("simplex has zero volume")
    return S


def integral_linear_simplex(S: Simplex, form: AffineForm) -> Fraction:
    """Exact integral of an affine form over a full-dimensional simplex:
    volume times the value at the centroid."""
    vol = S.volume()
    if vol == 0:
        raise DegenerateSimplex("simplex has zero volume")
    mean = sum((form(v) for v in S.vertices), Fraction(0)) / len(S.vertices)
    return vol * mean


# ---------------------------------------------------------------------------
# divided differences of exp


def _series_block(nodes: Sequence[float]) -> float:
    """Mean-shifted series for exp[nodes]; intended for spans <= ~1e-4 but
    correct (just slower to converge) for any span.

    h_k(ys) is built one degree at a time, each as the running sums
    h_k(ys[:m+1]) = h_k(ys[:m]) + ys[m] * h_{k-1}(ys[:m+1]) over m, and the
    series stops at the first negligible term past k = 1."""
    r = len(nodes) - 1
    mu = math.fsum(nodes) / len(nodes)
    ys = [x - mu for x in nodes]
    col = [1.0] * len(ys)  # h_0 of every prefix of ys
    total = 1.0 / math.factorial(r)
    for k in range(1, _SERIES_MAX_TERMS + 1):
        acc = 0.0
        for m, y in enumerate(ys):
            acc += y * col[m]
            col[m] = acc
        term = acc / math.factorial(r + k)
        total += term
        if k >= 2 and abs(term) < _SERIES_TAIL:
            break
    return _safe_exp(mu) * total


def _clustered(xs) -> float:
    """exp[xs] of sorted nodes spanning at most 1e-4: one series, or exp
    of a single node."""
    return _series_block(xs) if len(xs) > 1 else _safe_exp(xs[0])


def _divided_difference(xs: tuple, memo: dict) -> float:
    """exp[xs] for a nonempty sorted tuple of finite floats, top down:
    (exp[xs[1:]] - exp[xs[:-1]]) / (xs[-1] - xs[0]) while the span exceeds
    1e-4, the shifted series below it.  ``memo`` maps every sorted tuple
    evaluated so far, node set or sub-range, to its value; a caller that
    keeps it across node sets evaluates each sub-range once."""
    val = memo.get(xs)
    if val is None:
        span = xs[-1] - xs[0]
        if span > _SERIES_SPAN:
            hi = _divided_difference(xs[1:], memo)
            val = (hi - _divided_difference(xs[:-1], memo)) / span
        else:
            val = _clustered(xs)
        memo[xs] = val
    return val


def exp_divided_difference(nodes) -> float:
    """Divided difference of exp over the given nodes (any multiplicity).

    Nodes are sorted; sub-ranges spanning more than 1e-4 use the
    recursion, tighter ones the shifted series, so clustered and exactly
    repeated nodes are handled without cancellation, and a fully clustered
    node set costs one series.  The sub-ranges are evaluated bottom up by
    length, with the arithmetic of ``_divided_difference`` and so its
    bits, keeping only the ones of the length below: k nodes take O(k^2)
    time, O(k) memory and no recursion.
    """
    xs = tuple(sorted(float(x) for x in nodes))
    if not xs:
        raise ValueError("at least one node is required")
    if any(not math.isfinite(x) for x in xs):
        raise ValueError("nodes must be finite")
    k = len(xs)
    # level[i] is exp[xs[i:i + r]]; a clustered window, None until a wider
    # window first reads it, costs one series
    level = [None] * k
    for r in range(2, k + 1):
        below, level = level, [None] * (k - r + 1)
        for i in range(k - r + 1):
            span = xs[i + r - 1] - xs[i]
            if span > _SERIES_SPAN:
                for j in (i, i + 1):
                    if below[j] is None:
                        below[j] = _clustered(xs[j : j + r - 1])
                level[i] = (below[i + 1] - below[i]) / span
    return _clustered(xs) if level[0] is None else level[0]


def integral_exp_simplex(S: Simplex, a) -> float:
    """float integral of exp(-<a, x>) over a full-dimensional simplex."""
    if S.volume() == 0:
        raise DegenerateSimplex("simplex has zero volume")
    shift, i0, _, _ = exp_moments([S], a, order=0)
    return _safe_exp(shift) * i0


# ---------------------------------------------------------------------------
# moment engine over a fixed triangulation


def exp_moments(simplices, xi, order: int = 2):
    """Shifted exponential moments of exp(-<x, xi>) over a union of
    simplices (a polytope triangulation).

    Returns (shift, i0, i1, i2) with

        int e^{-<x,xi>} dx          = e^shift * i0
        int x e^{-<x,xi>} dx        = e^shift * i1   (length-n list)
        int x x^T e^{-<x,xi>} dx    = e^shift * i2   (n x n nested list)

    where shift = max over all vertices of -<x, xi>, so i0 is free of
    overflow for any xi.  i1/i2 are None below the requested order, which
    must be 0, 1 or 2.  Accumulation across simplices uses exact
    compensated summation in the order the simplices are given; the order-1
    and order-2 sums skip vertex coordinates equal to 0, whose terms are
    +-0.0 and leave the sums' bits alone.  Each distinct vertex object is
    converted once, and each distinct sorted tuple, node set or sub-range
    of one, evaluated once per call, so shared vertices, repeated node sets
    and the sub-ranges they share cost nothing extra.
    A direction whose nodes leave the double range, or whose shifted mass
    i0 is not positive (it underflows to 0, or the divided differences
    lost accuracy), raises ValueError.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
    simplices = list(simplices)
    if not simplices:
        raise ValueError("no simplices given")
    n = simplices[0].dim
    xf = tuple(float(c) for c in xi)
    if len(xf) != n:
        raise ValueError("direction has wrong dimension")

    # Triangulations share vertex tuples between simplices, so vertices are
    # keyed by id(v).  Each simplex's vertices are read once, and
    # vertex_sets holds every v, so no id is reused within the call.
    vertex_sets = [s.vertices for s in simplices]
    points = {}  # id(v) -> (node, float coordinates of v)
    for vs in vertex_sets:
        for v in vs:
            if id(v) not in points:
                vf = [float(x) for x in v]
                try:
                    node = -math.fsum(c * x for c, x in zip(xf, vf))
                except (OverflowError, ValueError):  # overflow, or inf - inf
                    node = math.nan
                points[id(v)] = (node, vf)
    shift = max(node for node, _ in points.values())
    # each vertex's node is shifted, and checked, once
    for key, (node, vf) in points.items():
        node -= shift
        if not math.isfinite(node):
            raise ValueError(
                f"nodes must be finite: direction {xf} leaves the double "
                "range in the exp_moments node sum"
            )
        points[key] = (node, vf)

    # exp[...] depends only on the sorted nodes, and simplices meeting at
    # a vertex, or entries of one simplex, repeat node sets; the sets in
    # turn share their sub-ranges
    memo = {}

    def dd(nodes) -> float:
        return _divided_difference(tuple(sorted(nodes)), memo)

    nfact = math.factorial(n)

    c0_parts = []
    c1_parts = [[] for _ in range(n)]
    c2_parts = [[[] for _ in range(n)] for _ in range(n)]
    for s, vs in zip(simplices, vertex_sets):
        pts = [points[id(v)] for v in vs]
        verts = [p[1] for p in pts]
        nodes = [p[0] for p in pts]
        w = nfact * float(s.volume())
        c0_parts.append(w * dd(nodes))
        if order >= 1:
            # nz[i]: the vertices whose coordinate i is not 0; the others'
            # terms are +-0.0, which leave an fsum alone
            nz = [[k for k, v in enumerate(verts) if v[i]] for i in range(n)]
            dd1 = [dd(nodes + [t]) for t in nodes]
            for i in range(n):
                c1_parts[i].append(
                    w * math.fsum(verts[k][i] * dd1[k] for k in nz[i])
                )
        if order >= 2:
            kk = len(nodes)
            c2 = [[0.0] * kk for _ in range(kk)]
            for k in range(kk):
                c2[k][k] = 2.0 * dd(nodes + [nodes[k], nodes[k]])
                for l in range(k + 1, kk):
                    val = dd(nodes + [nodes[k], nodes[l]])
                    c2[k][l] = val
                    c2[l][k] = val
            for i in range(n):
                for j in range(i, n):
                    acc = math.fsum(
                        verts[k][i] * verts[l][j] * c2[k][l]
                        for k in nz[i]
                        for l in nz[j]
                    )
                    c2_parts[i][j].append(w * acc)

    i0 = math.fsum(c0_parts)
    if not i0 > 0.0:
        state = (
            "underflows to 0" if i0 == 0.0
            else f"is {i0!r}, not positive: the divided differences lost accuracy"
        )
        raise ValueError(
            f"direction {xf}: the shifted mass i0 {state} in "
            "exp_moments, so log c0 and the Gibbs moments are undefined"
        )
    i1 = [math.fsum(p) for p in c1_parts] if order >= 1 else None
    i2 = None
    if order >= 2:
        i2 = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                val = math.fsum(c2_parts[i][j])
                i2[i][j] = val
                i2[j][i] = val
    return shift, i0, i1, i2
