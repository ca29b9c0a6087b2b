"""Exact geometry of rational polytopes against a fixed lattice.

Everything here is exact: convex hulls (a double-description method over
integers, whose cost follows the facet count rather than the number of
point subsets), facet normals, star triangulations, Euclidean and
lattice-normalized boundary measures, and the dilation point counts
``|mP /\\ Z^n|``, over ``fractions.Fraction`` and Python ints.  Floats
enter only when a caller converts the exact answers.

The hull's facet incidence sets are the one source of face structure:
vertices are the points where the facets through them meet alone, and
the triangulation reads every lower face as an intersection of those
sets.

The lattice points of mP are read as rows: for each prefix
(x_1, ..., x_{n-1}) the last coordinate runs over one integer interval cut
from the facet inequalities.  Everything the rows read of P apart from m
(the vertex box as integer fractions, the facets split by the sign of
their last coefficient into int64 matrices, the int64 guard) is computed
once per polytope, so a degree's rows cost a few integer array operations
over the prefixes of the box of mP, with no Fraction.  ``lattice_points``
expands the rows, already in lex order; ``_lattice_point_blocks`` expands
them a block of at most 2^16 points at a time, so a caller that streams a
degree never holds it whole; and ``_row_stats`` sums them (count, moment
vector, largest squared norm) without ever building a point.
``lattice_stats`` reads those statistics of a lattice polytope from its
Ehrhart polynomials (Brion & Vergne, JAMS 10, 1997): the count and each
moment coordinate are integer-valued polynomials in m of degrees n and
n + 1, interpolated once per polytope from the known values at m = 0 and
the row sums at m = 1..n + 1, or on a reflexive polytope at m =
1..ceil(n/2) with their reciprocity reflections at negative m, so each
degree costs O(1).  A polytope
with a rational vertex has quasi-polynomials instead and is summed over
its rows at every m.  A degree is a Python or numpy integer, never a bool
(``_is_integer``).  The lattice-enumeration functions are the only ones
here that import numpy, and they do it when called.

Torus directions are coerced here too, by one rule: ``as_exact_vector``
gives Fractions and ``as_float_vector`` a tuple of finite floats.

Derived data (reflexivity, triangulation, volume, moment vectors) is
memoized on the polytope itself, so it lives exactly as long as the
polytope does.  Determinants are taken in Python ints: the vertices (and
the triangulation base) are scaled by their common denominator D, which
is 1 for a lattice polytope.  The star triangulation, the volume and the
interior and boundary moment vectors come from one integer pass, which
builds the decomposition and sums as it goes each cone's determinant
(its volume) and each facet piece's det(edges, v_F) (its measure), times
their vertex sums, with one Fraction built per output coordinate.  The
two determinants stay separate, so sigma(dP) = n vol(P) checks one
against the other.

Conventions:
  * A polytope is stored by its lex-sorted vertex matrix together with its
    facets.  Facet normals are primitive integer vectors ``v`` pointing
    outward, so each facet is ``{x : <v, x> = c}`` with rational offset
    ``c`` and ``P = {x : <v_F, x> <= c_F for all F}``.
  * ``P`` is reflexive when its vertices are integral and every facet
    offset equals 1; the origin is then the unique interior lattice point.
  * The boundary measure ``sigma`` on a facet with primitive normal ``v``
    is the Lebesgue measure of the hyperplane normalized so that the
    induced lattice has covolume 1; concretely ``d sigma = d(euclidean) /
    |v|_2``.  For reflexive P this gives ``sigma(dP) = n * vol(P)``.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Integral, Number, Rational
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import DegeneratePolytope, NonRationalInput, ParseError
from .simplex_calculus import (
    AffineForm,
    _dot,
    _int_det,
    _scaled_points,
    _simplex_of_volume,
    integral_linear_simplex,
)

if TYPE_CHECKING:
    import numpy as np

Point = tuple  # tuple[Fraction, ...]; alias only for readability


def as_rational(x) -> Fraction:
    """Coerce one coordinate to an exact Fraction.

    Accepts ints, Fractions, strings like '3' / '-2/5' / '0.25', and
    finite floats (taken at their exact binary value).  Anything else
    raises NonRationalInput.
    """
    if isinstance(x, bool):
        raise NonRationalInput(f"boolean is not a coordinate: {x!r}")
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, Rational):
        return Fraction(x.numerator, x.denominator)
    if isinstance(x, float):
        if x != x or x in (float("inf"), float("-inf")):
            raise NonRationalInput(f"non-finite coordinate: {x!r}")
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise NonRationalInput(f"cannot parse coordinate {x!r}") from exc
    raise NonRationalInput(f"cannot interpret {x!r} as a rational number")


def as_rational_point(p) -> Point:
    return tuple(as_rational(c) for c in p)


def _direction_entries(xi) -> list:
    """The entries of a torus direction; a lone number, string or numpy
    scalar (which has a dtype but does not iterate) is one entry."""
    if isinstance(xi, (Number, str, bytes)) or (
        hasattr(xi, "dtype") and not hasattr(xi, "__iter__")
    ):
        return [xi]
    return list(xi)


def as_float_vector(xi, dim: int) -> tuple:
    """Coerce a torus direction to a tuple of dim finite floats.
    Scalars are accepted when dim == 1; strings go through the exact
    rational parser, so '1/3' is fine."""
    vec = tuple(
        float(as_rational(c)) if isinstance(c, str) else float(c)
        for c in _direction_entries(xi)
    )
    if len(vec) != dim:
        raise ValueError(f"direction has shape {(len(vec),)}, expected ({dim},)")
    if not all(math.isfinite(c) for c in vec):
        raise ValueError("direction entries must be finite")
    return vec


def as_exact_vector(xi, dim: int) -> tuple:
    """Coerce a torus direction to exact Fractions (floats are taken at
    their exact binary value)."""
    vec = tuple(as_rational(c) for c in _direction_entries(xi))
    if len(vec) != dim:
        raise ValueError(f"direction has length {len(vec)}, expected {dim}")
    return vec


# ---------------------------------------------------------------------------
# convex hull: exact double description


def _primitive_outward(normal: Sequence[int], offset):
    """Divide an integer (normal, offset) pair by the gcd of the normal so
    the normal becomes primitive; orientation is preserved."""
    g = math.gcd(*normal)
    if g == 0:
        raise ValueError("zero normal cannot be primitivized")
    return tuple(v // g for v in normal), Fraction(offset) / g


def _kernel_vector(rows: Sequence[Sequence[int]]) -> list:
    """Integer vector orthogonal to k integer rows of length k + 1: the
    signed k x k minors (a generalized cross product); zero when the rows
    are dependent."""
    return [
        (-1) ** j * _int_det([r[:j] + r[j + 1 :] for r in rows])
        for j in range(len(rows) + 1)
    ]


def _primitive_ray(ray: Sequence[int]) -> tuple:
    g = math.gcd(*ray)
    return tuple(x // g for x in ray)


def _hull_facets(points: Sequence[Point], d: int):
    """All facets of conv(points), assumed full-dimensional in R^d.

    Returns {(primitive integer normal, rational offset): sorted tuple of
    indices of the input points lying on the facet}.

    Double description (Fukuda & Prodon 1996) of the cone of valid
    inequalities {(a, c) : <a, p> <= c for every point p}, whose extreme
    rays are the facets.  The cone starts as the d + 1 facets of a simplex
    on affinely independent points; each further point cuts it, and every
    pair of rays on opposite sides of the cut that passes the combinatorial
    adjacency test is combined into a ray on it.  Rays are primitive
    integer vectors and each carries its zero set, the points it is tight
    on so far, as a bitmask.  Cost grows with the facets met on the way,
    not with C(len(points), d).
    """
    # row i is a positive integer multiple of (p_i, -1), so <row_i, ray>
    # has the sign of <a, p_i> - c
    rows = []
    for p in points:
        den, (row,) = _scaled_points([p])
        rows.append((*row, -den))

    # the seed is the first d + 1 independent rows: each row is reduced,
    # fraction-free, against the echelon rows kept so far
    seed, echelon = [], []
    for i, row in enumerate(rows):
        for piv, kept in echelon:
            f, g = row[piv], kept[piv]
            if f:
                row = [g * x - f * y for x, y in zip(row, kept)]
        piv = next((c for c, x in enumerate(row) if x), None)
        if piv is not None:
            seed.append(i)
            echelon.append((piv, row))
            if len(seed) == d + 1:
                break
    else:
        raise DegeneratePolytope(
            f"points span an affine subspace of dimension < {d}"
        )
    rays, zeros = [], []
    for j in seed:
        ray = _kernel_vector([rows[i] for i in seed if i != j])
        if sum(a * b for a, b in zip(rows[j], ray)) > 0:
            ray = [-x for x in ray]
        rays.append(_primitive_ray(ray))
        zeros.append(sum(1 << i for i in seed if i != j))

    for i, row in enumerate(rows):
        if i in seed:
            continue
        bit = 1 << i
        vals = [sum(a * b for a, b in zip(row, r)) for r in rays]
        new_rays, new_zeros = [], []
        neg = [k for k, v in enumerate(vals) if v < 0]
        for p in [k for k, v in enumerate(vals) if v > 0]:
            for q in neg:
                # adjacent iff no third ray is tight wherever both are
                common = zeros[p] & zeros[q]
                if common.bit_count() < d - 1 or any(
                    k != p and k != q and common & z == common
                    for k, z in enumerate(zeros)
                ):
                    continue
                ray = [vals[p] * b - vals[q] * a for a, b in zip(rays[p], rays[q])]
                new_rays.append(_primitive_ray(ray))
                new_zeros.append(common | bit)
        keep = [k for k, v in enumerate(vals) if v <= 0]
        rays = [rays[k] for k in keep] + new_rays
        zeros = [zeros[k] | (bit if vals[k] == 0 else 0) for k in keep]
        zeros += new_zeros

    return {
        _primitive_outward(ray[:d], ray[d]): tuple(
            i for i in range(len(points)) if z >> i & 1
        )
        for ray, z in zip(rays, zeros)
    }


# ---------------------------------------------------------------------------
# polytope model


@dataclass(frozen=True)
class Facet:
    """Outward primitive integer normal, rational offset, and the ids of the
    polytope vertices lying on the facet."""

    normal: tuple
    offset: Fraction
    vertex_ids: tuple


@dataclass(frozen=True)
class LatticePolytope:
    """Full-dimensional rational polytope with exact facet data.

    ``_memo`` holds data derived from the polytope (see ``_memoized``); it
    takes no part in equality, hashing or the repr."""

    dim: int
    vertices: tuple  # lex-sorted tuple of Fraction points
    facets: tuple  # tuple of Facet, sorted by (normal, offset)
    name: str = ""
    _memo: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_facets(self) -> int:
        return len(self.facets)

    def is_lattice(self) -> bool:
        return all(c.denominator == 1 for v in self.vertices for c in v)


def build_polytope(points, name: str = "") -> LatticePolytope:
    """Convex hull of rational points as a LatticePolytope.

    Duplicates and non-vertex points are discarded; raises
    DegeneratePolytope when the points do not affinely span R^n and
    NonRationalInput on coordinates that are not exact rationals.
    """
    pts = [as_rational_point(p) for p in points]
    if not pts:
        raise DegeneratePolytope("no input points")
    n = len(pts[0])
    if n == 0:
        raise DegeneratePolytope("points must have at least one coordinate")
    if any(len(p) != n for p in pts):
        raise ValueError("input points have inconsistent dimensions")
    pts = sorted(set(pts))
    raw_facets = _hull_facets(pts, n)

    # a point is a vertex iff the facets through it meet in it alone; an
    # interior point lies on none, so its intersection stays everything
    incidences = [set(inc) for inc in raw_facets.values()]
    everything = set(range(len(pts)))
    vertex_ids = [
        i
        for i in range(len(pts))
        if everything.intersection(*(s for s in incidences if i in s)) == {i}
    ]
    vertices = tuple(pts[i] for i in vertex_ids)  # pts sorted, so still lex
    reindex = {old: new for new, old in enumerate(vertex_ids)}

    facets = []
    for (normal, offset), inc in raw_facets.items():
        ids = tuple(sorted(reindex[i] for i in inc if i in reindex))
        if len(ids) < n:
            raise DegeneratePolytope("facet with too few vertices")
        facets.append(Facet(normal=normal, offset=offset, vertex_ids=ids))
    facets.sort(key=lambda f: (f.normal, f.offset))
    return LatticePolytope(
        dim=n, vertices=vertices, facets=tuple(facets), name=name
    )


def translate(P: LatticePolytope, u) -> LatticePolytope:
    """The polytope P + u.  Facet normals are unchanged and each offset
    moves by <v_F, u>; implemented by rebuilding from translated vertices
    so the result carries fully consistent data."""
    shift = as_rational_point(u)
    if len(shift) != P.dim:
        raise ValueError("translation vector has wrong dimension")
    return build_polytope(
        [tuple(c + s for c, s in zip(v, shift)) for v in P.vertices],
        name=P.name,
    )


def _memoized(fn):
    """Compute fn(P) once per polytope and keep it in P's own memo, so it
    lives exactly as long as P and a lookup hashes nothing of P."""

    @functools.wraps(fn)
    def memoized(P: LatticePolytope):
        memo = P._memo
        if fn.__name__ not in memo:
            memo[fn.__name__] = fn(P)
        return memo[fn.__name__]

    return memoized


@_memoized
def is_reflexive(P: LatticePolytope) -> bool:
    """True when P has integer vertices and every facet offset equals 1
    (so the origin is strictly interior at lattice distance 1 from every
    facet)."""
    return P.is_lattice() and all(f.offset == 1 for f in P.facets)


# ---------------------------------------------------------------------------
# triangulation


@dataclass(frozen=True)
class FacetPiece:
    """One simplex of a facet triangulation: vertex tuple, index of the
    parent facet, and its exact lattice-normalized measure."""

    facet_id: int
    vertices: tuple
    measure: Fraction


@dataclass(frozen=True)
class SimplicialDecomposition:
    """Star triangulation of a polytope: full-dimensional simplices coning
    the triangulated facets over an interior base point."""

    base: tuple
    simplices: tuple  # tuple[Simplex]
    facet_pieces: tuple  # tuple[FacetPiece], aligned with the cones

    @property
    def n_simplices(self) -> int:
        return len(self.simplices)

    @property
    def facet_simplices(self) -> dict:
        """Per-facet tiling: facet id -> tuple of vertex n-tuples."""
        out = {}
        for piece in self.facet_pieces:
            out.setdefault(piece.facet_id, []).append(piece.vertices)
        return {fid: tuple(parts) for fid, parts in out.items()}


def _fan_face(face: frozenset, facets: Sequence[frozenset], d: int):
    """Triangulate the d-dimensional face with vertex ids ``face`` by
    fanning from its smallest id, the lex-smallest vertex.  Faces are read
    off the facet incidence sets alone: the facets of ``face`` are the
    inclusion-maximal nonempty sets ``face & G`` over the polytope's facets
    G not containing it.  Returns sorted tuples of d + 1 vertex ids."""
    if len(face) == d + 1:
        return [tuple(sorted(face))]
    apex = min(face)
    cuts = {face & G for G in facets} - {face, frozenset()}
    simplices = []
    for sub in cuts:
        if apex in sub or any(sub < other for other in cuts):
            continue
        for tri in _fan_face(sub, facets, d - 1):
            simplices.append((apex,) + tri)
    return sorted(simplices)


def _star_triangulation(P: LatticePolytope, base) -> tuple:
    """(decomposition, volume, moment vector, boundary moment vector) of P
    from one integer pass over its star triangulation over ``base`` (None
    picks the default base).

    P's vertices and the base are scaled to integers by their common
    denominator D, so with n! D^n vol(S) = w_S for a cone S and
    (n-1)! D^(n-1) <v_F, v_F> sigma(T) = m_T for a facet piece T in F,
    both integers,

        vol    = sum w_S / (n! D^n)
        mom_i  = sum w_S (S's scaled vertex sum)_i / (n! D^(n+1) (n + 1))
        bmom_i = sum m_T (T's scaled vertex sum)_i / ((n-1)! D^n <v_F, v_F> n)

    and one Fraction is built per output coordinate, over the lcm of the
    <v_F, v_F>.  w_S is the cone's own determinant |det(v_i - base)| and
    m_T the piece's |det(edges, v_F)|, so the boundary identity
    sigma(dP) = n vol(P) stays a check of two independent determinants."""
    n = P.dim
    if base is None:
        if all(f.offset > 0 for f in P.facets):
            base = tuple(Fraction(0) for _ in range(n))
        else:
            base = tuple(
                sum(col, Fraction(0)) / P.n_vertices
                for col in zip(*P.vertices)
            )
    if not all(_dot(f.normal, base) < f.offset for f in P.facets):
        raise ValueError(f"triangulation base {base} is not strictly interior")

    den, scaled = _scaled_points(P.vertices + (base,))
    origin = scaled[-1]
    cone_den = math.factorial(n) * den**n
    facet_den = math.factorial(n - 1) * den ** (n - 1)
    norms = [sum(v * v for v in f.normal) for f in P.facets]
    common = math.lcm(*norms)
    facet_sets = [frozenset(f.vertex_ids) for f in P.facets]
    simplices, pieces = [], []
    vol, mom, bmom = 0, [0] * n, [0] * n
    for fid, (facet, norm) in enumerate(zip(P.facets, norms)):
        for ids in _fan_face(facet_sets[fid], facet_sets, n - 1):
            tri = tuple(P.vertices[i] for i in ids)
            rows = [scaled[i] for i in ids]
            w = abs(_int_det([[a - b for a, b in zip(r, origin)] for r in rows]))
            edges = [[a - b for a, b in zip(r, rows[0])] for r in rows[1:]]
            m = abs(_int_det(edges + [list(facet.normal)]))
            vol_s = Fraction(w, cone_den)
            simplices.append(_simplex_of_volume((base,) + tri, vol_s))
            pieces.append(FacetPiece(fid, tri, Fraction(m, facet_den * norm)))
            vol += w
            m *= common // norm
            for i, col in enumerate(zip(*rows)):
                c = sum(col)
                mom[i] += w * (c + origin[i])
                bmom[i] += m * c
    return (
        SimplicialDecomposition(
            base=base, simplices=tuple(simplices), facet_pieces=tuple(pieces)
        ),
        Fraction(vol, cone_den),
        tuple(Fraction(c, cone_den * den * (n + 1)) for c in mom),
        tuple(Fraction(c, facet_den * common * den * n) for c in bmom),
    )


@_memoized
def _default_triangulation(P: LatticePolytope) -> tuple:
    return _star_triangulation(P, None)


def triangulate(
    P: LatticePolytope, base=None
) -> SimplicialDecomposition:
    """Star triangulation of P.

    The base point is the origin when strictly interior, else the vertex
    centroid; an explicit rational interior ``base`` may be supplied to get
    a different (still deterministic) decomposition.  Facet triangulations
    fan from the lex-smallest vertex of each face, recursively, where each
    lower face is read as an intersection of facet incidence sets.  The
    default decomposition is memoized on P, together with the volume and
    moment vectors taken in the same pass; an explicit base is computed
    afresh.
    """
    if base is None:
        return _default_triangulation(P)[0]
    base = as_rational_point(base)
    if len(base) != P.dim:
        raise ValueError("base point has wrong dimension")
    return _star_triangulation(P, base)[0]


def volume(P: LatticePolytope) -> Fraction:
    """Euclidean volume of P, exact: the sum of the cone volumes of the
    star triangulation, read from the memoized triangulation pass."""
    return _default_triangulation(P)[1]


def normalized_volume(P: LatticePolytope) -> Fraction:
    """n! * vol(P); integer for lattice polytopes."""
    return math.factorial(P.dim) * volume(P)


# ---------------------------------------------------------------------------
# exact integrals of affine forms


def boundary_integral(P: LatticePolytope, form: AffineForm) -> Fraction:
    """Exact integral of an affine form over dP against the
    lattice-normalized boundary measure sigma."""
    total = Fraction(0)
    for piece in triangulate(P).facet_pieces:
        # affine form integrates to measure * value at the centroid
        mean = sum(
            (form(v) for v in piece.vertices), Fraction(0)
        ) / len(piece.vertices)
        total += piece.measure * mean
    return total


def interior_integral(P: LatticePolytope, form: AffineForm) -> Fraction:
    """Exact integral of an affine form over P against Lebesgue measure."""
    return sum(
        (integral_linear_simplex(s, form) for s in triangulate(P).simplices),
        Fraction(0),
    )


def moment_vector(P: LatticePolytope) -> tuple:
    """(int_P x_i dx)_i as exact Fractions: each cone's volume times its
    centroid, summed in the memoized triangulation pass."""
    return _default_triangulation(P)[2]


def boundary_moment_vector(P: LatticePolytope) -> tuple:
    """(int_{dP} x_i dsigma)_i as exact Fractions: each facet piece's
    measure times its centroid, summed in the memoized triangulation
    pass."""
    return _default_triangulation(P)[3]


@_memoized
def max_vertex_norm_sq(P: LatticePolytope) -> Fraction:
    """max_v |v|^2 over the vertices of P, exact."""
    return max(sum((c * c for c in v), Fraction(0)) for v in P.vertices)


def barycenter(P: LatticePolytope) -> tuple:
    v = volume(P)
    return tuple(m / v for m in moment_vector(P))


def b0_b1_exact(P: LatticePolytope, xi):
    """Exact growth coefficients of the total weight:
    b0 = int_P <x, xi> dx and b1 = (1/2) int_{dP} <x, xi> dsigma,
    as Fractions (exact whenever xi is; floats enter at their exact
    binary value)."""
    xe = as_exact_vector(xi, P.dim)
    b0 = sum((mi * ci for mi, ci in zip(moment_vector(P), xe)), Fraction(0))
    b1 = sum(
        (bi * ci for bi, ci in zip(boundary_moment_vector(P), xe)),
        Fraction(0),
    ) / 2
    return b0, b1


# ---------------------------------------------------------------------------
# lattice point enumeration


# most points in one block of ``_lattice_point_blocks``
_BLOCK_POINTS = 2**16


def _is_integer(m) -> bool:
    """True for a Python or numpy integer; a bool is not one.  The one
    test of a degree (or dilation factor) that every caller shares."""
    return isinstance(m, Integral) and not isinstance(m, bool)


@_memoized
def _row_constants(P: LatticePolytope) -> tuple:
    """What ``_lattice_rows`` reads of P at every m, in integers.

    ``box`` gives per axis the lowest and highest vertex coordinate as
    (numerator, denominator, numerator, denominator).  With facet offset
    p/q the facet inequality <v, alpha> <= m p/q reads
    c x_n <= m p - <q v', x'> with c = q v_n, so the facets are split by
    the sign of c into three groups: ``up`` (c > 0) bounds x_n above,
    ``down`` (c < 0) below, and ``flat`` (c = 0) keeps or drops a whole
    prefix.  Each group is (the C-contiguous (n-1, F_g) int64 matrix of
    the q v', its p's, its |c|'s).  ``width`` = max_F |v_F|_1 * max_F q_F
    is the factor of the int64 guard: |m p| and every |<q v', x'>| over
    the box of mP are at most width * (1 + the box's largest |coordinate|)."""
    import numpy as np

    box = []
    for i in range(P.dim):
        col = [v[i] for v in P.vertices]
        a, b = min(col), max(col)
        box.append((a.numerator, a.denominator, b.numerator, b.denominator))
    normals = np.array([f.normal for f in P.facets], dtype=np.int64)
    qs = np.array([f.offset.denominator for f in P.facets], dtype=np.int64)
    ps = np.array([f.offset.numerator for f in P.facets], dtype=np.int64)
    width = int(np.abs(normals).sum(axis=1).max()) * int(qs.max())
    coef = qs * normals[:, -1]
    groups = tuple(
        (
            np.ascontiguousarray((qs[sel, None] * normals[sel, :-1]).T),
            ps[sel],
            np.abs(coef[sel]),
        )
        for sel in (coef > 0, coef < 0, coef == 0)
    )
    return box, width, groups


def _lattice_rows(P: LatticePolytope, m: int):
    """Integer points of mP as rows ``(prefixes, lo, hi)``: for each prefix
    (x_1, ..., x_{n-1}) with a point above it, the last coordinate runs over
    lo..hi.  Prefixes come in lex order, so the rows expand to lex-sorted
    points.

    Membership is exact: with facet offset c = p/q the condition
    <v, alpha> <= m * c reads q * v_n * x_n <= m * p - q * <v', x'> in
    integers, which bounds x_n above when v_n > 0, below when v_n < 0, and
    keeps or drops the whole prefix when v_n = 0.  Everything but m is
    read from ``_row_constants``, so a call is a few int64 array
    operations over the prefixes of the box of mP.
    """
    if not _is_integer(m) or m < 1:
        raise ValueError(f"dilation factor must be a positive integer, got {m!r}")
    import numpy as np

    m = int(m)
    box, width, (up, down, flat) = _row_constants(P)
    lo = [-(-m * a // b) for a, b, _, _ in box]
    hi = [m * c // d for _, _, c, d in box]
    if width * (max(map(abs, lo + hi)) or 1) >= 2**62:
        # keep the int64 arithmetic exact
        raise ValueError("coefficients too large for exact int64 filtering")

    n = P.dim
    shape = [b - a + 1 for a, b in zip(lo[:-1], hi[:-1])]
    grid = np.indices(shape, dtype=np.int64).reshape(n - 1, math.prod(shape))
    grid += np.array(lo[:-1], dtype=np.int64)[:, None]
    prefixes = grid.T  # lex order, as np.indices runs in C order; (1, 0) at n = 1

    def floors(group):
        """floor((m p - <q v', x'>) / |c|) per prefix and facet."""
        mat, ps, cs = group
        rhs = prefixes @ mat
        np.subtract(m * ps, rhs, out=rhs)
        rhs //= cs
        return rhs

    row_hi = floors(up).min(axis=1, initial=hi[-1])
    # c < 0 bounds x_n below by ceil(rhs / c) = -floor(rhs / |c|)
    row_lo = -floors(down).min(axis=1, initial=-lo[-1])
    keep = row_lo <= row_hi
    mat, ps, _ = flat
    if ps.size:
        keep &= (prefixes @ mat <= m * ps).all(axis=1)
    return prefixes[keep], row_lo[keep], row_hi[keep]


def _expand_rows(prefixes, lo, hi) -> np.ndarray:
    """The points of rows ``(prefixes, lo, hi)`` as a C-contiguous (N, n)
    int64 array, row after row."""
    import numpy as np

    counts = hi - lo + 1
    # each row's first point with its last coordinate moved back by the
    # row's start index, so adding the point index completes every row
    firsts = np.column_stack([prefixes, lo - (np.cumsum(counts) - counts)])
    pts = np.repeat(firsts, counts, axis=0)
    pts[:, -1] += np.arange(pts.shape[0])
    return pts


def lattice_points(P: LatticePolytope, m: int = 1) -> np.ndarray:
    """Integer points of the dilation mP as a C-contiguous (N, n) int64
    array in lexicographic row order, expanded from ``_lattice_rows``."""
    return _expand_rows(*_lattice_rows(P, m))


def _lattice_point_blocks(P: LatticePolytope, m: int):
    """The points of ``lattice_points(P, m)``, in the same order, as
    successive arrays of whole rows holding at most ``_BLOCK_POINTS``
    points each; a longer row is first cut into pieces of that length."""
    import numpy as np

    prefixes, lo, hi = _lattice_rows(P, m)
    counts = hi - lo + 1
    pieces = -(-counts // _BLOCK_POINTS)
    if (pieces > 1).any():
        row = np.repeat(np.arange(lo.shape[0]), pieces)
        k = np.arange(row.shape[0]) - np.repeat(np.cumsum(pieces) - pieces, pieces)
        prefixes, lo, hi = prefixes[row], lo[row] + k * _BLOCK_POINTS, hi[row]
        hi = np.minimum(hi, lo + (_BLOCK_POINTS - 1))
        counts = hi - lo + 1
    ends = np.cumsum(counts)
    start = 0
    while start < lo.shape[0]:
        # the rows that end within _BLOCK_POINTS of this block's first point
        first = int(ends[start] - counts[start])
        stop = int(np.searchsorted(ends, first + _BLOCK_POINTS, side="right"))
        yield _expand_rows(prefixes[start:stop], lo[start:stop], hi[start:stop])
        start = stop


class LatticeStats(NamedTuple):
    """Exact statistics of the integer points of mP."""

    count: int  # N_m
    moment: tuple  # sum of the points, as Python ints
    max_norm_sq: int  # largest |alpha|^2; 0 when there is no point


def _row_stats(P: LatticePolytope, m: int) -> LatticeStats:
    """``lattice_stats`` summed over ``_lattice_rows`` without building a
    point: a row lo..hi over prefix x' holds hi - lo + 1 points, adds x'
    times that to the first n - 1 coordinates and (lo + hi)(hi - lo + 1)/2
    to the last."""
    import numpy as np

    prefixes, lo, hi = _lattice_rows(P, m)
    biggest = max(int(np.abs(a).max(initial=0)) for a in (prefixes, lo, hi))
    if (len(lo) + P.dim) * (2 * biggest + 1) * biggest >= 2**62:
        # a sum could leave int64: finish in Python ints
        prefixes, lo, hi = (a.astype(object) for a in (prefixes, lo, hi))
    counts = hi - lo + 1
    cols = [prefixes[:, i] * counts for i in range(P.dim - 1)]
    cols.append((lo + hi) * counts // 2)
    norms = (prefixes * prefixes).sum(axis=1) + np.maximum(lo * lo, hi * hi)
    return LatticeStats(
        count=int(counts.sum()),
        moment=tuple(int(c.sum()) for c in cols),
        max_norm_sq=int(norms.max()) if norms.size else 0,
    )


@_memoized
def _ehrhart_nodes(P: LatticePolytope):
    """Interpolation data of the Ehrhart polynomials of a lattice polytope,
    or None when P has a rational vertex.

    N_m = |mP /\\ Z^n| has degree n in m and each coordinate of the moment
    sum_{alpha in mP} alpha degree n + 1, so both are fixed by their values
    at K = n + 2 consecutive nodes s..s + K - 1: count 1 and moment 0 at
    m = 0, and the row sums at m >= 1.  On a reflexive P the interior
    points of jP are those of (j - 1)P, so Ehrhart-Macdonald reciprocity
    gives L(-j) = (-1)^n L(j - 1) and M(-j) = (-1)^(n+1) M(j - 1): with
    a = ceil(n/2) the row sums at m = 1..a fix the nodes -(a + 1)..n - a.
    Any other lattice polytope takes the nodes 0..n + 1.  Each node value
    is stored times its integer Lagrange weight (K-1)! / prod_{i != j}
    (j - i) = (-1)^(K-1-j) C(K-1, j), j = 0..K - 1 the node's place, and
    returned with s."""
    if not P.is_lattice():
        return None
    n, k = P.dim, P.dim + 2
    a = -(-n // 2)  # ceil(n/2)
    # the first node, and the deepest degree whose rows are summed
    start, top = (-(a + 1), a) if is_reflexive(P) else (0, n + 1)
    rows = [(1, (0,) * n)] + [_row_stats(P, j)[:2] for j in range(1, top + 1)]
    weighted = []
    for j in range(k):
        m = start + j
        if m >= 0:
            count, moment = rows[m]
        else:  # reflected
            count, moment = rows[-m - 1]
            sign = (-1) ** n
            count, moment = sign * count, tuple(-sign * c for c in moment)
        w = (-1) ** (k - 1 - j) * math.comb(k - 1, j)
        weighted.append((w * count, tuple(w * c for c in moment)))
    return tuple(weighted), start


def _exact_quotient(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(
            f"Ehrhart interpolation left remainder {r} over {den}: "
            "the row sums are not polynomial in m"
        )
    return q


def lattice_stats(P: LatticePolytope, m: int = 1) -> LatticeStats:
    """Count, moment vector and largest squared norm of the integer points
    of mP, exact in Python ints.

    On a lattice polytope the count and the moment are evaluated from
    their Ehrhart polynomials (``_ehrhart_nodes``), so a degree costs O(1)
    once the row sums at m = 1..ceil(n/2) (reflexive P) or m = 1..n + 1
    are known, and the largest squared norm is m^2 max_v |v|^2, which
    |alpha|^2 reaches on mP at m v.  A polytope with a rational vertex has
    Ehrhart quasi-polynomials instead, and is summed over its rows.
    """
    if not _is_integer(m) or m < 1:
        raise ValueError(f"dilation factor must be a positive integer, got {m!r}")
    m = int(m)
    nodes = _ehrhart_nodes(P)
    if nodes is None:
        return _row_stats(P, m)
    weighted, start = nodes
    k = len(weighted)
    den = math.factorial(k - 1)
    basis = [math.prod(m - start - i for i in range(k) if i != j) for j in range(k)]
    count = sum(b * c for b, (c, _) in zip(basis, weighted))
    moment = [
        sum(b * mom[i] for b, (_, mom) in zip(basis, weighted))
        for i in range(P.dim)
    ]
    return LatticeStats(
        count=_exact_quotient(count, den),
        moment=tuple(_exact_quotient(c, den) for c in moment),
        max_norm_sq=m * m * int(max_vertex_norm_sq(P)),
    )


# ---------------------------------------------------------------------------
# file format


def polytope_from_dict(doc: dict, source: str = "<dict>") -> LatticePolytope:
    """Build a polytope from the JSON document shape
    {"name": str, "dim": int, "vertices": [[coord, ...], ...]}; extra keys
    are ignored.  Coordinates may be integers or 'p/q' strings."""
    if not isinstance(doc, dict):
        raise ParseError(f"{source}: top-level JSON value must be an object")
    for key in ("name", "dim", "vertices"):
        if key not in doc:
            raise ParseError(f"{source}: missing required key {key!r}")
    name = doc["name"]
    dim = doc["dim"]
    verts = doc["vertices"]
    if not isinstance(name, str):
        raise ParseError(f"{source}: 'name' must be a string")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError(f"{source}: 'dim' must be a positive integer")
    if not isinstance(verts, list) or not verts:
        raise ParseError(f"{source}: 'vertices' must be a non-empty list")
    rows = []
    for k, row in enumerate(verts):
        if not isinstance(row, list):
            raise ParseError(f"{source}: vertex {k} is not a list")
        if len(row) != dim:
            raise ParseError(
                f"{source}: vertex {k} has {len(row)} coordinates, expected {dim}"
            )
        rows.append(row)
    try:
        return build_polytope(rows, name=name)
    except NonRationalInput as exc:
        raise ParseError(f"{source}: {exc}") from exc


def load_polytope(path) -> LatticePolytope:
    """Read a polytope JSON file; raises ParseError on malformed input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    return polytope_from_dict(doc, source=str(path))
