"""Exact-geometry tests: hulls, reflexivity, lattice points, volumes and
the lattice-normalized boundary measure.

Derived quantities are checked against independent oracles: lattice-point
counts come from a direct per-coordinate scan and from a box, filter and
lexsort enumerator, both written here, volumes from Richardson
extrapolation of those counts, and the boundary measure from the second
coefficient of the count polynomial.
"""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import hstab.lattice_geom as lg
import hstab.weight_rings as wr
from hstab import corpus
from hstab.errors import DegeneratePolytope, NonRationalInput, ParseError
from hstab.simplex_calculus import AffineForm, Simplex, _dot, _int_det


# ---------------------------------------------------------------------------
# independent oracles


def enumerate_dilate(P, m):
    """Direct scan oracle for lattice_points: per-coordinate box loop with
    Fraction inequality checks.  Slow but entirely separate code path."""
    vf = np.array([[float(c) for c in v] for v in P.vertices])
    lo = np.floor(vf.min(axis=0) * m).astype(int)
    hi = np.ceil(vf.max(axis=0) * m).astype(int)
    found = []
    def recurse(prefix):
        i = len(prefix)
        if i == P.dim:
            pt = tuple(prefix)
            for f in P.facets:
                lhs = sum(Fraction(a) * Fraction(c) for a, c in zip(f.normal, pt))
                if lhs > m * Fraction(f.offset):
                    return
            found.append(pt)
            return
        for x in range(lo[i], hi[i] + 1):
            recurse(prefix + [x])
    recurse([])
    return sorted(found)


def box_filter_points(P, m):
    """Oracle for lattice_points: every integer point of the bounding box
    of mP, one slab of the first coordinate at a time, kept when it meets
    every facet inequality q <v, alpha> <= m p in int64, then lexsorted."""
    n = P.dim
    lo = [math.ceil(m * min(v[i] for v in P.vertices)) for i in range(n)]
    hi = [math.floor(m * max(v[i] for v in P.vertices)) for i in range(n)]
    normals = np.array([f.normal for f in P.facets], dtype=np.int64)
    qs = np.array([f.offset.denominator for f in P.facets], dtype=np.int64)
    ps = np.array([f.offset.numerator for f in P.facets], dtype=np.int64)
    axes = [np.arange(a, b + 1, dtype=np.int64) for a, b in zip(lo[1:], hi[1:])]
    tail = np.zeros((1, 0), dtype=np.int64)
    if axes:
        mesh = np.meshgrid(*axes, indexing="ij")
        tail = np.stack([a.reshape(-1) for a in mesh], axis=1)
    slabs = [np.zeros((0, n), dtype=np.int64)]
    for x0 in range(lo[0], hi[0] + 1):
        grid = np.concatenate(
            [np.full((tail.shape[0], 1), x0, dtype=np.int64), tail], axis=1
        )
        keep = np.all((grid @ normals.T) * qs <= m * ps, axis=1)
        slabs.append(grid[keep])
    pts = np.concatenate(slabs, axis=0)
    order = np.lexsort(tuple(pts[:, j] for j in range(n - 1, -1, -1)))
    return np.ascontiguousarray(pts[order])


def fraction_det(rows):
    """Oracle for the determinant: Gaussian elimination over Fraction."""
    a = [[Fraction(x) for x in r] for r in rows]
    k, det = len(a), Fraction(1)
    for col in range(k):
        piv = next((r for r in range(col, k) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, k):
            f = a[r][col] / a[col][col]
            for c in range(col, k):
                a[r][c] -= f * a[col][c]
    return det


def fraction_rank(rows):
    """Oracle for linear independence: row reduction over Fraction."""
    a = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((r for r in range(rank, len(a)) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for r in range(rank + 1, len(a)):
            f = a[r][col] / a[rank][col]
            for c in range(col, len(a[0])):
                a[r][c] -= f * a[rank][c]
        rank += 1
    return rank


def count_extrapolated_volume(P, ms=(16, 32, 64)):
    """Richardson estimate of vol(P) from counts N_m = vol*m^n + O(m^{n-1});
    two-point elimination of the 1/m term."""
    n = P.dim
    c = [len(lg.lattice_points(P, m)) / m**n for m in ms]
    # with c(m) = vol + a/m + O(1/m^2): vol ~ 2 c(2m) - c(m)
    return 2 * c[-1] - c[-2]


def scan_hull_facets(points, d):
    """Exhaustive oracle for lattice_geom._hull_facets: every d-subset of
    the points spans a candidate hyperplane (cofactor normal of its edge
    matrix), kept when all points lie on one side.  C(N, d) exact sidings;
    same return shape, {(primitive normal, offset): incident point ids}."""
    facets = {}
    for subset in itertools.combinations(range(len(points)), d):
        base = points[subset[0]]
        edges = [[a - b for a, b in zip(points[i], base)] for i in subset[1:]]
        normal = [
            (-1) ** j * fraction_det([row[:j] + row[j + 1 :] for row in edges])
            for j in range(d)
        ]
        if not any(normal):
            continue
        c = _dot(normal, base)
        sides = [_dot(normal, p) - c for p in points]
        if all(s <= 0 for s in sides):
            pass
        elif all(s >= 0 for s in sides):
            normal, c, sides = [-v for v in normal], -c, [-s for s in sides]
        else:
            continue
        den = 1
        for v in normal:
            den = den * v.denominator // math.gcd(den, v.denominator)
        ints = [int(v * den) for v in normal]
        g = math.gcd(*ints)
        key = (tuple(v // g for v in ints), c * den / g)
        facets.setdefault(key, tuple(i for i, s in enumerate(sides) if s == 0))
    return facets


def solve_exact(cols, rhs):
    """Solve sum_j lam_j * cols[j] = rhs for a consistent full-column-rank
    system; returns the unique lam as a tuple of Fractions."""
    m, k = len(rhs), len(cols)
    a = [[cols[j][i] for j in range(k)] + [rhs[i]] for i in range(m)]
    row = 0
    for col in range(k):
        piv = next((r for r in range(row, m) if a[r][col] != 0), None)
        if piv is None:
            raise DegeneratePolytope("chart basis is rank deficient")
        a[row], a[piv] = a[piv], a[row]
        inv = 1 / a[row][col]
        a[row] = [v * inv for v in a[row]]
        for r in range(m):
            if r != row and a[r][col] != 0:
                f = a[r][col]
                a[r] = [vr - f * vc for vr, vc in zip(a[r], a[row])]
        row += 1
    for r in range(row, m):
        if a[r][k] != 0:
            raise DegeneratePolytope("point lies outside the chart flat")
    return tuple(a[i][k] for i in range(k))


def point_sub(p, q):
    return tuple(a - b for a, b in zip(p, q))


def fraction_facet_measure(piece, normal):
    """Oracle for a facet piece's measure in Fraction arithmetic:
    |det(edges, v)| / ((n-1)! <v, v>) with Fraction edges."""
    rows = [point_sub(p, piece[0]) for p in piece[1:]]
    rows.append(tuple(Fraction(v) for v in normal))
    n = len(normal)
    return abs(fraction_det(rows)) / (math.factorial(n - 1) * _dot(normal, normal))


def chart_fan_face(points, d):
    """Oracle for lattice_geom._fan_face from coordinates alone: put exact
    affine coordinates on the d-flat of the face, take a fresh hull there,
    and fan from the lex-smallest point over the facets missing it.
    Returns lex-sorted tuples of d + 1 points."""
    points = sorted(points)
    if d == 0:
        if len(points) != 1:
            raise ValueError("a 0-dimensional face has exactly one point")
        return [tuple(points)]
    if len(points) == d + 1:
        return [tuple(points)]
    apex = base = points[0]
    basis = []
    for p in points[1:]:
        e = point_sub(p, base)
        if fraction_rank(basis + [e]) > len(basis):
            basis.append(e)
        if len(basis) == d:
            break
    if len(basis) != d:
        raise DegeneratePolytope("face does not span a d-flat")
    coords = [solve_exact(basis, point_sub(p, base)) for p in points]
    simplices = []
    for inc in lg._hull_facets(coords, d).values():
        face_pts = [points[i] for i in inc]
        if apex in face_pts:
            continue
        for sub in chart_fan_face(face_pts, d - 1):
            simplices.append(tuple(sorted(sub + (apex,))))
    return sorted(simplices)


def chart_triangulation(P, base):
    """The star triangulation of P over base that lattice_geom.triangulate
    must return, with every facet fanned by chart_fan_face."""
    pieces = tuple(
        lg.FacetPiece(fid, tri, fraction_facet_measure(tri, f.normal))
        for fid, f in enumerate(P.facets)
        for tri in chart_fan_face([P.vertices[i] for i in f.vertex_ids], P.dim - 1)
    )
    return lg.SimplicialDecomposition(
        base=base,
        simplices=tuple(Simplex(vertices=(base,) + p.vertices) for p in pieces),
        facet_pieces=pieces,
    )


# ---------------------------------------------------------------------------
# construction


def test_interval_hull():
    P = lg.build_polytope([(-1,), (1,)])
    assert P.dim == 1
    assert P.vertices == ((Fraction(-1),), (Fraction(1),))
    normals = [(f.normal, f.offset) for f in P.facets]
    assert ((-1,), Fraction(1)) in normals
    assert ((1,), Fraction(1)) in normals


def test_triangle_hull_offsets_all_one():
    P = lg.build_polytope([(-1, -1), (2, -1), (-1, 2)])
    assert P.n_facets == 3
    assert all(f.offset == 1 for f in P.facets)
    assert all(np.gcd.reduce([int(c) for c in f.normal]) == 1 for f in P.facets)


def test_unit_square_duplicate_vertex_dropped():
    clean = lg.build_polytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    doped = lg.build_polytope([(0, 0), (1, 0), (0, 1), (1, 1), (1, 1)])
    assert clean == doped
    assert clean.n_vertices == 4 and clean.n_facets == 4


def test_interior_and_edge_points_are_not_vertices():
    P = lg.build_polytope(
        [(0, 0), (1, 0), (0, 1), (1, 1), ("1/2", "1/2"), ("1/2", 0)]
    )
    assert P.n_vertices == 4


def test_facets_sorted_and_incidences_cover_dim():
    for name in corpus.CORPUS_NAMES:
        P = corpus.load_corpus(name)
        keys = [(f.normal, f.offset) for f in P.facets]
        assert keys == sorted(keys)
        for f in P.facets:
            # a facet of an n-polytope needs n affinely independent vertices
            assert len(f.vertex_ids) >= P.dim
            for vid in f.vertex_ids:
                v = P.vertices[vid]
                lhs = sum(Fraction(a) * c for a, c in zip(f.normal, v))
                assert lhs == f.offset


def test_vertices_satisfy_all_facets():
    for name in corpus.CORPUS_NAMES:
        P = corpus.load_corpus(name)
        for v in P.vertices:
            for f in P.facets:
                assert sum(Fraction(a) * c for a, c in zip(f.normal, v)) <= f.offset


def test_degenerate_input_rejected():
    with pytest.raises(DegeneratePolytope):
        lg.build_polytope([(0, 0), (1, 0), (2, 0)])
    with pytest.raises(DegeneratePolytope):
        lg.build_polytope([(1,), (1,)])


def test_non_rational_input_rejected():
    with pytest.raises(NonRationalInput):
        lg.build_polytope([(0, 0), (1, 0), (0, float("nan"))])
    with pytest.raises(NonRationalInput):
        lg.as_rational("abc")
    with pytest.raises(NonRationalInput):
        lg.as_rational(float("inf"))


def test_rational_string_coordinates():
    P = lg.build_polytope([("-1/2",), ("3/2",)])
    assert P.vertices == ((Fraction(-1, 2),), (Fraction(3, 2),))
    assert not P.is_lattice()


# the 4-D products the benchmark builds from corpus vertex sets
PRODUCTS = (
    ("square", "square"),
    ("triangle", "triangle_dual"),
    ("blowup_one", "square"),
    ("blowup_one", "blowup_two"),
    ("interval", "cube"),
)


def product_points(P, Q):
    return sorted(set(u + w for u in P.vertices for w in Q.vertices))


def test_hull_matches_scan_on_corpus(polytopes):
    for name, P in polytopes.items():
        pts = list(P.vertices)
        assert lg._hull_facets(pts, P.dim) == scan_hull_facets(pts, P.dim), name


@pytest.mark.parametrize("a,b", PRODUCTS)
def test_hull_matches_scan_on_products(polytopes, a, b):
    pts = product_points(polytopes[a], polytopes[b])
    assert lg._hull_facets(pts, 4) == scan_hull_facets(pts, 4)


def random_point_set(rng, d, rational, radius=4):
    """Random full-dimensional points in [-radius, radius]^d plus a segment
    midpoint, a triangle centroid, the centroid of all, and three collinear
    points on a face of the bounding box (so on the hull's boundary);
    integer or rational."""
    def coord():
        den = rng.choice((1, 2, 3)) if rational else 1
        return Fraction(rng.randint(-radius, radius), den)

    while True:
        pts = [tuple(coord() for _ in range(d)) for _ in range(rng.randint(d + 1, 9))]
        if fraction_rank([point_sub(p, pts[0]) for p in pts[1:]]) == d:
            break
    a, b, c = pts[0], pts[1], pts[-1]
    pts += [tuple((x + y) / 2 for x, y in zip(a, b))]  # on a segment
    pts += [tuple((x + y + z) / 3 for x, y, z in zip(a, b, c))]  # in a triangle
    centroid = tuple(sum(col) / len(pts) for col in zip(*pts))
    pts.append(centroid)
    lo = [min(p[j] for p in pts) for j in range(d)]
    hi = [max(p[j] for p in pts) for j in range(d)]
    for t in range(3):
        pts.append(tuple([hi[0]] + [lo[j] + (hi[j] - lo[j]) * t / 2 for j in range(1, d)]))
    rng.shuffle(pts)
    return sorted(set(pts))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("rational", [False, True])
def test_hull_matches_scan_on_random_point_sets(d, rational):
    """The hull against the scan; the vertices, found by intersecting
    facet incidence sets, against the rank rule (a point is a vertex iff
    the normals of its facets span R^d); the triangulation against the
    chart oracle."""
    rng = random.Random(1000 * d + rational)
    for _ in range(10 if d < 3 else 3):
        pts = random_point_set(rng, d, rational)
        facets = lg._hull_facets(pts, d)
        assert facets == scan_hull_facets(pts, d), pts
        normals = [[Fraction(v) for v in normal] for normal, _ in facets]
        rank_rule = tuple(
            p
            for i, p in enumerate(pts)
            if fraction_rank([v for v, inc in zip(normals, facets.values()) if i in inc]) == d
        )
        P = lg.build_polytope(pts)
        assert P.vertices == rank_rule, pts
        dec = lg.triangulate(P)
        assert dec == chart_triangulation(P, dec.base), pts


def test_triangulation_matches_chart_oracle_on_corpus(polytopes):
    for name, P in polytopes.items():
        dec = lg.triangulate(P)
        assert dec == chart_triangulation(P, dec.base), name


# 4-, 5- and 6-dimensional products past the benchmark's.  The octahedron
# is not simple: two of its triangles can share one vertex v, so in the
# product with a square two facets meet in {v} x square, a face of
# dimension 2 inside a facet of dimension 4, which the fan must skip.
LARGER_PRODUCTS = (
    ("hexagon", "hexagon"),
    ("cube", "hexagon"),
    ("cube", "cube"),
    ("octahedron", "square"),
)
OCTAHEDRON = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]


@pytest.mark.parametrize("a,b", PRODUCTS + LARGER_PRODUCTS)
def test_triangulation_matches_chart_oracle_on_products(polytopes, a, b):
    factors = {**polytopes, "octahedron": lg.build_polytope(OCTAHEDRON)}
    P = lg.build_polytope(product_points(factors[a], factors[b]))
    dec = lg.triangulate(P)
    assert dec == chart_triangulation(P, dec.base)


def test_determinants_match_fraction_elimination():
    """_int_det (Bareiss) and Simplex.volume() (the origin and the rows,
    scaled to integers by their common denominator) against Gaussian
    elimination over Fraction, sizes 0-6, singular ones too."""
    rng = random.Random(61)
    for _ in range(300):
        k = rng.randint(0, 6)
        rows = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(k)]
        if k > 1 and rng.random() < 0.2:
            rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]  # singular
        assert _int_det(rows) == fraction_det(rows), rows
        ratl = [[Fraction(x, rng.choice((1, 2, 3, 7))) for x in r] for r in rows]
        S = Simplex(vertices=((Fraction(0),) * k,) + tuple(map(tuple, ratl)))
        assert S.volume() == abs(fraction_det(ratl)) / math.factorial(k), ratl


def test_triangulate_computes_no_hull(polytopes, monkeypatch):
    """Faces are intersections of the facet incidence sets, so
    triangulating cube x cube (6-D) takes no further hull; the chart
    oracle takes 1032."""
    P = lg.build_polytope(product_points(polytopes["cube"], polytopes["cube"]))
    calls = []
    hull = lg._hull_facets
    monkeypatch.setattr(
        lg, "_hull_facets", lambda *args: calls.append(args) or hull(*args)
    )
    assert lg.triangulate(P).n_simplices == 1440
    assert len(calls) == 0


def test_hexagon_product_facets(polytopes):
    """Facets of P x Q are {F x Q} and {P x G}: 6 + 6 for the hexagon
    squared, and hexagon x hexagon builds within the 1 s budget."""
    H = polytopes["hexagon"]
    t0 = time.perf_counter()
    HH = lg.build_polytope(product_points(H, H))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, elapsed
    zero = (0,) * H.dim
    expected = {(f.normal + zero, f.offset) for f in H.facets}
    expected |= {(zero + f.normal, f.offset) for f in H.facets}
    assert {(f.normal, f.offset) for f in HH.facets} == expected
    assert HH.n_facets == 12 and HH.n_vertices == 36
    for f in HH.facets:
        on = {HH.vertices[i] for i in f.vertex_ids}
        assert len(on) == 12  # a hexagon edge times a hexagon
        assert on == {v for v in HH.vertices if _dot(f.normal, v) == f.offset}


def test_primitive_outward_rejects_zero_normal_under_python_O():
    """An explicit raise, not an assert, so it holds under python -O,
    which strips assert statements."""
    code = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from hstab.lattice_geom import _primitive_outward\n"
        "try:\n"
        "    _primitive_outward((0, 0), Fraction(1))\n"
        "except ValueError as exc:\n"
        "    print('raised', exc, sys.flags.optimize)\n"
    )
    src = os.path.dirname(os.path.dirname(lg.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised zero normal cannot be primitivized 1"


# ---------------------------------------------------------------------------
# reflexivity


def test_is_reflexive_examples():
    assert lg.is_reflexive(lg.build_polytope([(-1,), (1,)]))
    assert not lg.is_reflexive(lg.build_polytope([(0, 0), (1, 0), (0, 1), (1, 1)]))
    assert lg.is_reflexive(lg.build_polytope([(-1, -1), (2, -1), (-1, 2)]))
    # doubling the square moves every offset to 2
    assert not lg.is_reflexive(
        lg.build_polytope([(-2, -2), (2, -2), (-2, 2), (2, 2)])
    )


def test_is_reflexive_is_memoized_on_the_polytope(monkeypatch):
    checked = []
    is_lattice = lg.LatticePolytope.is_lattice
    monkeypatch.setattr(
        lg.LatticePolytope,
        "is_lattice",
        lambda self: checked.append(self) or is_lattice(self),
    )
    P = lg.build_polytope([(-1, -1), (2, -1), (-1, 2)])
    assert all(lg.is_reflexive(P) for _ in range(3))
    assert not lg.is_reflexive(lg.translate(P, (1, 0)))
    assert len(checked) == 2


def test_corpus_is_reflexive(polytopes):
    for name, P in polytopes.items():
        assert lg.is_reflexive(P), name


# ---------------------------------------------------------------------------
# lattice points


def test_interval_dilate_points():
    P = lg.build_polytope([(-1,), (1,)])
    pts = lg.lattice_points(P, 3)
    assert pts.tolist() == [[-3], [-2], [-1], [0], [1], [2], [3]]


def test_triangle_ten_points_vs_scan_oracle():
    P = lg.build_polytope([(-1, -1), (2, -1), (-1, 2)])
    pts = lg.lattice_points(P, 1)
    oracle = enumerate_dilate(P, 1)
    assert len(oracle) == 10
    assert [tuple(p) for p in pts.tolist()] == oracle


@pytest.mark.parametrize("name", ["square", "hexagon", "blowup_two", "cube"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_lattice_points_match_scan_oracle(name, m):
    P = corpus.load_corpus(name)
    pts = [tuple(p) for p in lg.lattice_points(P, m).tolist()]
    assert pts == enumerate_dilate(P, m)


def test_lattice_points_sorted_and_contain_origin(polytopes):
    for P in polytopes.values():
        pts = lg.lattice_points(P, 1).tolist()
        assert pts == sorted(pts)
        assert [0] * P.dim in pts


def stats_of(pts):
    """(count, column sums, largest squared norm) of a small point array."""
    return (
        len(pts),
        tuple(int(c) for c in pts.sum(axis=0)),
        int((pts * pts).sum(axis=1).max(initial=0)),
    )


def assert_rows_match_oracle(P, ms):
    for m in ms:
        want = box_filter_points(P, m)
        got = lg.lattice_points(P, m)
        assert got.dtype == np.int64 and got.flags.c_contiguous, m
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), m
        assert tuple(lg.lattice_stats(P, m)) == stats_of(want), m


DILATIONS = (1, 2, 3, 5, 8, 13)


def test_lattice_rows_match_box_oracle_on_corpus(polytopes):
    for P in polytopes.values():
        assert_rows_match_oracle(P, DILATIONS)


@pytest.mark.parametrize("a,b", PRODUCTS)
def test_lattice_rows_match_box_oracle_on_products(polytopes, a, b):
    assert_rows_match_oracle(
        lg.build_polytope(product_points(polytopes[a], polytopes[b])), DILATIONS
    )


@pytest.mark.parametrize("seed", range(36))
def test_lattice_rows_match_box_oracle_on_random_polytopes(seed):
    """Dims 1-4, integer and rational vertices (offsets p/q with q > 1);
    the box shrinks with the dimension so 13P stays small."""
    rng = random.Random(seed)
    d, rational = 1 + seed % 4, seed % 8 >= 4
    radius = (4, 4, 2, 1)[d - 1]
    P = lg.build_polytope(random_point_set(rng, d, rational, radius))
    assert_rows_match_oracle(P, DILATIONS)


@pytest.mark.parametrize("a,b,top", [("blowup_one", "cube", 3), ("cube", "cube", 2)])
def test_lattice_rows_match_box_oracle_past_dim_4(polytopes, a, b, top):
    """5-D and 6-D products, whose prefixes span four and five axes."""
    P = lg.build_polytope(product_points(polytopes[a], polytopes[b]))
    assert P.dim == polytopes[a].dim + polytopes[b].dim
    assert_rows_match_oracle(P, range(1, top + 1))


def test_lattice_rows_build_no_fraction(polytopes, monkeypatch):
    """Past the memoized per-polytope constants a degree's rows are read
    in Python ints and int64 arrays alone."""
    rational = lg.build_polytope([(Fraction(-1, 3), -1), (Fraction(5, 2), 0), (0, 2)])
    made = []
    new = Fraction.__new__

    def spy(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    for P in (polytopes["hexagon"], polytopes["cube"], rational):
        lg._row_constants(P)
        monkeypatch.setattr(Fraction, "__new__", spy)
        for m in (1, 2, 7, 64):
            lg._lattice_rows(P, m)
        monkeypatch.undo()
        assert made == [], P.vertices


def test_dilation_factor_is_one_integer_rule(polytopes):
    """A numpy integer is a degree and a bool is not, for the points and
    the statistics alike."""
    P = polytopes["hexagon"]
    assert lg.lattice_points(P, np.int64(2)).tobytes() == lg.lattice_points(P, 2).tobytes()
    assert lg.lattice_stats(P, np.int64(5)) == lg.lattice_stats(P, 5)
    assert lg.lattice_stats(P, np.uint8(9)) == lg.lattice_stats(P, 9)
    for bad in (True, False, np.bool_(True), 2.0, np.int64(0), "2"):
        with pytest.raises(ValueError, match="must be a positive integer"):
            lg.lattice_points(P, bad)
        with pytest.raises(ValueError, match="must be a positive integer"):
            lg.lattice_stats(P, bad)


@pytest.mark.parametrize(
    "name,m", [("interval", 40000), ("square", 200), ("blowup_two", 150), ("cube", 32)]
)
def test_point_blocks_cut_lattice_points_at_rows(polytopes, name, m):
    """The blocks concatenate to lattice_points, hold at most
    _BLOCK_POINTS points each, and are filled greedily with whole rows; a
    row is cut only when it is longer than a block (the interval's single
    row of 80001 points), and then into full blocks and a rest."""
    P, size = polytopes[name], lg._BLOCK_POINTS
    blocks = list(lg._lattice_point_blocks(P, m))
    whole = lg.lattice_points(P, m)
    assert np.concatenate(blocks).tobytes() == whole.tobytes()
    assert all(b.dtype == np.int64 and b.flags.c_contiguous for b in blocks)
    assert max(len(b) for b in blocks) <= size
    prefixes, counts = np.unique(whole[:, :-1], axis=0, return_counts=True)
    row_len = dict(zip(map(tuple, prefixes.tolist()), counts.tolist()))
    for a, b in zip(blocks, blocks[1:]):
        if (a[-1, :-1] == b[0, :-1]).all():  # a cut inside one row
            assert row_len[tuple(b[0, :-1].tolist())] > size and len(a) == size
        else:  # the next row, or its first piece, did not fit
            assert len(a) + min(row_len[tuple(b[0, :-1].tolist())], size) > size
    assert len(blocks) > 1


def test_lattice_stats_exact_beyond_int64():
    """The sums of [-5e9, 7e9] leave int64 (sum 1.2e19, largest |x|^2
    4.9e19); the counts come from the closed forms in Python ints."""
    lo, hi = -5 * 10**9, 7 * 10**9
    P = lg.build_polytope([(lo,), (hi,)])
    for m in (1, 2, 10**6, 10**9):
        count = m * (hi - lo) + 1
        assert lg.lattice_stats(P, m) == (
            count, (m * (lo + hi) * count // 2,), m * m * hi * hi
        )
    # past the int64 row guard only the enumeration still refuses
    with pytest.raises(ValueError, match="too large"):
        lg.lattice_points(P, 10**9)


def test_max_vertex_norm_sq_has_one_home(monkeypatch, polytopes):
    """The largest squared vertex norm is exact, memoized, and the one
    value the toric weight bound and the lattice statistics read."""
    for name, P in polytopes.items():
        worst = lg.max_vertex_norm_sq(P)
        assert worst == max(sum(Fraction(c) ** 2 for c in v) for v in P.vertices)
        assert lg.max_vertex_norm_sq(P) is worst, name
        assert wr.weight_table_toric(P, 2).weight_bound_sq == worst, name
        assert lg.lattice_stats(P, 3).max_norm_sq == 9 * worst, name
        assert wr.max_vertex_norm(P) ** 2 >= worst, name
    P = polytopes["hexagon"]
    monkeypatch.setattr(lg, "max_vertex_norm_sq", lambda _: Fraction(7))
    assert wr.weight_table_toric(P, 2).weight_bound_sq == 7
    assert lg.lattice_stats(P, 2).max_norm_sq == 28
    assert wr.max_vertex_norm(P) == math.nextafter(math.sqrt(7), math.inf)


def assert_polynomial_stats_match_rows(P, top):
    for m in range(1, top + 1):
        assert lg.lattice_stats(P, m) == lg._row_stats(P, m), m


def test_ehrhart_stats_match_row_sums_on_corpus(polytopes):
    """Past m = n + 1 the statistics come from the polynomials, which the
    row sums check degree by degree."""
    for name, P in polytopes.items():
        assert_polynomial_stats_match_rows(P, 14 if P.dim == 3 else 40)


@pytest.mark.parametrize("a,b", PRODUCTS)
def test_ehrhart_stats_match_row_sums_on_products(polytopes, a, b):
    P = lg.build_polytope(product_points(polytopes[a], polytopes[b]))
    assert_polynomial_stats_match_rows(P, 7)


def test_ehrhart_stats_match_row_sums_on_a_translate(polytopes):
    """An integer translate is a lattice polytope with the origin outside
    (blowup_two moved by (3, -2)) or on a vertex (cube moved by (1, 1, 1))."""
    assert_polynomial_stats_match_rows(lg.translate(polytopes["blowup_two"], (3, -2)), 30)
    assert_polynomial_stats_match_rows(lg.translate(polytopes["cube"], (1, 1, 1)), 10)


def larger_product(polytopes, a, b):
    factors = {**polytopes, "octahedron": lg.build_polytope(OCTAHEDRON)}
    return lg.build_polytope(product_points(factors[a], factors[b]))


@pytest.mark.parametrize("a,b", [("cube", "hexagon"), ("octahedron", "square"), ("cube", "cube")])
def test_ehrhart_stats_match_row_sums_in_dims_5_and_6(polytopes, a, b):
    """On these reflexive products the polynomials come from the row sums
    at m = 1..3 and the reciprocity nodes at m = -4..-1, which the row
    sums check at m = 1..4."""
    P = larger_product(polytopes, a, b)
    assert P.dim in (5, 6) and lg.is_reflexive(P)
    assert_polynomial_stats_match_rows(P, 4)


def test_reflexive_ehrhart_nodes_read_rows_up_to_half_the_dimension(monkeypatch, polytopes):
    """cube x cube is 6-D: its first statistic reads the rows of mP at
    m = 1..3 and never those of 4P..7P."""
    rows = []
    lattice_rows = lg._lattice_rows
    monkeypatch.setattr(
        lg, "_lattice_rows", lambda P, m: rows.append(m) or lattice_rows(P, m)
    )
    P = larger_product(polytopes, "cube", "cube")
    assert lg.lattice_stats(P, 9).count == 19**6
    assert sorted(rows) == [1, 2, 3]


def monomial_coefficients(values):
    """Coefficients, lowest degree first, of the polynomial of degree
    len(values) - 1 that takes the given values at m = 0, 1, 2, ..., as
    Fractions: Newton forward differences expanded over falling
    factorials."""
    coeffs = [Fraction(0)] * len(values)
    diffs = [Fraction(v) for v in values]
    falling = [Fraction(1)]  # m (m - 1) ... (m - k + 1), lowest degree first
    for k in range(len(values)):
        for i, c in enumerate(falling):
            coeffs[i] += diffs[0] / math.factorial(k) * c
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        falling = [Fraction(0)] + falling
        for i in range(len(falling) - 1):
            falling[i] -= k * falling[i + 1]
    return coeffs


def test_ehrhart_leading_coefficients_are_the_exact_moments(polytopes):
    """N_m = vol m^n + (sigma(dP)/2) m^(n-1) + ... and sum alpha =
    (int_P x) m^(n+1) + (int_dP x dsigma / 2) m^n + ..., as Fractions, and
    no term of higher degree: the polynomials through m = 0..n + 3."""
    cases = dict(polytopes)
    cases["blowup_two+(3,-2)"] = lg.translate(polytopes["blowup_two"], (3, -2))
    cases["blowup_one x square"] = lg.build_polytope(
        product_points(polytopes["blowup_one"], polytopes["square"])
    )
    for name, P in cases.items():
        n = P.dim
        stats = [lg.lattice_stats(P, m) for m in range(1, n + 4)]
        count = monomial_coefficients([1] + [s.count for s in stats])
        assert not any(count[n + 1 :]), name
        sigma = lg.boundary_integral(P, AffineForm.constant(1, dim=n))
        assert count[n] == lg.volume(P) and count[n - 1] == sigma / 2, name
        for i in range(n):
            mom = monomial_coefficients([0] + [s.moment[i] for s in stats])
            assert not any(mom[n + 2 :]), (name, i)
            assert mom[n + 1] == lg.moment_vector(P)[i], (name, i)
            assert mom[n] == lg.boundary_moment_vector(P)[i] / 2, (name, i)


def test_translate_conjugates_lattice_points():
    P = corpus.load_corpus("blowup_one")
    u = (3, -2)
    for m in (1, 2, 5):
        moved = lg.lattice_points(lg.translate(P, u), m)
        base = lg.lattice_points(P, m) + m * np.array(u)
        assert (moved == base).all()


# ---------------------------------------------------------------------------
# volume


def test_known_volumes():
    assert lg.volume(lg.build_polytope([(-1,), (1,)])) == 2
    assert lg.volume(lg.build_polytope([(-1, -1), (2, -1), (-1, 2)])) == Fraction(9, 2)
    # unit simplices, vol = 1/n!
    assert lg.volume(lg.build_polytope([(0,), (1,)])) == 1
    assert lg.volume(lg.build_polytope([(0, 0), (1, 0), (0, 1)])) == Fraction(1, 2)
    assert lg.volume(
        lg.build_polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    ) == Fraction(1, 6)


def test_volume_against_count_extrapolation(polytopes):
    for name, P in polytopes.items():
        if P.dim == 3:
            est = count_extrapolated_volume(P, ms=(8, 16, 32))
        else:
            est = count_extrapolated_volume(P)
        assert abs(est - float(lg.volume(P))) < 2e-2 * float(lg.volume(P)), name


def test_normalized_volume_is_factorial_multiple(polytopes):
    import math

    for P in polytopes.values():
        assert lg.normalized_volume(P) == math.factorial(P.dim) * lg.volume(P)


def test_two_triangulations_same_volume(polytopes):
    for P in polytopes.values():
        default = lg.triangulate(P)
        # second deterministic star: base at half the lex-min vertex,
        # strictly interior because P is reflexive
        alt_base = tuple(c / 2 for c in P.vertices[0])
        alt = lg.triangulate(P, base=alt_base)
        v1 = sum((s.volume() for s in default.simplices), Fraction(0))
        v2 = sum((s.volume() for s in alt.simplices), Fraction(0))
        assert v1 == v2 == lg.volume(P)


def test_triangulation_seeds_each_cone_volume(polytopes, monkeypatch):
    """Each cone's volume comes from the rows the triangulation has
    scaled, so reading it takes no further determinant, and it equals the
    simplex's own |det(edges)| / n!, at the origin, at a rational base
    and on a rational translate (common denominator D > 1)."""
    P = lg.build_polytope(product_points(polytopes["blowup_one"], polytopes["square"]))
    cases = [
        lg.triangulate(polytopes["blowup_two"]),
        lg.triangulate(polytopes["cube"], base=("1/3", "-1/5", "2/7")),
        lg.triangulate(lg.translate(P, ("4/3", "-2/7", "5/11", "-1/2"))),
    ]
    own = [[Simplex(vertices=s.vertices).volume() for s in dec.simplices] for dec in cases]
    calls = []
    monkeypatch.setattr(
        "hstab.simplex_calculus._int_det", lambda rows: calls.append(rows) or 0
    )
    for dec, want in zip(cases, own):
        assert [s.volume() for s in dec.simplices] == want
    assert calls == []


def test_triangulate_shapes():
    interval = lg.build_polytope([(-1,), (1,)])
    assert lg.triangulate(interval).n_simplices == 2
    square = lg.build_polytope([(-1, -1), (1, -1), (-1, 1), (1, 1)])
    assert lg.triangulate(square).n_simplices == 4
    tri = lg.build_polytope([(-1, -1), (2, -1), (-1, 2)])
    dec = lg.triangulate(tri)
    assert dec.n_simplices == 3
    assert sum((s.volume() for s in dec.simplices), Fraction(0)) == Fraction(9, 2)


def test_facet_simplices_tile_facets(polytopes):
    for P in polytopes.values():
        dec = lg.triangulate(P)
        per_facet = dec.facet_simplices
        assert sorted(per_facet) == list(range(P.n_facets))
        for fid, pieces in per_facet.items():
            f = P.facets[fid]
            for piece in pieces:
                for p in piece:
                    lhs = sum(Fraction(a) * c for a, c in zip(f.normal, p))
                    assert lhs == f.offset


def test_triangulate_rejects_exterior_base():
    P = corpus.load_corpus("square")
    with pytest.raises(ValueError):
        lg.triangulate(P, base=(2, 0))


# ---------------------------------------------------------------------------
# boundary measure


def test_boundary_integral_interval():
    P = lg.build_polytope([(-1,), (1,)])
    one = AffineForm.constant(1, dim=1)
    x = AffineForm.coordinate(0, dim=1)
    assert lg.boundary_integral(P, one) == 2
    assert lg.boundary_integral(P, x) == 0


def test_reflexive_boundary_identities_exact(polytopes):
    """boundary_integral(P,1) = n vol(P) and the first-moment identity
    int_{dP} x_i dsigma = (n+1) int_P x_i dx, both as exact rationals."""
    for name, P in polytopes.items():
        n = P.dim
        one = AffineForm.constant(1, dim=n)
        assert lg.boundary_integral(P, one) == n * lg.volume(P), name
        mom = lg.moment_vector(P)
        for i in range(n):
            xi = AffineForm.coordinate(i, dim=n)
            assert lg.boundary_integral(P, xi) == (n + 1) * mom[i], name


def oracle_moments(P):
    """(volume, moment vector, boundary moment vector) from the default
    triangulation with the test's own arithmetic: cone volumes from
    fraction_det, facet measures from fraction_facet_measure, each times
    its simplex's centroid."""
    n = P.dim
    dec = lg.triangulate(P)
    vol, mom, bmom = Fraction(0), [Fraction(0)] * n, [Fraction(0)] * n
    for s in dec.simplices:
        w = abs(fraction_det([point_sub(v, s.vertices[0]) for v in s.vertices[1:]]))
        w /= math.factorial(n)
        vol += w
        for i in range(n):
            mom[i] += w * sum(v[i] for v in s.vertices) / (n + 1)
    for piece in dec.facet_pieces:
        w = fraction_facet_measure(piece.vertices, P.facets[piece.facet_id].normal)
        for i in range(n):
            bmom[i] += w * sum(v[i] for v in piece.vertices) / n
    return vol, tuple(mom), tuple(bmom)


def assert_moments_match_oracle(P):
    """The one-pass volume and moments of a fresh copy of P equal the
    oracle and the per-coordinate interior/boundary integrals, as
    Fractions."""
    fresh = lg.build_polytope(P.vertices)
    got = (lg.volume(fresh), lg.moment_vector(fresh), lg.boundary_moment_vector(fresh))
    assert all(isinstance(x, Fraction) for x in (got[0],) + got[1] + got[2])
    assert got == oracle_moments(P), P.vertices
    n = P.dim
    coords = [AffineForm.coordinate(i, n) for i in range(n)]
    assert got[0] == lg.interior_integral(P, AffineForm.constant(1, n))
    assert got[1] == tuple(lg.interior_integral(P, f) for f in coords)
    assert got[2] == tuple(lg.boundary_integral(P, f) for f in coords)


def test_moments_match_oracle_on_corpus(polytopes):
    for P in polytopes.values():
        assert_moments_match_oracle(P)


@pytest.mark.parametrize(
    "a,b,shift",
    [pytest.param(a, b, None, id=f"{a}-{b}") for a, b in PRODUCTS]
    + [
        pytest.param("cube", "hexagon", None, id="cube-hexagon"),
        pytest.param("blowup_two", "cube", None, id="blowup_two-cube"),
        # common denominator D > 1 in dimension 4: the translate has
        # rational vertices and its base is their centroid
        pytest.param(
            "blowup_one", "blowup_two", ("4/3", "-2/7", "5/11", "-1/2"),
            id="blowup_one-blowup_two-translate",
        ),
    ],
)
def test_moments_match_oracle_on_products(polytopes, a, b, shift):
    P = lg.build_polytope(product_points(polytopes[a], polytopes[b]))
    if shift is not None:
        P = lg.translate(P, shift)
        assert lg.triangulate(P).base != (0,) * P.dim
    assert_moments_match_oracle(P)


def interior_bases(P):
    """Three rational interior points of P: steps along (1/6, 1/9, ...)
    and (-1/5, -1/10, ...) from the default base, shrunk by half the
    smallest facet slack there, and the vertex centroid."""
    n = P.dim
    default = lg.triangulate(P).base
    steps = [
        tuple(Fraction(1, 3 * (i + 2)) for i in range(n)),
        tuple(Fraction(-1, 5 * (i + 1)) for i in range(n)),
    ]
    scale = min(f.offset - _dot(f.normal, default) for f in P.facets)
    bases = [
        tuple(b + scale * s / 2 for b, s in zip(default, step)) for step in steps
    ]
    bases.append(tuple(sum(col) / P.n_vertices for col in zip(*P.vertices)))
    return bases


def assert_moments_independent_of_base(P):
    """The volume and both moment vectors from the triangulation pass over
    each interior base equal the memoized ones of the default base."""
    want = (lg.volume(P), lg.moment_vector(P), lg.boundary_moment_vector(P))
    for base in interior_bases(P):
        dec, *got = lg._star_triangulation(P, base)
        assert dec.base == base
        assert tuple(got) == want, (P.vertices, base)


def test_moments_independent_of_base_on_corpus(polytopes):
    for P in polytopes.values():
        assert_moments_independent_of_base(P)


@pytest.mark.parametrize(
    "a,b,shift",
    [
        pytest.param("blowup_one", "blowup_two", None, id="blowup_one-blowup_two"),
        pytest.param("interval", "cube", None, id="interval-cube"),
        pytest.param(
            "square", "triangle", ("1/2", "-1/3", "2/5", "1/7"),
            id="square-triangle-translate",
        ),
    ],
)
def test_moments_independent_of_base_on_products(polytopes, a, b, shift):
    P = lg.build_polytope(product_points(polytopes[a], polytopes[b]))
    if shift is not None:
        P = lg.translate(P, shift)
    assert_moments_independent_of_base(P)


def test_moments_independent_of_base_rational_vertex():
    P = lg.build_polytope(
        [(0, 0), ("3/2", 0), (0, "5/3"), ("7/4", "9/5"), ("-1/3", "1/2")]
    )
    assert not P.is_lattice()
    assert_moments_independent_of_base(P)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_moments_match_oracle_on_random_polytopes(d):
    """Rational, non-reflexive polytopes: facet offsets other than 1, and
    every other one moved off the origin, so its base is the vertex
    centroid."""
    rng = random.Random(7100 + d)
    radius = (4, 4, 2, 2)[d - 1]
    for k in range(6):
        pts = random_point_set(rng, d, True, radius)
        if k % 2:
            pts = [(p[0] + 2 * radius + 1,) + p[1:] for p in pts]
        P = lg.build_polytope(pts)
        assert not lg.is_reflexive(P)
        if k % 2:
            assert any(lg.triangulate(P).base)
        assert_moments_match_oracle(P)


def test_ehrhart_second_coefficient(polytopes):
    """N_m - vol m^n - (sigma/2) m^{n-1} = O(m^{n-2}); the residual ratio
    between m and 2m must stay bounded near 2^{n-2}."""
    for name, P in polytopes.items():
        n = P.dim
        vol = lg.volume(P)
        sigma = lg.boundary_integral(P, AffineForm.constant(1, dim=n))
        res = {}
        for m in (8, 16, 32):
            count = len(lg.lattice_points(P, m))
            res[m] = count - vol * m**n - Fraction(sigma, 2) * m ** (n - 1)
        if n == 1:
            assert res[8] == res[16] == res[32] == 0, name
            continue
        for m in (8, 16):
            a, b = abs(res[m]), abs(res[2 * m])
            assert b <= max(4 * 2 ** (n - 2) * a, 4), (name, m, res)


def test_boundary_hexagon_value():
    # all six edges have lattice length 1, so sigma = 6 = n*vol
    P = corpus.load_corpus("hexagon")
    assert lg.boundary_integral(P, AffineForm.constant(1, dim=2)) == 6


# ---------------------------------------------------------------------------
# moments and translation


def test_barycenters(polytopes):
    expected = {
        "interval": (0,),
        "square": (0, 0),
        "triangle": (0, 0),
        "triangle_dual": (0, 0),
        "hexagon": (0, 0),
        "blowup_one": (Fraction(1, 12), Fraction(1, 12)),
        "blowup_two": (Fraction(-2, 21), Fraction(-2, 21)),
        "cube": (0, 0, 0),
    }
    for name, P in polytopes.items():
        assert lg.barycenter(P) == expected[name], name


def test_barycenter_zero_names_the_centred_corpus(polytopes):
    """corpus.BARYCENTER_ZERO lists, once each, exactly the corpus
    polytopes whose exact barycenter is the origin."""
    centred = [name for name, P in polytopes.items() if not any(lg.barycenter(P))]
    assert sorted(corpus.BARYCENTER_ZERO) == sorted(centred)


def test_translate_interval():
    P = lg.build_polytope([(-1,), (1,)])
    Q = lg.translate(P, (1,))
    assert Q.vertices == ((Fraction(0),), (Fraction(2),))
    offs = {f.normal: f.offset for f in Q.facets}
    assert offs[(1,)] == 2 and offs[(-1,)] == 0


def test_translate_roundtrip(polytopes):
    for P in polytopes.values():
        u = tuple(range(1, P.dim + 1))
        assert lg.translate(lg.translate(P, u), tuple(-c for c in u)) == P


def test_translate_breaks_reflexivity(polytopes):
    for P in polytopes.values():
        u = (5,) + (0,) * (P.dim - 1)
        assert not lg.is_reflexive(lg.translate(P, u))


def test_interior_integral_matches_moments():
    P = corpus.load_corpus("blowup_one")
    x0 = AffineForm.coordinate(0, dim=2)
    assert lg.interior_integral(P, x0) == lg.moment_vector(P)[0] == Fraction(1, 3)


# ---------------------------------------------------------------------------
# direction coercion


def numpy_as_float_vector(xi, dim):
    """as_float_vector as it was written in weight_rings, on numpy."""
    if np.isscalar(xi) or isinstance(xi, Fraction):
        xi = [xi]
    arr = np.array(
        [float(lg.as_rational(c)) if isinstance(c, str) else float(c) for c in xi],
        dtype=float,
    )
    if arr.shape != (dim,):
        raise ValueError(f"direction has shape {arr.shape}, expected ({dim},)")
    if not np.all(np.isfinite(arr)):
        raise ValueError("direction entries must be finite")
    return arr


def numpy_as_exact_vector(xi, dim):
    """as_exact_vector as it was written in weight_rings, on numpy."""
    if np.isscalar(xi) or isinstance(xi, Fraction):
        xi = [xi]
    vec = tuple(lg.as_rational(c) for c in xi)
    if len(vec) != dim:
        raise ValueError(f"direction has length {len(vec)}, expected {dim}")
    return vec


DIRECTIONS = [
    0.3,
    -2,
    Fraction(-1, 3),
    "1/3",
    " -2/5 ",
    np.float64(0.1),
    np.int64(-7),
    np.float32(0.1),
    [0.1, "1/3", Fraction(2, 7)],
    (1, -2),
    (np.float64(1e-300), np.int64(3)),
    np.array([0.25, -1e17, 3.0]),
    np.array([1, 2], dtype=np.int64),
    np.array([[0.5]]),  # rows of length one coerce through float()
    [True, False],
    np.bool_(True),
    [],
    (),
]


def outcome(fn, xi, dim):
    try:
        return fn(xi, dim)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


@pytest.mark.parametrize("xi", DIRECTIONS, ids=repr)
def test_direction_coercion_matches_numpy_rule(xi):
    n = len(lg._direction_entries(xi))
    for dim in {n, n + 1, 1}:
        want = outcome(numpy_as_float_vector, xi, dim)
        got = outcome(lg.as_float_vector, xi, dim)
        if isinstance(want, np.ndarray):
            assert type(got) is tuple and all(type(c) is float for c in got)
            assert [c.hex() for c in got] == [c.hex() for c in want.tolist()]
            arr = wr.as_float_vector(xi, dim)
            assert arr.dtype == np.float64 and arr.tobytes() == want.tobytes()
        else:
            assert got == want, dim
        assert outcome(lg.as_exact_vector, xi, dim) == outcome(
            numpy_as_exact_vector, xi, dim
        ), dim


@pytest.mark.parametrize(
    "xi", [float("nan"), [1.0, float("inf")], np.array([-np.inf]), "1/0", "frog", None]
)
def test_direction_coercion_errors_match_numpy_rule(xi):
    for dim in (1, 2):
        want = outcome(numpy_as_float_vector, xi, dim)
        assert isinstance(want, tuple) and issubclass(want[0], Exception)
        assert outcome(lg.as_float_vector, xi, dim) == want
        assert outcome(lg.as_exact_vector, xi, dim) == outcome(
            numpy_as_exact_vector, xi, dim
        )


def test_b0_b1_exact_is_one_function():
    assert wr.b0_b1_exact is lg.b0_b1_exact


# ---------------------------------------------------------------------------
# file format


def test_load_polytope_roundtrip(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(
        json.dumps(
            {"name": "halves", "dim": 1, "vertices": [["-1/2"], ["3/2"]]}
        )
    )
    P = lg.load_polytope(path)
    assert P.name == "halves"
    assert P.vertices == ((Fraction(-1, 2),), (Fraction(3, 2),))


def test_load_polytope_ragged_rows_names_row(tmp_path):
    path = tmp_path / "ragged.json"
    path.write_text(
        json.dumps({"name": "r", "dim": 2, "vertices": [[0, 0], [1], [0, 1]]})
    )
    with pytest.raises(ParseError) as err:
        lg.load_polytope(path)
    assert "vertex 1" in str(err.value)


def test_load_polytope_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        lg.load_polytope(path)


def test_load_polytope_missing_keys(tmp_path):
    path = tmp_path / "nokeys.json"
    path.write_text(json.dumps({"name": "x", "vertices": [[0], [1]]}))
    with pytest.raises(ParseError):
        lg.load_polytope(path)


def test_corpus_files_match_builder(polytopes):
    # loading a corpus file must agree with building from its vertex list
    for name, P in polytopes.items():
        rebuilt = lg.build_polytope(P.vertices, name=name)
        assert rebuilt == P
