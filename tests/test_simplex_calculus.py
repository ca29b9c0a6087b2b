"""Stable exponential-linear simplex integration.

The reference oracle for divided differences of exp is a 60-digit mpmath
Newton tableau with distinct nodes (confluent cases get 1e-30 splittings,
far below double precision but exact in mpmath).  Integrals over 2-D
simplices are cross-checked with scipy adaptive quadrature.
"""

import gc
import itertools
import math
import random
import re
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import integrate

import hstab.lattice_geom as lg
import hstab.optimal_degeneration as od
import hstab.simplex_calculus as sc
from hstab import corpus
from hstab.errors import DegenerateSimplex
from hstab.simplex_calculus import (
    AffineForm,
    Simplex,
    exp_divided_difference,
    exp_moments,
    integral_exp_simplex,
    integral_linear_simplex,
    simplex,
)

mpmath.mp.dps = 60


def dd_exp_reference(nodes):
    """Newton tableau for exp at the given nodes in 60-digit arithmetic.
    Repeated nodes are separated by 1e-30, which changes the value far
    below double precision."""
    xs = []
    seen = {}
    for v in nodes:
        k = seen.get(v, 0)
        seen[v] = k + 1
        xs.append(mpmath.mpf(v) + k * mpmath.mpf("1e-30"))
    col = [mpmath.e**x for x in xs]
    for level in range(1, len(xs)):
        col = [
            (col[i + 1] - col[i]) / (xs[i + level] - xs[i])
            for i in range(len(col) - 1)
        ]
    return float(col[0])


# ---------------------------------------------------------------------------
# divided differences


def test_dd_single_and_double_node():
    assert exp_divided_difference([0.7]) == pytest.approx(math.exp(0.7), rel=1e-15)
    assert exp_divided_difference([0.7, 0.7]) == pytest.approx(
        math.exp(0.7), rel=1e-14
    )
    assert exp_divided_difference([0.0, 1.0]) == pytest.approx(
        math.e - 1, rel=1e-14
    )


def test_dd_all_equal_closed_form():
    # k+1 copies of a: e^a / k!
    for k in range(6):
        got = exp_divided_difference([0.3] * (k + 1))
        assert got == pytest.approx(math.exp(0.3) / math.factorial(k), rel=1e-13)


def test_dd_random_spread_nodes_vs_reference():
    rng = np.random.default_rng(7)
    for _ in range(60):
        k = int(rng.integers(1, 8))
        nodes = (rng.uniform(-8, 8, size=k)).tolist()
        got = exp_divided_difference(nodes)
        ref = dd_exp_reference(nodes)
        assert got == pytest.approx(ref, rel=1e-11), nodes


def test_dd_clustered_nodes_no_cancellation():
    """Pairwise gaps of 1e-8 sit far below the recursion's usable range;
    the series path must agree with the reference to 1e-10 relative."""
    rng = np.random.default_rng(11)
    for _ in range(40):
        k = int(rng.integers(2, 7))
        center = float(rng.uniform(-3, 3))
        nodes = (center + rng.uniform(-1e-8, 1e-8, size=k)).tolist()
        got = exp_divided_difference(nodes)
        ref = dd_exp_reference(nodes)
        assert got == pytest.approx(ref, rel=1e-10), nodes


def test_dd_mixed_cluster_and_far_nodes():
    rng = np.random.default_rng(13)
    for _ in range(40):
        cluster = (0.5 + rng.uniform(-5e-7, 5e-7, size=3)).tolist()
        far = rng.uniform(-6, 6, size=2).tolist()
        nodes = cluster + far
        got = exp_divided_difference(nodes)
        ref = dd_exp_reference(nodes)
        assert got == pytest.approx(ref, rel=1e-10), nodes


def test_dd_permutation_invariant_exactly():
    rng = np.random.default_rng(17)
    nodes = rng.uniform(-4, 4, size=6).tolist()
    base = exp_divided_difference(nodes)
    for _ in range(10):
        perm = list(nodes)
        rng.shuffle(perm)
        assert exp_divided_difference(perm) == base


def full_table_series(nodes):
    """The shifted series with all 60 degrees of h_k accumulated node by
    node, as the engine did before it built them one degree at a time."""
    r = len(nodes) - 1
    mu = math.fsum(nodes) / len(nodes)
    hs = [1.0] + [0.0] * 60
    for y in [x - mu for x in nodes]:
        for k in range(1, 61):
            hs[k] += y * hs[k - 1]
    total = 0.0
    for k in range(61):
        term = hs[k] / math.factorial(r + k)
        total += term
        if k >= 2 and abs(term) < 1e-16:
            break
    return sc._safe_exp(mu) * total


def full_table_dd(nodes):
    """Bit-level reference for exp_divided_difference: the full k x k table
    with the series in every entry spanning <= 1e-4."""
    xs = sorted(float(x) for x in nodes)
    k = len(xs)
    table = [[0.0] * k for _ in range(k)]
    for i in range(k):
        table[i][i] = sc._safe_exp(xs[i])
    for span in range(1, k):
        for i in range(k - span):
            j = i + span
            gap = xs[j] - xs[i]
            if gap <= 1e-4:
                table[i][j] = full_table_series(xs[i : j + 1])
            else:
                table[i][j] = (table[i + 1][j] - table[i][j - 1]) / gap
    return table[0][k - 1]


def seeded_node_sets(seed, count=400):
    """Node sets of every kind the engine meets: all equal, clustered with
    spans 1e-12..1e-4, spread, mixed, and base nodes with one or two of
    them repeated at the end, as exp_moments builds them."""
    rng = random.Random(seed)
    for t in range(count):
        kind = t % 5
        k = rng.randint(1, 8)
        c = rng.uniform(-6.0, 6.0)
        if kind == 0:
            yield [c] * k
        elif kind == 1:
            span = 10 ** rng.uniform(-12, -4)
            yield [c + rng.uniform(0.0, span) for _ in range(k)]
        elif kind == 2:
            yield [rng.uniform(-30.0, 30.0) for _ in range(k)]
        elif kind == 3:
            span = 10 ** rng.uniform(-12, -3)
            cluster = [c + rng.uniform(0.0, span) for _ in range(k)]
            yield cluster + [rng.uniform(-8.0, 8.0) for _ in range(rng.randint(1, 3))]
        else:
            base = [rng.uniform(-4.0, 0.0) for _ in range(k)]
            if rng.random() < 0.3:
                base[1:] = [base[0] + rng.uniform(0.0, 1e-5) for _ in base[1:]]
            yield base + [rng.choice(base) for _ in range(rng.randint(1, 2))]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_dd_bitwise_equal_to_full_table(seed):
    for nodes in seeded_node_sets(seed):
        got = exp_divided_difference(nodes)
        assert got.hex() == full_table_dd(nodes).hex(), nodes
        # the series alone too, where spread nodes make every degree count
        got = sc._series_block(sorted(nodes))
        assert got.hex() == full_table_series(sorted(nodes)).hex(), nodes


def test_dd_has_the_recursions_bits_on_hundreds_of_nodes():
    """exp_divided_difference, bottom up, gives the bits of the top-down
    recursion that moment passes use, on spread, clustered and mixed sets
    of 1 to 300 nodes; and 1500 spread nodes, deeper than the recursion
    limit, give the full table's bits."""
    rng = random.Random(97)
    for k in (1, 2, 3, 17, 64, 150, 300):
        for nodes in (
            [rng.uniform(-5.0, 5.0) for _ in range(k)],
            [rng.choice((0.0, 0.3, 1.0)) + rng.uniform(-1e-5, 1e-5) for _ in range(k)],
            [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-7, 1) for _ in range(k)],
        ):
            top_down = sc._divided_difference(tuple(sorted(nodes)), {})
            assert exp_divided_difference(nodes).hex() == top_down.hex(), nodes
    nodes = [rng.uniform(-3.0, 3.0) for _ in range(1500)]
    assert exp_divided_difference(nodes).hex() == full_table_dd(nodes).hex()


def tight_sub_ranges(xs):
    """Every run xs[i:j] of two or more sorted nodes spanning <= 1e-4."""
    return [
        xs[i:j]
        for i in range(len(xs))
        for j in range(i + 2, len(xs) + 1)
        if xs[j - 1] - xs[i] <= 1e-4
    ]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_shared_memo_bitwise_equal_to_full_table(seed, monkeypatch):
    """One memo across node sets, as a moment pass keeps it, with the tight
    runs of each set also asked for as whole sets: after the set (met
    first as a block a wider entry read) or before it (met first as a
    node set).  Every value keeps the full table's bits, and the series
    runs once per distinct tuple."""
    calls = []
    series = sc._series_block

    def counting(nodes):
        calls.append(tuple(nodes))
        return series(nodes)

    monkeypatch.setattr(sc, "_series_block", counting)
    memo = {}
    hits = 0
    for t, nodes in enumerate(seeded_node_sets(seed)):
        xs = tuple(sorted(float(x) for x in nodes))
        runs = tight_sub_ranges(xs)
        order = [xs] + runs if t % 2 else runs + [xs]
        for ys in order:
            hits += ys in memo
            got = sc._divided_difference(ys, memo)
            assert got.hex() == full_table_dd(ys).hex(), (ys, xs)
    assert len(calls) == len(set(calls)) > 0
    assert hits > 0


def test_dd_coincident_nodes_run_one_series(monkeypatch):
    """k equal nodes are one clustered block: the series runs once, where
    the full table ran it for all k(k-1)/2 off-diagonal entries."""
    calls = []
    series = sc._series_block

    def counting(nodes):
        calls.append(len(nodes))
        return series(nodes)

    monkeypatch.setattr(sc, "_series_block", counting)
    for k in range(2, 9):
        calls.clear()
        exp_divided_difference([0.25] * k)
        assert calls == [k]


def test_dd_total_on_finite_input():
    # overflow saturates to inf instead of raising
    assert exp_divided_difference([800.0]) == math.inf
    with pytest.raises(ValueError):
        exp_divided_difference([])
    with pytest.raises(ValueError):
        exp_divided_difference([float("nan")])


# ---------------------------------------------------------------------------
# simplex containers


def test_simplex_volume_and_degeneracy():
    S = simplex([(0, 0), (1, 0), (0, 1)])
    assert S.volume() == Fraction(1, 2)
    with pytest.raises(DegenerateSimplex):
        simplex([(0, 0), (1, 0)])
    with pytest.raises(DegenerateSimplex):
        simplex([(0, 0), (1, 0), (2, 0)]).volume()


def test_simplex_volume_taken_once(monkeypatch):
    """The volume is kept on the simplex: one determinant however often it
    is read, and eq, hash and repr see only the vertices."""
    calls = []
    det = sc._int_det
    monkeypatch.setattr(sc, "_int_det", lambda rows: calls.append(rows) or det(rows))
    S = simplex([(0, 0), (3, 0), (0, 1)])
    bare = sc.Simplex(vertices=S.vertices)
    assert len(calls) == 1
    for _ in range(3):
        assert S.volume() == Fraction(3, 2)
        integral_linear_simplex(S, AffineForm.coordinate(0, dim=2))
        integral_exp_simplex(S, (0.5, -0.25))
    assert len(calls) == 1
    assert S == bare and hash(S) == hash(bare) and repr(S) == repr(bare)
    assert bare.volume() == S.volume() and len(calls) == 2


def test_affine_form_eval():
    f = AffineForm.linear([2, -1])
    assert f((3, 1)) == 5
    g = AffineForm(coeffs=(Fraction(1, 2),), const=Fraction(1))
    assert g((3,)) == Fraction(5, 2)


def test_integral_linear_examples():
    seg = simplex([(0,), (1,)])
    assert integral_linear_simplex(seg, AffineForm.coordinate(0, dim=1)) == Fraction(1, 2)
    tri = simplex([(0, 0), (1, 0), (0, 1)])
    assert integral_linear_simplex(tri, AffineForm.coordinate(0, dim=2)) == Fraction(1, 6)
    big = simplex([(-1, -1), (2, -1), (-1, 2)])
    assert integral_linear_simplex(big, AffineForm.coordinate(0, dim=2)) == 0


# ---------------------------------------------------------------------------
# exponential integrals


def test_exp_integral_zero_exponent_gives_volume():
    tri = simplex([(0, 0), (2, 0), (0, 3)])
    assert integral_exp_simplex(tri, (0.0, 0.0)) == pytest.approx(3.0, rel=1e-15)


def test_exp_integral_interval_closed_form():
    seg = simplex([(-1,), (1,)])
    got = integral_exp_simplex(seg, (1.0,))
    assert got == pytest.approx(2 * math.sinh(1), rel=1e-13)


def test_exp_integral_unit_triangle_vs_quadrature():
    tri = simplex([(0, 0), (1, 0), (0, 1)])
    a = (1.0, 1.0)
    got = integral_exp_simplex(tri, a)
    ref, err = integrate.dblquad(
        lambda y, x: math.exp(-(a[0] * x + a[1] * y)),
        0.0,
        1.0,
        0.0,
        lambda x: 1.0 - x,
        epsabs=1e-13,
    )
    assert err < 1e-10
    assert got == pytest.approx(ref, abs=1e-10)


def test_exp_integral_random_triangles_vs_quadrature():
    rng = np.random.default_rng(23)
    for _ in range(8):
        verts = rng.integers(-3, 4, size=(3, 2))
        if abs(np.linalg.det(verts[1:] - verts[0])) < 0.5:
            continue
        S = simplex([tuple(int(c) for c in v) for v in verts])
        a = tuple(rng.uniform(-1.5, 1.5, size=2))
        got = integral_exp_simplex(S, a)
        xs = verts[:, 0]
        ys = verts[:, 1]

        def in_triangle_integral():
            # integrate over the bounding box with a characteristic
            # function is too noisy; use the affine map to the unit
            # triangle instead
            v0 = verts[0].astype(float)
            e1 = verts[1] - verts[0]
            e2 = verts[2] - verts[0]
            jac = abs(np.linalg.det(np.array([e1, e2], dtype=float)))

            def f(v, u):
                x = v0 + u * e1 + v * e2
                return math.exp(-(a[0] * x[0] + a[1] * x[1])) * jac

            return integrate.dblquad(
                f, 0.0, 1.0, 0.0, lambda u: 1.0 - u, epsabs=1e-12
            )

        ref, err = in_triangle_integral()
        assert got == pytest.approx(ref, rel=1e-9, abs=1e-10), (verts, a)


def test_exp_integral_tetrahedron_vs_quadrature():
    tet = simplex([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    a = (0.7, -0.4, 1.1)
    got = integral_exp_simplex(tet, a)
    ref, err = integrate.tplquad(
        lambda z, y, x: math.exp(-(a[0] * x + a[1] * y + a[2] * z)),
        0.0,
        1.0,
        0.0,
        lambda x: 1.0 - x,
        0.0,
        lambda x, y: 1.0 - x - y,
        epsabs=1e-11,
    )
    assert got == pytest.approx(ref, abs=5e-9)


def test_exp_integral_smooth_limit():
    """First order in a on a unit-scale simplex:
    integral = vol - int <a,x> + O(|a|^2), so the residual at |a| = 1e-4
    sits below 1e-8."""
    tri = simplex([(0, 0), (1, 0), (0, 1)])
    a = (1e-4, -1e-4)
    got = integral_exp_simplex(tri, a)
    lin = AffineForm.linear(a)
    expected = float(tri.volume()) - float(integral_linear_simplex(tri, lin))
    assert abs(got - expected) < 1e-8


def test_exp_integral_additive_under_subdivision():
    # split the big triangle through an interior point; totals must agree
    whole = simplex([(-1, -1), (2, -1), (-1, 2)])
    c = (0, 0)
    parts = [
        simplex([c, (-1, -1), (2, -1)]),
        simplex([c, (2, -1), (-1, 2)]),
        simplex([c, (-1, 2), (-1, -1)]),
    ]
    for a in [(0.9, -0.3), (2.0, 2.0), (-1.2, 0.4)]:
        whole_val = integral_exp_simplex(whole, a)
        split_val = math.fsum(integral_exp_simplex(S, a) for S in parts)
        assert split_val == pytest.approx(whole_val, rel=1e-12)


def test_exp_integral_big_exponent_no_overflow():
    seg = simplex([(-1,), (1,)])
    got = integral_exp_simplex(seg, (600.0,))
    # closed form 2 sinh(600)/600: near the top of double range but finite
    assert math.isfinite(got)
    assert math.log(got) == pytest.approx(600 - math.log(600), rel=1e-12)


# ---------------------------------------------------------------------------
# batched moments


def test_exp_moments_interval_gibbs_statistics():
    seg = simplex([(-1,), (1,)])
    xi = np.array([1.0])
    shift, i0, i1, i2 = exp_moments((seg,), xi, order=2)
    z = math.exp(shift) * i0
    mean = i1[0] / i0
    var = i2[0][0] / i0 - mean * mean
    assert z == pytest.approx(2 * math.sinh(1), rel=1e-13)
    assert mean == pytest.approx(1 / 1.0 - math.cosh(1) / math.sinh(1), rel=1e-12)
    assert var == pytest.approx(1.0 - 1.0 / math.sinh(1) ** 2, rel=1e-11)


def test_exp_moments_zero_direction_gives_geometry():
    tri = simplex([(-1, -1), (2, -1), (-1, 2)])
    shift, i0, i1, _ = exp_moments((tri,), np.zeros(2), order=1)
    vol = math.exp(shift) * i0
    assert vol == pytest.approx(4.5, rel=1e-14)
    assert math.exp(shift) * i1[0] == pytest.approx(0.0, abs=1e-13)


def test_exp_moments_large_direction_log_value():
    seg = simplex([(-1,), (1,)])
    xi = np.array([500.0])
    shift, i0, _, _ = exp_moments((seg,), xi, order=0)
    log_val = shift + math.log(i0)
    # log(2 sinh(500)/500) = 500 - log(500) + log1p(-e^{-1000})
    assert log_val == pytest.approx(500 - math.log(500), rel=1e-12)


# ---------------------------------------------------------------------------
# one moment pass evaluates each distinct vertex and node set once


def per_occurrence_exp_moments(simplices, xi, order=2):
    """exp_moments as it was before the per-call deduplication: every
    simplex converts its vertices and evaluates its divided differences
    afresh.  Kept as the bit-for-bit oracle."""
    simplices = list(simplices)
    n = simplices[0].dim
    xf = [float(c) for c in xi]

    def node(v):
        return -math.fsum(c * float(x) for c, x in zip(xf, v))

    shift = max(node(v) for s in simplices for v in s.vertices)
    nfact = math.factorial(n)
    dd = exp_divided_difference
    c0_parts = []
    c1_parts = [[] for _ in range(n)]
    c2_parts = [[[] for _ in range(n)] for _ in range(n)]
    for s in simplices:
        verts = [[float(x) for x in v] for v in s.vertices]
        nodes = [node(v) - shift for v in s.vertices]
        w = nfact * float(s.volume())
        c0_parts.append(w * dd(nodes))
        if order >= 1:
            dd1 = [dd(nodes + [t]) for t in nodes]
            for i in range(n):
                c1_parts[i].append(
                    w * math.fsum(verts[k][i] * dd1[k] for k in range(len(nodes)))
                )
        if order >= 2:
            kk = len(nodes)
            c2 = [[0.0] * kk for _ in range(kk)]
            for k in range(kk):
                c2[k][k] = 2.0 * dd(nodes + [nodes[k], nodes[k]])
                for l in range(k + 1, kk):
                    c2[k][l] = c2[l][k] = dd(nodes + [nodes[k], nodes[l]])
            for i in range(n):
                for j in range(i, n):
                    acc = math.fsum(
                        verts[k][i] * verts[l][j] * c2[k][l]
                        for k in range(kk)
                        for l in range(kk)
                    )
                    c2_parts[i][j].append(w * acc)
    i0 = math.fsum(c0_parts)
    i1 = [math.fsum(p) for p in c1_parts] if order >= 1 else None
    i2 = None
    if order >= 2:
        i2 = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                i2[i][j] = i2[j][i] = math.fsum(c2_parts[i][j])
    return shift, i0, i1, i2


def hexbits(x):
    """x with every float spelled as float.hex, recursively."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (list, tuple)):
        return [hexbits(y) for y in x]
    return x


def assert_moments_match_oracle(simplices, xi):
    for order in (0, 1, 2):
        got = exp_moments(simplices, xi, order)
        want = per_occurrence_exp_moments(simplices, xi, order)
        assert hexbits(got) == hexbits(want), (xi, order)


BENCH_PRODUCTS = (
    ("square", "square"),
    ("triangle", "triangle_dual"),
    ("blowup_one", "square"),
    ("blowup_one", "blowup_two"),
    ("interval", "cube"),
)


def named_polytope(polytopes, name):
    if name in polytopes:
        return polytopes[name]
    a, b = name.split("x")
    pts = [u + w for u in polytopes[a].vertices for w in polytopes[b].vertices]
    return lg.build_polytope(pts, name=name)


def edge_vectors(P):
    """v_j - v_i over vertex pairs whose common facets have normals of
    rank n - 1, i.e. the edges of P."""
    out = []
    for i, j in itertools.combinations(range(len(P.vertices)), 2):
        normals = [
            f.normal for f in P.facets if i in f.vertex_ids and j in f.vertex_ids
        ]
        if normals and np.linalg.matrix_rank(np.array(normals, float)) == P.dim - 1:
            out.append([int(a - b) for a, b in zip(P.vertices[j], P.vertices[i])])
    return out


def seeded_directions(P, seed, per_regime=2):
    """Tiny, unit and large random directions, and dyadic directions
    orthogonal to an edge of P (which make two nodes coincide)."""
    rng = random.Random(seed)
    n = P.dim
    edges = edge_vectors(P)

    def unit():
        v = [rng.gauss(0.0, 1.0) for _ in range(n)]
        norm = math.sqrt(sum(c * c for c in v))
        return [c / norm for c in v]

    dirs = []
    for _ in range(per_regime):
        dirs.append([c * 1e-6 * 2.0 ** rng.uniform(-1.0, 1.0) for c in unit()])
        dirs.append([c * rng.uniform(0.5, 1.5) for c in unit()])
        dirs.append([c * rng.uniform(50.0, 300.0) for c in unit()])
        if n == 1:
            dirs.append([rng.choice([-1, 1]) * rng.randint(1, 12) / 8.0])
            continue
        e = rng.choice(edges)
        ee = sum(c * c for c in e)
        w = [0] * n
        while not any(w):
            r = [rng.randint(-3, 3) for _ in range(n)]
            re = sum(a * b for a, b in zip(r, e))
            w = [ee * a - re * b for a, b in zip(r, e)]
        k = round(math.log2(math.sqrt(sum(c * c for c in w))))
        dirs.append([c / 2.0**k for c in w])
    return dirs


@pytest.mark.parametrize(
    "name", list(corpus.CORPUS_NAMES) + ["x".join(p) for p in BENCH_PRODUCTS]
)
def test_deduplicated_pass_matches_per_occurrence_oracle(polytopes, name):
    P = named_polytope(polytopes, name)
    simplices = lg.triangulate(P).simplices
    for xi in [[0.0] * P.dim] + seeded_directions(P, name):
        assert_moments_match_oracle(simplices, xi)


def test_deduplicated_pass_matches_oracle_along_newton_iterates(polytopes):
    P = named_polytope(polytopes, "blowup_onexblowup_two")
    res = od.maximize_h(P, max_iter=5, keep_trace=True)
    iterates = [entry["xi"] for entry in res.trace] + [res.xi_star.tolist()]
    assert len(iterates) == 6
    simplices = lg.triangulate(P).simplices
    for xi in iterates:
        assert_moments_match_oracle(simplices, xi)


class FreshVertices:
    """A simplex whose every ``vertices`` read builds new tuples, so a
    vertex's id may be reused once the pass lets go of it."""

    def __init__(self, S):
        self._S = S
        self.dim = S.dim

    @property
    def vertices(self):
        return tuple(tuple(Fraction(x) for x in v) for v in self._S.vertices)

    def volume(self):
        return self._S.volume()


def test_deduplicated_pass_with_unshared_equal_vertices(polytopes):
    """Equal-valued vertices held by distinct objects, alone, mixed with
    shared ones or rebuilt on every read, give the same bits as the
    shared triangulation."""
    P = named_polytope(polytopes, "blowup_onexsquare")
    shared = lg.triangulate(P).simplices
    fresh = [
        Simplex(vertices=tuple(tuple(Fraction(x) for x in v) for v in s.vertices))
        for s in shared
    ]
    assert not any(u is v for u, v in zip(shared[0].vertices, fresh[0].vertices))
    mixed = [f if k % 2 else s for k, (s, f) in enumerate(zip(shared, fresh))]
    rebuilt = [FreshVertices(s) for s in shared]
    for xi in [[0.0] * 4] + seeded_directions(P, "unshared", per_regime=1):
        want = [hexbits(exp_moments(shared, xi, order)) for order in (0, 1, 2)]
        for simplices in (fresh, mixed, rebuilt):
            assert_moments_match_oracle(simplices, xi)
            got = [hexbits(exp_moments(simplices, xi, order)) for order in (0, 1, 2)]
            assert got == want, xi


def test_deduplicated_pass_with_signed_zero_nodes():
    """Node sets that differ only in the sign of a zero, or in order, are
    one key of the pass's memo (0.0 == -0.0 in a tuple), so each must give
    the same bits, and signed-zero directions match the oracle."""
    base_sets = (
        [0.0, -0.0],
        [0.0, -0.0, 0.0, 1.0],
        [-0.0, 0.0, -2.5, 3e-5, -0.0],
        [0.0, -0.0, -0.0, 1e-9, -1e-9, 0.0, -7.0],
    )
    for base in base_sets:
        variants = set(itertools.permutations(base))
        for zero in (0.0, -0.0):
            variants.add(tuple(zero if t == 0 else t for t in base))
        keys = {tuple(sorted(v)) for v in variants}
        assert len(keys) == 1  # the memo sees one node set
        vals = {exp_divided_difference(list(v)).hex() for v in variants}
        assert len(vals) == 1, base
    tris = [
        simplex([(-1, 0), (1, 0), (0, 1)]),
        simplex([(1, 0), (-1, 0), (0, -1)]),
        simplex([(0, -1), (0, 1), (1, 1)]),
    ]
    for xi in (
        [0.0, 0.0], [-0.0, 0.0], [-0.0, -0.0], [0.0, 1.0], [-0.0, -1.0], [1.0, -0.0]
    ):
        for perm in itertools.permutations(tris):
            assert_moments_match_oracle(list(perm), xi)


def count_calls(monkeypatch, owner, name):
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_origin_pass_evaluates_three_node_sets(polytopes, monkeypatch):
    """At xi = 0 every node is zero: an order-2 pass on square x square
    needs exp over 5, 6 and 7 zeros, each one tight node set summed once,
    so 3 series (1008 without the per-call deduplication)."""
    simplices = lg.triangulate(named_polytope(polytopes, "squarexsquare")).simplices
    assert len(simplices) == 48
    calls = count_calls(monkeypatch, sc, "_series_block")
    exp_moments(simplices, [0.0] * 4, order=2)
    assert len(calls) == 3


@pytest.mark.parametrize("order", [0, 1, 2])
def test_pass_converts_each_vertex_once(polytopes, monkeypatch, order):
    """square x square: 48 simplices over 17 distinct vertices.  A pass
    converts each vertex's 4 coordinates once and each volume once,
    17*4 + 48 Fraction-to-float conversions (3*240*4 + 48 = 2928 when
    every occurrence converted its vertex for node and coordinates)."""
    simplices = lg.triangulate(named_polytope(polytopes, "squarexsquare")).simplices
    assert len({v for s in simplices for v in s.vertices}) == 17
    for s in simplices:
        s.volume()
    calls = count_calls(monkeypatch, Fraction, "__float__")
    exp_moments(simplices, [0.25, -0.5, 0.125, 1.0], order)
    assert len(calls) == 17 * 4 + 48


@pytest.fixture(scope="module")
def stalled_pass(polytopes):
    """blowup_one x blowup_two's triangulation and the last iterate of its
    capped Newton run, whose coordinates pair up, so many nodes lie within
    about 1e-11 of each other."""
    P = named_polytope(polytopes, "blowup_onexblowup_two")
    res = od.maximize_h(P, max_iter=5, keep_trace=True)
    simplices = lg.triangulate(P).simplices
    for s in simplices:
        s.volume()
    return simplices, res.xi_star.tolist()


def test_pass_sums_each_tight_block_once(stalled_pass, monkeypatch):
    """At the stalled iterate an order-2 pass sums each distinct tight
    block once: the same blocks the per-occurrence oracle sums, which
    sums them again in every node set that reads them."""
    simplices, xi = stalled_pass
    calls = []
    series = sc._series_block

    def counting(nodes):
        calls.append(tuple(nodes))
        return series(nodes)

    monkeypatch.setattr(sc, "_series_block", counting)
    exp_moments(simplices, xi, order=2)
    once = list(calls)
    calls.clear()
    per_occurrence_exp_moments(simplices, xi, order=2)
    assert len(once) == len(set(once)) > 0
    assert set(once) == set(calls)
    assert len(calls) > 2 * len(once)


def top_down_sub_ranges(xs):
    """The sorted sub-ranges the top-down rule reads for exp[xs]: xs, and
    while a range spans more than 1e-4, those of its two one-shorter ends."""
    out, todo = set(), [xs]
    while todo:
        ys = todo.pop()
        if ys not in out:
            out.add(ys)
            if ys[-1] - ys[0] > 1e-4:
                todo += [ys[1:], ys[:-1]]
    return out


def pass_node_sets(simplices, xi):
    """Every sorted node set an order-2 pass reads: per simplex, its n+1
    nodes, with each node once more, and with each pair of nodes added."""
    xf = [float(c) for c in xi]

    def node(v):
        return -math.fsum(c * float(x) for c, x in zip(xf, v))

    shift = max(node(v) for s in simplices for v in s.vertices)
    for s in simplices:
        nodes = [node(v) - shift for v in s.vertices]
        yield nodes
        for k, t in enumerate(nodes):
            yield nodes + [t]
            for u in nodes[k:]:
                yield nodes + [t, u]


def test_pass_evaluates_each_sub_range_once(stalled_pass, monkeypatch):
    """At the stalled iterate an order-2 pass evaluates each distinct
    sorted sub-range of the node sets it reads exactly once, and no other
    tuple: the one memo is shared by the sub-ranges of one node set, of
    the node sets of one simplex and of neighbouring simplices."""
    simplices, xi = stalled_pass
    misses = []
    dd = sc._divided_difference

    def counting(xs, memo):
        if xs not in memo:
            misses.append(xs)
        return dd(xs, memo)

    monkeypatch.setattr(sc, "_divided_difference", counting)
    exp_moments(simplices, xi, order=2)
    per_set = [
        top_down_sub_ranges(tuple(sorted(ns))) for ns in pass_node_sets(simplices, xi)
    ]
    want = set().union(*per_set)
    assert len(misses) == len(set(misses))
    assert set(misses) == want
    # sharing across node sets and simplices
    assert sum(map(len, per_set)) > 5 * len(want)


@pytest.mark.parametrize("product", BENCH_PRODUCTS, ids="x".join)
def test_zero_coordinate_terms_skipped_bitwise(polytopes, product):
    """The order-1 and order-2 sums skip vertex coordinates equal to 0,
    whose terms are +-0.0; the sums keep the bits of the full k, l sums
    of the per-occurrence oracle at directions of every scale."""
    P = named_polytope(polytopes, "x".join(product))
    simplices = lg.triangulate(P).simplices
    assert any(x == 0 for s in simplices for v in s.vertices for x in v)
    rng = random.Random("zeros" + "x".join(product))
    for scale in (1e-8, 1e-3, 1.0, 30.0):
        xi = [scale * rng.uniform(-1.0, 1.0) for _ in range(P.dim)]
        for order in (1, 2):
            got = exp_moments(simplices, xi, order)
            want = per_occurrence_exp_moments(simplices, xi, order)
            assert hexbits(got) == hexbits(want), (xi, order)


def test_dim6_pass_memory(polytopes):
    """An order-2 pass on the 6-D cube x cube (1440 simplices) keeps every
    sub-range of the pass in its memo; it stays under 64 MB traced (about
    35 MiB; the pass takes about 5 s under tracemalloc)."""
    P = named_polytope(polytopes, "cubexcube")
    simplices = lg.triangulate(P).simplices
    assert len(simplices) == 1440
    for s in simplices:
        s.volume()
    tracemalloc.start()
    try:
        exp_moments(simplices, [0.3, -0.2, 0.11, 0.05, -0.4, 0.27], order=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


@pytest.mark.parametrize("order", [0, 1, 2])
def test_pass_leaves_no_cyclic_garbage(stalled_pass, order):
    """A pass frees its memos by reference counting alone.  A memo caught
    in a reference cycle (a self-recursive closure, say) would outlive
    the pass as garbage until the next full collection."""
    simplices, xi = stalled_pass
    gc.collect()
    gc.disable()
    try:
        exp_moments(simplices, xi, order)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("order", [3, -1, 1.5, None, "2"])
def test_exp_moments_rejects_other_orders(order):
    seg = simplex([(-1,), (1,)])
    with pytest.raises(ValueError, match="order must be 0, 1 or 2"):
        exp_moments((seg,), [0.5], order)


def test_exp_moments_names_a_direction_it_cannot_take():
    """Nodes past the double range and a shifted mass that underflows to
    0 raise ValueError naming the direction and the stage."""
    sq = [simplex([(0, 0), (1, 0), (0, 1)]), simplex([(1, 1), (1, 0), (0, 1)])]
    with pytest.raises(ValueError, match=r"nodes must be finite: direction \(1e\+308"):
        exp_moments(sq, [1e308, 1e308], order=0)
    with pytest.raises(ValueError, match=r"nodes must be finite.*node sum"):
        exp_moments(sq, [math.nan, 0.0], order=0)
    with pytest.raises(ValueError, match=r"direction \(1e\+300, -1e\+300\).*i0 underflows"):
        exp_moments(sq, [1e300, -1e300], order=2)


# a 5-D direction where the divided differences of blowup_two x cube lose so
# much accuracy that the summed shifted mass comes out negative
NEGATIVE_I0_XI = (-0.000733, 0.000107, -4.4e-05, 0.000668, -5.9e-05)


def test_exp_moments_names_a_shifted_mass_that_is_not_positive(polytopes):
    """A negative i0 is named with its value and blamed on the divided
    differences, not called an underflow; it is still a ValueError."""
    pts = [u + w for u in polytopes["blowup_two"].vertices
           for w in polytopes["cube"].vertices]
    simplices = lg.triangulate(lg.build_polytope(pts)).simplices
    assert len(simplices) == 336
    with pytest.raises(ValueError) as info:
        exp_moments(simplices, NEGATIVE_I0_XI, order=0)
    text = str(info.value)
    assert "underflow" not in text
    value = float(re.search(r"the shifted mass i0 is (\S+), not positive", text)[1])
    assert value < 0
    assert "the divided differences lost accuracy" in text
