"""Gradient and Hessian of H, concavity, recession slopes, the existence
certificate, the Newton maximizer and the stability verdict.

Oracles: central finite differences of H itself, a 1-D golden-section
search along the diagonal symmetry axis for the blow-up optima, the
recession slope in its boundary-moment form, hand values for the
interval, and the closed forms of H, the Gibbs mean and the covariance on
boxes in dimensions 2-4.
"""

import dataclasses
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import hstab.invariants as inv
import hstab.lattice_geom as lg
import hstab.optimal_degeneration as od
import hstab.simplex_calculus as sc
from hstab import corpus
from hstab.errors import Inconclusive, NotReflexive, NumericalCheckFailed


def fd_gradient(P, xi, h=1e-5):
    xi = np.asarray(xi, dtype=float)
    g = np.zeros_like(xi)
    for i in range(len(xi)):
        e = np.zeros_like(xi)
        e[i] = h
        g[i] = (
            inv.h_invariant(P, tuple(xi + e)) - inv.h_invariant(P, tuple(xi - e))
        ) / (2 * h)
    return g


def fd_hessian(P, xi, h=1e-4):
    xi = np.asarray(xi, dtype=float)
    n = len(xi)
    H = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        gp = od.h_gradient(P, tuple(xi + e))
        gm = od.h_gradient(P, tuple(xi - e))
        H[:, i] = (gp - gm) / (2 * h)
    return H


def golden_section_max(f, lo, hi, tol=1e-12):
    phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    while abs(b - a) > tol:
        if f(c) > f(d):
            b, d = d, c
            c = b - phi * (b - a)
        else:
            a, c = c, d
            d = a + phi * (b - a)
    return (a + b) / 2


# ---------------------------------------------------------------------------
# gradient


def test_gradient_at_origin_is_boundary_barycenter_defect():
    # grad H(0) = -(n-1)! vol(P) barycenter(P)
    P = corpus.load_corpus("blowup_one")
    g = od.h_gradient(P, (0.0, 0.0))
    vol = float(lg.volume(P))
    bar = np.asarray([float(c) for c in lg.barycenter(P)])
    assert np.allclose(g, -vol * bar, rtol=0, atol=1e-13)
    assert g == pytest.approx([-1 / 3, -1 / 3], rel=1e-12)


def test_gradient_zero_at_origin_for_symmetric(polytopes):
    for name in ("interval", "triangle", "square", "hexagon", "cube"):
        P = polytopes[name]
        g = od.h_gradient(P, (0.0,) * P.dim)
        assert np.max(np.abs(g)) < 1e-12, name


def test_gradient_matches_finite_differences(polytopes):
    rng = np.random.default_rng(79)
    for name, P in polytopes.items():
        for _ in range(10):
            xi = rng.uniform(-1.5, 1.5, size=P.dim)
            g = od.h_gradient(P, tuple(xi))
            ref = fd_gradient(P, xi)
            err = np.max(np.abs(g - ref)) / max(1.0, np.max(np.abs(ref)))
            assert err < 1e-6, (name, xi, err)


# ---------------------------------------------------------------------------
# Hessian


def test_interval_hessian_at_origin():
    # H''(0) = -V Var(uniform on [-1,1]) = -2/3
    P = corpus.load_corpus("interval")
    H = od.h_hessian(P, (0.0,))
    assert H.shape == (1, 1)
    assert H[0, 0] == pytest.approx(-2 / 3, rel=1e-12)


def test_hessian_symmetric_and_matches_fd(polytopes, slope_polytopes):
    """The Hessian is exactly symmetric without being symmetrized, on the
    corpus and the 4-D products at |xi| from 1e-6 to 10.  The finite
    differences are checked at moderate directions only: the divided
    differences lose accuracy at small ones (ROADMAP item 12), which also
    leaves a rare small direction with no Hessian at all (a negative i0);
    such a direction is collected, not checked."""
    rng = np.random.default_rng(83)
    for name, P in polytopes.items():
        for _ in range(6):
            xi = rng.uniform(-1.5, 1.5, size=P.dim)
            H = od.h_hessian(P, tuple(xi))
            assert np.array_equal(H, H.T), name
            ref = fd_hessian(P, xi)
            err = np.max(np.abs(H - ref)) / max(1.0, np.max(np.abs(ref)))
            assert err < 1e-5, (name, xi, err)
    rng = np.random.default_rng(97)
    lost = []
    for name, P in slope_polytopes.items():
        for scale in (1e-6, 1e-4, 1e-2, 1.0, 10.0):
            for _ in range(3):
                u = rng.normal(size=P.dim)
                try:
                    H = od.h_hessian(P, tuple(scale * u / np.linalg.norm(u)))
                except ValueError as exc:
                    assert "divided differences lost accuracy" in str(exc)
                    lost.append((name, scale))
                    continue
                assert np.array_equal(H, H.T), (name, scale)
    assert len(lost) <= 3, lost


def test_hessian_negative_definite_sweep(polytopes):
    rng = np.random.default_rng(89)
    for name, P in polytopes.items():
        for _ in range(100):
            xi = rng.uniform(-4, 4, size=P.dim)
            top = float(np.linalg.eigvalsh(od.h_hessian(P, tuple(xi)))[-1])
            assert top < 0, (name, xi, top)


def box_closed_form(xi):
    """H/V, the Gibbs mean and the covariance on the box [-1, 1]^n, where
    c0 = n! prod_i 2 sinh(xi_i)/xi_i factors and b1 = 0:
    H/V = -sum_i log(sinh xi_i/xi_i), mean_i = 1/xi_i - coth xi_i and
    cov = diag(1/xi_i^2 - 1/sinh^2 xi_i), in 40-digit arithmetic."""
    with mpmath.workdps(40):
        x = [mpmath.mpf(c) for c in xi]
        h = -mpmath.fsum(mpmath.log(mpmath.sinh(c) / c) for c in x)
        mean = [float(1 / c - mpmath.coth(c)) for c in x]
        var = [float(1 / c**2 - 1 / mpmath.sinh(c) ** 2) for c in x]
    return float(h), np.array(mean), np.diag(var)


def assert_box_closed_form(P, xi):
    """h_invariant, h_gradient/V and h_hessian = -V cov against the box
    closed forms: H and the mean to 1e-13, the Hessian to 1e-12 of its
    largest entry."""
    v = float(lg.normalized_volume(P))
    h, mean, cov = box_closed_form(xi)
    assert abs(inv.h_invariant(P, xi) - v * h) <= 1e-13 * abs(v * h)
    assert np.max(np.abs(od.h_gradient(P, xi) / v - mean)) <= 1e-13
    ref = -v * cov
    err = np.max(np.abs(od.h_hessian(P, xi) - ref))
    assert err <= 1e-12 * np.max(np.abs(ref))


def box(polytopes, names):
    return product(polytopes, *names) if len(names) == 2 else polytopes[names[0]]


BOXES = (("square",), ("cube",), ("interval", "square"), ("square", "square"))


@pytest.mark.parametrize("names", BOXES, ids="x".join)
def test_box_closed_forms(polytopes, names):
    P = box(polytopes, names)
    rng = np.random.default_rng(101)
    for _ in range(8):
        signs = rng.choice([-1.0, 1.0], size=P.dim)
        assert_box_closed_form(P, tuple(signs * rng.uniform(0.2, 3.0, size=P.dim)))


@pytest.mark.parametrize(
    "names,xi",
    [
        (("cube",), (1e-3, 5e-4, -7e-4)),
        (("square", "square"), (5e-4, 3e-4, -7e-4, 2e-4)),
    ],
    ids=["cube", "squarexsquare"],
)
@pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="ROADMAP item 12: the divided differences lose accuracy at small "
    "directions (H is off by 2.0e-2 and 1.6e3 relative here)",
)
def test_box_closed_forms_at_small_directions(polytopes, names, xi):
    assert_box_closed_form(box(polytopes, names), xi)


# ---------------------------------------------------------------------------
# recession slopes


def test_interval_recession_slope():
    P = corpus.load_corpus("interval")
    assert od.recession_slope(P, (1.0,)) == pytest.approx(-2.0, rel=1e-13)
    assert od.recession_slope(P, (-1.0,)) == pytest.approx(-2.0, rel=1e-13)


# 4-D products whose recession slopes are checked beside the corpus
SLOPE_PRODUCTS = (
    ("blowup_one", "blowup_two"),
    ("square", "square"),
    ("blowup_one", "square"),
)


@pytest.fixture(scope="module")
def slope_polytopes(polytopes):
    """The corpus and SLOPE_PRODUCTS, by name."""
    out = dict(polytopes)
    for a, b in SLOPE_PRODUCTS:
        out[f"{a}x{b}"] = product(polytopes, a, b)
    return out


def boundary_moment_slope(P, eta):
    """lim H(s eta)/s in its defining form,
    V min_P <x, eta> - (n-1)! <B, eta>, with B the exact boundary moments."""
    vmin = min(math.fsum(float(c) * e for c, e in zip(v, eta)) for v in P.vertices)
    boundary = math.fsum(
        float(b) * e for b, e in zip(lg.boundary_moment_vector(P), eta)
    )
    v = float(lg.normalized_volume(P))
    return v * vmin - math.factorial(P.dim - 1) * boundary


def test_recession_slope_matches_boundary_moment_form(slope_polytopes):
    rng = np.random.default_rng(101)
    for name, P in slope_polytopes.items():
        for _ in range(50):
            eta = rng.normal(size=P.dim)
            eta /= np.linalg.norm(eta)
            ref = boundary_moment_slope(P, eta.tolist())
            got = od.recession_slope(P, tuple(eta))
            assert got == pytest.approx(ref, rel=1e-13), (name, eta)


def test_recession_slopes_negative_everywhere(slope_polytopes):
    rng = np.random.default_rng(97)
    for name, P in slope_polytopes.items():
        for _ in range(30):
            eta = rng.normal(size=P.dim)
            eta /= np.linalg.norm(eta)
            assert od.recession_slope(P, tuple(eta)) < 0, (name, eta)


# ---------------------------------------------------------------------------
# existence certificate: H has a maximizer iff q = (n+1)/n * bary is interior


def least_slack(P):
    """1 - max_F <u_F, q>, exactly."""
    q = [Fraction(P.dim + 1, P.dim) * b for b in lg.barycenter(P)]
    return 1 - max(sum(u * t for u, t in zip(f.normal, q)) for f in P.facets)


@pytest.mark.parametrize(
    "name,slack",
    [
        ("blowup_one", Fraction(3, 4)),
        ("blowup_two", Fraction(6, 7)),
        ("blowup_onexblowup_two", Fraction(19, 24)),
    ]
    + [(name, 1) for name in corpus.BARYCENTER_ZERO],
)
def test_least_facet_slack(slope_polytopes, name, slack):
    P = slope_polytopes[name]
    assert least_slack(P) == slack
    assert od._unbounded_witness(P) is None


@pytest.mark.parametrize(
    "q,slope",
    [
        ((Fraction(1, 2), Fraction(1, 2)), 0.0),
        ((Fraction(3, 4), Fraction(3, 4)), 2 * math.sqrt(2)),
    ],
    ids=["q on the facet", "q outside"],
)
def test_unbounded_when_target_leaves_interior(monkeypatch, q, slope):
    """Moving blowup_one's q along its symmetry axis onto, then past, the
    facet <(1, 1), x> = 1 ends the run before any step, with that facet's
    witness; its slope V (<u, q> - 1)/|u| is 0, then 8 (1/2)/sqrt 2."""
    P = corpus.load_corpus("blowup_one")
    monkeypatch.setattr(
        lg, "barycenter", lambda _: tuple(Fraction(2, 3) * t for t in q)
    )
    crossed = [
        f.normal
        for f in P.facets
        if sum(c * t for c, t in zip(f.normal, q)) >= f.offset
    ]
    assert crossed == [(1, 1)]
    u = np.array([1.0, 1.0])
    res = od.maximize_h(P, keep_trace=True)
    assert res.status == "unbounded_direction"
    assert res.iterations == 0 and res.trace == []
    assert np.array_equal(res.direction, -u / np.linalg.norm(u))
    got = od.recession_slope(P, tuple(res.direction))
    assert got >= 0
    assert got == pytest.approx(slope, rel=1e-15, abs=0)


def test_recession_slope_rejects_non_unit():
    P = corpus.load_corpus("square")
    with pytest.raises(ValueError):
        od.recession_slope(P, (1.0, 1.0))


def test_recession_slope_not_odd():
    # the vertex-min term breaks the symmetry eta -> -eta on asymmetric P
    P = corpus.load_corpus("blowup_one")
    e = (1.0, 0.0)
    plus = od.recession_slope(P, e)
    minus = od.recession_slope(P, (-1.0, 0.0))
    assert plus != pytest.approx(minus, rel=1e-9)


# ---------------------------------------------------------------------------
# maximization


def test_maximize_symmetric_fixes_origin(polytopes):
    for name in ("interval", "triangle", "square", "hexagon", "cube"):
        res = od.maximize_h(polytopes[name])
        assert res.converged
        assert res.iterations == 0
        assert float(np.linalg.norm(res.xi_star)) < 1e-8
        assert res.h_star == 0.0
        assert not res.flat_direction
        assert res.hessian_max_eigenvalue < 0


def test_maximize_blowup_one():
    P = corpus.load_corpus("blowup_one")
    res = od.maximize_h(P)
    assert res.converged and res.grad_norm < 1e-9
    assert res.h_star > 0
    x, y = res.xi_star
    assert x == pytest.approx(y, abs=1e-10)  # mirror symmetry axis
    # 1-D oracle along the diagonal
    f = lambda s: inv.h_invariant(P, (s, s))
    s_star = golden_section_max(f, -1.0, 0.0)
    assert x == pytest.approx(s_star, abs=1e-6)
    assert res.h_star == pytest.approx(f(s_star), rel=1e-9)


def test_maximize_blowup_two():
    P = corpus.load_corpus("blowup_two")
    res = od.maximize_h(P)
    assert res.converged and res.h_star > 0
    x, y = res.xi_star
    assert x == pytest.approx(y, abs=1e-10)
    f = lambda s: inv.h_invariant(P, (s, s))
    s_star = golden_section_max(f, 0.0, 1.0)
    assert x == pytest.approx(s_star, abs=1e-6)


def test_maximize_grid_cross_check():
    """Coarse grid scan of H over [-0.6, 0.6]^2 locates the same basin as
    the Newton run."""
    P = corpus.load_corpus("blowup_one")
    res = od.maximize_h(P)
    grid = np.arange(-0.6, 0.6001, 0.01)
    best, best_xy = -np.inf, None
    for a in grid:
        for b in grid:
            val = inv.h_invariant(P, (a, b))
            if val > best:
                best, best_xy = val, (a, b)
    assert best <= res.h_star + 1e-12
    assert abs(best_xy[0] - res.xi_star[0]) < 0.01 + 1e-9
    assert abs(best_xy[1] - res.xi_star[1]) < 0.01 + 1e-9


def test_stationarity_identity():
    """At the maximizer, V G(xi*) = (n-1)! * boundary moment, where G is
    the Gibbs mean over P."""
    P = corpus.load_corpus("blowup_one")
    res = od.maximize_h(P)
    g = od.h_gradient(P, tuple(res.xi_star))
    assert np.max(np.abs(g)) < 1e-9


def test_final_state_bitwise_equal_to_public_gradient_and_hessian(polytopes):
    for P in polytopes.values():
        res = od.maximize_h(P)
        grad_norm = float(np.linalg.norm(od.h_gradient(P, res.xi_star)))
        top = float(np.linalg.eigvalsh(od.h_hessian(P, res.xi_star))[-1])
        assert grad_norm.hex() == res.grad_norm.hex(), P.name
        assert top.hex() == res.hessian_max_eigenvalue.hex(), P.name


def test_monotone_ascent_and_df_dominates():
    P = corpus.load_corpus("blowup_two")
    res = od.maximize_h(P, keep_trace=True)
    assert res.trace is not None and len(res.trace) >= 2
    hs = [step["h"] for step in res.trace]
    assert all(b >= a - 1e-12 for a, b in zip(hs, hs[1:]))
    for step in res.trace:
        df = inv.df_invariant(P, tuple(step["xi"]))
        assert df >= step["h"] - 1e-9
    assert inv.df_invariant(P, tuple(res.xi_star)) >= res.h_star - 1e-10


def test_failed_line_search_ends_as_max_iterations(monkeypatch):
    """A line search that never meets the Armijo condition ends the run
    where it stands, as max_iterations."""
    P = corpus.load_corpus("blowup_one")
    monkeypatch.setattr(od, "h_raw", lambda P, xi: -math.inf)
    res = od.maximize_h(P, keep_trace=True)
    assert res.status == "max_iterations" and res.iterations == 0
    assert len(res.trace) == 1 and not res.xi_star.any()
    assert res.direction is None


def test_ascent_check_failure_carries_the_iterate(monkeypatch):
    """DF below H after the first step raises NumericalCheckFailed, an
    ArithmeticError whose ``xi`` is the iterate where the check failed:
    the first step's end point."""
    P = corpus.load_corpus("blowup_one")
    first = od.maximize_h(P, max_iter=1).xi_star
    assert first.any()
    seen = []

    def below_h(P, xi):
        seen.append(xi.copy())
        return Fraction(-1)

    monkeypatch.setattr(od, "df_raw", below_h)
    with pytest.raises(NumericalCheckFailed, match="DF fell below H") as info:
        od.maximize_h(P)
    assert isinstance(info.value, ArithmeticError)
    assert len(seen) == 1
    assert info.value.xi.tolist() == seen[0].tolist() == first.tolist()


def test_trace_disabled_by_default():
    res = od.maximize_h(corpus.load_corpus("blowup_one"))
    assert res.trace is None


@pytest.mark.parametrize(
    "kwargs",
    [{"tol": math.inf}, {"tol": math.nan}, {"tol": -1e-9}, {"max_iter": -3}],
    ids=str,
)
def test_maximize_rejects_unusable_tol_and_max_iter(kwargs):
    # tol = inf would stop at xi = 0 and call blowup_one stable
    with pytest.raises(ValueError):
        od.maximize_h(corpus.load_corpus("blowup_one"), **kwargs)


def test_maximize_rejects_bad_inputs():
    P = corpus.load_corpus("interval")
    with pytest.raises(ValueError):
        od.maximize_h(P, tol=0.0)
    Q = lg.build_polytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    with pytest.raises(NotReflexive):
        od.maximize_h(Q)


# ---------------------------------------------------------------------------
# equivariance of the optimum


def test_optimum_equivariance_swap():
    P = corpus.load_corpus("blowup_one")
    A = np.array([[0, 1], [1, 0]])
    AP = lg.build_polytope([tuple(A @ np.asarray(v)) for v in P.vertices])
    res = od.maximize_h(AP)
    base = od.maximize_h(P)
    # swap is its own inverse-transpose; the diagonal optimum is fixed
    assert res.h_star == pytest.approx(base.h_star, abs=1e-10)
    assert sorted(res.xi_star) == pytest.approx(sorted(base.xi_star), abs=1e-8)


def test_optimum_equivariance_shear():
    P = corpus.load_corpus("blowup_one")
    A = np.array([[1, 1], [0, 1]])
    AP = lg.build_polytope([tuple(A @ np.asarray(v)) for v in P.vertices])
    res = od.maximize_h(AP)
    base = od.maximize_h(P)
    assert res.h_star == pytest.approx(base.h_star, abs=1e-10)
    # H_{AP}(xi) = H_P(A^T xi), so xi*_{AP} = A^{-T} xi*_P
    expected = np.linalg.solve(A.T, base.xi_star)
    assert res.xi_star == pytest.approx(expected, abs=1e-8)


# ---------------------------------------------------------------------------
# mu supremum and verdict


def test_mu_supremum_values(polytopes):
    assert od.mu_supremum(polytopes["interval"]) == pytest.approx(2.0, abs=1e-10)
    assert od.mu_supremum(polytopes["triangle"]) == pytest.approx(18.0, abs=1e-10)
    P = polytopes["blowup_one"]
    res = od.maximize_h(P)
    mu = od.mu_supremum(P, res)
    assert mu == pytest.approx(16.0 - res.h_star, abs=1e-12)
    assert mu < 2 * 8  # strictly below n V since H* > 0


def test_mu_identity_everywhere(polytopes):
    for name, P in polytopes.items():
        res = od.maximize_h(P)
        nv = P.dim * float(lg.normalized_volume(P))
        assert od.mu_supremum(P, res) + res.h_star == pytest.approx(
            nv, abs=1e-12
        ), name


def test_mu_requires_convergence():
    P = corpus.load_corpus("interval")
    fake = od.OptimizationResult(
        status="max_iterations",
        xi_star=np.zeros(1),
        h_star=0.0,
        grad_norm=1.0,
        hessian_max_eigenvalue=-1.0,
        iterations=200,
        flat_direction=False,
    )
    with pytest.raises(Inconclusive) as err:
        od.mu_supremum(P, fake)
    assert err.value.status == "max_iterations"
    # the verdict is exact data, so it needs no converged run
    v = od.h_stability_verdict(P, fake)
    assert v.stable and v.witness_xi == (0.0,) and v.h_at_witness == 0.0


def test_verdict_labels(polytopes):
    stable_names = ("interval", "triangle", "square", "hexagon", "cube")
    for name in stable_names:
        v = od.h_stability_verdict(polytopes[name])
        assert v.stable and v.label == "Hstable_wrt_product_degenerations"
        assert v.qualifier == "searched torus-product degenerations only"
        assert v.h_at_witness == 0.0
    for name in ("blowup_one", "blowup_two"):
        v = od.h_stability_verdict(polytopes[name])
        assert not v.stable and v.label == "Hunstable"
        assert v.h_at_witness > 0
        assert max(abs(c) for c in v.witness_xi) > 0.1
        assert "product degenerations" in v.description


def test_verdict_is_barycenter_zero_on_corpus(polytopes):
    for name, P in polytopes.items():
        res = od.maximize_h(P)
        v = od.h_stability_verdict(P, res)
        assert v.stable == all(b == 0 for b in lg.barycenter(P)), name
        assert v.stable == (name in corpus.BARYCENTER_ZERO), name
        assert v.witness_xi == tuple(res.xi_star.tolist()), name
        assert v.h_at_witness == res.h_star, name


def test_verdict_reads_the_exact_barycenter(monkeypatch, polytopes):
    """A barycenter of 1e-30 is unstable: no float threshold decides."""
    P = polytopes["triangle"]
    res = od.maximize_h(P)
    tiny = (Fraction(1, 10**30), Fraction(0))
    monkeypatch.setattr(lg, "barycenter", lambda _: tiny)
    v = od.h_stability_verdict(P, res)
    assert not v.stable and v.label == "Hunstable"


def test_no_flat_directions_in_corpus(polytopes):
    for name, P in polytopes.items():
        res = od.maximize_h(P)
        assert not res.flat_direction, name


# ---------------------------------------------------------------------------
# exact data computed once per object


# the 4-D products the benchmark builds from corpus vertex sets
PRODUCTS = (
    ("square", "square"),
    ("triangle", "triangle_dual"),
    ("blowup_one", "square"),
    ("blowup_one", "blowup_two"),
    ("interval", "cube"),
)


def product(polytopes, a, b):
    pts = [u + w for u in polytopes[a].vertices for w in polytopes[b].vertices]
    return lg.build_polytope(pts, name=f"{a}x{b}")


def test_verdict_is_barycenter_zero_on_products(polytopes):
    """The five 4-D products, blowup_one x blowup_two cut at five Newton
    iterations: a stalled run still gets the exact verdict, with its last
    iterate, where H > 0, as the witness."""
    for a, b in PRODUCTS:
        P = product(polytopes, a, b)
        stalled = (a, b) == ("blowup_one", "blowup_two")
        res = od.maximize_h(P, max_iter=5) if stalled else od.maximize_h(P)
        assert res.status == ("max_iterations" if stalled else "converged")
        v = od.h_stability_verdict(P, res)
        assert v.stable == all(c == 0 for c in lg.barycenter(P)), P.name
        if stalled:
            assert v.label == "Hunstable" and v.h_at_witness > 0
            assert v.witness_xi == tuple(res.xi_star.tolist())


def test_warm_polytope_takes_no_determinant(polytopes, monkeypatch):
    """Once P has a report, every simplex keeps its volume and P its
    moments: nothing further on P takes an exact determinant."""
    P = product(polytopes, "blowup_one", "square")
    xi = (0.3, -0.2, 0.1, 0.05)
    inv.build_report(P, xi)
    calls = []
    for mod in (sc, lg):
        det = mod._int_det
        monkeypatch.setattr(
            mod, "_int_det", lambda rows, det=det: calls.append(rows) or det(rows)
        )
    inv.build_report(P, (0.1, 0.2, -0.3, 0.4))
    for order in (0, 1, 2):
        sc.exp_moments(lg.triangulate(P).simplices, xi, order)
    od.h_hessian(P, xi)
    od.maximize_h(P, max_iter=2)
    assert calls == []


def test_moments_skip_the_affine_integrals(polytopes, monkeypatch):
    """volume, moment_vector and boundary_moment_vector of a fresh
    polytope come from one pass, not from per-coordinate integrals."""

    def refuse(*args):
        raise AssertionError("per-coordinate integral on the moment path")

    for name in ("interior_integral", "boundary_integral", "integral_linear_simplex"):
        monkeypatch.setattr(lg, name, refuse)
    P = product(polytopes, "triangle", "triangle_dual")
    assert lg.volume(P) == Fraction(9, 2) * Fraction(3, 2)
    assert lg.moment_vector(P) == (0, 0, 0, 0)
    assert lg.boundary_moment_vector(P) == (0, 0, 0, 0)


def bits(x):
    """x with every float spelled as float.hex, recursively."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, np.ndarray):
        return bits(x.tolist())
    if dataclasses.is_dataclass(x):
        return bits(dataclasses.astuple(x))
    if isinstance(x, (list, tuple)):
        return [bits(y) for y in x]
    return x


@pytest.mark.parametrize(
    "name", list(corpus.CORPUS_NAMES) + ["x".join(p) for p in PRODUCTS]
)
def test_warm_caches_match_cold_bit_for_bit(polytopes, name):
    """Moments, reports and Hessians from warm per-object caches equal,
    bit for bit, those from freshly built polytopes and simplices."""
    if name in polytopes:
        warm = lg.build_polytope(polytopes[name].vertices, name=name)
    else:
        warm = product(polytopes, *name.split("x"))
    n = warm.dim
    rng = random.Random(name)
    dirs = [
        tuple(scale * rng.gauss(0.0, 1.0) for _ in range(n))
        for scale in (1e-6, 1.0, 40.0)
    ]
    for xi in dirs:
        inv.build_report(warm, xi)
        od.h_hessian(warm, xi)

    def cold():
        return lg.build_polytope(warm.vertices, name=name)

    simplices = lg.triangulate(warm).simplices
    for xi in dirs:
        fresh = [sc.Simplex(vertices=s.vertices) for s in simplices]
        for order in (0, 1, 2):
            assert bits(sc.exp_moments(simplices, xi, order)) == bits(
                sc.exp_moments(fresh, xi, order)
            ), (xi, order)
        assert bits(inv.build_report(warm, xi)) == bits(inv.build_report(cold(), xi))
        assert bits(od.h_hessian(warm, xi)) == bits(od.h_hessian(cold(), xi))


@pytest.mark.parametrize(
    "a,b,calls", [("square", "square", 1), ("blowup_one", "square", 4)]
)
def test_final_state_reuses_the_last_evaluation(polytopes, monkeypatch, a, b, calls):
    """A run that ends where the loop last evaluated (square x square
    converges at iteration 0) takes no further moment pass for its final
    gradient and Hessian; blowup_one x square evaluates its four iterates
    once each."""
    P = product(polytopes, a, b)
    seen = []
    grad_hess = od._grad_hess

    def counted(*args, **kwargs):
        seen.append(None)
        return grad_hess(*args, **kwargs)

    monkeypatch.setattr(od, "_grad_hess", counted)
    got = od.maximize_h(P)
    assert len(seen) == calls == got.iterations + 1
    assert got.converged
    assert bits((got.grad_norm, got.hessian_max_eigenvalue)) == bits(
        (
            float(np.linalg.norm(od.h_gradient(P, got.xi_star))),
            float(np.linalg.eigvalsh(od.h_hessian(P, got.xi_star))[-1]),
        )
    )
