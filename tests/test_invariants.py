"""H, Donaldson-Futaki, the Jensen gap and shift invariance.

The interval gives a closed form H(xi) = -2 log(sinh(xi)/xi) used as the
main numeric oracle; everything else leans on exact rational moments and
on identities that hold by symmetry.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import hstab.invariants as inv
import hstab.lattice_geom as lg
import hstab.weight_rings as wr
from hstab import corpus
from hstab.errors import NotReflexive
from hstab.simplex_calculus import exp_moments


def interval_h(x):
    """Oracle: H on [-1,1] in direction xi = x."""
    if x == 0:
        return 0.0
    return -2 * math.log(math.sinh(x) / x)


# ---------------------------------------------------------------------------
# H


def test_interval_closed_form():
    P = corpus.load_corpus("interval")
    for x in (0.5, 1.0, 2.0, 4.0, -3.3, 0.01):
        assert inv.h_invariant(P, (x,)) == pytest.approx(
            interval_h(x), rel=1e-12, abs=1e-13
        )


def test_h_zero_direction_is_exact_zero(polytopes):
    for P in polytopes.values():
        assert inv.h_invariant(P, (0.0,) * P.dim) == 0.0


def test_h_even_on_symmetric_bodies():
    P = corpus.load_corpus("interval")
    for x in (0.3, 1.7, 4.9):
        assert inv.h_invariant(P, (x,)) == pytest.approx(
            inv.h_invariant(P, (-x,)), rel=1e-13
        )


def test_h_nonpositive_on_interval():
    # sinh(x)/x >= 1 so H <= 0 everywhere, with equality only at 0
    P = corpus.load_corpus("interval")
    for x in np.linspace(-5, 5, 41):
        assert inv.h_invariant(P, (x,)) <= 0.0


def test_h_requires_reflexive():
    Q = lg.build_polytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    with pytest.raises(NotReflexive):
        inv.h_invariant(Q, (0.1, 0.2))
    with pytest.raises(NotReflexive):
        inv.df_invariant(Q, (0.1, 0.2))


# ---------------------------------------------------------------------------
# DF


def test_df_linear_in_direction():
    P = corpus.load_corpus("blowup_one")
    base = inv.df_raw(P, (Fraction(1), Fraction(2)))
    for s in (Fraction(3), Fraction(-5, 7), Fraction(0)):
        assert inv.df_raw(P, (s, 2 * s)) == s * base


def test_df_zero_on_barycenter_zero(polytopes):
    rng = np.random.default_rng(53)
    for name in ("interval", "triangle", "square", "hexagon", "cube"):
        P = polytopes[name]
        for _ in range(5):
            xi = tuple(
                Fraction(int(k), 17) for k in rng.integers(-40, 40, size=P.dim)
            )
            assert inv.df_raw(P, xi) == 0


def test_df_blowup_one_value():
    # DF = 2 (b0 - b1) with b0 = 2/3, b1 = 1 at xi = (1,1)
    P = corpus.load_corpus("blowup_one")
    assert inv.df_raw(P, (1, 1)) == Fraction(-2, 3)
    assert inv.df_invariant(P, (1.0, 1.0)) == pytest.approx(-2 / 3, rel=1e-14)


# ---------------------------------------------------------------------------
# Jensen gap


def test_jensen_gap_zero_at_origin(polytopes):
    for P in polytopes.values():
        assert abs(inv.jensen_gap(P, (0.0,) * P.dim)) <= 1e-12


def test_jensen_gap_strictly_positive_away_from_origin(polytopes):
    rng = np.random.default_rng(59)
    for name, P in polytopes.items():
        diam = max(
            float(np.linalg.norm(np.asarray(a, float) - np.asarray(b, float)))
            for a in P.vertices
            for b in P.vertices
        )
        floor = 1e-2 / diam
        for _ in range(20):
            d = rng.normal(size=P.dim)
            d /= np.linalg.norm(d)
            r = rng.uniform(floor, 5.0)
            gap = inv.jensen_gap(P, tuple(r * d))
            assert gap > 1e-8, (name, r * d, gap)


def test_jensen_gap_never_meaningfully_negative(polytopes):
    rng = np.random.default_rng(61)
    for P in polytopes.values():
        for _ in range(50):
            xi = tuple(rng.uniform(-5, 5, size=P.dim))
            assert inv.jensen_gap(P, xi) >= -1e-9


def test_jensen_gap_is_df_minus_h():
    P = corpus.load_corpus("blowup_two")
    xi = (0.7, -0.4)
    gap = inv.jensen_gap(P, xi)
    diff = inv.df_invariant(P, xi) - inv.h_invariant(P, xi)
    assert gap == pytest.approx(diff, rel=1e-9, abs=1e-11)


# ---------------------------------------------------------------------------
# shift invariance


def test_shift_by_zero_is_trivial():
    P = corpus.load_corpus("triangle")
    chk = inv.hamiltonian_shift_check(P, (0.4, 0.9), (0, 0))
    assert chk.ok and chk.delta == 0.0 and chk.df_delta == 0.0


def test_shift_examples():
    interval = corpus.load_corpus("interval")
    chk = inv.hamiltonian_shift_check(interval, (1.0,), (5,))
    assert chk.ok and chk.delta < 1e-9 and chk.df_delta < 1e-12
    tri = corpus.load_corpus("triangle")
    chk2 = inv.hamiltonian_shift_check(tri, (0.3, -0.7), (1, 0))
    assert chk2.ok


def test_shift_sweep(polytopes):
    rng = np.random.default_rng(67)
    for name, P in polytopes.items():
        for _ in range(4):
            xi = tuple(rng.uniform(-2, 2, size=P.dim))
            u = tuple(int(k) for k in rng.integers(-4, 5, size=P.dim))
            chk = inv.hamiltonian_shift_check(P, xi, u)
            assert chk.ok, (name, xi, u, chk)


def test_shift_check_compares_df_exactly(monkeypatch):
    """The DF half compares Fractions: a difference of 1e-30, far below
    any float tolerance, fails the check."""
    P = corpus.load_corpus("triangle")
    raw = inv.df_raw
    monkeypatch.setattr(
        inv,
        "df_raw",
        lambda Q, xi: raw(Q, xi) + (0 if Q is P else Fraction(1, 10**30)),
    )
    chk = inv.hamiltonian_shift_check(P, (0.3, -0.7), (1, 0))
    assert not chk.ok and chk.delta < 1e-9 and chk.df_delta < 1e-12


def test_shift_check_requires_reflexive():
    Q = lg.build_polytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    with pytest.raises(NotReflexive):
        inv.hamiltonian_shift_check(Q, (1.0, 0.0), (1, 0))


# ---------------------------------------------------------------------------
# GL(Z) equivariance: unimodular A maps P to AP and H_{AP}(xi) = H_P(A^T xi)


UNIMODULAR = [
    np.array([[1, 1], [0, 1]]),  # shear
    np.array([[0, 1], [1, 0]]),  # swap
    np.array([[2, 1], [1, 1]]),
]


@pytest.mark.parametrize("A", UNIMODULAR, ids=["shear", "swap", "fib"])
def test_gl_equivariance(A):
    P = corpus.load_corpus("blowup_two")
    AP = lg.build_polytope([tuple(A @ np.asarray(v)) for v in P.vertices])
    assert lg.is_reflexive(AP)
    rng = np.random.default_rng(71)
    for _ in range(5):
        xi = rng.uniform(-1.5, 1.5, size=2)
        lhs = inv.h_invariant(AP, tuple(xi))
        rhs = inv.h_invariant(P, tuple(A.T @ xi))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)
        lhs_df = inv.df_invariant(AP, tuple(xi))
        rhs_df = inv.df_invariant(P, tuple(A.T @ xi))
        assert lhs_df == pytest.approx(rhs_df, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# agreement with the weight-table discretization


def test_invariants_agree_with_degree_64_tables(polytopes):
    """Protocol: H and DF recomputed from a degree-64 weight table (brute
    force c0 plus the quadratic/cubic fit for b0, b1) must agree with the
    exact values to 1 percent relative or 1 percent of n V absolute.  The
    absolute floor absorbs the O(1/m) discretization bias, which scales
    with the volume."""
    rng = np.random.default_rng(73)
    for name, P in polytopes.items():
        n = P.dim
        v = float(lg.normalized_volume(P))
        scale = 0.01 * n * v
        T = wr.weight_table_toric(P, 64)
        for _ in range(3):
            xi = rng.uniform(-0.8, 0.8, size=n)
            xi = tuple(xi)
            fit = wr.fit_b0_b1(T, xi)
            c0_bf = wr.c0_bruteforce(T, xi, 64)
            h_disc = -v * math.log(c0_bf / v) - 2 * math.factorial(n - 1) * fit.b1
            df_disc = math.factorial(n) * (fit.b0 - (2.0 / n) * fit.b1)
            h = inv.h_invariant(P, xi)
            df = inv.df_invariant(P, xi)
            assert abs(h_disc - h) <= max(0.01 * abs(h), scale), (name, xi)
            assert abs(df_disc - df) <= max(0.01 * abs(df), scale), (name, xi)


# ---------------------------------------------------------------------------
# report assembly


def test_report_zero_direction():
    P = corpus.load_corpus("hexagon")
    rep = inv.build_report(P, (0, 0))
    assert rep.h == 0.0 and rep.df == 0.0 and rep.df_exact == 0
    assert rep.jensen_gap == 0.0
    assert rep.c0 == float(lg.normalized_volume(P))
    assert rep.b0 == 0 and rep.b1 == 0


def test_report_interval_values():
    P = corpus.load_corpus("interval")
    rep = inv.build_report(P, (1.0,))
    assert rep.c0 == pytest.approx(2 * math.sinh(1), rel=1e-12)
    assert rep.h == pytest.approx(interval_h(1.0), rel=1e-12)
    assert rep.df == 0.0 and rep.df_exact == 0
    assert rep.volume == Fraction(2) and rep.normalized_volume == Fraction(2)
    assert rep.jensen_gap == pytest.approx(-rep.h, rel=1e-9)


def test_report_exact_fields_from_rational_input():
    P = corpus.load_corpus("blowup_one")
    rep = inv.build_report(P, (Fraction(1), Fraction(1)))
    assert rep.b0 == Fraction(2, 3)
    assert rep.b1 == Fraction(1)
    assert rep.df_exact == Fraction(-2, 3)
    assert rep.dim == 2 and rep.polytope_name == P.name


def test_report_huge_direction_keeps_h_finite():
    P = corpus.load_corpus("interval")
    rep = inv.build_report(P, (1200.0,))
    assert math.isinf(rep.c0)  # e^1193 has no double representation
    assert math.isfinite(rep.h)
    # sinh(x)/x ~ e^x / (2x) for large x
    assert rep.h == pytest.approx(-2 * (1200 - math.log(2400)), rel=1e-12)


@pytest.mark.parametrize(
    "xi,stage",
    [
        pytest.param((1e308, 1e308), "exp_moments node sum", id="nodes overflow"),
        pytest.param((1e300, 1e300), "i0 underflows to 0", id="mass underflows"),
    ],
)
def test_report_direction_past_double_range_is_named(xi, stage):
    """Directions whose moment pass leaves the double range raise
    ValueError naming the direction and the stage, not an OverflowError
    or a math domain error."""
    P = corpus.load_corpus("square")
    with pytest.raises(ValueError) as err:
        inv.build_report(P, xi)
    assert f"direction {xi}" in str(err.value) and stage in str(err.value)
    with pytest.raises(ValueError, match=stage):
        inv.h_invariant(P, xi)


def test_report_makes_one_moment_pass(monkeypatch):
    calls = []

    def counting(simplices, xi, order=2):
        calls.append(order)
        return exp_moments(simplices, xi, order)

    monkeypatch.setattr(inv, "exp_moments", counting)
    inv.build_report(corpus.load_corpus("blowup_one"), (0.3, -0.5))
    assert calls == [0]


def test_report_calls_b0_b1_exact_once_for_a_float_direction(monkeypatch):
    """A float direction is its own exact value, so the report reuses the
    b0/b1 of its moment pass; a 'p/q' direction needs both directions."""
    calls = []

    def counting(P, xi):
        calls.append(xi)
        return wr.b0_b1_exact(P, xi)

    monkeypatch.setattr(inv, "b0_b1_exact", counting)
    P = corpus.load_corpus("blowup_one")
    inv.build_report(P, (0.3, -0.5))
    assert len(calls) == 1
    calls.clear()
    inv.build_report(P, "1/3,-1/2".split(","))
    assert len(calls) == 2


def test_report_h_and_gap_bitwise_equal_to_public_functions(polytopes):
    """The report, h_invariant and jensen_gap read one evaluation, so they
    agree to the bit for float and for 'p/q' directions alike."""
    for P in polytopes.values():
        floats = tuple(0.37 * (-1) ** i + 0.11 * i for i in range(P.dim))
        rationals = tuple(f"{(-1) ** i * (2 + i)}/7" for i in range(P.dim))
        for xi in (floats, rationals):
            rep = inv.build_report(P, xi)
            assert rep.h.hex() == inv.h_invariant(P, xi).hex(), (P.name, xi)
            assert rep.jensen_gap.hex() == inv.jensen_gap(P, xi).hex(), (
                P.name,
                xi,
            )
