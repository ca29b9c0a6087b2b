"""Weight tables, total-weight asymptotics, c0, the Duistermaat-Heckman
sample and the weight character.

Oracles: direct per-point summation written inline (no shared code with
total_weight), hand-derived polynomial weight sums for the one-point
blow-up, product closed forms for c0 on boxes, and the uniform CDF for
the interval's DH limit.
"""

import csv
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import hstab.lattice_geom as lg
import hstab.weight_rings as wr
from hstab import corpus
from hstab.errors import (
    DegreeOutOfRange,
    EmptyDegree,
    InsufficientDegrees,
    NotReflexive,
    ParseError,
    TruncationTooCoarse,
)


def direct_weight_sum(P, xi, m):
    """Oracle: sum <alpha, xi> over lattice points of mP, exact."""
    pts = lg.lattice_points(P, m)
    xi = [Fraction(c) for c in xi]
    return sum(
        sum(Fraction(int(a)) * c for a, c in zip(row, xi))
        for row in pts.tolist()
    )


# ---------------------------------------------------------------------------
# table construction


def test_interval_degree_two_weights():
    P = corpus.load_corpus("interval")
    T = wr.weight_table_toric(P, 2)
    assert T.alphas(2).tolist() == [[-2], [-1], [0], [1], [2]]
    assert T.dims(2).tolist() == [1] * 5
    assert T.count(2) == 5


def test_triangle_first_degree_count():
    # 10 = dim of cubics in three variables, and the direct scan agrees
    P = corpus.load_corpus("triangle")
    T = wr.weight_table_toric(P, 1)
    assert T.count(1) == 10


def test_counts_match_lattice_enumeration(polytopes):
    for name, P in polytopes.items():
        T = wr.weight_table_toric(P, 4)
        for m in (1, 2, 3, 4):
            assert T.count(m) == len(lg.lattice_points(P, m)), (name, m)


def test_toric_table_enumerates_only_for_atoms(monkeypatch):
    """A toric table keeps per-degree counts and moments from the lattice
    rows: the statistics enumerate no point, each brute-force c0 and DH
    call streams its degree's blocks exactly once, and atom calls keep
    nothing."""
    calls = []
    blocks = lg._lattice_point_blocks
    monkeypatch.setattr(
        lg, "_lattice_point_blocks", lambda P, m: calls.append(m) or blocks(P, m)
    )
    P = corpus.load_corpus("blowup_two")
    T = wr.weight_table_toric(P, 128)
    xi = (0.3, -0.7)
    assert T.count(5) == len(lg.lattice_points(P, 5))
    assert T.moment(7) == tuple(int(c) for c in lg.lattice_points(P, 7).sum(axis=0))
    wr.total_weight(T, xi, 9)
    wr.fit_b0_b1(T, xi)
    wr.weight_character(T, xi, 0.3, 128)
    wr.laurent_fit(T, xi)
    assert calls == []
    wr.c0_bruteforce(T, xi, 6)
    assert calls == [6]
    wr.dh_measure(T, xi, 11)
    assert calls == [6, 11]
    wr.c0_estimate(T, xi)
    assert calls == [6, 11, 125, 126, 127, 128]
    first, again = T.alphas(3), T.alphas(3)
    assert first is not again and first.tobytes() == again.tobytes()


@pytest.mark.parametrize("name", ["interval", "hexagon", "cube"])
def test_toric_statistics_take_at_most_n_plus_one_row_passes(monkeypatch, name):
    """Every degree's count and moment comes from the Ehrhart polynomials,
    interpolated from the row sums at m = 1..n + 1: the whole table's
    statistics read the lattice rows n + 1 times, once per node."""
    rows = []
    lattice_rows = lg._lattice_rows
    monkeypatch.setattr(
        lg, "_lattice_rows", lambda P, m: rows.append(m) or lattice_rows(P, m)
    )
    P = corpus.load_corpus(name)
    T = wr.weight_table_toric(P, 128)
    xi = (0.3, -0.7, 0.2)[: P.dim]
    for m in range(1, 129):
        T.count(m), T.moment(m)
    wr.fit_b0_b1(T, xi)
    wr.weight_character(T, xi, 0.3, 128)
    wr.laurent_fit(T, xi)
    assert sorted(rows) == list(range(1, P.dim + 2))


def test_c0_estimate_is_inf_when_a_degree_overflows():
    """The four top-degree sums are inf, which the alternating Lagrange
    weights of the extrapolation would turn into nan."""
    T = wr.weight_table_toric(corpus.load_corpus("square"), 8)
    xi = (-709.5, 0)
    assert all(wr.c0_bruteforce(T, xi, m) == math.inf for m in range(5, 9))
    assert wr.c0_estimate(T, xi) == math.inf


def test_toric_table_requires_reflexive():
    P = lg.build_polytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    with pytest.raises(NotReflexive):
        wr.weight_table_toric(P, 2)


def test_weight_bound_invariant(polytopes):
    """A toric table's C^2 is its largest squared vertex norm, which every
    degree's weights attain at m times that vertex."""
    for P in polytopes.values():
        T = wr.weight_table_toric(P, 6)
        assert T.weight_bound_sq == max(sum(Fraction(c) ** 2 for c in v) for v in P.vertices)
        for m in (1, 3, 6):
            alphas = T.alphas(m)
            worst = int(np.max(np.sum(alphas * alphas, axis=1)))
            assert Fraction(worst) == T.weight_bound_sq * m * m


def test_external_weight_bound_is_the_largest_row_ratio(tmp_path):
    """An external table's C^2 is the largest |alpha|^2/m^2 over its rows,
    whichever degree holds it."""
    path = tmp_path / "t.csv"
    path.write_text("m,a1,a2,dim\n1,1,0,1\n2,0,0,2\n2,3,1,1\n3,2,-2,3\n")
    assert wr.load_weight_table(path).weight_bound_sq == Fraction(10, 4)


@pytest.mark.parametrize(
    "text,count,moment,bound_sq",
    [
        # |alpha|^2 = 1.6e19 leaves int64
        ("m,a1,a2,dim\n1,0,0,1\n1,4000000000,0,1\n", 2, (4 * 10**9, 0), 16 * 10**18),
        # |int64 min| is not an int64, nor is the moment
        ("m,a1,a2,dim\n1,-9223372036854775808,0,1\n1,-1,0,1\n", 2, (-(2**63) - 1, 0), 2**126),
        # N_1 = 2^63
        ("m,a1,dim\n1,0,4611686018427387904\n1,1,4611686018427387904\n", 2**63, (2**62,), 1),
    ],
    ids=["norm_square", "int64_min", "count"],
)
def test_external_statistics_exact_beyond_int64(tmp_path, text, count, moment, bound_sq):
    """Rows that int64 holds but whose squares, moments or counts it does
    not read exactly, through both CSV readers ('+1' sends a file to the
    per-field one)."""
    for body in (text, text.replace("\n1,", "\n+1,")):
        path = tmp_path / "big.csv"
        path.write_text(body)
        T = wr.load_weight_table(path)
        assert (T.count(1), T.moment(1), T.weight_bound_sq) == (count, moment, bound_sq)
    if T.dim == 2:
        D = wr.dh_measure(T, (1.0, 0.0), 1)
        assert D.masses.tolist() == [0.5, 0.5]


def test_degree_gating():
    T = wr.weight_table_toric(corpus.load_corpus("interval"), 3)
    with pytest.raises(DegreeOutOfRange):
        T.alphas(4)
    with pytest.raises(DegreeOutOfRange):
        T.count(0)
    with pytest.raises(ValueError):
        T.dims(1.5)


def test_degree_accepts_numpy_integers_and_refuses_bools():
    """The table's degree test is lattice_geom's, for m and for m_max
    alike: a numpy integer is a degree, a bool is not."""
    P = corpus.load_corpus("hexagon")
    for bad in (True, np.bool_(True)):
        with pytest.raises(ValueError, match="m_max must be a positive integer"):
            wr.weight_table_toric(P, bad)
    T = wr.weight_table_toric(P, np.int64(8))
    assert T.m_max == 8 and T.count(8) == len(lg.lattice_points(P, 8))
    T = wr.weight_table_toric(P, 4)
    assert T.count(np.int64(2)) == T.count(2)
    assert T.alphas(np.int32(3)).tobytes() == T.alphas(3).tobytes()
    for bad in (True, np.bool_(True)):
        with pytest.raises(ValueError, match="degree must be an integer"):
            T.count(bad)
        with pytest.raises(ValueError, match="degree must be an integer"):
            T.alphas(bad)


def test_toric_dims_enumerate_nothing(monkeypatch):
    """dims(m) on a toric table is N_m ones from the count; alphas(m) still
    enumerates and checks the enumeration against the count."""
    P = corpus.load_corpus("blowup_two")
    T = wr.weight_table_toric(P, 8)
    want = len(lg.lattice_points(P, 8))
    points = lg.lattice_points
    monkeypatch.setattr(lg, "lattice_points", lambda *a: pytest.fail("enumerated"))
    dims = T.dims(8)
    assert dims.dtype == np.int64 and dims.tolist() == [1] * want
    monkeypatch.setattr(lg, "lattice_points", points)
    stats = lg.lattice_stats
    monkeypatch.setattr(
        lg, "lattice_stats", lambda P, m: stats(P, m)._replace(count=stats(P, m).count + 1)
    )
    T = wr.weight_table_toric(P, 8)
    with pytest.raises(ValueError, match="enumerated"):
        T.alphas(3)
    with pytest.raises(ValueError, match="enumerated"):
        T.atoms(3)


# ---------------------------------------------------------------------------
# csv interchange


def test_csv_roundtrip(tmp_path):
    P = corpus.load_corpus("blowup_one")
    T = wr.weight_table_toric(P, 5)
    path = tmp_path / "t.csv"
    wr.save_weight_table(T, path)
    T2 = wr.load_weight_table(path)
    assert T2.dim == T.dim and T2.m_max == T.m_max
    for m in range(1, 6):
        assert (T2.alphas(m) == T.alphas(m)).all()
        assert (T2.dims(m) == T.dims(m)).all()
    assert T2.weight_bound <= T.weight_bound + 1e-12


def csv_writer_table(T, path):
    """save_weight_table as it was written before the block writer: one
    csv.writer row per weight."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m"] + [f"a{i + 1}" for i in range(T.dim)] + ["dim"])
        for m in range(1, T.m_max + 1):
            alphas, dims = T.atoms(m)
            for alpha, d in zip(alphas.tolist(), dims.tolist()):
                writer.writerow([m] + alpha + [d])


@pytest.mark.parametrize("name,depth", [("blowup_two", 40), ("cube", 9), ("interval", 40)])
def test_save_matches_csv_writer_bytes(tmp_path, name, depth):
    """The block writer's bytes equal the csv.writer loop's, negative
    coordinates included (the cube), and so do those of a table read back."""
    T = wr.weight_table_toric(corpus.load_corpus(name), depth)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    wr.save_weight_table(T, got)
    csv_writer_table(T, want)
    assert got.read_bytes() == want.read_bytes()
    wr.save_weight_table(wr.load_weight_table(want), got)
    assert got.read_bytes() == want.read_bytes()


def test_csv_errors(tmp_path):
    def load(text):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        return wr.load_weight_table(p)

    with pytest.raises(ParseError) as err:
        load("m,a1,dim\n1,0,1\n2,x,1\n")
    assert "line 3" in str(err.value)

    with pytest.raises(ParseError) as err:
        load("m,a1,dim\n1,0,0\n")
    assert "line 2" in str(err.value)  # zero multiplicity row

    with pytest.raises(ParseError):
        load("m,a1\n1,0\n")  # header without dim column

    with pytest.raises(ParseError) as err:
        load("m,a1,dim\n1,0,1\n1,0,2\n")
    assert "duplicate" in str(err.value)

    with pytest.raises(ParseError):
        load("m,a1,dim\n1,0,1,9\n")  # ragged row

    with pytest.raises(EmptyDegree):
        load("m,a1,dim\n1,0,1\n3,0,1\n")  # degree 2 missing

    with pytest.raises(EmptyDegree) as err:
        load("m,a1,dim\n4,0,1\n1,0,1\n")  # the first missing degree is named
    assert "m = 2" in str(err.value)

    with pytest.raises(ParseError):
        load("m,a1,dim\n")  # no rows

    with pytest.raises(ParseError) as err:
        load("m,a1,dim\n1,-1,1\n1,0,1\n1,1,1\n2,0,1\n")
    assert "smaller" in str(err.value)  # N_m must not drop

    # files the one-pass reader refuses go field by field, so each error
    # names the first offending line
    for body, line, message in [
        ("1,0,1\n2,0,1,9\n", 3, "row has 4 fields, expected 3"),
        ("1,0,1\n2,1.0,1\n", 3, "weight entry '1.0' is not an integer"),
        ("1,0,1\n2,-,1\n", 3, "weight entry '-' is not an integer"),
        ("1,0,1\n0,0,1\n", 3, "degree m = 0 must be >= 1"),
        ("1,0,1\n2,0,0\n", 3, "multiplicity 0 must be >= 1"),
        ("1,0,1\n2,0,1\n2,0,2\n", 4, "duplicate row for m = 2, alpha = (0,)"),
        ("2,0,1\n1,0,1\n1,0,1\n", 4, "duplicate row for m = 1, alpha = (0,)"),
    ]:
        with pytest.raises(ParseError) as err:
            load("m,a1,dim\n" + body)
        assert str(err.value) == f"line {line}: {message}"


def test_csv_plain_file_parsed_in_one_pass(tmp_path, monkeypatch):
    """A file in save_weight_table's form never reaches the per-field
    parser, and the table read back is the one written."""
    calls = []
    parse = wr._parse_int
    monkeypatch.setattr(
        wr, "_parse_int", lambda *args: calls.append(args) or parse(*args)
    )
    T = wr.weight_table_toric(corpus.load_corpus("blowup_two"), 12)
    path = tmp_path / "t.csv"
    wr.save_weight_table(T, path)
    T2 = wr.load_weight_table(path)
    assert calls == []
    assert T2.weight_bound_sq == T.weight_bound_sq
    for m in range(1, 13):
        assert T2.alphas(m).tobytes() == T.alphas(m).tobytes()
        assert T2.dims(m).tolist() == [1] * T.count(m)
        assert T2.moment(m) == T.moment(m)


def test_csv_blank_lines_and_order_insensitive(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("m,a1,dim\n2,1,1\n\n1,0,2\n2,-1,1\n")
    T = wr.load_weight_table(p)
    assert T.m_max == 2
    assert T.alphas(2).tolist() == [[-1], [1]]
    assert T.dims(1).tolist() == [2]
    # whitespace, '+' and CRLF line ends are accepted by int() and the csv
    # module, so they read the same
    loose = tmp_path / "loose.csv"
    loose.write_bytes(b"m, a1 ,dim\r\n2, +1,1\r\n1,0 ,2\r\n\r\n2,-1,1\r\n")
    T2 = wr.load_weight_table(loose)
    for m in (1, 2):
        assert T2.alphas(m).tolist() == T.alphas(m).tolist()
        assert T2.dims(m).tolist() == T.dims(m).tolist()


# ---------------------------------------------------------------------------
# total weight


def test_total_weight_symmetric_cases(polytopes):
    T = wr.weight_table_toric(polytopes["interval"], 6)
    for m in range(1, 7):
        assert wr.total_weight(T, (0.37,), m) == 0
    T3 = wr.weight_table_toric(polytopes["triangle"], 2)
    assert wr.total_weight(T3, (1, 0), 1) == 0
    assert wr.total_weight(T3, (0, 0), 2) == 0


def test_total_weight_exact_vs_direct_sum(polytopes):
    xi = (Fraction(1), Fraction(1))
    for name in ("blowup_one", "blowup_two"):
        P = polytopes[name]
        T = wr.weight_table_toric(P, 6)
        for m in range(1, 7):
            got = wr.total_weight(T, xi, m)
            assert isinstance(got, Fraction)
            assert got == direct_weight_sum(P, xi, m), (name, m)


def test_blowup_one_weight_sum_closed_form():
    # w(m) = (2/3)m^3 + m^2 + m/3 at xi = (1,1), derived by summing the
    # two coordinates' Ehrhart-weighted sums by hand
    P = corpus.load_corpus("blowup_one")
    T = wr.weight_table_toric(P, 8)
    for m in range(1, 9):
        expected = Fraction(2, 3) * m**3 + m**2 + Fraction(m, 3)
        assert wr.total_weight(T, (1, 1), m) == expected


def test_total_weight_float_path_close_to_exact():
    P = corpus.load_corpus("blowup_two")
    T = wr.weight_table_toric(P, 8)
    exact = wr.total_weight(T, (Fraction(1, 3), Fraction(-2, 7)), 8)
    feval = wr.total_weight(T, (1 / 3, -2 / 7), 8)
    assert feval == pytest.approx(float(exact), rel=1e-12)


def test_translate_conjugation_exact(polytopes):
    """Moving P by u adds m <u, xi> N_m to the degree-m weight sum."""
    xi = (Fraction(2, 3), Fraction(-1, 2))
    u = (1, -2)
    for name in ("square", "blowup_one", "hexagon"):
        P = polytopes[name]
        T = wr.weight_table_toric(P, 5)
        Tu = wr._ToricTable(lg.translate(P, u), 5)
        du = sum(Fraction(a) * b for a, b in zip(u, xi))
        for m in range(1, 6):
            lhs = wr.total_weight(Tu, xi, m)
            rhs = wr.total_weight(T, xi, m) + m * du * T.count(m)
            assert lhs == rhs, (name, m)


# ---------------------------------------------------------------------------
# b0, b1


def test_b0_b1_exact_values():
    interval = corpus.load_corpus("interval")
    assert wr.b0_b1_exact(interval, (1,)) == (0, 0)
    tri = corpus.load_corpus("triangle")
    assert wr.b0_b1_exact(tri, (1, 1)) == (0, 0)
    assert wr.b0_b1_exact(tri, (0, 0)) == (0, 0)
    dp1 = corpus.load_corpus("blowup_one")
    b0, b1 = wr.b0_b1_exact(dp1, (1, 1))
    assert (b0, b1) == (Fraction(2, 3), Fraction(1))


def test_fit_b0_b1_matches_exact():
    rng = np.random.default_rng(31)
    for name in ("blowup_one", "blowup_two"):
        P = corpus.load_corpus(name)
        T = wr.weight_table_toric(P, 64)
        for _ in range(3):
            xi = tuple(rng.uniform(-1, 1, size=2))
            fit = wr.fit_b0_b1(T, xi)
            b0, b1 = wr.b0_b1_exact(P, xi)
            assert fit.b0 == pytest.approx(float(b0), rel=1e-3, abs=1e-10)
            assert fit.b1 == pytest.approx(float(b1), rel=1e-2, abs=1e-8)
            assert fit.residual < 1e-6


def test_fit_b0_b1_zero_cases():
    T = wr.weight_table_toric(corpus.load_corpus("interval"), 16)
    fit = wr.fit_b0_b1(T, (0.83,))
    assert fit == (0.0, 0.0, 0.0)
    fit0 = wr.fit_b0_b1(T, (0.0,))
    assert fit0 == (0.0, 0.0, 0.0)


def test_fit_b0_b1_needs_degrees():
    T = wr.weight_table_toric(corpus.load_corpus("interval"), 7)
    with pytest.raises(InsufficientDegrees):
        wr.fit_b0_b1(T, (1.0,))


# ---------------------------------------------------------------------------
# c0


def test_c0_bruteforce_small_cases():
    P = corpus.load_corpus("interval")
    T = wr.weight_table_toric(P, 10)
    assert wr.c0_bruteforce(T, (1.0,), 1) == pytest.approx(
        math.e + 1 + 1 / math.e, rel=1e-15
    )
    assert wr.c0_bruteforce(T, (0.0,), 10) == pytest.approx(2.1, rel=1e-15)


def fsum_cases():
    """Wide dynamic ranges, subnormals, cancellations, half-ulp ties, inf,
    nan and overflow, as float arrays."""
    rng = np.random.default_rng(53)
    cases = [
        [1.0, 2.0**-53],
        [1.0, 2.0**-53, 2.0**-106],
        [1.0, 2.0**-53, -(2.0**-160)],
        [1e308, 1e308],
        [1e308, -1e308, 1e308],
        [math.inf, 1.0],
        [math.nan],
        [],
    ]
    for _ in range(500):
        n = int(rng.integers(1, 80))
        cases.append(rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n))
        cases.append(np.exp(rng.uniform(-700, 700, n)) * rng.integers(1, 4, n))
        cases.append(rng.integers(-(2**53), 2**53, n) * 2.0 ** rng.integers(-1100, 960, n))
        cases.append(rng.standard_normal(n) * 5e-324 * rng.integers(1, 1000, n))
    return [np.array(values, dtype=float) for values in cases]


def fsum_outcome(fn, values):
    try:
        return repr(fn(values))
    except (OverflowError, ValueError) as exc:
        return repr(exc)


def test_fsum_matches_math_fsum_bit_for_bit():
    """_fsum is the correctly rounded sum, as math.fsum is: equal bits on
    wide dynamic ranges, subnormals, cancellations and half-ulp ties, and
    the same answer or error on inf, nan and overflow."""
    for arr in fsum_cases():
        assert fsum_outcome(wr._fsum, arr) == fsum_outcome(math.fsum, arr.tolist()), arr


def test_blocked_fsum_matches_fsum_of_the_concatenation():
    """Cut at random boundaries, empty blocks included, every case sums to
    the bits of _fsum over the whole array, or raises the same error."""
    rng = np.random.default_rng(59)
    for arr in fsum_cases():
        for _ in range(3):
            cuts = np.sort(rng.integers(0, arr.size + 1, int(rng.integers(0, 6))))
            blocks = np.split(arr, cuts)
            got = fsum_outcome(lambda b: wr._fsum_blocks(lambda: iter(b)), blocks)
            assert got == fsum_outcome(wr._fsum, arr), (arr, cuts)


def test_c0_bruteforce_converges_to_exact():
    P = corpus.load_corpus("interval")
    T = wr.weight_table_toric(P, 64)
    got = wr.c0_bruteforce(T, (1.0,), 64)
    assert abs(got - 2 * math.sinh(1)) < 0.02 * 2 * math.sinh(1)


def test_c0_exact_values(polytopes):
    for P in polytopes.values():
        v = float(lg.normalized_volume(P))
        assert wr.c0_exact(P, (0.0,) * P.dim) == pytest.approx(v, rel=1e-13)
    interval = polytopes["interval"]
    assert wr.c0_exact(interval, (1.0,)) == pytest.approx(
        2 * math.sinh(1), rel=1e-12
    )
    assert wr.c0_exact(interval, (0.75,)) == pytest.approx(
        wr.c0_exact(interval, (-0.75,)), rel=1e-13
    )


def test_c0_exact_product_closed_forms():
    """Boxes factor: c0 = n! prod_i 2 sinh(xi_i)/xi_i, an oracle that never
    touches the divided-difference code."""
    square = corpus.load_corpus("square")
    cube = corpus.load_corpus("cube")
    rng = np.random.default_rng(37)
    for _ in range(10):
        x = rng.uniform(-2.5, 2.5, size=3)
        x[np.abs(x) < 1e-3] = 0.5
        s2 = 2 * (2 * math.sinh(x[0]) / x[0]) * (2 * math.sinh(x[1]) / x[1])
        assert wr.c0_exact(square, tuple(x[:2])) == pytest.approx(s2, rel=1e-11)
        s3 = 6.0
        for c in x:
            s3 *= 2 * math.sinh(c) / c
        assert wr.c0_exact(cube, tuple(x)) == pytest.approx(s3, rel=1e-11)


def test_c0_lipschitz_examples():
    P = corpus.load_corpus("interval")
    chk = wr.c0_lipschitz_check(P, (0.4,), (0.4,))
    assert chk.ok and chk.actual == 0
    assert wr.c0_lipschitz_check(P, (0.0,), (0.1,)).ok


def test_c0_lipschitz_sweep(polytopes):
    rng = np.random.default_rng(41)
    for name in ("interval", "triangle", "blowup_two"):
        P = polytopes[name]
        for _ in range(100):
            a = rng.uniform(-3, 3, size=P.dim)
            b = rng.uniform(-3, 3, size=P.dim)
            chk = wr.c0_lipschitz_check(P, tuple(a), tuple(b))
            assert chk.ok, (name, a, b, chk)


def test_c0_estimate_extrapolates():
    P = corpus.load_corpus("blowup_one")
    T = wr.weight_table_toric(P, 64)
    xi = (0.6, -0.2)
    est = wr.c0_estimate(T, xi)
    assert est == pytest.approx(wr.c0_exact(P, xi), rel=1e-6)
    small = wr.weight_table_toric(P, 3)
    with pytest.raises(InsufficientDegrees):
        wr.c0_estimate(small, xi)


def oneshot_c0_bruteforce(T, xi, m):
    """c0_bruteforce as it was before the degree was streamed in blocks:
    every term of the degree at once, summed by math.fsum."""
    xf = wr.as_float_vector(xi, T.dim)
    alphas, dims = T.atoms(m)
    with np.errstate(over="ignore"):
        terms = np.exp(-(alphas @ xf) / m) * dims
    return math.factorial(T.dim) / float(m) ** T.dim * math.fsum(terms.tolist())


def oneshot_dh_measure(T, xi, m):
    """dh_measure's (lambdas, masses) as they were before the degree was
    streamed in blocks: one product, one inverse and np.add.at."""
    xf = wr.as_float_vector(xi, T.dim)
    alphas, dims = T.atoms(m)
    lambdas = (alphas @ xf) / m
    uniq, inverse = np.unique(lambdas, return_inverse=True)
    weights = np.zeros(uniq.shape[0], dtype=np.int64)
    np.add.at(weights, inverse, dims)
    return uniq, weights / int(np.sum(dims))


def assert_streamed_statistics_match_oneshot(T, m, directions):
    for xi in directions:
        got = wr.c0_bruteforce(T, xi, m)
        assert got.hex() == oneshot_c0_bruteforce(T, xi, m).hex(), xi
        D = wr.dh_measure(T, xi, m)
        lambdas, masses = oneshot_dh_measure(T, xi, m)
        assert D.lambdas.tobytes() == lambdas.tobytes(), xi
        assert D.masses.tobytes() == masses.tobytes(), xi


def stream_directions(n, seed):
    rng = np.random.default_rng(seed)
    return [
        (0.0,) * n,
        (0.01,) + (0.0,) * (n - 2) + (-0.01,) * (n > 1),
        tuple(rng.uniform(-2, 2, n)),
        tuple(rng.uniform(-300, 300, n)),
    ]


@pytest.mark.parametrize("name", corpus.CORPUS_NAMES)
def test_streamed_statistics_bitwise_equal_to_oneshot(polytopes, name):
    """c0_bruteforce and dh_measure at each corpus table's top degree (the
    benchmark's depths: 32 for the cube, 128 otherwise) give the bits of
    the whole-degree computation."""
    P = polytopes[name]
    depth = 32 if P.dim == 3 else 128
    T = wr.weight_table_toric(P, depth)
    assert_streamed_statistics_match_oneshot(T, depth, stream_directions(P.dim, 61))


def test_streamed_statistics_bitwise_equal_to_oneshot_on_csv(tmp_path):
    """An external table whose degree 2 spans three blocks, with
    multiplicities 1..4, streams views of its stored rows to the same bits."""
    side = 371  # 371^2 = 137641 rows > 2 * 2^16
    assert side * side > 2 * lg._BLOCK_POINTS
    grid = np.stack(np.meshgrid(np.arange(side), np.arange(side), indexing="ij"), -1)
    alphas = grid.reshape(-1, 2) - side // 2
    dims = 1 + (alphas[:, 0] * 7 + alphas[:, 1] * 3) % 4
    path = tmp_path / "wide.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("m,a1,a2,dim\n1,0,0,1\n")
        fh.writelines(f"2,{a},{b},{d}\n" for (a, b), d in zip(alphas.tolist(), dims.tolist()))
    T = wr.load_weight_table(path)
    assert T.m_max == 2 and T.count(2) == int(dims.sum())
    assert len(list(T._atom_blocks(2))) == 3
    assert_streamed_statistics_match_oneshot(T, 2, stream_directions(2, 67))


def test_streamed_statistics_stay_below_a_block_budget():
    """On the cube at depth 32 (274,625 points, 6.6 MB as int64) neither
    statistic builds the whole degree: traced peaks below 4 MiB for
    c0_bruteforce and 8 MiB for dh_measure (the whole-degree code peaked
    at 16.8 and 21.2 MiB)."""
    import tracemalloc

    T = wr.weight_table_toric(corpus.load_corpus("cube"), 32)
    xi = (0.3, -0.5, 0.2)
    T.count(32)  # the degree's exact statistics, kept by the table
    for fn, budget in ((wr.c0_bruteforce, 4), (wr.dh_measure, 8)):
        tracemalloc.start()
        try:
            fn(T, xi, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget * 2**20, (fn.__name__, peak)


def test_c0_bruteforce_beyond_the_double_range_is_inf():
    """The terms are positive, so a sum past the largest double is inf
    (its correctly rounded value), while _fsum keeps math.fsum's error."""
    T = wr.weight_table_toric(corpus.load_corpus("square"), 8)
    assert wr.c0_bruteforce(T, (709.5, 0), 8) == math.inf  # finite terms
    assert wr.c0_bruteforce(T, (900, 0), 8) == math.inf  # exp overflows
    assert math.isfinite(wr.c0_bruteforce(T, (700, 0), 8))
    with pytest.raises(OverflowError):
        wr._fsum(np.array([1e308, 1e308]))


# ---------------------------------------------------------------------------
# Duistermaat-Heckman sample


def test_dh_interval_degree_two():
    T = wr.weight_table_toric(corpus.load_corpus("interval"), 2)
    s = wr.dh_measure(T, (1.0,), 2)
    assert s.lambdas.tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert s.masses.tolist() == [0.2] * 5


def test_dh_zero_direction_single_atom(polytopes):
    for P in polytopes.values():
        T = wr.weight_table_toric(P, 3)
        s = wr.dh_measure(T, (0.0,) * P.dim, 3)
        assert s.lambdas.tolist() == [0.0]
        assert s.masses.tolist() == [1.0]


def test_dh_masses_sum_and_support(polytopes):
    rng = np.random.default_rng(43)
    for P in polytopes.values():
        T = wr.weight_table_toric(P, 8)
        xi = tuple(rng.uniform(-2, 2, size=P.dim))
        s = wr.dh_measure(T, xi, 8)
        assert math.fsum(s.masses.tolist()) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(s.lambdas)) <= s.weight_bound + 1e-12


def test_dh_sample_checks_survive_python_O():
    """The DHSample invariants are explicit raises, not asserts, so they
    hold under python -O, which strips assert statements."""
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from hstab.weight_rings import DHSample\n"
        "try:\n"
        "    DHSample(level=1, lambdas=np.array([0.0]),\n"
        "             masses=np.array([0.5]), weight_bound=1.0)\n"
        "except ValueError as exc:\n"
        "    print('raised', exc, sys.flags.optimize)\n"
    )
    src = os.path.dirname(os.path.dirname(wr.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised masses must sum to 1 1"


def test_dh_sample_rejects_support_beyond_bound():
    with pytest.raises(ValueError, match="weight bound"):
        wr.DHSample(
            level=1,
            lambdas=np.array([2.0]),
            masses=np.array([1.0]),
            weight_bound=1.0,
        )


def test_dh_interval_cdf_close_to_uniform():
    """At xi = 1 the pushforward of uniform measure on [-1,1] is uniform
    on [-1,1]; the degree-64 sample's CDF must be within 0.02 of
    (lambda+1)/2 in sup norm."""
    T = wr.weight_table_toric(corpus.load_corpus("interval"), 64)
    s = wr.dh_measure(T, (1.0,), 64)
    cdf = np.cumsum(s.masses)
    target = (s.lambdas + 1) / 2
    assert np.max(np.abs(cdf - target)) < 0.02


def test_dh_exp_moment_values():
    T = wr.weight_table_toric(corpus.load_corpus("interval"), 64)
    assert wr.dh_exp_moment(wr.dh_measure(T, (0.0,), 64)) == pytest.approx(
        1.0, rel=1e-14
    )
    got = wr.dh_exp_moment(wr.dh_measure(T, (1.0,), 64))
    assert abs(got - math.sinh(1)) < 0.01 * math.sinh(1)


def test_dh_regrouping_identity(polytopes):
    """dh_exp_moment recombines to c0_bruteforce exactly (same sum in a
    different grouping)."""
    rng = np.random.default_rng(47)
    for name, P in polytopes.items():
        n = P.dim
        T = wr.weight_table_toric(P, 8)
        for m in (3, 8):
            xi = tuple(rng.uniform(-2, 2, size=n))
            s = wr.dh_measure(T, xi, m)
            lhs = wr.dh_exp_moment(s) * math.factorial(n) * T.count(m) / m**n
            rhs = wr.c0_bruteforce(T, xi, m)
            assert lhs == pytest.approx(rhs, rel=1e-12), (name, m)


# ---------------------------------------------------------------------------
# weight character


def test_character_zero_cases():
    T = wr.weight_table_toric(corpus.load_corpus("interval"), 16)
    for t in (0.2, 0.5, 1.0):
        assert wr.weight_character(T, (1.0,), t, 16) == 0.0
        assert wr.weight_character(T, (0.0,), t, 16) == 0.0


def test_character_requires_positive_t():
    T = wr.weight_table_toric(corpus.load_corpus("interval"), 4)
    with pytest.raises(ValueError):
        wr.weight_character(T, (1.0,), 0.0, 4)
    with pytest.raises(ValueError):
        wr.weight_character(T, (1.0,), -0.3, 4)
    with pytest.raises(DegreeOutOfRange):
        wr.weight_character(T, (1.0,), 0.5, 5)


def test_character_reproducible_and_matches_direct_sum():
    P = corpus.load_corpus("blowup_one")
    T = wr.weight_table_toric(P, 64)
    xi = (1.0, 1.0)
    a = wr.weight_character(T, xi, 0.2, 64)
    b = wr.weight_character(wr.weight_table_toric(P, 64), xi, 0.2, 64)
    assert a == b  # deterministic down to the bit
    direct = math.fsum(
        math.exp(-0.2 * m) * float(wr.total_weight(T, (1, 1), m))
        for m in range(1, 65)
    )
    assert a == pytest.approx(direct, rel=1e-12)


def test_laurent_fit_recovers_coefficients():
    for name in ("blowup_one", "blowup_two"):
        P = corpus.load_corpus(name)
        T = wr.weight_table_toric(P, 128)
        xi = (1.0, 1.0)
        fit = wr.laurent_fit(T, xi)
        b0, b1 = wr.b0_b1_exact(P, xi)
        assert abs(fit.b0 - float(b0)) < 0.01 * abs(float(b0)), name
        assert abs(fit.b1 - float(b1)) < 0.05 * abs(float(b1)), name


def test_laurent_fit_zero_cases():
    T = wr.weight_table_toric(corpus.load_corpus("interval"), 128)
    fit = wr.laurent_fit(T, (1.0,))
    assert abs(fit.b0) < 1e-8 and abs(fit.b1) < 1e-8
    fit0 = wr.laurent_fit(T, (0.0,))
    assert fit0 == (0.0, 0.0)


def test_laurent_fit_truncation_gate():
    T = wr.weight_table_toric(corpus.load_corpus("blowup_one"), 64)
    with pytest.raises(TruncationTooCoarse) as err:
        wr.laurent_fit(T, (1.0, 1.0))
    assert err.value.required_m_max == wr.laurent_required_m_max() == 93


def test_direction_coercion_errors():
    T = wr.weight_table_toric(corpus.load_corpus("square"), 2)
    with pytest.raises(ValueError):
        wr.total_weight(T, (1.0,), 1)  # wrong length
    with pytest.raises(ValueError):
        wr.c0_bruteforce(T, (1.0, float("inf")), 1)


@pytest.mark.parametrize("xi,m", [((1e308, -1e308), 2), ((1e306, 1e306), 6)])
def test_total_weight_names_a_sum_past_the_double_range(xi, m):
    """A float weight sum that overflows, or meets inf - inf, is named by
    its degree and direction instead of by math.fsum's own text."""
    T = wr.weight_table_toric(corpus.load_corpus("blowup_one"), 8)
    text = (
        f"direction {xi}: the weight sum at degree {m} leaves the double "
        "range in total_weight"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        wr.total_weight(T, xi, m)
    assert math.isfinite(wr.total_weight(T, xi, 1))


def per_t_weight_character(T, xf, t, m_cut):
    """weight_character as it was written before ``_character_sum``."""
    return math.fsum(
        math.exp(-t * m) * wr.total_weight(T, xf, m) for m in range(1, m_cut + 1)
    )


def per_t_laurent_fit(T, xi):
    """laurent_fit as it was before the weights were shared: each usable t
    recomputed every w_m through the character."""
    usable = [
        t
        for t in wr.LAURENT_T_SAMPLES
        if math.exp(-t * T.m_max) < wr.LAURENT_TRUNCATION
    ]
    n = T.dim
    xf = wr.as_float_vector(xi, n)
    ts = np.array(usable, dtype=float)
    y = np.array(
        [t ** (n + 2) * per_t_weight_character(T, xf, t, T.m_max) for t in usable]
    )
    X = np.stack([np.ones_like(ts), ts, ts**2], axis=1)
    coeffs, *_ = np.linalg.lstsq(X, y, rcond=None)
    return wr.LaurentFit(
        b0=float(coeffs[0] / math.factorial(n + 1)),
        b1=float(coeffs[1] / math.factorial(n)),
    )


def laurent_directions(n):
    return [
        (1.0,) * n,
        tuple(0.3 * (-1) ** i for i in range(n)),
        (-2.0,) + (1 / 3,) * (n - 1),
    ]


def assert_laurent_matches_per_t(T):
    for xi in laurent_directions(T.dim):
        xf = wr.as_float_vector(xi, T.dim)
        for t in wr.LAURENT_T_SAMPLES:
            got = wr.weight_character(T, xi, t, T.m_max)
            assert got.hex() == per_t_weight_character(T, xf, t, T.m_max).hex()
        if T.m_max < wr.laurent_required_m_max():
            with pytest.raises(TruncationTooCoarse):
                wr.laurent_fit(T, xi)
            continue
        got, want = wr.laurent_fit(T, xi), per_t_laurent_fit(T, xi)
        assert [v.hex() for v in got] == [v.hex() for v in want], xi


@pytest.mark.parametrize("depth", [48, 128])
@pytest.mark.parametrize("name", corpus.CORPUS_NAMES)
def test_laurent_fit_bitwise_equal_to_per_t_loop(polytopes, name, depth):
    assert_laurent_matches_per_t(wr.weight_table_toric(polytopes[name], depth))


def test_laurent_fit_bitwise_equal_to_per_t_loop_on_csv(tmp_path):
    """An asymmetric external table: weights k = -m..2m with multiplicity
    1 + (k mod 3 == 0), so every w_m is nonzero."""
    path = tmp_path / "lopsided.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("m,a1,dim\n")
        for m in range(1, 129):
            fh.writelines(f"{m},{k},{1 + (k % 3 == 0)}\n" for k in range(-m, 2 * m + 1))
    T = wr.load_weight_table(path)
    assert T.m_max == 128 and wr.total_weight(T, (1,), 128) != 0
    assert_laurent_matches_per_t(T)


def test_laurent_fit_reads_each_weight_once(polytopes, monkeypatch):
    """One laurent_fit reads w_m once per degree (4 * m_max reads when
    each of the 4 usable t recomputed them)."""
    T = wr.weight_table_toric(polytopes["blowup_one"], 128)
    calls = []
    total_weight = wr.total_weight
    monkeypatch.setattr(
        wr, "total_weight", lambda *a: calls.append(a[2]) or total_weight(*a)
    )
    wr.laurent_fit(T, (1.0, 1.0))
    assert sorted(calls) == list(range(1, 129))
