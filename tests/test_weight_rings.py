"""Weight tables, total-weight asymptotics, c0, the Duistermaat-Heckman
sample and the weight character.

Oracles: direct per-point summation written inline (no shared code with
total_weight), hand-derived polynomial weight sums for the one-point
blow-up, product closed forms for c0 on boxes, and the uniform CDF for
the interval's DH limit.
"""

import csv
import importlib.util
import math
import os
import re
import subprocess
import sys
import warnings
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
def test_toric_statistics_take_row_passes_at_half_the_degrees(monkeypatch, name):
    """Every degree's count and moment comes from the Ehrhart polynomials,
    interpolated on a reflexive P from the row sums at m = 1..ceil(n/2)
    and their reflections: the whole table's statistics read the lattice
    rows once at each of those degrees."""
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
    assert sorted(rows) == list(range(1, -(-P.dim // 2) + 1))


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


def test_dh_merges_explicit_masses_beyond_int64(tmp_path):
    """Two rows of multiplicity 2^62 merge, at xi = 0, into one atom of
    mass 2^63, past int64: exact integers give it mass 1."""
    path = tmp_path / "big.csv"
    path.write_text("m,a1,dim\n1,0,4611686018427387904\n1,1,4611686018427387904\n")
    T = wr.load_weight_table(path)
    D = wr.dh_measure(T, (0.0,), 1)
    assert (D.lambdas.tolist(), D.masses.tolist()) == ([0.0], [1.0])
    D = wr.dh_measure(T, (1.0,), 1)
    assert (D.lambdas.tolist(), D.masses.tolist()) == ([0.0, 1.0], [0.5, 0.5])


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
        # fields past int64 are refused by name, not by an OverflowError
        ("1,99999999999999999999,1\n", 2,
         "weight entry '99999999999999999999' is outside the int64 range"),
        ("1,0,99999999999999999999\n", 2,
         "multiplicity '99999999999999999999' is outside the int64 range"),
        ("1,0,1\n1,-9223372036854775809,1\n", 3,
         "weight entry '-9223372036854775809' is outside the int64 range"),
        ("1,0,1\n100000000000000000000,0,1\n", 3,
         "degree '100000000000000000000' is outside the int64 range"),
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


def table_digest(T):
    """Everything a loaded table holds: each degree's alpha and dim bytes,
    count and moment, and the weight bound."""
    return [
        (T.alphas(m).tobytes(), T.dims(m).tobytes(), T.count(m), T.moment(m))
        for m in range(1, T.m_max + 1)
    ] + [(T.dim, T.m_max, T.weight_bound_sq)]


def csv_variants(tmp_path, text):
    """Paths of a canonical CSV text (CRLF, as saved), a row-shuffled copy
    with LF line ends, and a copy with blank lines and mixed line ends."""
    head, *rows = text.split("\r\n")[:-1]
    shuffled = rows[:]
    np.random.default_rng(3).shuffle(shuffled)
    mixed = "".join(
        row + ("\r\n" if i % 3 else "\n\n") for i, row in enumerate(shuffled)
    )
    paths = []
    for name, body in [
        ("canonical", text),
        ("shuffled", "\n".join([head] + shuffled) + "\n"),
        ("blank_crlf", head + "\r\n\r\n" + mixed),
    ]:
        paths.append(tmp_path / f"{name}.csv")
        paths[-1].write_bytes(body.encode())
    return paths


def test_csv_any_row_order_reads_the_same_table(tmp_path, monkeypatch):
    """A canonical file, a row-shuffled copy and a copy with blank lines and
    mixed line ends read to identical tables, and so does the per-field
    parser on each; only the files out of order reach the sort."""
    rows = [
        (m, a, b, 4 * m + (7 * a + 3 * b) % 4)
        for m in range(1, 9) for a in range(-m, m + 1) for b in (-1, 0, 1)
    ]
    text = "m,a1,a2,dim\r\n" + "".join("%d,%d,%d,%d\r\n" % row for row in rows)
    sorts = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(1) or lexsort(keys))
    variants = csv_variants(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        digests = [table_digest(wr.load_weight_table(p)) for p in variants]
    assert sorts == [1, 1]  # the shuffled files, not the canonical one
    monkeypatch.setattr(wr, "_fast_rows", lambda path, dim: None)
    digests += [table_digest(wr.load_weight_table(p)) for p in variants]
    assert all(d == digests[0] for d in digests)
    for m, (alphas, dims, count, moment) in enumerate(digests[0][:-1], start=1):
        mine = [r for r in rows if r[0] == m]
        assert alphas == np.array([r[1:3] for r in mine], dtype=np.int64).tobytes()
        assert dims == np.array([r[3] for r in mine], dtype=np.int64).tobytes()
        assert count == sum(r[3] for r in mine)
        assert moment == tuple(sum(r[i] * r[3] for r in mine) for i in (1, 2))
    assert digests[0][-1] == (2, 8, Fraction(2))


def test_csv_load_peak_is_a_small_multiple_of_the_table(tmp_path):
    """Loading a saved toric table (triangle_dual at depth 48, 58,848 rows)
    traces a peak below twice the loaded arrays' bytes: the rows are never
    held twice.  Reading all columns at once and sorting peaked at 3.1x."""
    import tracemalloc

    T = wr.weight_table_toric(corpus.load_corpus("triangle_dual"), 48)
    path = tmp_path / "t.csv"
    wr.save_weight_table(T, path)
    tracemalloc.start()
    try:
        T2 = wr.load_weight_table(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nbytes = sum(T2.alphas(m).nbytes + T2.dims(m).nbytes for m in range(1, 49))
    assert nbytes == 58848 * 3 * 8
    assert peak < 2 * nbytes, peak / nbytes


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


@pytest.fixture
def fsum_fallbacks(monkeypatch):
    """The math.fsum calls made through weight_rings while a test runs.  Of
    the functions these tests call, only _fsum_blocks' fallback makes them,
    so none means every block was summed by extraction, whole or
    truncated, and every slack was certified."""
    calls = []

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        def fsum(self, terms):
            calls.append(1)
            return math.fsum(terms)

    monkeypatch.setattr(wr, "math", CountingMath())
    return calls


def extraction_limit(n):
    """The widest binade span that three extraction levels take whole on
    n terms: wider blocks are cut 2^-limit below a max just under 2."""
    return 158 - 4 * (n + 2).bit_length()


def spanning_block(rng, n, span):
    """n positive terms with random 53-bit mantissas whose frexp exponents
    run from 1 - span to 1: the max just under 2, the min in the binade
    [2^-span, 2^(1-span)), and a tenth of the terms at the max, so the
    level sums come near their bound."""
    x = np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(1 - span, 2, n))
    x[: n // 10] = math.nextafter(2.0, 0.0)
    x[-1] = math.ldexp(rng.uniform(0.5, 1.0), 1 - span)
    x[0] = math.nextafter(2.0, 0.0)
    return x


def assert_fsum_bits(x):
    assert wr._fsum(x).hex() == math.fsum(x.tolist()).hex()


@pytest.mark.parametrize("n", [1, 2, 2**16 - 1, 2**16, 2**16 + 1, 2**17])
def test_extraction_matches_fsum_around_the_guard_steps(fsum_fallbacks, n):
    """Block sizes on both sides of where the guard g = bit_length(n + 2)
    grows, at the narrowest and the widest span the route takes."""
    rng = np.random.default_rng(n)
    for span in (0, extraction_limit(n)) if n > 1 else (0,):
        assert_fsum_bits(spanning_block(rng, n, span))
    assert fsum_fallbacks == []


@pytest.mark.parametrize("n", [1000, 2**16])
def test_extraction_takes_spans_up_to_three_levels(fsum_fallbacks, n):
    """Every span from 0 binades to the three-level limit (90 binades on
    2^16 terms) is extracted whole, slack 0, and at the limit the part is
    the exact sum.  One binade more puts the least terms below the cut,
    and they are dropped for a slack of their count times the cut, which
    brackets the exact sum.  The sums give math.fsum's bits with no
    fallback."""
    rng = np.random.default_rng(n + 1)
    limit = extraction_limit(n)
    for span in range(limit + 2):
        x = spanning_block(rng, n, span)
        fsum_fallbacks.clear()
        assert_fsum_bits(x)
        assert fsum_fallbacks == [], span
        part, slack = wr._exact_block_sum(x)
        dropped = int(np.count_nonzero(x < 2.0**-limit))
        assert (dropped > 0) == (span > limit), span
        assert slack == dropped << (-limit - wr._FSUM_UNIT), span
        if span >= limit:
            exact = sum(map(wr._units, x.tolist()))
            assert part <= exact <= part + slack and (exact == part) == (span == limit), span


@pytest.mark.parametrize("n", [1, 1000, 2**16, 2**16 + 1, 2**17])
def test_wide_nonnegative_blocks_match_fsum(fsum_fallbacks, n):
    """Blocks spanning 55 to 900 binades, with zeros and subnormals mixed
    in, are summed by truncated extraction to math.fsum's bits, and their
    slacks never straddle a rounding boundary here."""
    rng = np.random.default_rng(n + 2)
    for span in (55, 91, 159, 300, 600, 900):
        x = spanning_block(rng, n, span)
        picks = rng.integers(1, n, n // 64) if n > 1 else []
        x[picks[::2]] = 0.0
        x[picks[1::2]] = np.ldexp(rng.uniform(0.0, 1.0, len(picks[1::2])), -1022)
        assert_fsum_bits(x)
        assert_fsum_bits(x[::-1])
    assert fsum_fallbacks == []


def test_a_straddling_slack_falls_back_to_fsum(fsum_fallbacks):
    """1 + 2^-53 is a tie that rounds to 1, while the term 2^-200, dropped
    below the cut 2^-146 of three terms, carries the exact sum up to
    1 + 2^-52: the part and the part plus slack round apart, and the sum
    falls back to math.fsum."""
    x = np.array([1.0, 2.0**-53, 2.0**-200])
    part, slack = wr._exact_block_sum(x)
    assert slack == 1 << (-146 - wr._FSUM_UNIT)
    unit = 1 << -wr._FSUM_UNIT
    assert (part / unit, (part + slack) / unit) == (1.0, 1.0 + 2.0**-52)
    assert wr._fsum(x) == 1.0 + 2.0**-52
    assert len(fsum_fallbacks) == 1


def test_extraction_rounds_half_ulp_ties_exactly(fsum_fallbacks):
    """Runs of terms exactly halfway between two points of the first or
    the second level's grid, so that every q is a round-half-even tie, and
    totals that are themselves a half-ulp tie of the result."""
    rng = np.random.default_rng(61)
    n = 4096
    guard = (n + 2).bit_length()
    k1 = 1 + guard  # sigma's exponent at level 1, the max being just under 2
    for k in (k1, k1 - (53 - guard)):
        odd = 2 * rng.integers(2 ** (50 - guard), 2 ** (51 - guard), n - 1) + 1
        ties = np.ldexp(odd.astype(float), k - 53)
        sigma = 2.0**k
        assert (np.abs((ties + sigma) - sigma - ties) == 2.0 ** (k - 53)).all()
        assert_fsum_bits(np.append(ties, math.nextafter(2.0, 0.0)))
    for head in (1.0, 1.0 + 2.0**-52, 1.5, 1.75):
        for run in (1, 2, 3, 1023):
            assert_fsum_bits(np.array([head] + [2.0**-53] * run + [2.0**-54] * run))
            assert_fsum_bits(np.array([2.0**-53] * run + [head]))
    assert fsum_fallbacks == []


def test_terms_near_the_ends_of_the_double_range_fall_back(fsum_fallbacks):
    """Terms next to 2^1000 or 2^-1000 lie outside the extraction window
    [2^-960, 2^960), and so does a block with a negative term: those
    blocks return None and the sum falls back to math.fsum.  Just inside
    the window the terms are extracted.  Both give math.fsum's bits."""
    up, down = (lambda x: math.nextafter(x, math.inf)), (lambda x: math.nextafter(x, 0.0))
    negative = ([1.0, -0.5], [1.0, 2.0**-53, -(2.0**-160)], [-(2.0**-960)])
    for edge in (2.0**1000, 2.0**-1000):
        for terms in ([edge], [down(edge), edge, up(edge)], [1.5 * edge] * 7, [edge, 3 * edge]):
            assert wr._exact_block_sum(np.array(terms)) is None, terms
            fsum_fallbacks.clear()
            assert_fsum_bits(np.array(terms))
            assert fsum_fallbacks == [1], terms
    for outside in ([down(2.0**-960)], [2.0**960], [1.0, 2.0**960], *negative):
        assert wr._exact_block_sum(np.array(outside)) is None, outside
        fsum_fallbacks.clear()
        assert_fsum_bits(np.array(outside))
        assert fsum_fallbacks == [1], outside
    for inside in ([2.0**-960], [down(2.0**960)] * 3, [2.0**-960, 1.5 * 2.0**-960]):
        fsum_fallbacks.clear()
        assert_fsum_bits(np.array(inside))
        assert fsum_fallbacks == [], inside


def perfbench_gen():
    """``perfbench/gen``, the benchmark's direction pool."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "gen.py")
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def test_bench_c0_sums_are_extracted_at_every_direction(fsum_fallbacks, monkeypatch):
    """On every benchmark table (perfbench/workloads.TABLES: the six
    polygons at degree 128, the cube at 32) and every pool direction of the
    four regimes, c0_bruteforce at the table's depth and dh_measure with
    dh_exp_moment sum every block by extraction and never fall back to
    math.fsum.  The large directions span hundreds of binades, so some
    blocks are truncated, and their slacks are certified.  About 1 s on a
    2-core Xeon."""
    blocks = []

    def counted(terms, block_sum=wr._exact_block_sum):
        part = block_sum(terms)
        blocks.append(part is not None and part[1] > 0)
        return part

    monkeypatch.setattr(wr, "_exact_block_sum", counted)
    gen = perfbench_gen()
    tables = [(name, 128) for name in gen.CORPUS if name not in ("interval", "cube")]
    for name, depth in tables + [("cube", 32)]:
        P = corpus.load_corpus(name)
        T = wr.weight_table_toric(P, depth)
        edges = gen.edge_vectors(P.vertices, P.facets)
        for regime in gen.REGIMES:
            for i in range(gen.POOL):
                xi = gen.direction(name, regime, i, edges)
                wr.c0_bruteforce(T, xi, depth)
                wr.dh_exp_moment(wr.dh_measure(T, xi, depth))
    assert fsum_fallbacks == []
    assert any(blocks) and not all(blocks)


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


class UnfusedRows(np.ndarray):
    """Weight rows whose products <alpha, xi> add term by term, as a matmul
    without fused multiply-adds does, so that inf can meet -inf as nan."""

    def __matmul__(self, xf):
        return np.einsum("ij,j->i", np.asarray(self), xf)


def test_c0_bruteforce_products_past_the_double_range(monkeypatch):
    """A product <alpha, xi> past the double range is +-inf and its term
    e^{-+inf} is 0 or inf, with no numpy warning.  A product that is
    inf - inf raises ValueError naming m and xi, whether the sum is nan or
    its finite terms (two of e^709.7) overflow first."""
    T = wr.weight_table_toric(corpus.load_corpus("square"), 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert wr.c0_bruteforce(T, (1e308, 0), 8) == math.inf
    rows = np.array([[-8, -8, 0], [0, 0, 1], [1, 1, 1]])
    T = wr.WeightTable(3, rows, np.ones(3, dtype=np.int64), {1: 3}, "rows")
    blocks = T._atom_blocks
    monkeypatch.setattr(
        T, "_atom_blocks", lambda m: ((a.view(UnfusedRows), d) for a, d in blocks(m))
    )
    for last in (0.0, -709.7):
        with pytest.raises(ValueError, match=r"\(1e\+308, -1e\+308, .*degree 1 is inf - inf"):
            wr.c0_bruteforce(T, (1e308, -1e308, last), 1)


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


def test_dh_measure_refuses_a_lambda_past_the_double_range():
    """On the square at degree 8 and xi = (1e308, 0) the largest lambda is
    8 * 1e308 / 8 = 1e308, but <alpha, xi> = 8e308 overflows before the
    division: dh_measure names m and xi instead of an atom at inf, with no
    numpy warning."""
    T = wr.weight_table_toric(corpus.load_corpus("square"), 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"direction \(1e\+308, 0\.0\): a lambda at degree 8 "):
            wr.dh_measure(T, (1e308, 0), 8)


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
