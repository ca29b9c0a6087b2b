"""Weight decompositions of graded rings and their asymptotic statistics.

A WeightTable records, for each degree m = 1..m_max, the torus weights
alpha occurring in the degree-m piece together with their multiplicities.
External tables, with arbitrary multiplicities, load from CSV as
explicit rows; the toric table of a reflexive polytope P, a subclass, has
one weight of multiplicity 1 at every lattice point of mP.

Everything downstream of a table is a statistic of the pairs (alpha, dim):
total weights and their growth coefficients (b0, b1), the normalized
partition sums c0, Duistermaat-Heckman samples, and the weight character
with its Laurent-coefficient fit.  The continuum counterparts (c0_exact
here, ``lattice_geom.b0_b1_exact``) are computed from the polytope by exact
triangulation and the exponential simplex integrals.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import lattice_geom as lg
from .errors import (
    DegreeOutOfRange,
    EmptyDegree,
    InsufficientDegrees,
    NotReflexive,
    ParseError,
    TruncationTooCoarse,
)
from .lattice_geom import as_exact_vector, b0_b1_exact
from .simplex_calculus import _safe_exp, exp_moments

# t samples for the weight-character Laurent fit; fixed for reproducibility
LAURENT_T_SAMPLES = (0.5, 0.4, 0.3, 0.25, 0.2)
# truncation is acceptable at a sample t only when e^{-t m_max} < this
LAURENT_TRUNCATION = 1e-12
# the fit needs at least as many usable samples as fitted coefficients
_LAURENT_MIN_SAMPLES = 3


def as_float_vector(xi, dim: int) -> np.ndarray:
    """``lattice_geom.as_float_vector`` as a float64 array."""
    return np.array(lg.as_float_vector(xi, dim))


def _is_float_like(xi) -> bool:
    return any(isinstance(c, (float, np.floating)) for c in lg._direction_entries(xi))


class WeightTable:
    """Weight table of explicit rows, as read from CSV: integer weight rows
    with multiplicities, in canonical order (degree ascending, then alpha
    lex within each degree).

    ``alphas`` (rows x dim) and ``dims`` hold every row, degree by degree;
    ``degree_rows`` maps each degree, ascending and >= 1, to its number of
    rows.  This constructor is the one place that checks the rows cover
    every degree 1..m_max, non-empty, with multiplicities >= 1 and
    nondecreasing total dimension, and it takes every degree's count N_m,
    exact moment vector and largest |alpha|^2 in one grouped pass
    (``_grouped_stats``).  The weight bound C, with |alpha|_2 <= C*m for
    every weight, is exact: C^2 = ``weight_bound_sq`` is the largest
    |alpha|^2/m^2 over the rows.  The toric table of a polytope is the
    subclass ``_ToricTable``.
    """

    def __init__(self, dim, alphas, dims, degree_rows, source):
        self.dim = int(dim)
        self.m_max = len(degree_rows)
        self.source = source
        if self.dim < 1 or self.m_max < 1:
            raise ValueError("dim and m_max must be positive")
        self._offsets = [0]  # degree m holds rows _offsets[m - 1]:_offsets[m]
        for k, (m, rows) in enumerate(degree_rows.items(), start=1):
            if m != k or rows < 1:
                raise EmptyDegree(f"table has no entries at degree m = {k}")
            self._offsets.append(self._offsets[-1] + rows)
        self._alphas = np.ascontiguousarray(alphas, dtype=np.int64)
        self._dims = np.ascontiguousarray(dims, dtype=np.int64)
        if self._alphas.shape != (self._offsets[-1], self.dim):
            raise ValueError("weight rows have wrong shape")
        if self._dims.shape != (self._offsets[-1],):
            raise ValueError("multiplicity column mismatch")
        if self._dims.min() < 1:
            raise ValueError("multiplicities must be >= 1")
        self.weight_bound_sq = Fraction(0)
        self._stats = {}  # m -> (N_m, moment vector)
        prev = 0
        stats = _grouped_stats(self._alphas, self._dims, self._offsets)
        for m, (n_m, moment, worst) in enumerate(stats, start=1):
            if n_m < prev:
                raise ValueError(
                    f"degree {m}: total dimension {n_m} is smaller "
                    f"than at degree {m - 1} ({prev})"
                )
            self._stats[m] = (n_m, moment)
            self.weight_bound_sq = max(self.weight_bound_sq, Fraction(worst, m * m))
            prev = n_m

    def _span(self, m: int) -> slice:
        """The rows of a checked degree m."""
        return slice(self._offsets[m - 1], self._offsets[m])

    def _degree_stats(self, m: int):
        return self._stats[m]  # (N_m, moment vector) of a checked degree m

    @property
    def weight_bound(self) -> float:
        return math.sqrt(float(self.weight_bound_sq))

    def _check_degree(self, m) -> int:
        if not lg._is_integer(m):
            raise ValueError(f"degree must be an integer, got {m!r}")
        if not 1 <= m <= self.m_max:
            raise DegreeOutOfRange(
                f"degree m = {m} outside the table range 1..{self.m_max}"
            )
        return int(m)

    def atoms(self, m) -> tuple:
        """(alphas, dims) at degree m; one enumeration on a toric table."""
        return self.alphas(m), self.dims(m)

    def _atom_blocks(self, m: int):
        """Iterator over (alphas, dims) of a checked degree m in lex order,
        in blocks of at most ``lattice_geom._BLOCK_POINTS`` rows: views of
        the stored arrays.  A caller that drops each block holds one at a
        time."""
        step = lg._BLOCK_POINTS
        rows = self._span(m)
        alphas, dims = self._alphas[rows], self._dims[rows]
        return (
            (alphas[i : i + step], dims[i : i + step])
            for i in range(0, alphas.shape[0], step)
        )

    def _rows(self, m: int) -> int:
        """Number of weight rows at a checked degree m."""
        return self._offsets[m] - self._offsets[m - 1]

    def alphas(self, m) -> np.ndarray:
        """The weight rows at degree m."""
        return self._alphas[self._span(self._check_degree(m))]

    def dims(self, m) -> np.ndarray:
        """The multiplicities at degree m."""
        return self._dims[self._span(self._check_degree(m))]

    def count(self, m) -> int:
        """N_m = total dimension of the degree-m piece."""
        return self._degree_stats(self._check_degree(m))[0]

    def moment(self, m) -> tuple:
        """Exact integer vector sum_alpha alpha * dim at degree m."""
        return self._degree_stats(self._check_degree(m))[1]


def _grouped_stats(alphas, dims, offsets):
    """(N, exact sum of alpha * dim, largest |alpha|^2) of every degree, the
    rows of degree m being offsets[m - 1]:offsets[m].  One grouped int64
    pass when no partial sum can leave int64's range, else per degree in
    Python ints.  With big the largest |entry| (at least 1) and rows the
    largest degree's row count, every partial sum is at most
    big * max(largest dim * rows, big * columns) in magnitude."""
    starts = offsets[:-1]
    rows = max(hi - lo for lo, hi in zip(offsets, offsets[1:]))
    big = max(-int(alphas.min()), int(alphas.max()), 1)
    if big * max(int(dims.max()) * rows, big * alphas.shape[1]) < 2**63:
        counts = np.add.reduceat(dims, starts).tolist()
        # column by column, so the one temporary is a column long
        moments = zip(*(np.add.reduceat(col * dims, starts).tolist() for col in alphas.T))
        norms = np.einsum("ij,ij->i", alphas, alphas)
        worst = np.maximum.reduceat(norms, starts).tolist()
        return list(zip(counts, moments, worst))
    stats = []
    for lo, hi in zip(offsets, offsets[1:]):
        block, ds = alphas[lo:hi].tolist(), dims[lo:hi].tolist()
        moment = tuple(sum(a * d for a, d in zip(col, ds)) for col in zip(*block))
        stats.append((sum(ds), moment, max(sum(a * a for a in row) for row in block)))
    return stats


class _ToricTable(WeightTable):
    """The toric table of a lattice polytope P: multiplicity 1 at every
    lattice point of mP (``weight_table_toric`` adds the reflexivity gate).

    It keeps only each degree's count N_m and exact moment vector, read on
    first use from the Ehrhart polynomials of P (``lattice_geom.
    lattice_stats``).  Its weights are enumerated afresh on every
    ``atoms``/``alphas`` call, each enumeration checked against the count,
    and never kept; ``_atom_blocks`` streams a degree in blocks of at most
    2^16 points.  C^2 is the largest squared vertex norm of P, which
    bounds every degree by convexity.
    """

    def __init__(self, P, m_max):
        if not lg._is_integer(m_max) or m_max < 1:
            raise ValueError("m_max must be a positive integer")
        self.dim = P.dim
        self.m_max = int(m_max)
        self.source = f"toric:{P.name or '<unnamed>'}"
        self.weight_bound_sq = lg.max_vertex_norm_sq(P)
        self._P = P
        self._stats = {}  # m -> (N_m, moment vector), filled on first use

    def _degree_stats(self, m: int):
        if m not in self._stats:
            # N_m is nondecreasing automatically: the dilates mP grow
            st = lg.lattice_stats(self._P, m)
            if st.count == 0:
                raise EmptyDegree(f"table has no entries at degree m = {m}")
            self._stats[m] = (st.count, st.moment)
        return self._stats[m]

    def _atom_blocks(self, m: int):
        # dims None: every multiplicity is 1
        self._degree_stats(m)  # the degree's emptiness check
        blocks = lg._lattice_point_blocks(self._P, m)
        return map(lambda alphas: (alphas, None), blocks)

    def _rows(self, m: int) -> int:
        return self._degree_stats(m)[0]

    def alphas(self, m) -> np.ndarray:
        """The weight rows at degree m: one enumeration, checked against
        the degree's count."""
        m = self._check_degree(m)
        count, _ = self._degree_stats(m)
        alphas = lg.lattice_points(self._P, m)
        if alphas.shape[0] != count:
            raise ValueError(
                f"degree {m}: enumerated {alphas.shape[0]} weights, "
                f"lattice_stats counts {count}"
            )
        return alphas

    def dims(self, m) -> np.ndarray:
        """N_m ones, built from the count without enumerating the degree."""
        return np.ones(self.count(m), dtype=np.int64)


def weight_table_toric(P, m_max: int) -> WeightTable:
    """Weight table of the anticanonical ring of a reflexive polytope:
    multiplicity 1 at each lattice point of mP, weight bound C = max
    vertex norm."""
    if not lg.is_reflexive(P):
        raise NotReflexive(
            "toric weight tables are defined for reflexive polytopes"
        )
    return _ToricTable(P, m_max)


# ---------------------------------------------------------------------------
# CSV interchange


def _csv_header(dim: int):
    return ["m"] + [f"a{i + 1}" for i in range(dim)] + ["dim"]


def _parse_int(field: str, what: str, line: int) -> int:
    field = field.strip()
    try:
        value = int(field)
    except ValueError as exc:
        raise ParseError(f"{what} {field!r} is not an integer", line=line) from exc
    if not -(2**63) <= value < 2**63:
        raise ParseError(f"{what} {field!r} is outside the int64 range", line=line)
    return value


# the only bytes a data row may hold for numpy to read the file
_CSV_FAST_BYTES = b"0123456789,-\r\n"


def _read_columns(path, columns, lines: int) -> np.ndarray:
    """The given columns of every data row, in one pass of numpy's reader.
    ``lines``, the number of lines after the header, bounds the number of
    rows, so numpy allocates the array once."""
    with warnings.catch_warnings():
        # numpy notes each blank line, which max_rows does not count
        warnings.filterwarnings("ignore", "Input line .* contained no data", UserWarning)
        return np.loadtxt(
            path, dtype=np.int64, delimiter=",", comments=None, skiprows=1,
            ndmin=2, encoding="ascii", usecols=columns, max_rows=lines,
        )


def _strictly_increasing(ms, alphas) -> bool:
    """Whether every row (m, alpha) is lexicographically greater than the
    one before it, which also rules out a duplicate (m, alpha)."""
    if np.any(ms[1:] < ms[:-1]):
        return False
    tied = ms[1:] == ms[:-1]  # pairs that the columns so far do not order
    scratch = np.empty_like(tied)
    for col in alphas.T:
        later, earlier = col[1:], col[:-1]
        if np.logical_and(tied, np.less(later, earlier, out=scratch), out=scratch).any():
            return False
        tied &= np.equal(later, earlier, out=scratch)
    return not tied.any()


def _fast_rows(path, dim: int):
    """(alphas, dims, degree_rows) of a CSV read by numpy, or None whenever
    the file is not plain: a header other than the canonical one, any byte
    in the data beyond digits, '-', ',' and line ends, a field numpy cannot
    read as an int64, a ragged row, m < 1, dim < 1 or a duplicate
    (m, alpha).  Every field it takes is one that int() takes to the same
    value, so the per-field parser reads every file it refuses and names
    the offending line.

    The degree and multiplicity columns are read first and the weights in a
    second pass, so the rows are never held twice.  A file in canonical
    order is checked in place; any other order costs one sort."""
    # unbuffered, so that read() allocates the body once
    with open(path, "rb", buffering=0) as fh:
        head = fh.readline()
        body = fh.read()
    canonical = ",".join(_csv_header(dim)).encode()
    if head.rstrip(b"\r\n") != canonical or not body.lstrip(b"\r\n"):
        return None  # another header, or no data
    if body.translate(None, _CSV_FAST_BYTES) or body.count(b"\r") != body.count(b"\r\n"):
        return None
    lines = body.count(b"\n") + (not body.endswith(b"\n"))
    commas = body.count(b",")
    del body  # numpy reads the file itself
    try:
        pairs = _read_columns(path, (0, dim + 1), lines)
        ms, dims = pairs[:, 0].copy(), pairs[:, 1].copy()
        del pairs
        alphas = _read_columns(path, range(1, dim + 1), lines)
    except ValueError:  # a bad field, or a row too short for the columns
        return None
    # every row has dim + 2 fields or more, so this count leaves none longer
    if commas != (dim + 1) * ms.shape[0] or ms.min() < 1 or dims.min() < 1:
        return None
    if not _strictly_increasing(ms, alphas):
        order = np.lexsort(tuple(alphas.T[::-1]) + (ms,))  # by m, then alpha lex
        # one array at a time, so each unsorted one is dropped as it goes
        ms = ms[order]
        alphas = alphas[order]
        dims = dims[order]
        if not _strictly_increasing(ms, alphas):
            return None  # a duplicate (m, alpha)
    starts = np.r_[0, np.flatnonzero(ms[1:] != ms[:-1]) + 1]
    sizes = np.diff(starts, append=ms.shape[0])
    return alphas, dims, dict(zip(ms[starts].tolist(), sizes.tolist()))


def _parsed_rows(reader, dim: int):
    """(alphas, dims, degree_rows) from csv rows parsed field by field,
    raising ParseError on the first bad line."""
    by_degree = {}  # m -> {alpha: dim}
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue  # ignore blank lines
        if len(row) != dim + 2:
            raise ParseError(
                f"row has {len(row)} fields, expected {dim + 2}",
                line=lineno,
            )
        m = _parse_int(row[0], "degree", lineno)
        if m < 1:
            raise ParseError(f"degree m = {m} must be >= 1", line=lineno)
        alpha = tuple(
            _parse_int(row[1 + i], "weight entry", lineno)
            for i in range(dim)
        )
        d = _parse_int(row[-1], "multiplicity", lineno)
        if d < 1:
            raise ParseError(
                f"multiplicity {d} must be >= 1", line=lineno
            )
        rows = by_degree.setdefault(m, {})
        if alpha in rows:
            raise ParseError(
                f"duplicate row for m = {m}, alpha = {alpha}", line=lineno
            )
        rows[alpha] = d
    if not by_degree:
        raise ParseError("no data rows", line=2)
    degrees = sorted(by_degree)
    entries = [e for m in degrees for e in sorted(by_degree[m].items())]
    return (
        np.array([a for a, _ in entries], dtype=np.int64),
        np.array([d for _, d in entries], dtype=np.int64),
        {m: len(by_degree[m]) for m in degrees},
    )


def load_weight_table(path) -> WeightTable:
    """Read a weight table from CSV "m,a1,...,an,dim".

    Raises ParseError (with 1-based line number) on malformed headers,
    ragged rows, non-integer or out-of-int64 fields, multiplicities < 1, or
    duplicate (m, alpha) rows; EmptyDegree when some degree in 1..max(m)
    has no rows.  Row order in the file is irrelevant; storage is
    canonical (m, then alpha lex).  A plain file is read by numpy
    (``_fast_rows``); any other goes field by field, so every error names
    its line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", line=1) from None
        header = [h.strip() for h in header]
        if (
            len(header) < 3
            or header[0] != "m"
            or header[-1] != "dim"
            or header != _csv_header(len(header) - 2)
        ):
            raise ParseError(
                f"bad header {','.join(header)!r}; expected m,a1,...,an,dim",
                line=1,
            )
        dim = len(header) - 2
        rows = _fast_rows(path, dim)
        if rows is None:
            rows = _parsed_rows(reader, dim)
    try:
        return WeightTable(dim, *rows, source=f"external:{path}")
    except ValueError as exc:  # semantic table violations, e.g. N_m drops
        raise ParseError(str(exc)) from exc


def save_weight_table(T: WeightTable, path) -> None:
    """Write a table in the canonical CSV form (degrees ascending, weights
    lex within each degree) with CRLF line ends, as csv.writer writes it.
    Each degree is one block: a single %-format over its flat rows."""
    row = ",".join(["%d"] * (T.dim + 2)) + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_csv_header(T.dim)) + "\r\n")
        for m in range(1, T.m_max + 1):
            alphas, dims = T.atoms(m)
            rows = np.empty(
                (dims.shape[0], T.dim + 2), dtype=np.result_type(alphas, dims)
            )
            rows[:, 0] = m
            rows[:, 1:-1] = alphas
            rows[:, -1] = dims
            fh.write((row * rows.shape[0]) % tuple(rows.ravel().tolist()))


# ---------------------------------------------------------------------------
# statistics of one degree


def total_weight(T: WeightTable, xi, m):
    """sum_alpha <alpha, xi> * dim at degree m.

    The integer moment vector sum(alpha * dim) is accumulated exactly
    first, so the result is an exact rational whenever every entry of xi
    is exact (int / Fraction / 'p/q' string), and a float otherwise, summed
    at xi 2^-s (``_downscaled``).  Raises ValueError, naming m and xi, when
    the float sum leaves the double range.
    """
    moment = T.moment(m)
    if _is_float_like(xi):
        xf = tuple(as_float_vector(xi, T.dim).tolist())
        xs, s = _downscaled(xf, max(map(abs, moment)))
        try:
            return math.ldexp(math.fsum(mi * ci for mi, ci in zip(moment, xs)), s)
        except OverflowError:
            raise ValueError(
                f"direction {xf}: the weight sum at degree {m} leaves the "
                "double range in total_weight"
            ) from None
    xe = as_exact_vector(xi, T.dim)
    return sum((mi * ci for mi, ci in zip(moment, xe)), Fraction(0))


def _downscaled(xf, bound: int):
    """(xi 2^-s, s) for a finite float xi and an integer bound >= every
    |a_i|, so that no float partial sum of <a, xi 2^-s> overflows: s =
    max(0, e - 1022) with every partial sum of <a, xi> below n bound
    max|xi_i| < 2^e, and xi itself when s = 0.  A sum scaled back by 2^s
    keeps its bits (power-of-two scaling commutes with rounding), bar the
    bits that a term loses below 2^-1022."""
    s = bound.bit_length() + math.frexp(max(map(abs, xf)))[1] + len(xf).bit_length() - 1022
    return (xf, 0) if s <= 0 else ([math.ldexp(x, -s) for x in xf], s)


def _lambda_blocks(T: WeightTable, xf, m: int):
    """(lambdas, dims) of each atom block of a checked degree m, lambda =
    <alpha, xi>/m taken at xi 2^-s (``_downscaled``, |alpha_i| <= C m):
    +-inf only where lambda itself leaves the double range."""
    c_sq = T.weight_bound_sq
    xs, s = _downscaled(xf, math.isqrt(c_sq.numerator * m * m // c_sq.denominator))

    def block(atoms):
        lambdas = atoms[0] @ xs
        np.divide(lambdas, m, out=lambdas)
        if s:
            with np.errstate(over="ignore"):
                np.ldexp(lambdas, s, out=lambdas)
        return lambdas, atoms[1]

    return map(block, T._atom_blocks(m))


def _exact_block_sum(terms: np.ndarray):
    """The sum of one block of terms as exact doubles (parts, slack), the
    exact sum lying in [sum(parts), sum(parts) + slack]; or None, for
    math.fsum to take, when the block holds 2^26 terms or more, a term is
    negative or not finite, or the max lies outside [2^-960, 2^960).

    Let n be the block's size, g = bit_length(n + 2), so that n < 2^g and
    g <= 27, t the frexp exponent of the max, and cut = 2^(b-1) with b =
    max(t - K, -959) and K = 158 - 4g (90 binades for 2^16 terms).  The
    terms >= cut are summed by error-free extraction (Rump, Ogita and
    Oishi, *Accurate floating-point summation part I*, SIAM J. Sci.
    Comput. 31, 2008, ExtractVector) in at most three levels of streaming
    passes and a last plain sum, a part each.  The others, zeros and
    subnormals included, are dropped: each lies in [0, cut), so the slack
    is their count times the cut, 0 when every term is >= cut and the
    block is extracted whole, with no copy.

    Extraction.  Every extracted term x satisfies 2^(b'-1) <= x < 2^t,
    with b' >= b the min's frexp exponent (whole block) or b itself
    (truncated), so x is a multiple of its ulp, so of 2^(b'-53); there are
    at most n of them.  Level j takes sigma = 2^k with k = t + g - (j -
    1)(53 - g) and terms bounded by |x| <= 2^(k-g) (true at level 1), and
    forms q = (x + sigma) - sigma.

    1. q is exact and x - q is exact.  |x| <= 2^(k-g) <= sigma/2, so
       s = fl(x + sigma) lies in [sigma/2, 2 sigma] and s - sigma is exact
       by Sterbenz's lemma: q = s - sigma is x rounded to the doubles'
       grid near sigma, a multiple of 2^(k-53), with |x - q| <= 2^(k-53)
       (half an ulp of [sigma, 2 sigma)) and |x - q| <= |x| (0 is on the
       grid).  That grid is no finer than ulp(x) (|x| < 2^k), so x - q is
       a multiple of ulp(x) smaller than 2^53 ulp(x): a double, computed
       exactly.  Rounding is monotone and +-2^(k-g) + sigma is a double,
       so |q| <= 2^(k-g).
    2. q sums exactly in any order.  Every partial sum of the q is a
       multiple of 2^(k-53) of size at most n 2^(k-g) < 2^k, an integer
       below 2^53 times 2^(k-53), so each float addition is exact however
       numpy groups them, and ``q.sum()`` is the exact sum of the q.
    3. The residual bound fixes the level count.  The residual x - q has
       size at most 2^(k-53) = 2^(k'-g) with k' = k - (53 - g), the next
       level's bound, so the levels chain, and while k >= b' each q is a
       multiple of 2^(b'-53), as every residual then is.  Let L be the
       first level with k_L <= b' - 1.  After the L - 1 extractions at
       k >= b', each residual is a multiple of 2^(b'-53) of size at most
       2^(k_L-g), so every partial sum of the residuals is below 2^(k_L)
       <= 2^(b'-1): an integer below 2^52 times 2^(b'-53).  The residuals'
       own float sum is then exact, and it ends the sum as level L.  L - 1
       = ceil((t - b' + g + 1)/(53 - g)), at most 3 as t - b' <= K.  The
       window keeps sigma <= 2^(960+27) and 2^(b'-53) >= 2^-1012, clear of
       overflow and of the subnormals."""
    if not terms.size:
        return [], 0.0
    if terms.size >= 2**26:
        return None
    low, high = float(terms.min()), float(terms.max())  # nan if any term is
    if not (0 <= low and 2.0**-960 <= high < 2.0**960):
        return None
    guard = (terms.size + 2).bit_length()
    top = math.frexp(high)[1]
    bottom = max(top - 158 + 4 * guard, -959)
    cut = math.ldexp(1.0, bottom - 1)
    if low >= cut:
        rest, slack, bottom = terms, 0.0, math.frexp(low)[1]
    else:
        rest = terms[terms >= cut]
        slack = (terms.size - rest.size) * cut
    k, parts = top + guard, []
    for _ in range(-(-(top - bottom + guard + 1) // (53 - guard))):
        sigma = math.ldexp(1.0, k)
        q = rest + sigma
        q -= sigma
        parts.append(float(q.sum()))
        rest = np.subtract(rest, q, out=q)  # q is summed: reuse it
        k -= 53 - guard
    parts.append(float(rest.sum()))
    return parts, slack


def _fsum_blocks(blocks) -> float:
    """math.fsum over the terms of every array that ``blocks()`` yields,
    the correctly rounded sum of their concatenation.

    One pass, dropping each block once summed, keeps the blocks' parts and
    slacks (``_exact_block_sum``), a few doubles per block, for math.fsum
    to round.  The exact sum lies in [A, A + E], A the sum of the parts and
    E of the slacks, and rounding is monotone, so when A and A + E round
    to the same double, that double is the result.  A truncated block, its
    max at least 2^(K - 960) so that its cut is 2^(t-K-1), adds less than
    n 2^(t-K-1) < 2^(5g - 106) ulps of the result to E (2^-21 on blocks of
    2^16 terms): they seldom round apart.
    When a block returns None, A and A + E round apart or either sum
    overflows, math.fsum sums another pass of ``blocks()`` and gives its
    own answer or error."""
    parts, slacks = [], []
    for block in map(_exact_block_sum, blocks()):
        if block is None:
            break
        parts += block[0]
        slacks.append(block[1])
    else:
        try:
            result = math.fsum(parts)
            if math.fsum(parts + slacks) == result:
                return result
        except OverflowError:
            pass
    return math.fsum(x for terms in blocks() for x in terms.tolist())


def _fsum(terms: np.ndarray) -> float:
    """math.fsum(terms): ``_fsum_blocks`` of the one block ``terms``."""
    return _fsum_blocks(lambda: (terms,))


def c0_bruteforce(T: WeightTable, xi, m) -> float:
    """Finite-m normalization sum n! m^{-n} sum_alpha e^{-<alpha,xi>/m} dim,
    with the inner sum correctly rounded (``_fsum_blocks``) over the
    degree's atom blocks, so no call holds the whole degree.  The terms are
    not negative, so an exponent or a sum beyond the double range gives
    inf or 0, e^{-+inf} being the correctly rounded term."""
    m = T._check_degree(m)
    xf = as_float_vector(xi, T.dim)

    def terms(block):
        # e^{-lambda} in place, as the lambdas of -xi are exactly -lambda
        d, dims = block
        with np.errstate(over="ignore"):
            np.exp(d, out=d)
            return d if dims is None else np.multiply(d, dims, out=d)

    def blocks():
        return map(terms, _lambda_blocks(T, -xf, m))

    try:
        total = _fsum_blocks(blocks)
    except OverflowError:  # the finite terms overflowed
        total = math.inf
    scale = math.factorial(T.dim) / float(m) ** T.dim
    return scale * total


class LipschitzCheck(NamedTuple):
    bound: float
    actual: float
    ok: bool


class AsymptoticFit(NamedTuple):
    b0: float
    b1: float
    residual: float


class LaurentFit(NamedTuple):
    b0: float
    b1: float


def fit_b0_b1(T: WeightTable, xi) -> AsymptoticFit:
    """Least-squares fit of total_weight(m) against {m^{n+1}, m^n, m^{n-1}}
    over the top half of the table's degrees.

    The residual is the maximum deviation of the fit relative to the
    largest sampled |total_weight| (0 when all samples vanish).
    """
    if T.m_max < 8:
        raise InsufficientDegrees(
            f"fit needs m_max >= 8, table has {T.m_max}"
        )
    n = T.dim
    ms = np.arange(T.m_max // 2, T.m_max + 1, dtype=float)
    xf = as_float_vector(xi, n)
    y = np.array([total_weight(T, xf, int(m)) for m in ms])
    # scale columns to O(1) for conditioning, then unscale the coefficients
    s = float(T.m_max)
    X = np.stack(
        [(ms / s) ** (n + 1), (ms / s) ** n, (ms / s) ** (n - 1)], axis=1
    )
    coeffs, *_ = np.linalg.lstsq(X, y, rcond=None)
    b0 = coeffs[0] / s ** (n + 1)
    b1 = coeffs[1] / s**n
    scale = float(np.max(np.abs(y)))
    residual = 0.0
    if scale > 0:
        residual = float(np.max(np.abs(X @ coeffs - y))) / scale
    return AsymptoticFit(b0=float(b0), b1=float(b1), residual=residual)


# ---------------------------------------------------------------------------
# continuum partition sums


def c0_exact(P, xi) -> float:
    """c0(xi) = n! int_P e^{-<x,xi>} dx via the star triangulation and
    divided-difference simplex integrals."""
    xf = as_float_vector(xi, P.dim)
    shift, i0, _, _ = exp_moments(lg.triangulate(P).simplices, xf, order=0)
    return math.factorial(P.dim) * (_safe_exp(shift) * i0)


def max_vertex_norm(P) -> float:
    """R_P = max Euclidean vertex norm (float, rounded up one ulp so the
    exact value never exceeds it)."""
    return math.nextafter(math.sqrt(float(lg.max_vertex_norm_sq(P))), math.inf)


def c0_lipschitz_check(P, xi, xi2) -> LipschitzCheck:
    """Continuity certificate for c0: the mean-value bound
    n! vol(P) R_P e^{R_P max(|xi|,|xi2|)} |xi - xi2| against the actual
    difference of c0_exact values."""
    xf = as_float_vector(xi, P.dim)
    xf2 = as_float_vector(xi2, P.dim)
    r = max_vertex_norm(P)
    big = max(float(np.linalg.norm(xf)), float(np.linalg.norm(xf2)))
    bound = (
        math.factorial(P.dim)
        * float(lg.volume(P))
        * r
        * _safe_exp(r * big)
        * float(np.linalg.norm(xf - xf2))
    )
    actual = abs(c0_exact(P, xf) - c0_exact(P, xf2))
    return LipschitzCheck(
        bound=bound, actual=actual, ok=bool(actual <= bound * (1 + 1e-9))
    )


def c0_estimate(T: WeightTable, xi) -> float:
    """c0 estimate from table data alone: Richardson extrapolation of
    c0_bruteforce in 1/m over the top four available degrees.  Intended
    for external tables with no polytope behind them.  A degree whose sum
    overflows makes the estimate inf, as in c0_bruteforce: the alternating
    Lagrange weights would turn inf into nan."""
    if T.m_max < 4:
        raise InsufficientDegrees(
            f"extrapolation needs m_max >= 4, table has {T.m_max}"
        )
    ms = list(range(T.m_max - 3, T.m_max + 1))
    hs = [1.0 / m for m in ms]
    ys = [c0_bruteforce(T, xi, m) for m in ms]
    if math.inf in ys:
        return math.inf
    # Lagrange interpolation evaluated at h = 0
    total = 0.0
    for i in range(len(ms)):
        w = 1.0
        for j in range(len(ms)):
            if j != i:
                w *= hs[j] / (hs[j] - hs[i])
        total += ys[i] * w
    return total


# ---------------------------------------------------------------------------
# Duistermaat-Heckman samples


@dataclass(frozen=True)
class DHSample:
    """Discrete Duistermaat-Heckman measure at one degree: atoms at
    lambda = <alpha, xi>/m with masses dim/N_m, equal-lambda atoms merged,
    sorted by lambda."""

    level: int
    lambdas: np.ndarray
    masses: np.ndarray
    weight_bound: float

    def __post_init__(self):
        total = _fsum(self.masses)
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError("masses must sum to 1")
        if self.lambdas.size:
            worst = float(np.max(np.abs(self.lambdas)))
            if not worst <= self.weight_bound + 1e-12 * max(self.weight_bound, 1.0):
                raise ValueError("support exceeds the weight bound")

    @property
    def atoms(self):
        return list(zip(self.lambdas.tolist(), self.masses.tolist()))


def dh_measure(T: WeightTable, xi, m) -> DHSample:
    """Duistermaat-Heckman sample of the table at degree m in direction
    xi.  The lambdas (``_lambda_blocks``) fill one array block by block.
    Atoms with exactly equal lambda (after the float division) are merged:
    with unit multiplicities (a toric table) their masses are the counts,
    otherwise they are accumulated in exact integers (int64 while N_m,
    which bounds every merged mass, fits it, else Python ints), before the
    single division by N_m.  Raises ValueError, naming m and xi, when a
    lambda leaves the double range."""
    m = T._check_degree(m)
    xf = as_float_vector(xi, T.dim)
    lambdas = np.empty(T._rows(m))
    start = 0
    for block, _ in _lambda_blocks(T, xf, m):
        lambdas[start : start + block.size] = block
        start += block.size
    if isinstance(T, _ToricTable):
        uniq, weights = np.unique(lambdas, return_counts=True)
    else:
        uniq, inverse = np.unique(lambdas, return_inverse=True)
        dtype = np.int64 if T.count(m) < 2**63 else object
        weights = np.zeros(uniq.shape[0], dtype=dtype)
        np.add.at(weights, inverse, T.dims(m).astype(dtype, copy=False))
    # sorted, so -inf comes first and inf last
    if not (math.isfinite(uniq[0]) and math.isfinite(uniq[-1])):
        raise ValueError(
            f"direction {tuple(xf.tolist())}: a lambda at degree {m} leaves "
            "the double range in dh_measure"
        )
    masses = np.asarray(weights / T.count(m), dtype=float)
    with np.errstate(over="ignore"):
        # a direction too large for the norm gets an inf bound, silently
        bound = T.weight_bound * float(np.linalg.norm(xf))
    return DHSample(
        level=m,
        lambdas=uniq,
        masses=masses,
        weight_bound=math.nextafter(bound, math.inf) if bound else 0.0,
    )


def dh_exp_moment(D: DHSample) -> float:
    """int e^{-lambda} dDH over the sample's atoms."""
    with np.errstate(over="ignore"):
        terms = np.exp(-D.lambdas) * D.masses
    return _fsum(terms)


# ---------------------------------------------------------------------------
# weight character


def _character_sum(w, t: float) -> float:
    """sum_m e^{-t m} w[m - 1] over the given weights w_1, w_2, ..."""
    return math.fsum(math.exp(-t * m) * wm for m, wm in enumerate(w, 1))


def weight_character(T: WeightTable, xi, t, m_cut: int) -> float:
    """C(xi, t) truncated at m_cut: sum_{m <= m_cut} e^{-t m} w_m(xi)."""
    t = float(t)
    if not (t > 0) or not math.isfinite(t):
        raise ValueError(f"character parameter t must be positive, got {t!r}")
    m_cut = T._check_degree(m_cut)
    xf = as_float_vector(xi, T.dim)
    return _character_sum((total_weight(T, xf, m) for m in range(1, m_cut + 1)), t)


def laurent_required_m_max() -> int:
    """Smallest m_max at which enough t samples satisfy the truncation
    gate e^{-t m_max} < 1e-12 for the three-coefficient fit."""
    t = sorted(LAURENT_T_SAMPLES, reverse=True)[_LAURENT_MIN_SAMPLES - 1]
    return math.ceil(-math.log(LAURENT_TRUNCATION) / t)


def laurent_fit(T: WeightTable, xi) -> LaurentFit:
    """Recover (b0, b1) from the truncated weight character.

    Samples C(xi, t) at the fixed t grid, keeps the t for which the
    truncation error is negligible (e^{-t m_max} < 1e-12), and fits
    t^{n+2} C(xi, t) against {1, t, t^2}; then b0 = coeff0/(n+1)! and
    b1 = coeff1/n!, matching the growth law w_m = b0 m^{n+1} + b1 m^n +
    O(m^{n-1}) term by term under the sum sum_m e^{-tm} m^k ~ k!/t^{k+1}.
    Raises TruncationTooCoarse when fewer than three samples are usable.
    """
    usable = [
        t
        for t in LAURENT_T_SAMPLES
        if math.exp(-t * T.m_max) < LAURENT_TRUNCATION
    ]
    if len(usable) < _LAURENT_MIN_SAMPLES:
        need = laurent_required_m_max()
        raise TruncationTooCoarse(
            f"table depth m_max = {T.m_max} leaves {len(usable)} usable "
            f"character samples (need {_LAURENT_MIN_SAMPLES}); "
            f"m_max >= {need} is required",
            required_m_max=need,
        )
    n = T.dim
    xf = as_float_vector(xi, n)
    # each w_m once, shared by every t
    w = [total_weight(T, xf, m) for m in range(1, T.m_max + 1)]
    ts = np.array(usable, dtype=float)
    y = np.array([t ** (n + 2) * _character_sum(w, t) for t in usable])
    X = np.stack([np.ones_like(ts), ts, ts**2], axis=1)
    coeffs, *_ = np.linalg.lstsq(X, y, rcond=None)
    return LaurentFit(
        b0=float(coeffs[0] / math.factorial(n + 1)),
        b1=float(coeffs[1] / math.factorial(n)),
    )
