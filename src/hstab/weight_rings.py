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


def _max_vertex_norm_sq(P) -> Fraction:
    return max(sum((c * c for c in v), Fraction(0)) for v in P.vertices)


class WeightTable:
    """Weight table of explicit rows, as read from CSV: per-degree integer
    weight rows with multiplicities, lex-sorted within each degree.

    This constructor is the one place that checks the rows cover every
    degree 1..m_max, non-empty, with multiplicities >= 1 and nondecreasing
    total dimension, and it takes each degree's count N_m, exact moment
    vector and largest |alpha|^2 in one pass (``_block_stats``).  The
    weight bound C, with |alpha|_2 <= C*m for every weight, is exact:
    C^2 = ``weight_bound_sq`` is the largest |alpha|^2/m^2 over the rows.
    The toric table of a polytope is the subclass ``_ToricTable``.
    """

    def __init__(self, dim, m_max, blocks, source):
        self.dim = int(dim)
        self.m_max = int(m_max)
        self.source = source
        if self.dim < 1 or self.m_max < 1:
            raise ValueError("dim and m_max must be positive")
        self.weight_bound_sq = Fraction(0)
        self._blocks = {}  # m -> (alphas, dims)
        self._stats = {}  # m -> (N_m, moment vector)
        prev = 0
        for m in range(1, self.m_max + 1):
            if m not in blocks:
                raise EmptyDegree(f"table has no entries at degree m = {m}")
            self._blocks[m] = self._checked_block(m, *blocks[m])
            n_m, moment, worst = _block_stats(*self._blocks[m])
            if n_m < prev:
                raise ValueError(
                    f"degree {m}: total dimension {n_m} is smaller "
                    f"than at degree {m - 1} ({prev})"
                )
            self._stats[m] = (n_m, moment)
            self.weight_bound_sq = max(self.weight_bound_sq, Fraction(worst, m * m))
            prev = n_m

    def _checked_block(self, m, alphas, dims):
        alphas = np.ascontiguousarray(alphas, dtype=np.int64)
        dims = np.ascontiguousarray(dims, dtype=np.int64)
        if alphas.ndim != 2 or alphas.shape[1] != self.dim:
            raise ValueError(f"degree {m}: weight rows have wrong shape")
        if alphas.shape[0] == 0:
            raise EmptyDegree(f"table has no entries at degree m = {m}")
        if dims.shape != (alphas.shape[0],):
            raise ValueError(f"degree {m}: multiplicity column mismatch")
        if np.any(dims < 1):
            raise ValueError(f"degree {m}: multiplicities must be >= 1")
        return alphas, dims

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
        alphas, dims = self._blocks[m]
        return (
            (alphas[i : i + step], dims[i : i + step])
            for i in range(0, alphas.shape[0], step)
        )

    def _rows(self, m: int) -> int:
        """Number of weight rows at a checked degree m."""
        return self._blocks[m][0].shape[0]

    def alphas(self, m) -> np.ndarray:
        """The weight rows at degree m."""
        return self._blocks[self._check_degree(m)][0]

    def dims(self, m) -> np.ndarray:
        """The multiplicities at degree m."""
        return self._blocks[self._check_degree(m)][1]

    def count(self, m) -> int:
        """N_m = total dimension of the degree-m piece."""
        return self._degree_stats(self._check_degree(m))[0]

    def moment(self, m) -> tuple:
        """Exact integer vector sum_alpha alpha * dim at degree m."""
        return self._degree_stats(self._check_degree(m))[1]


def _block_stats(alphas, dims):
    """(N, exact sum of alpha * dim, largest |alpha|^2) of one degree's
    rows: in int64 when no partial sum can leave its range, else in Python
    ints.  With big the largest |entry| (at least 1), every partial sum is
    at most big * max(largest dim * rows, big * columns) in magnitude."""
    big = max(-int(alphas.min()), int(alphas.max()), 1)
    if big * max(int(dims.max()) * alphas.shape[0], big * alphas.shape[1]) < 2**63:
        n = int(np.sum(dims))
        moment = tuple(int(v) for v in alphas.T @ dims)
        worst = int(np.max(np.sum(alphas * alphas, axis=1)))
        return n, moment, worst
    rows, ds = alphas.tolist(), dims.tolist()
    moment = tuple(sum(a * d for a, d in zip(col, ds)) for col in zip(*rows))
    return sum(ds), moment, max(sum(a * a for a in row) for row in rows)


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
        self.weight_bound_sq = _max_vertex_norm_sq(P)
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
        return int(field)
    except ValueError as exc:
        raise ParseError(f"{what} {field!r} is not an integer", line=line) from exc


# the only bytes a data row may hold for numpy to read the file in one pass
_CSV_FAST_BYTES = b"0123456789,-\r\n"


def _fast_blocks(path, dim: int):
    """Per-degree (alphas, dims) blocks of a CSV read by numpy in one pass,
    or None whenever the file is not plain: a header other than the
    canonical one, any byte in the data beyond digits, '-', ',' and line
    ends, a field numpy cannot read as an int64, a ragged row, m < 1,
    dim < 1 or a duplicate (m, alpha).  Every field it takes is one that
    int() takes to the same value, so the per-field parser reads every
    file it refuses and names the offending line."""
    with open(path, "rb") as fh:
        head = fh.readline()
        body = fh.read()
    canonical = ",".join(_csv_header(dim)).encode()
    if head.rstrip(b"\r\n") != canonical or not body.strip(b"\r\n"):
        return None
    if body.translate(None, _CSV_FAST_BYTES) or body.count(b"\r") != body.count(b"\r\n"):
        return None
    del body  # numpy reads the file itself
    try:
        rows = np.loadtxt(
            path, dtype=np.int64, delimiter=",", comments=None,
            skiprows=1, ndmin=2, encoding="ascii",
        )
    except ValueError:
        return None
    if rows.shape[1] != dim + 2 or rows[:, 0].min() < 1 or rows[:, -1].min() < 1:
        return None
    rows = rows[np.lexsort(rows[:, dim::-1].T)]  # by m, then alpha lex
    if np.any(np.all(rows[1:, : dim + 1] == rows[:-1, : dim + 1], axis=1)):
        return None
    cuts = np.flatnonzero(np.diff(rows[:, 0])) + 1
    alphas = np.split(np.ascontiguousarray(rows[:, 1:-1]), cuts)
    dims = np.split(np.ascontiguousarray(rows[:, -1]), cuts)
    return dict(zip(rows[np.r_[0, cuts], 0].tolist(), zip(alphas, dims)))


def _parsed_blocks(reader, dim: int):
    """Per-degree (alphas, dims) blocks from csv rows parsed field by
    field, raising ParseError on the first bad line."""
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
    blocks = {}
    for m, rows in by_degree.items():
        entries = sorted(rows.items())
        blocks[m] = (
            np.array([a for a, _ in entries], dtype=np.int64),
            np.array([d for _, d in entries], dtype=np.int64),
        )
    return blocks


def load_weight_table(path) -> WeightTable:
    """Read a weight table from CSV "m,a1,...,an,dim".

    Raises ParseError (with 1-based line number) on malformed headers,
    ragged rows, non-integer weights, multiplicities < 1, or duplicate
    (m, alpha) rows; EmptyDegree when some degree in 1..max(m) has no
    rows.  Row order in the file is irrelevant; storage is canonical
    (m, then alpha lex).  A plain file is read by numpy in one pass; any
    other goes field by field, so every error names its line."""
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
        blocks = _fast_blocks(path, dim)
        if blocks is None:
            blocks = _parsed_blocks(reader, dim)
    try:
        return WeightTable(
            dim=dim, m_max=max(blocks), blocks=blocks, source=f"external:{path}"
        )
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
    is exact (int / Fraction / 'p/q' string), and a float otherwise.
    Raises ValueError, naming m and xi, when the float sum leaves the
    double range (a partial sum overflows, or inf meets -inf).
    """
    moment = T.moment(m)
    if _is_float_like(xi):
        xf = tuple(as_float_vector(xi, T.dim).tolist())
        try:
            return math.fsum(mi * ci for mi, ci in zip(moment, xf))
        except (OverflowError, ValueError):  # overflow, or inf - inf
            raise ValueError(
                f"direction {xf}: the weight sum at degree {m} leaves the "
                "double range in total_weight"
            ) from None
    xe = as_exact_vector(xi, T.dim)
    return sum((mi * ci for mi, ci in zip(moment, xe)), Fraction(0))


# frexp's exponents of finite doubles are >= -1073 and mantissas carry 53
# bits, so every finite double is an integer multiple of 2^_FSUM_UNIT
_FSUM_LOW = -1073
_FSUM_UNIT = _FSUM_LOW - 53


def _exact_block_sum(terms: np.ndarray):
    """The exact sum of one block of terms as a Python int in units of
    2^_FSUM_UNIT, or None when a term is not finite or the block holds 2^26
    terms or more.

    A finite double is a 53-bit integer mantissa times a power of two.
    Split into 27- and 26-bit halves, the mantissas add up exactly per
    exponent in float64 bincounts (every partial sum is an integer below
    2^53 while there are fewer than 2^26 terms), and the per-exponent sums
    add up exactly as Python ints."""
    if terms.size >= 2**26 or not np.isfinite(terms).all():
        return None
    mant, exps = np.frexp(terms)
    exps = exps.astype(np.intp) - _FSUM_LOW
    mant *= 2.0**27
    high = np.floor(mant)
    mant -= high
    mant *= 2.0**26  # the low 26 bits, as an integer
    high_sums = np.bincount(exps, weights=high)
    low_sums = np.bincount(exps, weights=mant)
    total = 0
    for e in np.flatnonzero(high_sums).tolist():
        total += int(high_sums[e]) << (e + 26)
    for e in np.flatnonzero(low_sums).tolist():
        total += int(low_sums[e]) << e
    return total


def _fsum_blocks(blocks) -> float:
    """math.fsum over the terms of every array that ``blocks()`` yields,
    the correctly rounded sum of their concatenation, computed in integers.

    The blocks' exact sums (``_exact_block_sum``) add up as one Python int
    and one correctly rounded division ends it, so the result does not
    depend on where the blocks are cut, and its cost does not grow with the
    terms' dynamic range, where math.fsum keeps ever more partials.  Each
    block is dropped once summed.  Non-finite terms, a block of 2^26 terms
    or more and a sum that overflows go to math.fsum over a second pass of
    ``blocks()``, which then gives its own answer or error.
    """
    total = 0
    for exact in map(_exact_block_sum, blocks()):
        if exact is None:
            break
        total += exact
    else:
        try:
            return total / (1 << -_FSUM_UNIT)
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
    not negative, so a sum beyond the double range is inf, its correctly
    rounded value."""
    m = T._check_degree(m)
    xf = as_float_vector(xi, T.dim)
    T.count(m)  # the degree's own checks raise here, not in the handler below

    def terms(block):
        # e^{-<alpha, xi>/m} formed in place: d / (-m) rounds to the same
        # double as -d / m, as IEEE rounding is symmetric in sign
        alphas, dims = block
        d = alphas @ xf
        np.divide(d, -m, out=d)
        with np.errstate(over="ignore"):
            np.exp(d, out=d)
            return d if dims is None else np.multiply(d, dims, out=d)

    try:
        total = _fsum_blocks(lambda: map(terms, T._atom_blocks(m)))
    except OverflowError:
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
    worst = float(_max_vertex_norm_sq(P))
    return math.nextafter(math.sqrt(worst), math.inf)


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
            if not worst <= self.weight_bound + 1e-12:
                raise ValueError("support exceeds the weight bound")

    @property
    def atoms(self):
        return list(zip(self.lambdas.tolist(), self.masses.tolist()))


def dh_measure(T: WeightTable, xi, m) -> DHSample:
    """Duistermaat-Heckman sample of the table at degree m in direction
    xi.  The lambdas fill one array block by block.  Atoms with exactly
    equal lambda (after the float division) are merged: with unit
    multiplicities (a toric table) their masses are the counts, otherwise
    they are accumulated in exact integers, before the single division by
    N_m."""
    m = T._check_degree(m)
    xf = as_float_vector(xi, T.dim)
    lambdas = np.empty(T._rows(m))
    start = 0
    for alphas, _ in T._atom_blocks(m):
        stop = start + alphas.shape[0]
        np.divide(alphas @ xf, m, out=lambdas[start:stop])
        start = stop
    if isinstance(T, _ToricTable):
        uniq, weights = np.unique(lambdas, return_counts=True)
    else:
        uniq, inverse = np.unique(lambdas, return_inverse=True)
        weights = np.zeros(uniq.shape[0], dtype=np.int64)
        np.add.at(weights, inverse, T.dims(m))
    masses = weights / T.count(m)
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
