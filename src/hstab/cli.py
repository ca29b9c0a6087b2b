"""Command-line front door.

Five subcommands over polytope JSON (and, for ``character``, weight-table
CSV) inputs:

    check       validate a polytope file and print its basic geometry
    invariants  H / DF / Jensen report for one direction
    optimize    maximize H and report the exact stability verdict
    dh          Duistermaat-Heckman sample at one degree
    character   weight-character samples and Laurent-coefficient fit

Reports are JSON documents {"manifest": ..., "report": ...}; every float
is a 17-significant-digit decimal string and every exact rational a "p/q"
string, so report bodies are byte-identical across runs with the same
inputs (the manifest carries the wall-clock duration, the report never
does).  Diagnostics go to stderr only.  Exit codes: 0 ok, 1 an internal
numerical check failed (one ``error:`` line names the stage, the direction
and DF - H there) or memory ran out (one ``error:`` line names the stage and
the MemoryError), 2 parse or invalid parameters, 3 not reflexive, 4
unbounded direction (q = (n+1)/n * barycenter is not interior to P;
``direction`` is a facet witness), 5 non-convergence.  Codes 1-3 for library
errors are chosen by ``_contract`` alone, 4 and 5 by the optimizer status
alone; any other exception propagates, so a traceback means a bug.  4 and 5
mean the witness search failed: the exact verdict (stable iff the barycenter
is 0) is printed at every status, ``mu_supremum`` only for a converged run.

``check`` and ``invariants`` run without numpy: ``weight_rings``,
``optimal_degeneration`` and numpy are imported inside the subcommands
that build arrays.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import sys
import time
from fractions import Fraction
from numbers import Integral, Real

import click

from . import __version__
from . import invariants as inv
from . import lattice_geom as lg
from .errors import (
    HstabError,
    NotReflexive,
    NumericalCheckFailed,
    TruncationTooCoarse,
)

EXIT_PARSE = 2
EXIT_NOT_REFLEXIVE = 3
EXIT_UNBOUNDED = 4
EXIT_NO_CONVERGENCE = 5
# optimizer status -> exit code; a status not listed exits 0
_STATUS_EXIT = {
    "unbounded_direction": EXIT_UNBOUNDED,
    "max_iterations": EXIT_NO_CONVERGENCE,
}

# weight_rings.LAURENT_T_SAMPLES, spelled out so that importing this module
# does not load weight_rings; a test keeps the two equal
LAURENT_T_DEFAULT = "0.5,0.4,0.3,0.25,0.2"


def _fail(code: int, message) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _require_finite(where: str, **values) -> None:
    """Exit 2 naming the first of ``values`` that is not a finite float."""
    for name, value in values.items():
        if not math.isfinite(value):
            _fail(EXIT_PARSE, f"{where}: {name} is {value}, not finite")


def _jsonify(value):
    """Deterministic JSON form: floats as 17-significant-digit decimal
    strings, rationals as 'p/q', containers recursively.  numpy values are
    recognised without importing numpy: its floating scalars are Reals,
    its integer scalars Integrals, and an array is anything whose
    ``tolist()`` gives a list (or, at 0-d, a number)."""
    if isinstance(value, bool):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Integral):
        return int(value)
    if isinstance(value, Real):
        return format(float(value), ".17g")
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if value is None or isinstance(value, str):
        return value
    items = value.tolist() if hasattr(value, "tolist") else None
    if isinstance(items, list):
        return [_jsonify(v) for v in items]
    if isinstance(items, Real) and not isinstance(items, bool):
        return _jsonify(items)
    return str(value)


def _numerical_failure(stage: str, exc: NumericalCheckFailed, P, xi) -> None:
    """Exit 1 on an internal numerical check that failed at direction xi,
    with one line naming the stage, the check, xi and DF - H there, taken
    afresh by the unchecked formulas (``df_raw`` exact, ``h_raw``)."""
    gap = float(inv.df_raw(P, xi)) - inv.h_raw(P, xi)
    direction = ",".join(repr(float(c)) for c in xi)
    _fail(
        1,
        f"{stage}: an internal numerical check failed at xi = {direction}: "
        f"{exc} (DF - H = {gap:.17g})",
    )


@contextlib.contextmanager
def _contract(where, stage=None, P=None, xi=None):
    """Run library calls under the exit-code contract.  NotReflexive exits
    3; NumericalCheckFailed exits 1 through ``_numerical_failure`` at xi,
    or at the direction the error carries when xi is None;
    TruncationTooCoarse exits 2 with its rerun hint; any other HstabError,
    ValueError or OverflowError exits 2 on one line prefixed by ``where``,
    the option whose value was refused, when given; MemoryError exits 1 on
    one line naming ``stage`` and ``where``.  Anything else propagates."""
    try:
        yield
    except NotReflexive as exc:
        _fail(EXIT_NOT_REFLEXIVE, exc)
    except NumericalCheckFailed as exc:
        _numerical_failure(stage, exc, P, exc.xi if xi is None else xi)
    except TruncationTooCoarse as exc:
        _fail(
            EXIT_PARSE,
            f"{exc} (rerun with --m-max {exc.required_m_max} or deeper)",
        )
    except (HstabError, ValueError, OverflowError) as exc:
        _fail(EXIT_PARSE, f"{where}: {exc}" if where else exc)
    except MemoryError as exc:
        prefix = ": ".join(filter(None, (stage, where)))
        detail = f"MemoryError: {exc}" if str(exc) else "MemoryError"
        _fail(1, f"{prefix}: out of memory ({detail})")


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _emit(
    command: str, path: str, params: dict, t0: float, body: dict, output
) -> None:
    """Write the {"manifest", "report"} document to output or stdout."""
    doc = {
        "manifest": {
            "command": command,
            "input_sha256": _sha256(path),
            "parameters": _jsonify(params),
            "version": __version__,
            "duration_seconds": format(time.monotonic() - t0, ".17g"),
        },
        "report": _jsonify(body),
    }
    text = json.dumps(doc, indent=2) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _parse_xi(text: str, dim: int) -> tuple:
    with _contract(f"cannot parse --xi {text!r}"):
        vec = tuple(lg.as_rational(p) for p in text.split(","))
    if len(vec) != dim:
        _fail(
            EXIT_PARSE,
            f"--xi has {len(vec)} components, polytope has dimension {dim}",
        )
    return vec


def _load_polytope(path: str) -> lg.LatticePolytope:
    with _contract(None, "load_polytope"):
        return lg.load_polytope(path)


@click.group()
@click.version_option(version=__version__, prog_name="hstab")
def main() -> None:
    """Invariants of torus-equivariant degenerations of toric Fanos."""


@main.command("check")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
def cmd_check(path: str) -> None:
    """Validate a polytope file and print its basic geometry."""
    P = _load_polytope(path)
    with _contract(None, "check", P):
        bary = lg.barycenter(P)
        click.echo(f"name: {P.name}")
        click.echo(f"dim: {P.dim}")
        click.echo(f"vertices: {P.n_vertices}")
        click.echo(f"facets: {P.n_facets}")
        click.echo(f"lattice: {'true' if P.is_lattice() else 'false'}")
        click.echo(f"reflexive: {'true' if lg.is_reflexive(P) else 'false'}")
        click.echo(f"volume: {lg.volume(P)}")
        click.echo(f"normalized volume: {lg.normalized_volume(P)}")
        click.echo(f"barycenter: ({', '.join(str(b) for b in bary)})")


@main.command("invariants")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--xi", "xi_text", required=True, help="direction, e.g. 0.3,-1/2")
@click.option(
    "--oracle",
    "oracle_m",
    type=int,
    default=None,
    help="append brute-force recomputations from the degree-m weight table",
)
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def cmd_invariants(path: str, xi_text: str, oracle_m, output) -> None:
    """H, DF and the Jensen gap for one direction."""
    t0 = time.monotonic()
    P = _load_polytope(path)
    xi = _parse_xi(xi_text, P.dim)
    with _contract(f"--xi {xi_text}", "invariants", P, xi):
        report = inv.build_report(P, xi)
    body = dataclasses.asdict(report)
    if oracle_m is not None:
        from . import weight_rings as wr

        with _contract(f"--oracle {oracle_m}", "invariants", P, xi):
            table = wr.weight_table_toric(P, oracle_m)
            fit = wr.fit_b0_b1(table, xi)
            c0_bf = wr.c0_bruteforce(table, xi, oracle_m)
            where = f"--oracle {oracle_m} at --xi {xi_text}"
            _require_finite(where, c0=report.c0, c0_bruteforce=c0_bf)
            v = float(lg.normalized_volume(P))
            h_oracle = inv._h(P, math.log(c0_bf / v), fit.b1)
            df_oracle = inv._df(P.dim, fit.b0, fit.b1)
        body["oracle"] = {
            "m": oracle_m,
            "c0_bruteforce": c0_bf,
            "c0_deviation": abs(c0_bf - report.c0) / report.c0,
            "b0_fit": fit.b0,
            "b1_fit": fit.b1,
            "fit_residual": fit.residual,
            "b0_deviation": abs(fit.b0 - float(report.b0)),
            "b1_deviation": abs(fit.b1 - float(report.b1)),
            "h_from_oracle": h_oracle,
            "df_from_oracle": df_oracle,
        }
    _require_finite(f"--xi {xi_text}", c0=report.c0)
    _emit("invariants", path, {"xi": xi_text, "oracle": oracle_m}, t0, body, output)


@main.command("optimize")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.option("--max-iter", type=int, default=200, show_default=True)
@click.option("--trace", is_flag=True, help="include the full iterate trace")
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def cmd_optimize(path: str, tol: float, max_iter: int, trace: bool, output) -> None:
    """Maximize H over torus directions; report the stability verdict."""
    from . import optimal_degeneration as od

    t0 = time.monotonic()
    P = _load_polytope(path)
    with _contract(None, "optimize", P):
        result = od.maximize_h(P, tol=tol, max_iter=max_iter, keep_trace=trace)
        verdict = od.h_stability_verdict(P, result)
    body = {"polytope_name": P.name, "dim": P.dim, **dataclasses.asdict(result)}
    steps = body.pop("trace")
    if result.direction is None:
        del body["direction"]
    if result.converged:
        body["mu_supremum"] = od.mu_supremum(P, result)
    body["verdict"] = dataclasses.asdict(verdict)
    if trace and steps is not None:
        body["trace"] = steps
    params = {"tol": tol, "max_iter": max_iter, "trace": trace}
    _emit("optimize", path, params, t0, body, output)
    sys.exit(_STATUS_EXIT.get(result.status, 0))


@main.command("dh")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--xi", "xi_text", required=True)
@click.option("--m", "m", type=int, required=True, help="sample degree")
@click.option("--bins", type=int, default=None, help="histogram instead of atoms")
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def cmd_dh(path: str, xi_text: str, m: int, bins, output) -> None:
    """Duistermaat-Heckman sample of the toric weight table at degree m."""
    import numpy as np

    from . import weight_rings as wr

    t0 = time.monotonic()
    P = _load_polytope(path)
    xi = _parse_xi(xi_text, P.dim)
    if m < 1:
        _fail(EXIT_PARSE, f"--m must be >= 1, got {m}")
    if bins is not None and bins < 1:
        _fail(EXIT_PARSE, f"--bins must be >= 1, got {bins}")
    with _contract(f"--xi {xi_text}", "dh", P, xi):
        table = wr.weight_table_toric(P, m)
        c0_over_v = wr.c0_exact(P, xi) / float(lg.normalized_volume(P))
    with _contract(f"--m {m}", "dh", P, xi):
        sample = wr.dh_measure(table, xi, m)
        moment = wr.dh_exp_moment(sample)
    _require_finite(f"--xi {xi_text}", exp_moment=moment, c0_over_v=c0_over_v)
    body = {
        "polytope_name": P.name,
        "dim": P.dim,
        "xi": list(lg.as_float_vector(xi, P.dim)),
        "m": m,
        "n_atoms": int(sample.lambdas.size),
        "exp_moment": moment,
        "c0_over_v": c0_over_v,
        "deviation": abs(moment - c0_over_v),
        "relative_deviation": abs(moment - c0_over_v) / c0_over_v,
    }
    if bins is None:
        body["atoms"] = [
            [lam, mass] for lam, mass in sample.atoms
        ]
    else:
        lo = float(sample.lambdas.min())
        hi = float(sample.lambdas.max())
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
        with _contract(f"--bins {bins}", "dh", P, xi):
            masses, edges = np.histogram(
                sample.lambdas, bins=bins, range=(lo, hi), weights=sample.masses
            )
        body["histogram"] = {"edges": edges, "masses": masses}
    _emit("dh", path, {"xi": xi_text, "m": m, "bins": bins}, t0, body, output)


def _load_character_input(path: str, m_max: int):
    """(P, its toric table of depth m_max) for polytope JSON, (None, the
    table) for weight-table CSV, decided by content: JSON documents parse
    as JSON, everything else is treated as CSV."""
    from . import weight_rings as wr

    with open(path, "r", encoding="utf-8") as fh:
        head = fh.read(1)
    if head != "{":
        with _contract(None, "load_weight_table"):
            return None, wr.load_weight_table(path)
    P = _load_polytope(path)
    if m_max < 1:
        _fail(EXIT_PARSE, f"--m-max must be >= 1, got {m_max}")
    with _contract(None, "weight_table_toric"):
        return P, wr.weight_table_toric(P, m_max)


@main.command("character")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--xi", "xi_text", required=True)
@click.option(
    "--t",
    "t_text",
    default=LAURENT_T_DEFAULT,
    show_default=True,
    help="comma-separated t values for the sample table",
)
@click.option(
    "--m-max",
    type=int,
    default=128,
    show_default=True,
    help="table depth when the input is a polytope",
)
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def cmd_character(path: str, xi_text: str, t_text: str, m_max: int, output) -> None:
    """Weight-character samples C(xi, t) and the Laurent-coefficient fit."""
    from . import weight_rings as wr

    t0 = time.monotonic()
    P, table = _load_character_input(path, m_max)
    xi = _parse_xi(xi_text, table.dim)
    try:
        ts = [float(t) for t in t_text.split(",")]
    except ValueError:
        _fail(EXIT_PARSE, f"cannot parse --t {t_text!r}")
    if any(not (t > 0) or not math.isfinite(t) for t in ts):
        _fail(EXIT_PARSE, "all --t values must be positive and finite")
    with _contract(f"--xi {xi_text}", "character", P, xi):
        samples = [
            {"t": t, "character": wr.weight_character(table, xi, t, table.m_max)}
            for t in ts
        ]
        fit = wr.laurent_fit(table, xi)
        exact = None if P is None else lg.b0_b1_exact(P, xi)
    _require_finite(f"--xi {xi_text}", laurent_b0=fit.b0, laurent_b1=fit.b1)
    body = {
        "source": table.source,
        "dim": table.dim,
        "m_max": table.m_max,
        "xi": list(lg.as_float_vector(xi, table.dim)),
        "samples": samples,
        "laurent": {"b0": fit.b0, "b1": fit.b1},
    }
    if exact is not None:
        b0, b1 = exact
        body["exact"] = {
            "b0": b0,
            "b1": b1,
            "b0_error": abs(fit.b0 - float(b0)),
            "b1_error": abs(fit.b1 - float(b1)),
        }
    params = {"xi": xi_text, "t": t_text, "m_max": m_max}
    _emit("character", path, params, t0, body, output)


if __name__ == "__main__":
    main()
