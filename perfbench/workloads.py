"""The four benchmark workloads, run in a fresh child process each.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S
        --trace 0|1 --phase setup|run --workdir DIR [--smoke]

run from the root of a checkout (hstab is imported from ./src).  The last
line of stdout is one JSON object with the raw samples; run.py turns it
into the reported metrics.  `--phase setup` stops after set-up, so run.py
can time set-up several times.  `--smoke` runs a small slice of every
workload, for the harness's own test.

Every op is checked: exact rationals against the recorded references
exactly, floats by relative error, CLI report bodies byte for byte (as a
SHA-256 of the re-serialized `report`, the manifest excluded), plus the
identities gap >= 0, gap = DF - H, H(0) = 0 and |grad| < tol at a
converged optimum.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
from core import (  # noqa: E402
    FIT_RTOL, RTOL, KnownFailure, Mismatch, Runner, Tracer, calibration_sample, speed_factors,
)

MAXIMIZE_CAP = 5  # Newton iteration cap in product_4d
TOL = 1e-9  # the library's default maximize_h tolerance
TABLES = tuple((name, 128) for name in gen.CORPUS if name not in ("interval", "cube")) + (
    ("cube", 32),
)
CHARACTER_T = 0.3
CSV_SOURCE = ("triangle_dual", 96)
CSV_NAME = "weight_table.csv"
ORACLE_M = 64
DH_M = 8
DH_BINS_M = 16
DH_BINS = 16
CLI_TIMEOUT = 120.0
SETUP_CAL = 5  # calibration samples before and after set-up
# address-space cap for the default-depth cube `character` child
CUBE_CAP_BYTES = 512 << 20
KNOWN_STALL = "ROADMAP 4: Newton stall, absolute tol below the gradient's roundoff floor"
KNOWN_OOM = "ROADMAP 3: default-depth cube weight table does not fit in memory"


def corpus_file(root, name):
    return os.path.join(root, "src", "hstab", "corpus", f"{name}.json")


def load_vertices(root, name):
    with open(corpus_file(root, name), encoding="utf-8") as fh:
        return json.load(fh)["vertices"]


def direction_pool(name, edge_list) -> dict:
    """Every pool direction of one polytope, keyed "regime/index"."""
    return {
        f"{regime}/{i}": gen.direction(name, regime, i, edge_list)
        for regime in gen.REGIMES
        for i in range(gen.POOL)
    }


def product_edges(root, a, b) -> list:
    """Edge vectors of the product of two corpus polytopes, from the
    factors' own hulls."""
    from hstab import lattice_geom as lg

    factors = [lg.build_polytope(load_vertices(root, f), name=f) for f in (a, b)]
    (ea, da), (eb, db) = ((gen.edge_vectors(P.vertices, P.facets), P.dim) for P in factors)
    return gen.product_edge_vectors(ea, da, eb, db)


# ---------------------------------------------------------------------------
# output extraction, shared with record.py so references and checks agree


def facets_digest(P) -> str:
    facets = sorted((tuple(str(c) for c in f.normal), str(f.offset)) for f in P.facets)
    return hashlib.sha256(repr(facets).encode()).hexdigest()


def report_values(r) -> dict:
    return {
        "volume": str(r.volume),
        "normalized_volume": str(r.normalized_volume),
        "b0": str(r.b0),
        "b1": str(r.b1),
        "df_exact": str(r.df_exact),
        "c0": r.c0,
        "h": r.h,
        "df": r.df,
        "jensen_gap": r.jensen_gap,
    }


def moments_values(out) -> dict:
    shift, i0, i1, i2 = out
    return {"shift": shift, "i0": i0, "i1": i1, "i2": i2}


def optimize_values(res) -> dict:
    return {
        "status": res.status,
        "xi_star": res.xi_star.tolist(),
        "h_star": res.h_star,
        "grad_norm": res.grad_norm,
        "iterations": res.iterations,
    }


def points_digest(pts) -> str:
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(pts, dtype=np.int64).tobytes()).hexdigest()


def table_values(T) -> dict:
    return {
        "counts": [T.count(m) for m in range(1, T.m_max + 1)],
        "total": sum(T.count(m) for m in range(1, T.m_max + 1)),
        "top": T.count(T.m_max),
        "moment_top": list(T.moment(T.m_max)),
    }


def body_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# checks


def check_report(ck, r, ref):
    vals = report_values(r)
    for key in ("volume", "normalized_volume", "b0", "b1", "df_exact"):
        ck.exact(key, vals[key], ref[key])
    for key in ("c0", "h", "df", "jensen_gap"):
        ck.close(key, vals[key], ref[key])
    ck.require(f"Jensen gap {r.jensen_gap!r} < 0", r.jensen_gap >= 0.0)
    ck.require(
        "Jensen gap differs from DF - H beyond 1e-12",
        abs(r.jensen_gap - (r.df - r.h)) <= 1e-12 * max(1.0, abs(r.jensen_gap)),
    )


def check_moments(ck, out, ref):
    vals = moments_values(out)
    for key in ("shift", "i0", "i1", "i2"):
        if ref[key] is None:
            ck.require(f"exp_moments {key} should be None", vals[key] is None)
        else:
            ck.close(f"exp_moments {key}", vals[key], ref[key])


def check_optimum(ck, res, ref):
    stalled = ref["status"] != "converged"
    # a capped, stalled reference run still sits at the maximizer to ~1e-8
    rtol = 1e-6 if stalled else RTOL
    if stalled and res.status == ref["status"]:
        # the known stall, failing in its recorded way: at the recorded
        # maximizer; a fix shows as a converged run below
        ck.close("xi_star", res.xi_star, ref["xi_star"], rtol)
        ck.close("h_star", res.h_star, ref["h_star"], rtol)
        raise KnownFailure(
            KNOWN_STALL,
            f"maximize_h {res.status} after {res.iterations} iterations, "
            f"|grad| = {res.grad_norm:.3g}",
        )
    if res.status != "converged":
        raise Mismatch(
            f"maximize_h status {res.status} after {res.iterations} iterations, "
            f"|grad| = {res.grad_norm:.3g}"
        )
    ck.require(f"|grad| = {res.grad_norm:.3g} not below tol", res.grad_norm < TOL)
    ck.close("xi_star", res.xi_star, ref["xi_star"], rtol)
    ck.close("h_star", res.h_star, ref["h_star"], rtol)


def check_table(ck, T, ref):
    vals = table_values(T)
    for key in ("total", "top", "moment_top"):
        ck.exact(f"table {key}", vals[key], ref[key])


def dd_evals(simplices, n, order):
    """Divided differences one exp_moments call evaluates (computed from
    its loop structure): S, S(n+2), S(1 + (n+1) + (n+1)(n+2)/2)."""
    s = len(simplices)
    return s * (1, n + 2, 1 + (n + 1) + (n + 1) * (n + 2) // 2)[order]


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """setup() loads and generates inputs; ops(cycle, tag) yields
    (name, fn, check) for one cycle of closed-loop operations."""

    def __init__(self, args, refs, tracer: Tracer, runner: Runner):
        self.args = args
        self.refs = refs
        self.tr = tracer
        self.ck = runner.checker
        self.root = os.getcwd()
        self.regimes = {}

    def count_regime(self, regime):
        self.regimes[regime] = self.regimes.get(regime, 0) + 1

    def pick(self, rng, name, regime, ref):
        """Draw a pool direction of `regime`; returns it with its reference
        entry, after checking the generator still produces the recorded xi."""
        key = f"{regime}/{rng.randrange(gen.POOL)}"
        xi = self.pool[name][key]
        entry = ref["dirs"][key]
        self.ck.exact("generated xi", xi, entry["xi"])
        self.count_regime(regime)
        return xi, entry

    def build(self, vertices, name):
        from hstab import lattice_geom as lg

        npts = len(set(tuple(v) for v in vertices))
        d = len(vertices[0])
        return self.tr.call(
            "lattice_geom.build_polytope",
            lg.build_polytope,
            vertices,
            name=name,
            work=lambda P: {"subsets": math.comb(npts, d), "facets": P.n_facets},
        )


class CorpusDirections(Workload):
    """Interactive H/DF traffic on the 8 corpus polytopes, four direction
    regimes each; simplex_calculus does nearly all the work."""

    def setup(self):
        from hstab import lattice_geom as lg

        names = gen.CORPUS[:2] if self.args.smoke else gen.CORPUS
        self.P, self.tri, self.pool = {}, {}, {}
        for name in names:
            P = self.build(load_vertices(self.root, name), name)
            self.P[name] = P
            self.tri[name] = self.tr.call(
                "lattice_geom.triangulate", lg.triangulate, P,
                work=lambda T: {"simplices": len(T.simplices)},
            ).simplices
            self.pool[name] = direction_pool(name, gen.edge_vectors(P.vertices, P.facets))

    def ops(self, cycle, tag):
        from hstab import invariants as inv
        from hstab import optimal_degeneration as od
        from hstab import simplex_calculus as sc

        tr, ck = self.tr, self.ck
        rng = gen.picks(self.args.seed, "corpus_directions", cycle)
        for name, P in self.P.items():
            ref = self.refs["corpus"][name]
            tri = self.tri[name]
            n = P.dim
            for regime in gen.REGIMES:
                xi, d = self.pick(rng, name, regime, ref)
                yield (
                    "build_report",
                    lambda xi=xi: tr.call("invariants.build_report", inv.build_report, P, xi),
                    lambda r, d=d: check_report(ck, r, d["report"]),
                )
                yield (
                    "h_gradient",
                    lambda xi=xi: tr.call("optimal_degeneration.h_gradient", od.h_gradient, P, xi),
                    lambda g, d=d: ck.close("h_gradient", g, d["grad"]),
                )
                yield (
                    "h_hessian",
                    lambda xi=xi: tr.call("optimal_degeneration.h_hessian", od.h_hessian, P, xi),
                    lambda h, d=d: ck.close("h_hessian", h, d["hess"]),
                )
                for order in (0, 1, 2):
                    yield (
                        f"exp_moments.o{order}",
                        lambda xi=xi, order=order: tr.call(
                            f"simplex_calculus.exp_moments.o{order}",
                            sc.exp_moments, tri, xi, order,
                            work=lambda _out, order=order: {"dd_evals": dd_evals(tri, n, order)},
                        ),
                        lambda out, d=d, order=order: check_moments(ck, out, d["m"][order]),
                    )
            # H(0), H and the gap once more on the last direction drawn
            zero = [0.0] * n
            yield (
                "h_invariant",
                lambda: tr.call("invariants.h_invariant", inv.h_invariant, P, zero),
                lambda h: ck.require(f"H(0) = {h!r}, not 0", h == 0.0),
            )
            yield (
                "h_invariant",
                lambda xi=xi: tr.call("invariants.h_invariant", inv.h_invariant, P, xi),
                lambda h, d=d: ck.close("h_invariant", h, d["report"]["h"]),
            )
            yield (
                "jensen_gap",
                lambda xi=xi: tr.call("invariants.jensen_gap", inv.jensen_gap, P, xi),
                lambda g, d=d: ck.close("jensen_gap", g, d["report"]["jensen_gap"]),
            )
            yield (
                "maximize_h",
                lambda: tr.call(
                    "optimal_degeneration.maximize_h", od.maximize_h, P, keep_trace=True,
                    work=_optimize_work,
                ),
                lambda res, ref=ref: check_optimum(ck, res, ref["maximize_h"]),
            )


def _optimize_work(res):
    return {
        "iterations": res.iterations,
        "trace_len": len(res.trace or ()),
        "converged": int(res.converged),
    }


class Product4D(Workload):
    """4-D products: the exhaustive hull and the Newton line search."""

    def setup(self):
        products = gen.PRODUCTS[1:2] if self.args.smoke else gen.PRODUCTS
        self.products, self.pool = {}, {}
        for a, b in products:
            pname = gen.product_name(a, b)
            self.products[pname] = gen.product_vertices(
                load_vertices(self.root, a), load_vertices(self.root, b)
            )
            # the factors' edges give the product's edges without its hull
            self.pool[pname] = direction_pool(pname, product_edges(self.root, a, b))

    def ops(self, cycle, tag):
        from hstab import invariants as inv
        from hstab import lattice_geom as lg
        from hstab import optimal_degeneration as od

        tr, ck = self.tr, self.ck
        rng = gen.picks(self.args.seed, "product_4d", cycle)
        for pname, pts in self.products.items():
            ref = self.refs["products"][pname]
            # a fresh name per (phase, cycle) keeps hstab's per-polytope
            # caches cold, as for a newly constructed polytope
            uname = f"{pname}#{tag}{cycle}"
            box = {}

            def hull(pts=pts, uname=uname, box=box):
                box["P"] = self.build(pts, uname)
                return box["P"]

            def check_hull(P, ref=ref):
                ck.exact("n_vertices", P.n_vertices, ref["n_vertices"])
                ck.exact("n_facets", P.n_facets, ref["n_facets"])
                ck.exact("facets", facets_digest(P), ref["facets_sha256"])
                ck.require("product is not reflexive", lg.is_reflexive(P))

            yield ("build_polytope", hull, check_hull)
            yield (
                "triangulate",
                lambda box=box: tr.call(
                    "lattice_geom.triangulate", lg.triangulate, box["P"],
                    work=lambda T: {"simplices": len(T.simplices)},
                ),
                lambda T, ref=ref: ck.exact("simplices", len(T.simplices), ref["n_simplices"]),
            )

            def moments(box=box):
                P = box["P"]
                return tr.call(
                    "lattice_geom.moments",
                    lambda: (lg.volume(P), lg.moment_vector(P), lg.boundary_moment_vector(P)),
                )

            def check_moments_exact(out, ref=ref):
                vol, mom, bmom = out
                ck.exact("volume", vol, ref["volume"])
                ck.exact("moment_vector", [str(c) for c in mom], ref["moment"])
                ck.exact("boundary_moment_vector", [str(c) for c in bmom], ref["boundary_moment"])

            yield ("moments", moments, check_moments_exact)
            for regime in gen.REGIMES * 2:
                xi, d = self.pick(rng, pname, regime, ref)
                yield (
                    "build_report",
                    lambda xi=xi, box=box: tr.call(
                        "invariants.build_report", inv.build_report, box["P"], xi
                    ),
                    lambda r, d=d: check_report(ck, r, d["report"]),
                )
            yield (
                "maximize_h",
                lambda box=box: tr.call(
                    "optimal_degeneration.maximize_h", od.maximize_h, box["P"],
                    max_iter=MAXIMIZE_CAP, keep_trace=True, work=_optimize_work,
                ),
                lambda res, ref=ref: check_optimum(ck, res, ref["maximize_h"]),
            )


class WeightTables(Workload):
    """Toric weight tables: enumeration and per-degree statistics; memory is
    the limit and simplex_calculus sits idle."""

    def setup(self):
        from hstab import lattice_geom as lg

        self.tables = TABLES[2:3] if self.args.smoke else TABLES
        self.P, self.pool = {}, {}
        for name, _ in self.tables:
            P = self.build(load_vertices(self.root, name), name)
            self.P[name] = P
            self.pool[name] = direction_pool(name, gen.edge_vectors(P.vertices, P.facets))
        self.lg = lg

    def ops(self, cycle, tag):
        from hstab import weight_rings as wr

        tr, ck, lg = self.tr, self.ck, self.lg
        rng = gen.picks(self.args.seed, "weight_tables", cycle)
        for name, depth in self.tables:
            P = self.P[name]
            ref = self.refs["tables"][f"{name}@{depth}"]
            box = {}

            # one op per degree: materializing degree m enumerates the lattice
            # points of mP and sums their moment
            def fill(m, P=P, depth=depth, box=box):
                def run():
                    if m == 1:
                        box["T"] = wr.weight_table_toric(P, depth)
                    box["T"].alphas(m)
                    box["T"].moment(m)
                    return box["T"]

                return tr.call(
                    "weight_rings.table_fill", run, work=lambda T: {"points": T.count(m)}
                )

            def check_fill(T, m, ref=ref["fill"]):
                ck.exact(f"degree {m} count", T.count(m), ref["counts"][m - 1])
                if m == T.m_max:
                    check_table(ck, T, ref)

            for m in range(1, depth + 1):
                yield (
                    "table_fill",
                    lambda m=m: fill(m),
                    lambda T, m=m: check_fill(T, m),
                )

            def check_points(pts, ref=ref):
                ck.exact("lattice points", int(pts.shape[0]), ref["lattice_points"]["n"])
                ck.exact("lattice points digest", points_digest(pts), ref["lattice_points"]["sha256"])

            yield (
                "lattice_points",
                lambda P=P, depth=depth: tr.call(
                    "lattice_geom.lattice_points", lg.lattice_points, P, depth,
                    work=lambda pts: {"points": int(pts.shape[0]), "bytes": int(pts.nbytes)},
                ),
                check_points,
            )
            for regime in gen.REGIMES:
                xi, d = self.pick(rng, name, regime, ref)
                yield (
                    "c0_bruteforce",
                    lambda xi=xi, box=box, depth=depth: tr.call(
                        "weight_rings.c0_bruteforce", wr.c0_bruteforce, box["T"], xi, depth
                    ),
                    lambda v, d=d: ck.close("c0_bruteforce", v, d["c0_bruteforce"]),
                )
                yield (
                    "c0_estimate",
                    lambda xi=xi, box=box: tr.call(
                        "weight_rings.c0_estimate", wr.c0_estimate, box["T"], xi
                    ),
                    lambda v, d=d: ck.close("c0_estimate", v, d["c0_estimate"]),
                )
                yield (
                    "fit_b0_b1",
                    lambda xi=xi, box=box: tr.call(
                        "weight_rings.fit_b0_b1", wr.fit_b0_b1, box["T"], xi
                    ),
                    lambda f, d=d: ck.close("fit_b0_b1", [f.b0, f.b1], d["fit"], FIT_RTOL),
                )

                def check_dh(D, d=d):
                    ck.exact("dh atoms", int(D.lambdas.size), d["dh"]["n_atoms"])
                    ck.close("dh exp moment", wr.dh_exp_moment(D), d["dh"]["exp_moment"])

                yield (
                    "dh_measure",
                    lambda xi=xi, box=box, depth=depth: tr.call(
                        "weight_rings.dh_measure", wr.dh_measure, box["T"], xi, depth
                    ),
                    check_dh,
                )
                yield (
                    "weight_character",
                    lambda xi=xi, box=box, depth=depth: tr.call(
                        "weight_rings.weight_character", wr.weight_character,
                        box["T"], xi, CHARACTER_T, depth,
                    ),
                    lambda v, d=d: ck.close("weight_character", v, d["character"]),
                )
                if "laurent" in d:
                    yield (
                        "laurent_fit",
                        lambda xi=xi, box=box: tr.call(
                            "weight_rings.laurent_fit", wr.laurent_fit, box["T"], xi
                        ),
                        lambda f, d=d: ck.close("laurent_fit", [f.b0, f.b1], d["laurent"], FIT_RTOL),
                    )
            # the table is dropped before the next one is built
            box.clear()


# ---------------------------------------------------------------------------
# CLI


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv, cwd, env, cap=None, timeout=CLI_TIMEOUT, out_dir=None, stem="child"):
    """Run one child to completion, its output going to <stem>.stdout and
    <stem>.stderr in `out_dir` (default `cwd`); returns (exit code, stdout
    bytes, wall seconds, peak RSS in MB from os.wait4, which covers that
    child and the children it waited for).  `cap` is an address-space
    limit set in the child only."""
    out_path = os.path.join(out_dir or cwd, f"{stem}.stdout")
    err_path = os.path.join(out_dir or cwd, f"{stem}.stderr")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        # a session of its own, so a timeout kills the child's children too
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdout=out, stderr=err,
            preexec_fn=limit if cap else None, start_new_session=True,
        )
        timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    return proc.returncode, stdout, wall, usage.ru_maxrss / 1024.0


def cli_catalogue():
    """Every CLI invocation a cycle may draw, as key -> (subcommand, argv
    after the program name, uses the CSV).  Keys name polytopes, not paths."""
    dims = {"interval": 1, "cube": 3}
    cat = {}
    for name in gen.CORPUS:
        n = dims.get(name, 2)
        cat[f"check {name}"] = ("check", ["check", ("corpus", name)])
        cat[f"optimize {name}"] = (
            "optimize", ["optimize", ("corpus", name), "--trace", "--output", "report.json"]
        )
        for xi in gen.CLI_XI[n]:
            cat[f"invariants {name} {xi}"] = (
                "invariants",
                ["invariants", ("corpus", name), "--xi", xi, "--output", "report.json"],
            )
            cat[f"dh {name} {xi}"] = (
                "dh",
                ["dh", ("corpus", name), "--xi", xi, "--m", str(DH_M), "--output", "report.json"],
            )
            cat[f"dh-bins {name} {xi}"] = (
                "dh",
                ["dh", ("corpus", name), "--xi", xi, "--m", str(DH_BINS_M),
                 "--bins", str(DH_BINS), "--output", "report.json"],
            )
            if n == 2:
                cat[f"invariants-oracle {name} {xi}"] = (
                    "invariants",
                    ["invariants", ("corpus", name), "--xi", xi, "--oracle", str(ORACLE_M),
                     "--output", "report.json"],
                )
                cat[f"character {name} {xi}"] = (
                    "character",
                    ["character", ("corpus", name), "--xi", xi, "--output", "report.json"],
                )
    for xi in gen.CLI_XI[2]:
        cat[f"character-csv {xi}"] = (
            "character", ["character", CSV_NAME, "--xi", xi, "--output", "report.json"]
        )
    return cat


CUBE_DEFAULT = ("character", ["character", ("corpus", "cube"), "--xi", "1,1,1",
                              "--output", "report.json"])


def cli_argv(root, argv):
    args = [corpus_file(root, a[1]) if isinstance(a, tuple) else a for a in argv]
    return [sys.executable, "-m", "hstab.cli"] + args


def cli_outcome(workdir, argv, stdout):
    """Digest of what the CLI produced: the re-serialized report body when
    it wrote --output, else its stdout."""
    if "--output" in argv:
        path = os.path.join(workdir, argv[argv.index("--output") + 1])
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if "manifest" not in doc:
            raise Mismatch("report has no manifest")
        body = json.dumps(doc["report"], indent=2).encode()
        os.remove(path)
        return body_digest(body), doc["report"]
    return body_digest(stdout), None


def last_line(path) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    return lines[-1] if lines else ""


IMPORT_PROBE = "import time; t = time.perf_counter(); import hstab.cli; print(time.perf_counter() - t)"


class CliPipeline(Workload):
    """One `hstab` child at a time over every subcommand, reports through
    --output, plus the CSV write (set-up) and read paths."""

    def setup(self):
        self.env = child_env(self.root)
        self.catalogue = cli_catalogue()
        self.csv = os.path.join(self.args.workdir, CSV_NAME)
        if not self.args.smoke:
            out = self.csv_step("save")
            self.tr.record("weight_rings.save_weight_table", out["seconds"],
                           {"rows": out["rows"], "bytes": out["bytes"]})

    def csv_step(self, action):
        """save_weight_table or load_weight_table in a child of its own, so
        this process stays free of numpy (see csv_step.py)."""
        code, stdout, _wall, _rss = run_child(
            [sys.executable, os.path.join(HERE, "csv_step.py"), action, self.csv],
            self.root, self.env, out_dir=self.args.workdir, stem="csv",
        )
        if code != 0:
            raise RuntimeError(f"csv_step.py {action} exited {code}")
        return json.loads(stdout)

    def cli_op(self, key, spec, cap=None):
        sub, argv = spec
        wd = self.args.workdir
        argv_full = cli_argv(self.root, argv)
        ref = self.refs["cli"].get(key)

        def run():
            code, stdout, wall, rss = run_child(argv_full, wd, self.env, cap=cap)
            self.tr.record(f"cli.{sub}", wall, {"rss_mb": rss})
            if code == 0:
                return (code,) + cli_outcome(wd, argv, stdout) + (None,)
            return code, None, None, last_line(os.path.join(wd, "child.stderr"))

        def check(out):
            code, digest, report, error = out
            if cap and code == 1 and "MemoryError" in error:
                raise KnownFailure(KNOWN_OOM, f"{key}: exit 1, {error[:120]}")
            if code != ref["exit"]:
                raise Mismatch(f"{key}: exit {code}, expected {ref['exit']}: {error}")
            if "sha256" in ref:
                self.ck.exact(f"{key} report body", digest, ref["sha256"])
            else:  # the reference commit failed here: check against exact b0, b1
                for k in ("b0", "b1"):
                    self.ck.exact(f"{key} exact {k}", report["exact"][k], ref[k])
                    err = float(report["exact"][f"{k}_error"])
                    self.ck.require(f"{key}: Laurent {k} error {err:.3g}", err < 1e-6)

        return (f"cli.{sub}", run, check)

    def ops(self, cycle, tag):
        rng = gen.picks(self.args.seed, "cli_pipeline", cycle)
        cat = self.catalogue
        smoke = self.args.smoke
        names = list(gen.CORPUS[:2] if smoke else gen.CORPUS)
        plane = [n for n in names if n not in ("interval", "cube")] or ["square"]

        def xi_of(name):
            n = {"interval": 1, "cube": 3}.get(name, 2)
            self.count_regime("exact_text")
            return rng.choice(gen.CLI_XI[n])

        for _ in range(1 if smoke else 2):
            yield ("cli.import", self.import_probe, lambda out: None)
        for name in names:
            yield self.cli_op(f"check {name}", cat[f"check {name}"])
        picks = names + ([] if smoke else [rng.choice(names) for _ in range(4)])
        for name in picks:
            key = f"invariants {name} {xi_of(name)}"
            yield self.cli_op(key, cat[key])
        for _ in range(1 if smoke else 2):
            name = rng.choice(plane)
            key = f"invariants-oracle {name} {xi_of(name)}"
            yield self.cli_op(key, cat[key])
        for name in rng.sample(names, 1 if smoke else 4):
            yield self.cli_op(f"optimize {name}", cat[f"optimize {name}"])
        for kind in ("dh", "dh-bins"):
            for _ in range(1 if smoke else 4):
                name = rng.choice(names)
                key = f"{kind} {name} {xi_of(name)}"
                yield self.cli_op(key, cat[key])
        if smoke:
            return
        for _ in range(2):
            name = rng.choice(plane)
            key = f"character {name} {xi_of(name)}"
            yield self.cli_op(key, cat[key])
        key = f"character-csv {rng.choice(gen.CLI_XI[2])}"
        yield self.cli_op(key, cat[key])
        yield self.cli_op("character cube default", CUBE_DEFAULT, cap=CUBE_CAP_BYTES)
        yield ("load_weight_table", self.load_csv, self.check_csv)

    def load_csv(self):
        out = self.csv_step("load")
        self.tr.record("weight_rings.load_weight_table", out["seconds"], {"rows": out["total"]})
        return out

    def check_csv(self, out):
        ref = self.refs["csv"]
        for key in ("counts", "total", "top", "moment_top"):
            self.ck.exact(f"loaded table {key}", out[key], ref[key])

    def import_probe(self):
        code, stdout, _wall, _rss = run_child(
            [sys.executable, "-c", IMPORT_PROBE], self.args.workdir, self.env
        )
        if code != 0:
            raise RuntimeError(f"importing hstab.cli exited {code}")
        seconds = float(stdout.decode().strip())
        self.tr.record("cli.import", seconds)
        return seconds


WORKLOADS = {
    "corpus_directions": CorpusDirections,
    "product_4d": Product4D,
    "weight_tables": WeightTables,
    "cli_pipeline": CliPipeline,
}


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def layer_metrics(spans, cycles: int) -> dict:
    """Per-layer metrics: `.ms` is the mean span per call, `.calls` calls
    per traced cycle, other counts (computed from outside the program)
    per call unless named otherwise."""
    by = {}
    for name, _op, t0, t1, work in spans:
        entry = by.setdefault(name, {"ms": [], "work": []})
        entry["ms"].append((t1 - t0) * 1000.0)
        if work:
            entry["work"].append(work)

    def mean_ms(name):
        xs = by.get(name, {}).get("ms", [])
        return sum(xs) / len(xs) if xs else 0.0

    def work_sum(name, key):
        return sum(w.get(key, 0) for w in by.get(name, {}).get("work", []))

    def per_call(name, key):
        n = len(by.get(name, {}).get("work", []))
        return work_sum(name, key) / n if n else 0.0

    m = {}
    bp = "lattice_geom.build_polytope"
    m[bp + ".ms"] = mean_ms(bp)
    m[bp + ".calls"] = len(by.get(bp, {}).get("ms", [])) / max(cycles, 1)
    m[bp + ".subsets"] = per_call(bp, "subsets")
    subsets = work_sum(bp, "subsets")
    m[bp + ".facets_per_subset"] = work_sum(bp, "facets") / subsets if subsets else 0.0
    m["lattice_geom.triangulate.ms"] = mean_ms("lattice_geom.triangulate")
    m["lattice_geom.triangulate.simplices"] = per_call("lattice_geom.triangulate", "simplices")
    m["lattice_geom.moments.ms"] = mean_ms("lattice_geom.moments")
    lp = "lattice_geom.lattice_points"
    m[lp + ".ms"] = mean_ms(lp)
    m[lp + ".points"] = per_call(lp, "points")
    m[lp + ".bytes"] = per_call(lp, "bytes")
    em = "simplex_calculus.exp_moments"
    for order in (0, 1, 2):
        m[f"{em}.o{order}.ms"] = mean_ms(f"{em}.o{order}")
    calls = sum(len(by.get(f"{em}.o{o}", {}).get("ms", [])) for o in (0, 1, 2))
    evals = sum(work_sum(f"{em}.o{o}", "dd_evals") for o in (0, 1, 2))
    m[em + ".dd_evals"] = evals / calls if calls else 0.0
    for fn in ("build_report", "h_invariant", "jensen_gap"):
        m[f"invariants.{fn}.ms"] = mean_ms(f"invariants.{fn}")
    mx = "optimal_degeneration.maximize_h"
    m[mx + ".ms"] = mean_ms(mx)
    m[mx + ".iterations"] = per_call(mx, "iterations")
    m[mx + ".trace_len"] = per_call(mx, "trace_len")
    m[mx + ".converged_ratio"] = per_call(mx, "converged")
    for fn in ("h_gradient", "h_hessian"):
        m[f"optimal_degeneration.{fn}.ms"] = mean_ms(f"optimal_degeneration.{fn}")
    m["weight_rings.table_fill.ms"] = mean_ms("weight_rings.table_fill")
    m["weight_rings.table_fill.points"] = per_call("weight_rings.table_fill", "points")
    for fn in ("c0_bruteforce", "c0_estimate", "fit_b0_b1", "dh_measure",
               "weight_character", "laurent_fit"):
        m[f"weight_rings.{fn}.ms"] = mean_ms(f"weight_rings.{fn}")
    sv, ld = "weight_rings.save_weight_table", "weight_rings.load_weight_table"
    m[sv + ".ms"] = mean_ms(sv)
    m[sv + ".rows"] = per_call(sv, "rows")
    m[sv + ".bytes"] = per_call(sv, "bytes")
    m[ld + ".ms"] = mean_ms(ld)
    load_s = sum(by.get(ld, {}).get("ms", [])) / 1000.0
    m[ld + ".rows_per_s"] = work_sum(ld, "rows") / load_s if load_s else 0.0
    m["cli.import_ms"] = mean_ms("cli.import")
    for sub in ("check", "invariants", "optimize", "dh", "character"):
        m[f"cli.{sub}.wall_ms"] = mean_ms(f"cli.{sub}")
        rss = [w["rss_mb"] for w in by.get(f"cli.{sub}", {}).get("work", [])]
        m[f"cli.{sub}.peak_rss_mb"] = max(rss, default=0.0)
    return m


# ---------------------------------------------------------------------------
# main


def run_cycles(wl, runner, seconds, tag, max_cycles=None):
    """Whole cycles until `seconds` have passed (or `max_cycles` are done);
    returns (cycles, wall seconds)."""
    t0 = time.perf_counter()
    cycles = 0
    while True:
        runner.cycle = (tag, cycles)
        for name, fn, check in wl.ops(cycles, tag):
            runner.op(name, fn, check)
        cycles += 1
        wall = time.perf_counter() - t0
        if max_cycles is not None:
            if cycles >= max_cycles:
                return cycles, wall
        elif wall >= seconds:
            return cycles, wall


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--phase", choices=("setup", "run"), default="run")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    tracer = Tracer(enabled=bool(args.trace))
    runner = Runner(tracer)

    # set-up: imports and input generation (and, for cli_pipeline, the CSV),
    # between calibration samples
    cal = [calibration_sample() for _ in range(SETUP_CAL)]
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    wl = WORKLOADS[args.workload](args, refs, tracer, runner)
    wl.setup()
    setup_s = time.perf_counter() - t0
    cal += [calibration_sample() for _ in range(SETUP_CAL)]
    result = {"setup_s": setup_s, "setup_cal_s": cal}
    if args.phase == "setup":
        print(json.dumps(result))
        return 0

    if args.trace:
        # untraced cycles, then the same cycles traced: the difference in
        # speed-calibrated op time is the tracing overhead
        tracer.enabled = False
        cycles, _ = run_cycles(wl, runner, args.seconds / 2, "u")
        tracer.enabled = True
        run_cycles(wl, runner, 0, "t", max_cycles=cycles)
        spans = tracer.spans
        layers = layer_metrics(spans, cycles)
        busy = {"u": 0.0, "t": 0.0}
        speed = speed_factors(len(runner.samples), runner.calib)
        for (_name, (tag, _n), seconds, _ok), f in zip(runner.samples, speed):
            busy[tag] += seconds * f
        layers["trace.overhead_ms"] = (busy["t"] - busy["u"]) * 1000.0 / cycles
        result["layers"] = layers
        with open(os.path.join(args.workdir, "..", f"spans-{args.workload}.json"), "w") as fh:
            json.dump([list(s) for s in spans], fh)
    else:
        cycles, wall = run_cycles(wl, runner, args.seconds, "r")
        result["wall_s"] = wall
    result.update(
        cycles=cycles,
        failures=runner.failures,
        samples=runner.samples,
        calib=runner.calib,
        max_rel_err=runner.checker.max_rel_err,
        regimes=wl.regimes,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
