"""Record reference outputs for every input the benchmark can draw.

    python3 perfbench/record.py

run from the root of a checkout, writes perfbench/reference.json.  Run it
once on the commit whose outputs are the reference; the benchmark then
compares every later commit against them.  Every pool direction of every
polytope, product and table is recorded, so any --seed is covered.  Takes
a few minutes (every CLI variant is run once).
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import gen  # noqa: E402
import workloads as W  # noqa: E402
from core import git_sha  # noqa: E402


def record_directions(name, edge_list, fn):
    return {key: dict(xi=xi, **fn(xi)) for key, xi in W.direction_pool(name, edge_list).items()}


def record_corpus(root):
    from hstab import invariants as inv
    from hstab import lattice_geom as lg
    from hstab import optimal_degeneration as od
    from hstab import simplex_calculus as sc

    refs = {}
    for name in gen.CORPUS:
        P = lg.build_polytope(W.load_vertices(root, name), name=name)
        tri = lg.triangulate(P).simplices

        def one(xi, P=P, tri=tri):
            return {
                "report": W.report_values(inv.build_report(P, xi)),
                "grad": od.h_gradient(P, xi).tolist(),
                "hess": od.h_hessian(P, xi).tolist(),
                "m": [W.moments_values(sc.exp_moments(tri, xi, o)) for o in (0, 1, 2)],
            }

        refs[name] = {
            "maximize_h": W.optimize_values(od.maximize_h(P, keep_trace=True)),
            "dirs": record_directions(name, gen.edge_vectors(P.vertices, P.facets), one),
        }
        print("corpus", name, flush=True)
    return refs


def record_products(root):
    from hstab import invariants as inv
    from hstab import lattice_geom as lg
    from hstab import optimal_degeneration as od

    refs = {}
    for a, b in gen.PRODUCTS:
        pname = gen.product_name(a, b)
        vertices = gen.product_vertices(W.load_vertices(root, a), W.load_vertices(root, b))
        P = lg.build_polytope(vertices, name=pname)
        edge_list = W.product_edges(root, a, b)
        res = od.maximize_h(P, max_iter=W.MAXIMIZE_CAP, keep_trace=True)
        refs[pname] = {
            "n_vertices": P.n_vertices,
            "n_facets": P.n_facets,
            "facets_sha256": W.facets_digest(P),
            "n_simplices": len(lg.triangulate(P).simplices),
            "volume": str(lg.volume(P)),
            "moment": [str(c) for c in lg.moment_vector(P)],
            "boundary_moment": [str(c) for c in lg.boundary_moment_vector(P)],
            "maximize_h": W.optimize_values(res),
            "dirs": record_directions(
                pname, edge_list,
                lambda xi: {"report": W.report_values(inv.build_report(P, xi))},
            ),
        }
        print("product", pname, res.status, flush=True)
    return refs


def record_tables(root):
    from hstab import lattice_geom as lg
    from hstab import weight_rings as wr

    refs = {}
    for name, depth in W.TABLES:
        P = lg.build_polytope(W.load_vertices(root, name), name=name)
        T = wr.weight_table_toric(P, depth)
        pts = lg.lattice_points(P, depth)

        def one(xi, T=T, depth=depth):
            fit = wr.fit_b0_b1(T, xi)
            D = wr.dh_measure(T, xi, depth)
            out = {
                "c0_bruteforce": wr.c0_bruteforce(T, xi, depth),
                "c0_estimate": wr.c0_estimate(T, xi),
                "fit": [fit.b0, fit.b1],
                "dh": {"n_atoms": int(D.lambdas.size), "exp_moment": wr.dh_exp_moment(D)},
                "character": wr.weight_character(T, xi, W.CHARACTER_T, depth),
            }
            if depth >= wr.laurent_required_m_max():
                lf = wr.laurent_fit(T, xi)
                out["laurent"] = [lf.b0, lf.b1]
            return out

        refs[f"{name}@{depth}"] = {
            "fill": W.table_values(T),
            "lattice_points": {"n": int(pts.shape[0]), "sha256": W.points_digest(pts)},
            "dirs": record_directions(name, gen.edge_vectors(P.vertices, P.facets), one),
        }
        print("table", name, depth, flush=True)
    return refs


def record_cli(root, workdir):
    from hstab import lattice_geom as lg
    from hstab import weight_rings as wr

    name, depth = W.CSV_SOURCE
    P = lg.build_polytope(W.load_vertices(root, name), name=name)
    T = wr.weight_table_toric(P, depth)
    wr.save_weight_table(T, os.path.join(workdir, W.CSV_NAME))
    csv_ref = W.table_values(T)

    env = W.child_env(root)
    refs = {}
    for key, (_sub, argv) in W.cli_catalogue().items():
        code, stdout, _wall, _rss = W.run_child(W.cli_argv(root, argv), workdir, env)
        if code != 0:
            raise SystemExit(f"{key}: exit {code} while recording")
        refs[key] = {"exit": code, "sha256": W.cli_outcome(workdir, argv, stdout)[0]}
        print("cli", key, flush=True)
    cube = lg.build_polytope(W.load_vertices(root, "cube"), name="cube")
    b0, b1 = wr.b0_b1_exact(cube, (1, 1, 1))
    refs["character cube default"] = {"exit": 0, "b0": str(b0), "b1": str(b1)}
    return refs, csv_ref


def main():
    root = os.getcwd()
    workdir = os.path.join(root, ".perfbench", "record")
    os.makedirs(workdir, exist_ok=True)
    try:
        cli, csv_ref = record_cli(root, workdir)
        refs = {
            "recorded_at": git_sha(root),
            "corpus": record_corpus(root),
            "products": record_products(root),
            "tables": record_tables(root),
            "cli": cli,
            "csv": csv_ref,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
