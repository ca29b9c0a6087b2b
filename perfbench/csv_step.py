"""cli_pipeline's CSV write and read, each in a child process of its own.

    python3 perfbench/csv_step.py save|load PATH

run from the root of a checkout; prints one JSON line with the time spent
inside save_weight_table / load_weight_table and what was written or read.
The cli_pipeline process itself never loads numpy or hstab: a spawned
child's peak RSS starts at its parent's, so a small parent keeps the peak
RSS that os.wait4 reports for each `hstab` child its own.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads as W  # noqa: E402


def main(action, path):
    from hstab import lattice_geom as lg
    from hstab import weight_rings as wr

    if action == "save":
        name, depth = W.CSV_SOURCE
        P = lg.build_polytope(W.load_vertices(os.getcwd(), name), name=name)
        T = wr.weight_table_toric(P, depth)
        t0 = time.perf_counter()
        wr.save_weight_table(T, path)
        seconds = time.perf_counter() - t0
        out = {"rows": W.table_values(T)["total"], "bytes": os.path.getsize(path)}
    else:
        t0 = time.perf_counter()
        T = wr.load_weight_table(path)
        seconds = time.perf_counter() - t0
        out = W.table_values(T)
    print(json.dumps(dict(seconds=seconds, **out)))


if __name__ == "__main__":
    main(*sys.argv[1:3])
