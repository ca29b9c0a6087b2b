"""hstab benchmark: four seeded workloads, timed from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N     # every workload

Run from the root of a checkout; hstab is imported from ./src, nothing is
installed or built.  Workloads (why each exists is in BENCHMARK.json):

    corpus_directions  build_report, h_gradient, h_hessian, exp_moments
                       o0/o1/o2 on the 8 corpus polytopes in four direction
                       regimes, plus maximize_h once per polytope per cycle
    product_4d         hull, triangulation, moments, build_report and
                       maximize_h (capped at 5 iterations) on five 4-D
                       products
    weight_tables      toric tables of the 2-D polygons to depth 128 and of
                       the cube to depth 32, with every table statistic
    cli_pipeline       one `hstab` child at a time over every subcommand,
                       the CSV write (set-up) and read paths

Load is closed-loop with one caller.  A run repeats whole cycles of a
workload until --seconds have passed, in a fresh child process whose peak
RSS os.wait4 reports (hstab children are waited for inside it, so their
peaks are included).  BLAS runs single-threaded in every child.

With --trace 0 the result line carries the end-to-end metrics:

    setup_s      median of seven set-ups (imports, input generation and,
                 for cli_pipeline, writing the CSV), each in a fresh process
    ops_per_s    checked ops completed per second of op time, the median
                 over the run's cycles
    op_p50_ms    median op latency
    op_tail_ms   highest percentile of op latency with at least ten samples
                 beyond it (the percentile is printed on the summary line)
    peak_rss_mb  high-water RSS of the workload's process and its children

Times are speed-calibrated (see core.py): each is scaled by CAL_REF_S over
the median time of a fixed kernel run just before and after it, so that the
host's drifting speed cancels.  The raw values are printed on the summary
lines.  Units come from BENCHMARK.json.

Failed ops (raised, non-zero exit, non-converged optimizer, or a failed
output check) are counted in `failed`; `correct` is false when a failure
is not one of the two known ones (ROADMAP items 3 and 4) failing in its
recorded way.  failed_ratio and max_rel_err are printed on the summary line;
they are per-layer metrics in the traced run, since both can legitimately
be 0.

With --trace 1 the run does the untraced cycles and then the same cycles
traced; the result line carries the per-layer metrics from spans around
each call the harness makes into hstab, and trace.overhead_ms, the traced
minus the untraced op time per cycle (speed-calibrated).  Spans are written
to .perfbench/spans-<workload>.json.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from core import (  # noqa: E402
    CAL_REF_S, git_sha, median, percentile, speed_factors, tail_percentile,
)

SETUP_REPEATS = 7  # set-ups per run; setup_s is their median
RUN_BUDGET = 170.0  # seconds for all children of one workload


def declared_units() -> dict:
    """metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def machine_record(cap_bytes: int) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "click": version("click"),
        "git_sha": git_sha(os.getcwd()),
        "cube_character_as_cap_bytes": cap_bytes,
    }


def child(workload, args, workdir, phase, deadline):
    """Run workloads.py in a fresh process; returns (parsed last line,
    peak RSS in MB of that process and the children it waited for)."""
    import workloads as W

    argv = [
        sys.executable, os.path.join(HERE, "workloads.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--phase", phase, "--workdir", workdir,
    ] + (["--smoke"] if args.smoke else [])
    code, stdout, _wall, peak_mb = W.run_child(
        argv, os.getcwd(), W.child_env(os.getcwd()),
        timeout=max(1.0, deadline - time.monotonic()),
        out_dir=workdir, stem=phase,
    )
    if code != 0:
        with open(os.path.join(workdir, f"{phase}.stderr"), encoding="utf-8") as fh:
            sys.stderr.write(fh.read()[-4000:])
        raise SystemExit(f"{workload} {phase} child exited {code}")
    return json.loads(stdout.decode().strip().splitlines()[-1]), peak_mb


def run_workload(workload, args) -> dict:
    import workloads as W

    base = os.path.join(os.getcwd(), ".perfbench")
    workdir = os.path.join(base, f"{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET
    try:
        setups = [
            child(workload, args, workdir, "setup", deadline)[0]
            for _ in range(SETUP_REPEATS - 1)
        ]
        res, peak_mb = child(workload, args, workdir, "run", deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(res)
    return result(workload, args, res, setups, peak_mb, declared_units())


def result(workload, args, res, setups, peak_mb, units) -> dict:
    """The result line and summary from a run child's output `res`, the
    set-up children's outputs and the run's peak RSS."""
    raw = res["samples"]
    speed = speed_factors(len(raw), res["calib"])
    samples = [(n, c, s * f, ok) for (n, c, s, ok), f in zip(raw, speed)]
    lat_ms = [seconds * 1000.0 for _name, _cycle, seconds, _ok in samples]
    setup_raw = [s["setup_s"] for s in setups]
    setup_s = [s["setup_s"] * CAL_REF_S / median(s["setup_cal_s"]) for s in setups]
    attempted = len(samples)
    failed = len(res["failures"])
    unknown = [f for f in res["failures"] if not f[2]]
    q = tail_percentile(len(lat_ms))
    summary = {
        "workload": workload,
        "seed": args.seed,
        "cycles": res["cycles"],
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "max_rel_err": res["max_rel_err"],
        "tail_percentile": q,
        "regimes": res["regimes"],
        "ops": by_op(samples),
        "failures": sorted({(f[0], f[1][:120], f[2] or "UNEXPECTED") for f in res["failures"]}),
    }
    if args.trace:
        metrics = dict(res["layers"])
        metrics["check.failed_ratio"] = failed / attempted
        metrics["check.max_rel_err"] = res["max_rel_err"]
    else:
        metrics = {
            "setup_s": median(setup_s),
            "ops_per_s": ops_per_s(samples),
            "op_p50_ms": median(lat_ms),
            "op_tail_ms": percentile(lat_ms, q),
            "peak_rss_mb": peak_mb,
        }
        raw_ms = [seconds * 1000.0 for _name, _cycle, seconds, _ok in raw]
        summary["raw"] = {
            "setup_s": median(setup_raw),
            "ops_per_s": ops_per_s(raw),
            "op_p50_ms": median(raw_ms),
            "op_tail_ms": percentile(raw_ms, q),
        }
        summary["speed"] = CAL_REF_S / median([s for _c, s in res["calib"]])
        summary["wall_s"] = res["wall_s"]
        summary["setup_samples_s"] = setup_s
    metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return {
        "correct": not unknown,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "summary": summary,
    }


def ops_per_s(samples) -> float:
    """Median over cycles of the cycle's passed ops per second of op time;
    the median keeps one stalled cycle (a pause on a shared host) from
    moving the figure."""
    cycles = {}
    for _name, cycle, seconds, ok in samples:
        done, busy = cycles.get(str(cycle), (0, 0.0))
        cycles[str(cycle)] = (done + ok, busy + seconds)
    return median([done / busy for done, busy in cycles.values()])


def by_op(samples) -> dict:
    """op name -> [count, median ms, total ms], heaviest first."""
    groups = {}
    for name, _cycle, seconds, _ok in samples:
        groups.setdefault(name, []).append(seconds * 1000.0)
    rows = {n: [len(xs), round(median(xs), 3), round(sum(xs), 1)] for n, xs in groups.items()}
    return dict(sorted(rows.items(), key=lambda kv: -kv[1][2]))


def print_summary(out):
    s = out["summary"]
    print(f"# {s['workload']} seed {s['seed']}: {s['cycles']} cycles, "
          f"{s['attempted']} ops, {s['failed']} failed "
          f"(failed_ratio {s['failed_ratio']:.6g} ratio), "
          f"max_rel_err {s['max_rel_err']:.3g} ratio")
    for name, m in out["metrics"].items():
        label = name
        if name == "op_tail_ms":
            label = f"op_tail_ms (p{s['tail_percentile']:g})"
        print(f"#   {label} = {m['value']:.6g} {m['unit']}")
    if "raw" in s:
        print(f"#   uncalibrated {json.dumps(s['raw'])}, speed factor {s['speed']:.4g}")
    print(f"# regimes {json.dumps(s['regimes'], sort_keys=True)}")
    print(f"# ops [count, median ms, total ms] {json.dumps(s['ops'])}")
    for name, reason, known in s["failures"]:
        print(f"# failed {name}: {reason} [{known}]")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "hstab", "__init__.py")):
        print("error: run from the root of an hstab checkout (no src/hstab here)",
              file=sys.stderr)
        return 2
    import workloads as W

    names = list(W.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in W.WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(W.WORKLOADS)} or all", file=sys.stderr)
        return 2

    print(f"# machine {json.dumps(machine_record(W.CUBE_CAP_BYTES), sort_keys=True)}")
    results = {}
    for name in names:
        results[name] = run_workload(name, args)
        print_summary(results[name])
    if len(names) == 1:
        out = results[names[0]]
        line = {k: out[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()
            },
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
