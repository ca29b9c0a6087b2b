"""Tiny-size smoke test of the benchmark harness.

    python3 -m pytest -q perfbench/test_smoke.py

Runs one small cycle of every workload, untraced and traced, and checks
that the result line follows the format BENCHMARK.json declares.  Checks
too that a known issue counts as known only when it fails in its recorded
way, and that any other failure makes the result incorrect.
"""

import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run as R  # noqa: E402
import workloads as W  # noqa: E402
from core import Runner, Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)
with open(os.path.join(ROOT, "perfbench", "reference.json"), encoding="utf-8") as fh:
    REFS = json.load(fh)


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_result_line(workload, trace):
    proc = run("--workload", workload, "--seed", "7", "--seconds", "0",
               "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True, proc.stdout
    assert line["failed"] == 0 and line["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in line["metrics"].items()
    }
    for value in line["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_refuses_without_checkout(tmp_path):
    proc = run("--workload", "product_4d", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


STALL = REFS["products"]["blowup_onexblowup_two"]["maximize_h"]


@pytest.mark.parametrize(
    "changes, failures",
    [
        ({}, [W.KNOWN_STALL]),
        ({"status": "unbounded_direction"}, [None]),
        ({"xi_star": [0.1, 0.1, 0.1, 0.1]}, [None]),
        ({"h_star": STALL["h_star"] * 1.01}, [None]),
        ({"status": "converged", "grad_norm": 1e-12}, []),  # the stall fixed
    ],
)
def test_known_stall_only_in_its_recorded_way(changes, failures):
    runner = Runner(Tracer())
    res = SimpleNamespace(**dict(STALL, **changes))
    runner.op("maximize_h", lambda: res,
              lambda r: W.check_optimum(runner.checker, r, STALL))
    assert [issue for _name, _reason, issue in runner.failures] == failures


@pytest.mark.parametrize(
    "outcome, known",
    [
        ((1, None, None, "MemoryError"), True),
        ((-9, None, None, ""), False),  # killed at the timeout
        ((1, None, None, "ValueError: bad table"), False),
        ((0, None, {"exact": {"b0": "1", "b1": "0", "b0_error": 0, "b1_error": 0}}, None), False),
    ],
)
def test_known_oom_only_in_its_recorded_way(outcome, known):
    runner = Runner(Tracer())
    args = SimpleNamespace(workdir=ROOT, seed=0, smoke=True)
    wl = W.CliPipeline(args, REFS, runner.tracer, runner)
    name, _run, check = wl.cli_op("character cube default", W.CUBE_DEFAULT, cap=W.CUBE_CAP_BYTES)
    runner.op(name, lambda: outcome, check)
    [(_name, _reason, issue)] = runner.failures
    assert (issue == W.KNOWN_OOM) == known and (issue is None) == (not known)


def fake_run(failures):
    return {
        "samples": [["op", ["r", 0], 0.01, True], ["op", ["r", 0], 0.02, not failures]],
        "calib": [[0, 0.004]],
        "failures": failures,
        "cycles": 1,
        "wall_s": 0.03,
        "max_rel_err": 0.0,
        "regimes": {},
        "setup_s": 0.1,
        "setup_cal_s": [0.004],
    }


@pytest.mark.parametrize(
    "failures, correct",
    [
        ([], True),
        ([["maximize_h", "max_iterations", W.KNOWN_STALL]], True),
        ([["maximize_h", "status unbounded_direction", None]], False),
    ],
)
def test_unexpected_failure_makes_result_incorrect(failures, correct):
    res = fake_run(failures)
    args = SimpleNamespace(seed=0, trace=0)
    out = R.result("product_4d", args, res, [res], 40.0, R.declared_units())
    assert out["correct"] is correct
    assert out["failed"] == len(failures)
