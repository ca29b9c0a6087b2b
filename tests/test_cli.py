"""End-to-end checks of the command-line interface.

Everything runs through click's CliRunner; JSON reports are parsed back
and compared against direct library calls, and the determinism contract
(report bodies byte-identical across runs) is enforced on real output.
"""

import hashlib
import importlib.util
import json
import math
import os
import re
import resource
import shlex
import subprocess
import sys
from fractions import Fraction
from numbers import Integral
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import hstab.cli as cli
import hstab.invariants as inv
import hstab.lattice_geom as lg
import hstab.optimal_degeneration as od
import hstab.weight_rings as wr
from hstab import corpus
from hstab.cli import main
from hstab.errors import EmptyDegree, NotReflexive, TruncationTooCoarse


@pytest.fixture()
def runner():
    return CliRunner()


def path_of(name):
    return str(corpus.corpus_path(name))


def run_json(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    return json.loads(res.output)


def write_unit_square(tmp_path):
    p = tmp_path / "unit_square.json"
    p.write_text(
        json.dumps(
            {
                "name": "unit_square",
                "dim": 2,
                "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]],
            }
        )
    )
    return str(p)


# ---------------------------------------------------------------------------
# check


def test_check_reflexive(runner):
    res = runner.invoke(main, ["check", path_of("interval")])
    assert res.exit_code == 0
    assert "reflexive: true" in res.output
    assert "dim: 1" in res.output
    assert "volume: 2" in res.output
    assert "barycenter: (0)" in res.output


def test_check_non_reflexive_still_reports(runner, tmp_path):
    res = runner.invoke(main, ["check", write_unit_square(tmp_path)])
    assert res.exit_code == 0
    assert "reflexive: false" in res.output
    assert "volume: 1" in res.output


def test_check_parse_error_names_the_row(runner, tmp_path):
    p = tmp_path / "ragged.json"
    p.write_text(
        json.dumps({"name": "bad", "dim": 2, "vertices": [[1, 0], [0]]})
    )
    res = runner.invoke(main, ["check", str(p)])
    assert res.exit_code == 2
    assert "error:" in res.output
    assert "vertex 1" in res.output


def test_missing_file_is_a_usage_error(runner):
    res = runner.invoke(main, ["check", "/nonexistent/q.json"])
    assert res.exit_code == 2


# ---------------------------------------------------------------------------
# invariants


def test_invariants_matches_library(runner):
    doc = run_json(
        runner, ["invariants", path_of("blowup_one"), "--xi", "0.3,-0.2"]
    )
    rep = doc["report"]
    P = corpus.load_corpus("blowup_one")
    # the CLI reads "0.3,-0.2" as the exact rationals 3/10, -1/5
    xi = (Fraction(3, 10), Fraction(-1, 5))
    assert rep["dim"] == 2
    assert float(rep["h"]) == inv.h_invariant(P, (0.3, -0.2))
    assert float(rep["df"]) == float(inv.df_raw(P, xi))
    assert rep["df_exact"] == str(inv.df_raw(P, xi))
    assert float(rep["jensen_gap"]) == inv.jensen_gap(P, (0.3, -0.2))
    assert rep["volume"] == "4"
    assert rep["normalized_volume"] == "8"
    assert doc["manifest"]["command"] == "invariants"
    assert list(doc["manifest"]) == [
        "command",
        "input_sha256",
        "parameters",
        "version",
        "duration_seconds",
    ]
    assert re.fullmatch(r"[0-9a-f]{64}", doc["manifest"]["input_sha256"])


def test_invariants_rational_xi_exact_fields(runner):
    doc = run_json(
        runner, ["invariants", path_of("blowup_one"), "--xi", "1,1"]
    )
    rep = doc["report"]
    assert rep["b0"] == "2/3"
    assert rep["b1"] == "1"
    assert rep["df_exact"] == "-2/3"


def test_invariants_not_reflexive_exit_3(runner, tmp_path):
    res = runner.invoke(
        main, ["invariants", write_unit_square(tmp_path), "--xi", "1,0"]
    )
    assert res.exit_code == 3
    assert "error:" in res.output


def test_invariants_xi_dimension_mismatch(runner):
    res = runner.invoke(
        main, ["invariants", path_of("triangle"), "--xi", "1,2,3"]
    )
    assert res.exit_code == 2
    assert "dimension" in res.output


def test_invariants_xi_parse_error(runner):
    res = runner.invoke(
        main, ["invariants", path_of("triangle"), "--xi", "1,zebra"]
    )
    assert res.exit_code == 2


@pytest.mark.parametrize("command", [["invariants"], ["dh", "--m", "4"]])
@pytest.mark.parametrize(
    "xi,stage",
    [("1e308,1e308", "exp_moments node sum"), ("1e300,1e300", "i0 underflows to 0")],
)
def test_direction_past_double_range_exit_2(runner, command, xi, stage):
    res = runner.invoke(main, command + [path_of("square"), "--xi", xi])
    assert res.exit_code == 2
    assert res.stdout == ""
    (line,) = res.stderr.splitlines()
    assert line.startswith(f"error: --xi {xi}: ") and stage in line


@pytest.mark.parametrize(
    "args,where,quantity",
    [
        (["invariants", "--xi", "709.5,0", "--oracle", "8"], "--oracle 8", "c0_bruteforce"),
        (["invariants", "--xi", "900,0", "--oracle", "8"], "--oracle 8", "c0"),
        (["dh", "--m", "4", "--xi", "800,0"], "--xi 800,0", "exp_moment"),
        (["dh", "--m", "4", "--xi", "-800,0", "--bins", "3"], "--xi -800,0", "exp_moment"),
        (["invariants", "--xi", "900,0"], "--xi 900,0", "c0"),
    ],
)
def test_non_finite_weight_statistic_exit_2(runner, args, where, quantity):
    """A brute-force c0, c0 or DH moment past the double range is named on
    one stderr line, with no report."""
    res = runner.invoke(main, args[:1] + [path_of("square")] + args[1:])
    assert res.exit_code == 2
    assert res.stdout == ""
    (line,) = res.stderr.splitlines()
    assert line.startswith(f"error: {where}")
    assert line.endswith(f": {quantity} is inf, not finite")


@pytest.mark.parametrize(
    "args,where",
    [
        (["character", "blowup_one", "--xi", "1e308,1e308"], "--xi 1e308,1e308"),
        (["character", "blowup_one", "--xi", "1e306,1e306"], "--xi 1e306,1e306"),
        # about 4e18 points: numpy refuses the array before allocating it
        (["dh", "square", "--xi", "1,0", "--m", "1000000000"], "--m 1000000000"),
    ],
)
def test_character_and_dh_refuse_out_of_range_input(runner, args, where):
    """A weight sum past the double range, or a degree too large for any
    array, is refused with exit 2 on one line naming the option."""
    res = runner.invoke(main, [args[0], path_of(args[1])] + args[2:])
    assert res.exit_code == 2 and res.stdout == ""
    (line,) = res.stderr.splitlines()
    assert line.startswith(f"error: {where}: ")
    if args[0] == "character":
        assert "the weight sum at degree" in line and "fsum" not in line


@pytest.mark.parametrize(
    "exc,code,text",
    [
        (NotReflexive("not reflexive"), 3, "not reflexive"),
        (ValueError("bad"), 2, "--xi 1: bad"),
        (OverflowError("big"), 2, "--xi 1: big"),
        (EmptyDegree("empty"), 2, "--xi 1: empty"),
        (
            TruncationTooCoarse("shallow", required_m_max=93),
            2,
            "shallow (rerun with --m-max 93 or deeper)",
        ),
    ],
)
def test_contract_maps_library_errors_to_exit_codes(exc, code, text, capsys):
    with pytest.raises(SystemExit) as err:
        with cli._contract("--xi 1", "invariants"):
            raise exc
    assert err.value.code == code
    assert capsys.readouterr().err == f"error: {text}\n"


@pytest.mark.parametrize(
    "exc",
    [TypeError("t"), ZeroDivisionError("z"), ArithmeticError("a")],
)
def test_contract_lets_other_exceptions_propagate(exc):
    """Anything outside the contract is a bug and keeps its traceback."""
    with pytest.raises(type(exc)):
        with cli._contract("--xi 1", "invariants"):
            raise exc


def _raise_memory_error(*args, **kwargs):
    raise MemoryError("Unable to allocate 8.00 GiB for an array")


@pytest.mark.parametrize(
    "target,args,line",
    [
        (
            "dh_measure",
            ["dh", "square", "--xi", "1,0", "--m", "4"],
            "dh: --m 4: out of memory (MemoryError: Unable to allocate 8.00 GiB for an array)",
        ),
        (
            "laurent_fit",
            ["character", "blowup_one", "--xi", "1,1"],
            "character: --xi 1,1: out of memory (MemoryError: Unable to allocate 8.00 GiB for an array)",
        ),
        (
            "load_weight_table",
            ["character", "table.csv", "--xi", "1"],
            "load_weight_table: out of memory (MemoryError: Unable to allocate 8.00 GiB for an array)",
        ),
    ],
)
def test_memory_error_exits_1_on_one_line(runner, tmp_path, monkeypatch, target, args, line):
    """A MemoryError from a library call exits 1 on one error line that
    names the stage and keeps the word MemoryError, with no traceback.  The
    call is monkeypatched to raise; nothing large is allocated."""
    table = tmp_path / "table.csv"
    table.write_text("m,a1,dim\n1,0,1\n")
    monkeypatch.setattr(wr, target, _raise_memory_error)
    path = str(table) if args[1] == "table.csv" else path_of(args[1])
    res = runner.invoke(main, [args[0], path] + args[2:])
    assert res.exit_code == 1 and res.stdout == ""
    assert res.stderr == f"error: {line}\n"


def test_dh_histogram_memory_error_exits_1_on_one_line(runner, monkeypatch):
    """A --bins too large for memory fails in np.histogram, which runs under
    the contract: one error line naming --bins, exit 1.  The histogram is
    monkeypatched to raise; nothing large is allocated."""
    monkeypatch.setattr(np, "histogram", _raise_memory_error)
    res = runner.invoke(
        main, ["dh", path_of("square"), "--xi", "1,0", "--m", "2", "--bins", "1000000000"]
    )
    assert res.exit_code == 1 and res.stdout == ""
    assert res.stderr == (
        "error: dh: --bins 1000000000: out of memory "
        "(MemoryError: Unable to allocate 8.00 GiB for an array)\n"
    )


def test_contract_names_a_bare_memory_error(capsys):
    with pytest.raises(SystemExit) as err:
        with cli._contract("--oracle 12", "invariants"):
            raise MemoryError()
    assert err.value.code == 1
    assert capsys.readouterr().err == (
        "error: invariants: --oracle 12: out of memory (MemoryError)\n"
    )


def test_c0_overflows_where_exp_does(runner):
    """c0 is reported up to the largest double: on the square log c0 is
    709.31 at xi = (714.5, 0), and only at (715.3, 0), log c0 = 710.11,
    past log(DBL_MAX) = 709.78, is it inf."""
    doc = run_json(runner, ["invariants", path_of("square"), "--xi", "714.5,0"])
    c0 = float(doc["report"]["c0"])
    assert c0 == pytest.approx(1.1258e308, rel=1e-4)
    assert math.log(c0) == pytest.approx(709.31, abs=5e-3)
    res = runner.invoke(main, ["invariants", path_of("square"), "--xi", "715.3,0"])
    assert res.exit_code == 2 and res.stdout == ""
    assert res.stderr == "error: --xi 715.3,0: c0 is inf, not finite\n"


def test_invariants_negative_shifted_mass_exit_2(tmp_path):
    """blowup_two x cube at a direction of norm 1e-3, where the summed
    shifted mass i0 comes out negative: one line that names its value and
    the accuracy loss, exit 2 as for an underflow."""
    factors = [corpus.load_corpus(n) for n in ("blowup_two", "cube")]
    pts = [u + w for u in factors[0].vertices for w in factors[1].vertices]
    path = tmp_path / "blowup_two_x_cube.json"
    path.write_text(json.dumps(
        {"name": "blowup_two_x_cube", "dim": 5,
         "vertices": [[int(c) for c in p] for p in pts]}
    ))
    xi = "-0.000733,0.000107,-4.4e-05,0.000668,-5.9e-05"
    res = run_child(["invariants", str(path), "--xi", xi])
    assert res.returncode == 2 and res.stdout == ""
    (line,) = res.stderr.splitlines()
    assert line.startswith(f"error: --xi {xi}: direction (")
    assert re.search(r"the shifted mass i0 is -\d\S*, not positive: the "
                     r"divided differences lost accuracy in exp_moments", line)
    assert "underflow" not in line


def test_oracle_just_inside_the_double_range_reports(runner):
    doc = run_json(
        runner, ["invariants", path_of("square"), "--xi", "700,0", "--oracle", "8"]
    )
    assert math.isfinite(float(doc["report"]["oracle"]["c0_bruteforce"]))


def test_invariants_oracle_section(runner):
    doc = run_json(
        runner,
        ["invariants", path_of("interval"), "--xi", "1", "--oracle", "64"],
    )
    oracle = doc["report"]["oracle"]
    assert oracle["m"] == 64
    assert float(oracle["c0_deviation"]) < 0.02
    assert float(oracle["b0_deviation"]) < 1e-8
    assert float(oracle["b1_deviation"]) < 1e-8
    h_disc = float(oracle["h_from_oracle"])
    assert abs(h_disc - inv.h_invariant(corpus.load_corpus("interval"), (1.0,))) < 0.05


def test_report_bodies_byte_identical(runner):
    a = runner.invoke(main, ["invariants", path_of("hexagon"), "--xi", "0.7,0.1"])
    b = runner.invoke(main, ["invariants", path_of("hexagon"), "--xi", "0.7,0.1"])
    assert a.exit_code == b.exit_code == 0
    da, db = json.loads(a.output), json.loads(b.output)
    assert da["report"] == db["report"]
    # stronger: the serialized report text is identical once the manifest
    # (which carries the wall-clock duration) is dropped
    strip = lambda d: json.dumps(d["report"], sort_keys=True)
    assert strip(da) == strip(db)


# recorded report digests of the benchmark's CLI catalogue; a key is
# "<kind> <corpus name>[ <xi>]", and the catalogue gives each key's argv
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GATED_KINDS = ("optimize", "invariants", "invariants-oracle", "dh", "dh-bins", "character")


def recorded_cli_references():
    with open(PERFBENCH / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)["cli"]


def bench_workloads():
    """``perfbench/workloads``, loaded without running it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


RECORDED_CLI = recorded_cli_references()
# the default-depth cube character has no digest: its reference is the
# exact b0 and b1 (see the test below)
RECORDED_DIGESTS = {
    key: ref["sha256"]
    for key, ref in RECORDED_CLI.items()
    if key.split()[0] in GATED_KINDS and "sha256" in ref
}
BENCH = bench_workloads()
# key -> argv of every CLI invocation the benchmark draws
BENCH_ARGV = {key: argv for key, (_, argv) in BENCH.cli_catalogue().items()}


def run_bench_argv(runner, tmp_path, argv):
    """Run one benchmark argv in process; returns its report."""
    out = tmp_path / "report.json"
    args = [
        path_of(a[1]) if isinstance(a, tuple) else str(out) if a == "report.json" else a
        for a in argv
    ]
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    return json.loads(out.read_text())["report"]


@pytest.mark.parametrize("key", sorted(RECORDED_DIGESTS))
def test_report_bytes_match_recorded_digests(runner, tmp_path, key):
    """Every optimize, invariants (with and without --oracle), dh (atoms
    and histogram) and polygon character report body the benchmark draws
    re-serializes to the recorded bytes, so a drift in any reported digit
    fails here."""
    report = run_bench_argv(runner, tmp_path, BENCH_ARGV[key])
    body = json.dumps(report, indent=2).encode()
    assert hashlib.sha256(body).hexdigest() == RECORDED_DIGESTS[key]


def test_cube_default_character_matches_recorded_exact_coefficients(runner, tmp_path):
    """The benchmark's default-depth cube character, checked as the
    benchmark checks it: exit 0, the exact b0 and b1 equal to the recorded
    ones, and both Laurent errors below 1e-6."""
    ref = RECORDED_CLI["character cube default"]
    _, argv = BENCH.CUBE_DEFAULT
    report = run_bench_argv(runner, tmp_path, argv)
    assert ref["exit"] == 0
    for k in ("b0", "b1"):
        assert report["exact"][k] == ref[k]
        assert float(report["exact"][f"{k}_error"]) < 1e-6


def test_byte_gate_covers_the_weight_paths():
    kinds = [key.split()[0] for key in RECORDED_DIGESTS]
    assert {kind: kinds.count(kind) for kind in GATED_KINDS} == {
        "optimize": 8, "invariants": 32, "invariants-oracle": 24, "dh": 32, "dh-bins": 32,
        "character": 24,
    }


def test_output_file_option(runner, tmp_path):
    out = tmp_path / "report.json"
    res = runner.invoke(
        main,
        ["invariants", path_of("square"), "--xi", "0,0", "--output", str(out)],
    )
    assert res.exit_code == 0
    assert res.output == ""
    doc = json.loads(out.read_text())
    assert doc["report"]["h"] == "0"
    assert doc["report"]["c0"] == doc["report"]["normalized_volume"]


# ---------------------------------------------------------------------------
# optimize


def test_optimize_stable_triangle(runner):
    doc = run_json(runner, ["optimize", path_of("triangle")])
    rep = doc["report"]
    assert rep["status"] == "converged"
    assert float(rep["h_star"]) == 0.0
    assert float(rep["mu_supremum"]) == 18.0
    assert rep["verdict"]["stable"] is True
    assert rep["verdict"]["label"] == "Hstable_wrt_product_degenerations"
    assert rep["flat_direction"] is False
    assert "trace" not in rep


def test_optimize_unstable_blowup(runner):
    doc = run_json(runner, ["optimize", path_of("blowup_one"), "--trace"])
    rep = doc["report"]
    assert rep["status"] == "converged"
    assert rep["verdict"]["stable"] is False
    assert rep["verdict"]["label"] == "Hunstable"
    assert float(rep["h_star"]) > 0
    base = od.maximize_h(corpus.load_corpus("blowup_one"))
    assert float(rep["h_star"]) == base.h_star
    assert [float(c) for c in rep["xi_star"]] == pytest.approx(
        base.xi_star, abs=1e-12
    )
    assert len(rep["trace"]) == rep["iterations"] + 1
    assert rep["verdict"]["qualifier"] == "searched torus-product degenerations only"


def test_optimize_loose_tol_stops_at_origin_but_is_unstable(runner):
    """--tol 1 stops blowup_one before any step (|grad H(0)| = 0.4714):
    the run converges at xi = 0, yet its barycenter (1/12, 1/12) makes it
    unstable."""
    doc = run_json(runner, ["optimize", path_of("blowup_one"), "--tol", "1"])
    rep = doc["report"]
    assert rep["status"] == "converged" and rep["iterations"] == 0
    assert rep["xi_star"] == ["0", "0"]
    assert rep["verdict"]["stable"] is False
    assert rep["verdict"]["label"] == "Hunstable"
    assert float(rep["mu_supremum"]) == 16.0


@pytest.mark.parametrize(
    "name,max_iter,stable",
    [("blowup_one", 0, False), ("blowup_one", 2, False), ("triangle", 0, True)],
)
def test_optimize_prints_verdict_at_exit_5(runner, name, max_iter, stable):
    """A run cut short exits 5 with the exact verdict and no mu_supremum;
    after a step its witness has H > 0."""
    res = runner.invoke(main, ["optimize", path_of(name), "--max-iter", str(max_iter)])
    assert res.exit_code == 5
    rep = json.loads(res.output)["report"]
    assert rep["status"] == "max_iterations" and rep["iterations"] == max_iter
    assert "mu_supremum" not in rep
    assert rep["verdict"]["stable"] is stable
    assert rep["verdict"]["witness_xi"] == rep["xi_star"]
    assert (float(rep["verdict"]["h_at_witness"]) > 0) == (max_iter > 0)


def test_optimize_non_reflexive_exit_3(runner, tmp_path):
    res = runner.invoke(main, ["optimize", write_unit_square(tmp_path)])
    assert res.exit_code == 3


@pytest.mark.parametrize(
    "name,args",
    [
        pytest.param("interval", ["--tol", "0"], id="tol 0"),
        # tol = inf would stop at xi = 0 and call blowup_one stable
        pytest.param("blowup_one", ["--tol", "inf"], id="tol inf"),
        pytest.param("blowup_one", ["--max-iter", "-3"], id="max-iter -3"),
    ],
)
def test_optimize_bad_tol_exit_2(runner, name, args):
    res = runner.invoke(main, ["optimize", path_of(name)] + args)
    assert res.exit_code == 2


def test_optimize_exit_5_on_max_iterations(runner, monkeypatch):
    fake = od.OptimizationResult(
        status="max_iterations",
        xi_star=np.zeros(2),
        h_star=0.017,
        grad_norm=0.3,
        hessian_max_eigenvalue=-0.5,
        iterations=1,
        flat_direction=False,
    )
    monkeypatch.setattr("hstab.optimal_degeneration.maximize_h", lambda P, **kw: fake)
    res = runner.invoke(main, ["optimize", path_of("blowup_one")])
    assert res.exit_code == 5
    rep = json.loads(res.output)["report"]
    assert rep["status"] == "max_iterations"
    assert "mu_supremum" not in rep
    # the verdict is exact; the stalled run's last iterate is its witness
    assert rep["verdict"]["label"] == "Hunstable"
    assert rep["verdict"]["witness_xi"] == ["0", "0"]
    assert float(rep["verdict"]["h_at_witness"]) == 0.017


def test_optimize_exit_4_on_unbounded(runner, monkeypatch):
    fake = od.OptimizationResult(
        status="unbounded_direction",
        xi_star=np.array([9.0, 9.0]),
        h_star=123.0,
        grad_norm=1.0,
        hessian_max_eigenvalue=-0.1,
        iterations=7,
        flat_direction=False,
        direction=np.array([1.0, 1.0]) / math.sqrt(2),
    )
    monkeypatch.setattr("hstab.optimal_degeneration.maximize_h", lambda P, **kw: fake)
    res = runner.invoke(main, ["optimize", path_of("blowup_one")])
    assert res.exit_code == 4
    rep = json.loads(res.output)["report"]
    assert rep["status"] == "unbounded_direction"
    assert len(rep["direction"]) == 2
    assert "mu_supremum" not in rep
    assert rep["verdict"]["label"] == "Hunstable"
    assert rep["verdict"]["witness_xi"] == ["9", "9"]


def test_optimize_exit_4_from_facet_certificate(runner, monkeypatch):
    """With blowup_one's barycenter moved to (1/2, 1/2), q = (3/4, 3/4)
    lies past the facet <(1, 1), x> = 1: the real optimizer stops before
    any step with that facet's witness and exits 4."""
    half = Fraction(1, 2)
    monkeypatch.setattr(lg, "barycenter", lambda _: (half, half))
    res = runner.invoke(main, ["optimize", path_of("blowup_one"), "--trace"])
    assert res.exit_code == 4
    rep = json.loads(res.output)["report"]
    assert rep["status"] == "unbounded_direction"
    assert rep["iterations"] == 0 and rep["trace"] == []
    assert [float(c) for c in rep["direction"]] == [-1 / math.sqrt(2)] * 2
    assert "mu_supremum" not in rep
    assert rep["verdict"]["stable"] is False
    assert rep["verdict"]["hessian_max_eigenvalue"] == "nan"


def run_child(args):
    """``hstab`` in a child process, so stderr is exactly what a shell sees."""
    src = os.path.dirname(os.path.dirname(wr.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "hstab.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
        timeout=300,
    )


def assert_numerical_failure(res, stage, check):
    """Exit 1 with no report and one stderr line naming the stage, the
    failed check, the direction and DF - H there; no traceback."""
    assert res.returncode == 1
    assert res.stdout == "" and "Traceback" not in res.stderr
    (line,) = res.stderr.splitlines()
    head = f"error: {stage}: an internal numerical check failed at xi = "
    assert line.startswith(head) and check in line
    direction, gap = re.fullmatch(
        re.escape(head) + rf"(\S+): {re.escape(check)} \(DF - H = (\S+)\)", line
    ).groups()
    return [float(c) for c in direction.split(",")], float(gap)


def test_dh_direction_past_norm_range_prints_one_line():
    """|xi| overflows a double at xi = 1e300 on the interval; stderr holds
    the one error line and no numpy overflow warning."""
    res = run_child(["dh", path_of("interval"), "--xi", "1e300", "--m", "2"])
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr == "error: --xi 1e300: exp_moment is inf, not finite\n"


@pytest.mark.parametrize(
    "args, line",
    [
        (
            ["dh", "square", "--xi", "1e307,0", "--m", "100"],
            "error: --xi 1e307,0: exp_moment is inf, not finite",
        ),
        (
            ["invariants", "square", "--xi", "1e306,0", "--oracle", "200"],
            "error: --oracle 200 at --xi 1e306,0: c0 is inf, not finite",
        ),
    ],
)
def test_a_weight_product_past_the_double_range_prints_one_line(args, line):
    """<alpha, xi> overflows at the far lattice points of mP: stderr holds
    the one error line and no numpy overflow warning."""
    command, name, *rest = args
    res = run_child([command, path_of(name), *rest])
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr == line + "\n"


def test_invariants_negative_jensen_gap_exit_1():
    """The engine's negative gap at a small cube direction (the numbers
    stay wrong until the engine is fixed) ends in one line, not a
    traceback."""
    xi = "0.0001,0.00005,-0.00007"
    res = run_child(["invariants", path_of("cube"), "--xi", xi])
    direction, gap = assert_numerical_failure(
        res, "invariants", "Jensen gap is negative beyond tolerance"
    )
    assert direction == [0.0001, 0.00005, -0.00007]
    P, parts = corpus.load_corpus("cube"), xi.split(",")
    assert gap == float(inv.df_raw(P, parts)) - inv.h_raw(P, parts) < -1e-9


def test_invariants_gap_cross_check_failure_exit_1(runner, monkeypatch):
    """DF moved by 1e-6 trips _gap's cross-check of DF - H: one line
    naming the stage and the direction, no report."""
    df = inv._df
    monkeypatch.setattr(inv, "_df", lambda n, b0, b1: df(n, b0, b1) + Fraction(1, 10**6))
    res = runner.invoke(main, ["invariants", path_of("blowup_one"), "--xi", "0.3,-0.5"])
    child = subprocess.CompletedProcess([], res.exit_code, res.stdout, res.stderr)
    direction, _ = assert_numerical_failure(
        child, "invariants", "jensen gap disagrees with DF - H beyond roundoff"
    )
    assert direction == [0.3, -0.5]


def test_optimize_df_below_h_exit_1(tmp_path):
    """maximize_h on the 6-D product blowup_one x blowup_two x square
    stops with DF below H; the line names the iterate where it did."""
    factors = [corpus.load_corpus(n) for n in ("blowup_one", "blowup_two", "square")]
    pts = sorted({u + w + x for u in factors[0].vertices
                  for w in factors[1].vertices for x in factors[2].vertices})
    path = tmp_path / "product6.json"
    path.write_text(json.dumps(
        {"name": "product6", "dim": 6, "vertices": [[int(c) for c in p] for p in pts]}
    ))
    res = run_child(["optimize", str(path)])
    direction, gap = assert_numerical_failure(
        res, "optimize", "DF fell below H along the ascent"
    )
    assert len(direction) == 6 and any(direction)
    assert gap < -1e-9


# ---------------------------------------------------------------------------
# dh


def test_dh_interval_atoms(runner):
    doc = run_json(runner, ["dh", path_of("interval"), "--xi", "1", "--m", "2"])
    rep = doc["report"]
    assert rep["n_atoms"] == 5
    atoms = [(float(l), float(m)) for l, m in rep["atoms"]]
    assert [l for l, _ in atoms] == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert all(m == 0.2 for _, m in atoms)
    got = float(rep["exp_moment"])
    assert got == pytest.approx(
        sum(m * math.exp(-l) for l, m in atoms), rel=1e-15
    )
    assert float(rep["relative_deviation"]) < 0.2


def test_dh_histogram(runner):
    doc = run_json(
        runner,
        ["dh", path_of("hexagon"), "--xi", "0.5,0.25", "--m", "8", "--bins", "12"],
    )
    rep = doc["report"]
    assert "atoms" not in rep
    hist = rep["histogram"]
    assert len(hist["edges"]) == 13
    masses = [float(x) for x in hist["masses"]]
    assert math.fsum(masses) == pytest.approx(1.0, abs=1e-12)


def test_dh_histogram_of_one_atom_widens_the_range(runner):
    """At xi = 0 every lambda is 0, so the histogram spans [-1/2, 1/2]."""
    doc = run_json(
        runner, ["dh", path_of("square"), "--xi", "0,0", "--m", "2", "--bins", "3"]
    )
    rep = doc["report"]
    assert rep["n_atoms"] == 1
    edges = [float(x) for x in rep["histogram"]["edges"]]
    assert edges == pytest.approx([-0.5, -1 / 6, 1 / 6, 0.5], abs=1e-15)
    assert [float(x) for x in rep["histogram"]["masses"]] == [0.0, 1.0, 0.0]


def test_dh_bad_bins(runner):
    res = runner.invoke(
        main, ["dh", path_of("square"), "--xi", "1,0", "--m", "2", "--bins", "0"]
    )
    assert res.exit_code == 2 and res.stdout == ""
    assert res.stderr == "error: --bins must be >= 1, got 0\n"


def test_dh_bad_degree(runner):
    res = runner.invoke(main, ["dh", path_of("interval"), "--xi", "1", "--m", "0"])
    assert res.exit_code == 2


def test_dh_not_reflexive_exit_3(runner, tmp_path):
    res = runner.invoke(
        main, ["dh", write_unit_square(tmp_path), "--xi", "1,0", "--m", "2"]
    )
    assert res.exit_code == 3


# ---------------------------------------------------------------------------
# character


def test_character_polytope_input(runner):
    doc = run_json(
        runner,
        ["character", path_of("blowup_one"), "--xi", "1,1", "--m-max", "128"],
    )
    rep = doc["report"]
    assert rep["source"] == "toric:blowup_one"
    assert rep["m_max"] == 128
    assert len(rep["samples"]) == len(wr.LAURENT_T_SAMPLES)
    assert rep["exact"]["b0"] == "2/3"
    assert float(rep["exact"]["b0_error"]) < 0.01 * (2 / 3)
    assert float(rep["exact"]["b1_error"]) < 0.05
    got_b0 = float(rep["laurent"]["b0"])
    assert got_b0 == pytest.approx(2 / 3, rel=0.01)


def test_character_csv_input_no_exact_section(runner, tmp_path):
    T = wr.weight_table_toric(corpus.load_corpus("blowup_one"), 128)
    p = tmp_path / "table.csv"
    wr.save_weight_table(T, p)
    doc = run_json(runner, ["character", str(p), "--xi", "1,1"])
    rep = doc["report"]
    assert rep["source"].startswith("external:")
    assert "exact" not in rep
    assert float(rep["laurent"]["b0"]) == pytest.approx(2 / 3, rel=0.01)


def test_character_cube_default_depth_fits_512_mib(tmp_path):
    """The default-depth (m_max 128) cube character runs in a child under
    a 512 MiB address-space cap: a toric table keeps per-degree counts and
    moments, never the 16.9 million points of 128P."""
    src = os.path.dirname(os.path.dirname(wr.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    cap = 512 * 2**20
    out = tmp_path / "report.json"
    res = subprocess.run(
        [sys.executable, "-m", "hstab.cli", "character", path_of("cube"),
         "--xi", "1,1,1", "--output", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        timeout=300,
    )
    assert res.returncode == 0, res.stderr[-2000:]
    rep = json.loads(out.read_text())["report"]
    assert rep["m_max"] == 128
    assert rep["exact"]["b0"] == rep["exact"]["b1"] == "0"
    assert float(rep["exact"]["b0_error"]) < 1e-6
    assert float(rep["exact"]["b1_error"]) < 1e-6


def test_character_shallow_table_exit_2(runner):
    res = runner.invoke(
        main,
        ["character", path_of("blowup_one"), "--xi", "1,1", "--m-max", "64"],
    )
    assert res.exit_code == 2
    assert "93" in res.output  # the minimum usable depth is spelled out


def test_character_bad_t_values(runner):
    res = runner.invoke(
        main,
        ["character", path_of("interval"), "--xi", "1", "--t", "0.5,frog"],
    )
    assert res.exit_code == 2
    res2 = runner.invoke(
        main,
        ["character", path_of("interval"), "--xi", "1", "--t", "-0.5"],
    )
    assert res2.exit_code == 2


def test_character_csv_parse_error_exit_2(runner, tmp_path):
    p = tmp_path / "broken.csv"
    p.write_text("m,a1,dim\n1,0,1\n2,q,1\n")
    res = runner.invoke(main, ["character", str(p), "--xi", "1"])
    assert res.exit_code == 2
    assert "line 3" in res.output


def test_character_non_finite_samples_exit_2(runner):
    """A weight sum past the double range is refused on one line naming
    its degree, with no report, even where one product, 30 * 1e307 at
    degree 4, overflows alone, so that no character is formed from it."""
    res = runner.invoke(main, ["character", path_of("blowup_one"), "--xi", "1e307,0"])
    assert res.exit_code == 2 and res.stdout == ""
    (line,) = res.stderr.splitlines()
    assert line == (
        "error: --xi 1e307,0: direction (1e+307, 0.0): the weight sum at "
        "degree 4 leaves the double range in total_weight"
    )


def test_character_past_the_double_range_names_t(runner):
    """Finite weight sums whose character at t = 1e-6 leaves the double
    range are refused on one line naming t, not math.fsum's own text."""
    res = runner.invoke(
        main,
        ["character", path_of("blowup_one"), "--xi", "2.4e302,0", "--t", "0.000001"],
    )
    assert res.exit_code == 2 and res.stdout == ""
    assert res.stderr == (
        "error: --xi 2.4e302,0: the weight character at t = 1e-06 leaves "
        "the double range\n"
    )


def test_character_polytope_bad_m_max(runner):
    res = runner.invoke(
        main, ["character", path_of("blowup_one"), "--xi", "1,1", "--m-max", "0"]
    )
    assert res.exit_code == 2 and res.stdout == ""
    assert res.stderr == "error: --m-max must be >= 1, got 0\n"


def test_character_help_shows_the_laurent_t_samples(runner):
    res = runner.invoke(main, ["character", "--help"])
    assert res.exit_code == 0
    default = ",".join(str(t) for t in wr.LAURENT_T_SAMPLES)
    assert default == "0.5,0.4,0.3,0.25,0.2" == cli.LAURENT_T_DEFAULT
    assert f"default: {default}" in " ".join(res.output.split())


def test_readme_cli_examples_exit_0(runner, monkeypatch):
    """Every `hstab` line of the fenced block in README's CLI section runs
    from the repository root and exits 0."""
    root = Path(__file__).resolve().parents[1]
    section = (root / "README.md").read_text(encoding="utf-8").split("\n## CLI\n")[1]
    block = section.split("\n## ")[0].split("```")[1]
    commands = [shlex.split(ln)[1:] for ln in block.splitlines() if ln.startswith("hstab ")]
    assert len(commands) == 6
    monkeypatch.chdir(root)
    for args in commands:
        res = runner.invoke(main, args)
        assert res.exit_code == 0, (args, res.output)


# ---------------------------------------------------------------------------
# report serialization


def numpy_jsonify(value):
    """_jsonify as it was written on numpy, before numpy was imported lazily."""
    if isinstance(value, bool):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Integral):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, np.ndarray):
        return [numpy_jsonify(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [numpy_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): numpy_jsonify(v) for k, v in value.items()}
    if value is None or isinstance(value, str):
        return value
    return str(value)


JSON_VALUES = [
    np.float32(0.1),
    np.float64(1 / 3),
    np.float64(-0.0),
    np.longdouble(0.1),
    np.int64(-7),
    np.uint8(200),
    np.bool_(True),
    np.array([[1.5, -2.0], [1e-310, 4.0]]),
    np.array([[1, 2], [3, 4]], dtype=np.int64),
    np.array([], dtype=float),
    [[Fraction(1, 3), 0.1], (True, None), {"a": [np.float64(2.5)], 3: "x"}],
    Fraction(-2, 7),
    True,
    False,
    1e308 * 10,
    complex(1, 2),
]


def dumped(fn, value):
    return json.dumps({"report": fn(value)}, indent=2)


@pytest.mark.parametrize("value", JSON_VALUES, ids=repr)
def test_jsonify_bytes_match_numpy_implementation(value):
    assert dumped(cli._jsonify, value) == dumped(numpy_jsonify, value)


@pytest.mark.parametrize("value", [np.array(2.5), np.array(-7), np.array(0.1, np.float32)])
def test_jsonify_0d_array_is_its_item(value):
    """The numpy form iterated a 0-d array's scalar and raised TypeError;
    a 0-d array now serializes as its item would."""
    with pytest.raises(TypeError):
        numpy_jsonify(value)
    assert dumped(cli._jsonify, value) == dumped(numpy_jsonify, value.item())


# ---------------------------------------------------------------------------
# misc


def test_version_flag(runner):
    res = runner.invoke(main, ["--version"])
    assert res.exit_code == 0
    assert "hstab" in res.output
