"""The package root's public API and which imports pull in numpy.

``hstab`` resolves its public names lazily (PEP 562), so these tests pin
the name set, the identity of every re-exported object, and that the
numpy-free paths (``import hstab``, ``import hstab.cli``, ``hstab check``
and plain ``hstab invariants``) stay free of numpy in a fresh interpreter.
It also keeps ``assert`` statements out of the package, so no invariant
check disappears under ``python -O``.
"""

import ast
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import hstab
from hstab import corpus

SUBMODULES = [
    "corpus",
    "invariants",
    "lattice_geom",
    "optimal_degeneration",
    "simplex_calculus",
    "weight_rings",
]

# sorted(hstab.__all__) as it was with eager re-exports
PUBLIC_NAMES = [
    "AffineForm",
    "BARYCENTER_ZERO",
    "CORPUS_NAMES",
    "DHSample",
    "InvariantReport",
    "LatticePolytope",
    "OptimizationResult",
    "Simplex",
    "SimplicialDecomposition",
    "StabilityVerdict",
    "WeightTable",
    "b0_b1_exact",
    "barycenter",
    "boundary_integral",
    "build_polytope",
    "build_report",
    "c0_bruteforce",
    "c0_estimate",
    "c0_exact",
    "c0_lipschitz_check",
    "corpus",
    "corpus_path",
    "df_invariant",
    "dh_exp_moment",
    "dh_measure",
    "errors",
    "exp_divided_difference",
    "fit_b0_b1",
    "h_gradient",
    "h_hessian",
    "h_invariant",
    "h_stability_verdict",
    "hamiltonian_shift_check",
    "integral_exp_simplex",
    "integral_linear_simplex",
    "interior_integral",
    "invariants",
    "is_reflexive",
    "jensen_gap",
    "lattice_geom",
    "lattice_points",
    "lattice_stats",
    "laurent_fit",
    "load_corpus",
    "load_polytope",
    "load_weight_table",
    "maximize_h",
    "mu_supremum",
    "normalized_volume",
    "optimal_degeneration",
    "recession_slope",
    "save_weight_table",
    "simplex",
    "simplex_calculus",
    "total_weight",
    "translate",
    "triangulate",
    "volume",
    "weight_character",
    "weight_rings",
    "weight_table_toric",
]


def child_env():
    src = os.path.dirname(os.path.dirname(hstab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}


def path_of(name):
    return str(corpus.corpus_path(name))


def run_python(code, *args):
    res = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=300,
    )
    assert res.returncode == 0, res.stderr[-2000:]
    return res.stdout


# ---------------------------------------------------------------------------
# public API


def test_all_is_the_eager_name_set():
    assert sorted(hstab.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 61
    assert set(SUBMODULES) | {"errors"} <= set(PUBLIC_NAMES)


def test_submodules_resolve_after_a_bare_import():
    out = run_python(
        "import json, sys, types, hstab\n"
        "names = sys.argv[1:]\n"
        "print(json.dumps({n: isinstance(getattr(hstab, n), types.ModuleType)\n"
        "                  and getattr(hstab, n).__name__ == 'hstab.' + n\n"
        "                  for n in names}))",
        *SUBMODULES,
        "errors",
    )
    assert json.loads(out) == {n: True for n in SUBMODULES + ["errors"]}


def test_names_are_the_defining_modules_objects():
    for name in PUBLIC_NAMES:
        obj = getattr(hstab, name)
        if name in SUBMODULES or name == "errors":
            assert obj is sys.modules[f"hstab.{name}"], name
            continue
        home = getattr(obj, "__module__", None)
        if isinstance(obj, (type, types.FunctionType)):
            assert getattr(sys.modules[home], name) is obj, name
        else:  # constants carry no __module__
            owners = [m for m in SUBMODULES if getattr(getattr(hstab, m), name, None) is obj]
            assert owners, name


def test_package_has_no_assert_statements():
    """Invariant checks raise explicitly: ``python -O`` strips asserts."""
    paths = sorted(Path(hstab.__file__).parent.rglob("*.py"))
    assert len(paths) >= len(SUBMODULES) + 1
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from hstab import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    assert set(PUBLIC_NAMES) <= set(dir(hstab))
    assert hstab.corpus is corpus


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        hstab.no_such_name
    assert not hasattr(hstab, "weight_rings_but_not_quite")


# ---------------------------------------------------------------------------
# import isolation: each case runs in a fresh interpreter

CLI_PROBE = """
import json, sys
from hstab.cli import main
try:
    main(sys.argv[1:], prog_name="hstab")
    code = 0
except SystemExit as exc:
    code = exc.code or 0
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules}), file=sys.stderr)
"""


def run_cli(name, argv):
    """Exit code and whether numpy was loaded, for `hstab <argv>` run on
    the corpus polytope `name` (placed after the subcommand)."""
    res = subprocess.run(
        [sys.executable, "-c", CLI_PROBE, argv[0], path_of(name), *argv[1:]],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=300,
    )
    return json.loads(res.stderr.strip().splitlines()[-1])


@pytest.mark.parametrize("statement", ["import hstab", "import hstab.cli"])
def test_import_loads_no_numpy(statement):
    out = run_python(f"import sys\n{statement}\nprint('numpy' in sys.modules)")
    assert out.strip() == "False"


NUMPY_FREE = {
    "check": ["check"],
    "invariants": ["invariants", "--xi", "1/3,-1/2"],
}

WITH_ARRAYS = {
    "optimize": ["optimize"],
    "dh": ["dh", "--xi", "1/3,-1/2", "--m", "8"],
    "dh --bins": ["dh", "--xi", "1/3,-1/2", "--m", "8", "--bins", "4"],
    "character": ["character", "--xi", "1/3,-1/2"],
    "invariants --oracle": ["invariants", "--xi", "1/3,-1/2", "--oracle", "16"],
}


@pytest.mark.parametrize("case", sorted(NUMPY_FREE))
def test_cli_runs_without_numpy(case):
    assert run_cli("blowup_one", NUMPY_FREE[case]) == {"code": 0, "numpy": False}


@pytest.mark.parametrize("case", sorted(WITH_ARRAYS))
def test_array_subcommands_import_numpy_and_exit_0(case):
    assert run_cli("blowup_one", WITH_ARRAYS[case]) == {"code": 0, "numpy": True}
