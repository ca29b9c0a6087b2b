"""Bundled example polytopes.

Eight small anticanonical polytopes ship with the package as JSON files:
the interval, the square, the plane triangle and its polar dual, the
hexagon, the one- and two-point blow-up polytopes, and the 3-cube.  All
are reflexive; six have barycenter zero and the two blow-ups do not.
"""

from __future__ import annotations

from pathlib import Path

from .lattice_geom import LatticePolytope, load_polytope

_CORPUS_DIR = Path(__file__).parent / "corpus"

CORPUS_NAMES = (
    "interval",
    "square",
    "triangle",
    "triangle_dual",
    "hexagon",
    "blowup_one",
    "blowup_two",
    "cube",
)

# polytopes whose barycenter is the origin (so DF vanishes identically)
BARYCENTER_ZERO = (
    "interval",
    "square",
    "triangle",
    "triangle_dual",
    "hexagon",
    "cube",
)


def corpus_path(name: str) -> Path:
    path = _CORPUS_DIR / f"{name}.json"
    if not path.exists():
        raise KeyError(
            f"no bundled polytope {name!r}; available: {', '.join(CORPUS_NAMES)}"
        )
    return path


def load_corpus(name: str) -> LatticePolytope:
    return load_polytope(corpus_path(name))
