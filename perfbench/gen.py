"""Seeded input generation for the benchmark.

Directions come from a fixed, finite pool per (polytope, regime): entry i
of a pool is a pure function of (polytope name, regime, i), so reference
outputs for every pool entry can be recorded once (see record.py).  The
run seed only chooses which pool entries a run uses and in which order;
the program under test receives the generated directions and nothing else.

Regimes (what they stress in the divided-difference engine):

    tiny   |xi| ~ 1e-6: all nodes clustered, the series branch does the work
    unit   |xi| ~ 1: generic, well separated nodes
    large  |xi| ~ 50-300: large shifts of the exponent
    edge   xi an exact dyadic vector orthogonal to an edge of P, so two
           vertices give exactly repeated nodes (in dimension 1, where no
           nonzero direction is orthogonal to an edge, a small dyadic)
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction

REGIMES = ("tiny", "unit", "large", "edge")
POOL = 6  # pool entries per (polytope, regime)

CORPUS = (
    "interval",
    "square",
    "triangle",
    "triangle_dual",
    "hexagon",
    "blowup_one",
    "blowup_two",
    "cube",
)

# 4-D products of corpus vertex sets (hexagon x hexagon, whose exhaustive
# hull takes about a minute on a 2-core Xeon, is left out for run length only)
PRODUCTS = (
    ("square", "square"),
    ("triangle", "triangle_dual"),
    ("blowup_one", "square"),
    ("blowup_one", "blowup_two"),
    ("interval", "cube"),
)


def product_name(a: str, b: str) -> str:
    return f"{a}x{b}"


def product_vertices(va, vb) -> list:
    """Vertex set of P x Q from the vertex sets of P and Q."""
    return [tuple(x) + tuple(y) for x in va for y in vb]


def _rng(*key) -> random.Random:
    digest = hashlib.sha256(repr(key).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _unit_vector(rng: random.Random, n: int) -> list:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(n)]
        norm = math.sqrt(sum(c * c for c in v))
        if norm > 1e-3:
            return [c / norm for c in v]


def edge_vectors(vertices, facets) -> list:
    """Integer vectors v_j - v_i of the edges of a polytope: vertex pairs
    whose common facets have normals of rank n - 1."""
    n = len(vertices[0])
    out = []
    for i in range(len(vertices)):
        for j in range(i + 1, len(vertices)):
            normals = [f.normal for f in facets if i in f.vertex_ids and j in f.vertex_ids]
            if _rank(normals) == n - 1:
                out.append(tuple(int(a - b) for a, b in zip(vertices[j], vertices[i])))
    return sorted(out)


def product_edge_vectors(edges_p, dim_p, edges_q, dim_q) -> list:
    """Edges of P x Q: an edge of one factor times a vertex of the other."""
    out = [tuple(e) + (0,) * dim_q for e in edges_p]
    out += [(0,) * dim_p + tuple(e) for e in edges_q]
    return sorted(set(out))


def _rank(rows) -> int:
    m = [[Fraction(c) for c in r] for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c] != 0:
                f = m[r][c] / m[rank][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def _edge_direction(rng: random.Random, edge_list) -> list:
    n = len(edge_list[0])
    if n == 1:
        return [rng.choice([-1, 1]) * rng.randint(1, 12) / 8.0]
    e = list(rng.choice(edge_list))
    ee = sum(c * c for c in e)
    while True:
        r = [rng.randint(-3, 3) for _ in range(n)]
        re = sum(a * b for a, b in zip(r, e))
        w = [ee * a - re * b for a, b in zip(r, e)]  # integer, orthogonal to e
        if any(w):
            break
    norm = math.sqrt(sum(c * c for c in w))
    k = round(math.log2(norm))
    # dividing by a power of two keeps the vector exact in binary floats
    return [c / 2.0**k for c in w]


def direction(name: str, regime: str, index: int, edge_list) -> list:
    """Pool entry `index` of `regime` for the polytope called `name`, whose
    edge vectors are `edge_list`."""
    rng = _rng(name, regime, index)
    n = len(edge_list[0])
    if regime == "edge":
        return _edge_direction(rng, edge_list)
    d = _unit_vector(rng, n)
    if regime == "tiny":
        scale = 1e-6 * 2.0 ** rng.uniform(-1.0, 1.0)
    elif regime == "unit":
        scale = rng.uniform(0.5, 1.5)
    elif regime == "large":
        scale = rng.uniform(50.0, 300.0)
    else:
        raise ValueError(f"unknown regime {regime!r}")
    return [c * scale for c in d]


def picks(seed: int, *stream) -> random.Random:
    """The run's chooser for one stream of choices (e.g. one cycle)."""
    return _rng("run", seed, *stream)


# CLI directions are given as text, parsed exactly by the CLI
CLI_XI = {
    1: ("1", "-3/4", "1/8", "5/2"),
    2: ("1,1", "0.3,-1/2", "-2,1/3", "1/1000,-1/1000"),
    3: ("1,1,1", "0.5,-0.25,0.125", "-1,2,1/3", "1/100,0,-1/100"),
}
