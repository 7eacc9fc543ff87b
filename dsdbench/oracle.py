"""Answer oracle: every returned vertex set is re-counted from the input edges.

Nothing here trusts a number the program reports. For a densest-subgraph
answer S the oracle counts the pattern instances inside G[S] itself and
compares mu(S)/|S| as a rational:

* exact algorithms must hit rho_opt exactly;
* PeelApp must satisfy rho_opt/|V_Psi| <= rho <= rho_opt;
* IncApp and CoreApp return the (k_max, Psi)-core, which is unique, so
  they must also hit its pinned density.

A k_max-core answer must have the pinned k and size, and every member
must keep at least k neighbours inside it.

The pinned values are graph invariants of the recipes (relabelling seeds
keep them, see ``inputs.py``). Every one is certified by ``certify.py``
from the recipes alone: for rho_opt, an integer-capacity networkx min cut
at alpha = rho_opt finds nothing denser, and a set of exactly that
density exists; for the k_max-cores, a plain min-degree peel over all
instances gives k_max and the core, whose recount is the pinned value.
The netscience triangle value is also the paper's Table 5 row (its CDS
is K20).
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pandas as pd

# (graph, pattern) -> exact optimum density rho_opt
RHO_OPT = {
    ("as733", "5-clique"): Fraction(16063, 24),
    ("as733", "4-clique"): Fraction(5965, 24),
    ("as733", "edge"): Fraction(251, 24),
    ("netscience", "triangle"): Fraction(57),
}
# (graph, pattern) -> density of the (k_max, Psi)-core
KMAX_CORE_DENSITY = {
    ("as733", "4-clique"): Fraction(4693, 22),
    ("netscience", "triangle"): Fraction(57),
}
# graph -> (k_max, size of the k_max-core) for classical (edge) cores
KMAX_EDGE_CORE = {"as733": (18, 24)}
PATTERN_SIZE = {"edge": 2, "triangle": 3, "4-clique": 4, "5-clique": 5}


class WrongAnswer(Exception):
    """A query returned an answer the oracle rejects."""


def induced_adjacency(edges: pd.DataFrame, verts) -> np.ndarray:
    """Boolean adjacency matrix of G[verts], rows in sorted-vertex order."""
    vs = np.unique(np.asarray(list(verts), dtype=np.int64))
    src = edges["src"].to_numpy(np.int64)
    dst = edges["dst"].to_numpy(np.int64)
    keep = np.isin(src, vs) & np.isin(dst, vs)
    i = np.searchsorted(vs, src[keep])
    j = np.searchsorted(vs, dst[keep])
    adj = np.zeros((len(vs), len(vs)), dtype=bool)
    adj[i, j] = True
    adj[j, i] = True
    return adj


def _cliques(adj: np.ndarray, h: int) -> int:
    """Number of h-cliques, extending each clique by higher-indexed vertices."""
    nbrs = [set(np.flatnonzero(adj[v] & (np.arange(len(adj)) > v))) for v in range(len(adj))]

    def grow(cand: set, depth: int) -> int:
        if depth == h:
            return 1
        return sum(grow(cand & nbrs[v], depth + 1) for v in cand)

    return grow(set(range(len(adj))), 0)


def count_pattern(adj: np.ndarray, pattern: str) -> int:
    """mu(G[S], Psi) for the patterns the workloads use."""
    return _cliques(adj, PATTERN_SIZE[pattern])


def check_dsd(edges: pd.DataFrame, graph: str, pattern: str, kind: str, result) -> float:
    """Check a DSDResult; return rho/rho_opt. ``kind``: exact | peel | kmax_core."""
    verts = list(result.vertices)
    if not verts or len(set(verts)) != len(verts):
        raise WrongAnswer(f"{graph}/{pattern}: empty or repeated vertex set")
    rho = Fraction(count_pattern(induced_adjacency(edges, verts), pattern), len(verts))
    if abs(float(rho) - result.density) > 1e-9 * max(1.0, float(rho)):
        raise WrongAnswer(
            f"{graph}/{pattern}: reported density {result.density} but the set has {rho}"
        )
    opt = RHO_OPT[(graph, pattern)]
    if kind == "exact" and rho != opt:
        raise WrongAnswer(f"{graph}/{pattern}: rho {rho} != rho_opt {opt}")
    if kind == "kmax_core" and rho != KMAX_CORE_DENSITY[(graph, pattern)]:
        raise WrongAnswer(
            f"{graph}/{pattern}: rho {rho} is not the (k_max, Psi)-core density "
            f"{KMAX_CORE_DENSITY[(graph, pattern)]}"
        )
    if not opt / PATTERN_SIZE[pattern] <= rho <= opt:
        raise WrongAnswer(f"{graph}/{pattern}: rho {rho} outside [rho_opt/|V_Psi|, rho_opt]")
    return float(rho / opt)


def check_kmax(edges: pd.DataFrame, graph: str, answer) -> float:
    """Check a (k_max, core_vertices, info) answer; return 1.0 when right."""
    k, verts, _ = answer
    want_k, want_n = KMAX_EDGE_CORE[graph]
    if k != want_k or len(set(verts)) != want_n:
        raise WrongAnswer(f"{graph}: got k={k} on {len(set(verts))} vertices, "
                          f"want k={want_k} on {want_n}")
    inner = induced_adjacency(edges, verts).sum(axis=1)
    if inner.min() < k:
        raise WrongAnswer(f"{graph}: a core member has only {inner.min()} neighbours inside")
    return 1.0


def instances(edges: pd.DataFrame, pattern: str) -> list:
    """All instances of ``pattern`` in the whole graph, as vertex tuples.

    Used only by ``certify.py``; the timed queries never call it.
    """
    adj: dict = {}
    for s, d in zip(edges["src"].tolist(), edges["dst"].tolist()):
        adj.setdefault(s, set()).add(d)
        adj.setdefault(d, set()).add(s)
    h = PATTERN_SIZE[pattern]
    out = []

    def grow(clique: tuple, cand: set) -> None:
        if len(clique) == h:
            out.append(clique)
            return
        for v in sorted(cand):
            grow(clique + (v,), cand & {u for u in adj[v] if u > v})

    for v in sorted(adj):
        grow((v,), {u for u in adj[v] if u > v})
    return out
