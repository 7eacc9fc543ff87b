"""Certify the pinned oracle values in ``oracle.py`` from the recipes alone.

For each (graph, pattern) of ``RHO_OPT`` with pinned value alpha, on the
seed's input:

1. upper bound: the Goldberg-style instance network (s->v cap deg(v, Psi),
   v->t cap alpha*|V_Psi|, v->psi cap 1, psi->v cap |V_Psi|-1), scaled to
   integer capacities, has min cut equal to the trivial cut {s}, so no
   vertex set is denser than alpha;
2. lower bound: the min cut at alpha - 1/(2 n^2) has a non-empty source
   side S, and recounting S gives exactly alpha (two densities with
   denominators <= n that differ by less than 1/n^2 are equal).

For each (graph, pattern) of ``KMAX_CORE_DENSITY`` and each graph of
``KMAX_EDGE_CORE``, a plain min-degree peel over the instances gives
every vertex its Psi-core number; the vertices whose number is the
largest, k_max, form the (k_max, Psi)-core, and its recounted density
(or, for edge cores, k_max and its size) must equal the pinned value.

Instances come from ``oracle.instances``, flows from networkx and the
peel is written out below, so no program code is involved beyond the
dataset recipes. Run from the repository root:

    python3 dsdbench/certify.py [--seed N]
"""
from __future__ import annotations

import argparse
import heapq
import os
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import networkx as nx  # noqa: E402

import inputs  # noqa: E402
import oracle  # noqa: E402


def min_cut(inst: list, p: int, alpha: Fraction) -> tuple:
    """(cut value, trivial cut value, source-side graph vertices), integer scaled."""
    q, num = alpha.denominator, alpha.numerator
    deg: dict = {}
    for members in inst:
        for v in members:
            deg[v] = deg.get(v, 0) + 1
    net = nx.DiGraph()
    for v, d in deg.items():
        net.add_edge("s", ("v", v), capacity=q * d)
        net.add_edge(("v", v), "t", capacity=num * p)
    for i, members in enumerate(inst):
        for v in members:
            net.add_edge(("v", v), ("i", i), capacity=q)
            net.add_edge(("i", i), ("v", v), capacity=q * (p - 1))
    value, (side, _) = nx.minimum_cut(net, "s", "t")
    verts = [node[1] for node in side if isinstance(node, tuple) and node[0] == "v"]
    return value, q * sum(deg.values()), verts


def core_numbers(inst: list) -> dict:
    """Psi-core number of every vertex in an instance, by min-degree peeling."""
    deg: dict = {}
    holds: dict = {}
    for i, members in enumerate(inst):
        for v in members:
            deg[v] = deg.get(v, 0) + 1
            holds.setdefault(v, []).append(i)
    heap = [(d, v) for v, d in deg.items()]
    heapq.heapify(heap)
    alive = [True] * len(inst)
    core: dict = {}
    k = 0
    while heap:
        d, v = heapq.heappop(heap)
        if v in core or d != deg[v]:
            continue  # stale entry
        k = max(k, d)
        core[v] = k
        for i in holds[v]:
            if alive[i]:
                alive[i] = False
                for u in inst[i]:
                    if u != v:
                        deg[u] -= 1
                        heapq.heappush(heap, (deg[u], u))
    return core


def kmax_core(edges, pattern: str) -> tuple:
    """(k_max, the (k_max, Psi)-core's vertices) of the whole graph."""
    core = core_numbers(oracle.instances(edges, pattern))
    k = max(core.values())
    return k, [v for v, c in core.items() if c == k]


def certify_rho(graph: str, pattern: str, seed: int, edges) -> None:
    alpha = oracle.RHO_OPT[(graph, pattern)]
    p = oracle.PATTERN_SIZE[pattern]
    inst = oracle.instances(edges, pattern)
    t0 = time.perf_counter()
    value, trivial, _ = min_cut(inst, p, alpha)
    if value != trivial:
        raise SystemExit(f"{graph}/{pattern}: a set denser than {alpha} exists")
    n = len(set(edges["src"]) | set(edges["dst"]))
    _, _, witness = min_cut(inst, p, alpha - Fraction(1, 2 * n * n))
    mu = oracle.count_pattern(oracle.induced_adjacency(edges, witness), pattern)
    if not witness or Fraction(mu, len(witness)) != alpha:
        raise SystemExit(f"{graph}/{pattern}: no set of density {alpha} found")
    print(f"{graph}/{pattern} seed {seed}: rho_opt = {alpha} certified "
          f"({len(inst)} instances, witness |S| = {len(witness)}, "
          f"{time.perf_counter() - t0:.1f} s)", flush=True)


def certify_core_density(graph: str, pattern: str, seed: int, edges) -> None:
    want = oracle.KMAX_CORE_DENSITY[(graph, pattern)]
    k, verts = kmax_core(edges, pattern)
    rho = Fraction(oracle.count_pattern(oracle.induced_adjacency(edges, verts), pattern),
                   len(verts))
    if rho != want:
        raise SystemExit(f"{graph}/{pattern}: the (k_max, Psi)-core (k_max = {k}, "
                         f"{len(verts)} vertices) has density {rho}, pinned {want}")
    print(f"{graph}/{pattern} seed {seed}: (k_max, Psi)-core density = {want} certified "
          f"(k_max = {k}, {len(verts)} vertices)", flush=True)


def certify_edge_core(graph: str, seed: int, edges) -> None:
    want = oracle.KMAX_EDGE_CORE[graph]
    k, verts = kmax_core(edges, "edge")
    if (k, len(verts)) != want:
        raise SystemExit(f"{graph}: k_max-core has k = {k} on {len(verts)} vertices, "
                         f"pinned k = {want[0]} on {want[1]}")
    print(f"{graph} seed {seed}: k_max = {k} on {len(verts)} vertices certified", flush=True)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    graphs = {g for g, _ in oracle.RHO_OPT} | {g for g, _ in oracle.KMAX_CORE_DENSITY}
    for graph in sorted(graphs | set(oracle.KMAX_EDGE_CORE)):
        edges, perm = inputs.seeded_edges(graph, args.seed)
        inputs.check_input(graph, args.seed, edges, perm)
        for g, pattern in oracle.RHO_OPT:
            if g == graph:
                certify_rho(graph, pattern, args.seed, edges)
        for g, pattern in oracle.KMAX_CORE_DENSITY:
            if g == graph:
                certify_core_density(graph, pattern, args.seed, edges)
        if graph in oracle.KMAX_EDGE_CORE:
            certify_edge_core(graph, args.seed, edges)


if __name__ == "__main__":
    main()
