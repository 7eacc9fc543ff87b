"""Flow networks and the Newton search of the exact densest-subgraph algorithms.

``build_network`` mirrors Algorithm 1 lines 5-12: source -> vertex arcs
with capacity deg(v, Psi), vertex -> sink arcs with capacity
alpha * |V_Psi|, and per-instance gadgets (v -> psi cap 1,
psi -> v cap |V_Psi| - 1). ``grouped=True`` is construct+ (Algorithm 7):
instances sharing a vertex set collapse into one group node g with
v -> g cap |g| and g -> v cap |g| * (|V_Psi| - 1). Lemma 12 guarantees
identical min-cut capacity (tested). alpha is a rational a/b, and every
capacity is multiplied by b, so the network is integral and each cut
decision is exact.

The cheapest cut whose source side holds the vertex set S costs
b * |V_Psi| * (|Lambda| + |S| (alpha - rho(S))), so the minimal source
side is non-empty exactly when some S has rho(S) > alpha, and then the
side found has rho(S) > alpha.

``newton_search`` uses that as a Newton (Dinkelbach) iteration: cut at
alpha = rho(D), and while the cut is non-empty set D to it and alpha to
its density, which rises strictly every step. It replaces the paper's
bisection over alpha and needs a handful of cuts (Goldberg 1984).
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction

import numpy as np

from repro.cores.clique_core import density_fraction, instances_inside
from repro.flow.dinic import Dinic


def group_instances(members: np.ndarray) -> tuple:
    """construct+ grouping: unique member-sets with multiplicities.

    Returns (unique_members, counts) where unique_members is
    (num_groups, p) with rows sorted ascending per-row.
    """
    if members.shape[0] == 0:
        return members, np.zeros(0, dtype=np.int64)
    rows = np.sort(members, axis=1)
    uniq, counts = np.unique(rows, axis=0, return_counts=True)
    return uniq, counts


def build_network(vertex_ids, members: np.ndarray, alpha, p: int, grouped: bool = False):
    """Build the Algorithm-1 / construct+ flow network at ``alpha``.

    ``vertex_ids``: vertices of the (sub)graph the network is built on.
    ``members``:    instance member matrix restricted to that subgraph.
    ``alpha``:      an int, float or Fraction, taken exactly as a/b; every
                    capacity is scaled by b so that all are integers.

    Returns (dinic, s, t, vid2node, n_nodes) with vertex nodes 1..n.
    """
    alpha = Fraction(alpha)
    a, b = alpha.numerator, alpha.denominator
    vids = sorted(int(v) for v in vertex_ids)
    vid2node = {v: i + 1 for i, v in enumerate(vids)}
    nv = len(vids)

    if grouped:
        gm, gcount = group_instances(members)
    else:
        gm, gcount = members, np.ones(members.shape[0], dtype=np.int64)

    ng = gm.shape[0]
    s = 0
    t = nv + ng + 1
    net = Dinic(t + 1)

    deg = Counter()
    for r in range(ng):
        c = int(gcount[r])
        for v in gm[r]:
            deg[int(v)] += c

    for v in vids:
        net.add_edge(s, vid2node[v], deg[v] * b)
        net.add_edge(vid2node[v], t, a * p)
    for r in range(ng):
        gnode = nv + 1 + r
        c = int(gcount[r]) * b
        for v in gm[r]:
            net.add_edge(vid2node[int(v)], gnode, c)
            net.add_edge(gnode, vid2node[int(v)], c * (p - 1))
    return net, s, t, vid2node, t + 1


def min_cut_vertices(net: Dinic, s: int, t: int, vid2node: dict) -> list:
    """Run max-flow and return graph vertices on the source side of the cut."""
    net.max_flow(s, t)
    side = net.min_cut_source_side(s)
    return sorted(v for v, node in vid2node.items() if node in side)


def newton_search(members, p, region, best, alpha, grouped, stats, shrink=None) -> tuple:
    """Densest subset of ``region``, if it beats ``best``; returns (best, alpha).

    ``best`` is a vertex list whose density is the Fraction ``alpha``.
    Each step cuts the network over ``region`` at alpha; an empty cut
    certifies that no subset of ``region`` is denser than alpha. Otherwise
    the cut becomes ``best`` and its density ``alpha``. ``shrink(region,
    alpha)``, when given, narrows the region before every cut. Each cut
    adds one to ``stats["iterations"]`` and its node count to
    ``stats["network_sizes"]``.
    """
    while True:
        if shrink is not None:
            region = shrink(region, alpha)
        if len(region) < 2:
            return best, alpha
        mem = members[instances_inside(members, region)]
        net, s, t, vid2node, n_nodes = build_network(region, mem, alpha, p, grouped=grouped)
        stats["iterations"] += 1
        stats["network_sizes"].append(n_nodes)
        cut = min_cut_vertices(net, s, t, vid2node)
        if not cut:
            return best, alpha
        best, alpha = cut, density_fraction(mem, cut)
