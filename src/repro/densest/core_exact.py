"""CoreExact (Algorithm 4): core-located exact densest subgraph.

Pipeline: (1) Spark enumerates instances; (2) exact (k,Psi)-core
decomposition (driver peel over the collected instance table — the
enumeration is the dominant cost, Lemma 6) tracking residual densities
(rho'); (3) locate the CDS in the (k'',Psi)-core and split it into
connected components; (4) per component, the Newton search of
``network.newton_search`` in place of the paper's bisection over alpha:

* D starts as the best set known, alpha = rho(D) as an exact Fraction:
  the best peel residual (Pruning 1, rho'), or the kmax-core when
  Pruning 1 is off, raised to the densest located component (Pruning 2,
  rho'');
* Pruning 1/2: localization to the ceil(rho')- and ceil(rho'')-core;
* alpha and D carry across components, since both are certified by a
  concrete subgraph;
* shrink: before every cut the component is restricted to the vertices
  of core number above alpha (the ceil(alpha)-core unless alpha is an
  integer), so the network shrinks whenever alpha rises, and a component
  left with fewer than two vertices needs no cut.

Starting from D, not from the empty set, fixes a printed-algorithm gap
(DESIGN.md): when rho_opt == rho'' no cut is non-empty, and Algorithm 4
as printed would return the empty set.
"""
from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.cores.clique_core import density_fraction, peel_decompose
from repro.densest.common import DSDResult, exact_density, gather
from repro.densest.network import newton_search
from repro.graph.ops import components_pandas
from repro.patterns.base import Pattern


def core_exact(
    spark: SparkSession,
    edges: DataFrame,
    pattern: Pattern,
    inst: DataFrame | None = None,
    use_p1: bool = True,
    use_p2: bool = True,
    grouped: bool | None = None,
) -> DSDResult:
    t_start = time.perf_counter()
    if grouped is None:
        grouped = pattern.kind not in ("clique",)
    p = pattern.nv

    allv, members = gather(spark, edges, pattern, inst)
    edge_pdf = edges.toPandas()  # CoreExact targets small/moderate graphs (§8 remark)
    t_enum = time.perf_counter() - t_start

    t1 = time.perf_counter()
    pr = peel_decompose(members, allv)
    t_dec = time.perf_counter() - t1

    n = len(allv)
    kmax = pr.kmax
    stats: dict = {
        "kmax": kmax,
        "instances": int(members.shape[0]),
        "n": n,
        "network_sizes": [],
        "iterations": 0,
    }
    if kmax == 0 or n < 2:
        verts = pr.best_vertices or allv[:1]
        return DSDResult(
            "CoreExact", pattern.name, sorted(verts), exact_density(members, verts),
            kmax=kmax,
            timings={"enumerate": t_enum, "decompose": t_dec, "flow": 0.0,
                     "total": time.perf_counter() - t_start},
            stats=stats,
        )

    core_map = pr.core
    esrc = edge_pdf["src"].to_numpy(np.int64)
    edst = edge_pdf["dst"].to_numpy(np.int64)

    def core_vertices(k: int) -> set:
        return {v for v, c in core_map.items() if c >= k}

    def comps_of(vset: set) -> list:
        """Connected components (vertex lists) of G[vset]."""
        if not vset:
            return []
        keep = np.fromiter((s in vset and d in vset for s, d in zip(esrc, edst)),
                           dtype=bool, count=len(esrc))
        import pandas as pd

        roots = components_pandas(
            pd.DataFrame({"src": esrc[keep], "dst": edst[keep]}), extra_vertices=vset
        )
        groups: dict = {}
        for v in vset:
            groups.setdefault(roots[int(v)], []).append(int(v))
        return list(groups.values())

    t2 = time.perf_counter()
    # -- the starting set D, alpha = rho(D), and localization ----------------
    if use_p1:  # Pruning 1: the best peel residual, rho'
        best = pr.best_vertices
    else:  # Theorem 1 alone: the kmax-core is denser than kmax/|V_Psi|
        best = sorted(core_vertices(kmax))
    alpha = density_fraction(members, best)
    k_loc = math.ceil(alpha if use_p1 else Fraction(kmax, p))

    comps = comps_of(core_vertices(k_loc))
    if use_p2:  # Pruning 2: the densest located component, rho''
        for c in comps:
            d = density_fraction(members, c)
            if d > alpha:
                alpha, best = d, sorted(c)
        if math.ceil(alpha) > k_loc:
            k_loc = math.ceil(alpha)
            comps = comps_of(core_vertices(k_loc))
    t_locate = time.perf_counter() - t2

    # -- per-component Newton search, alpha carried across components -------
    def shrink(region, alpha):
        """A set denser than alpha has a densest subset whose vertices each
        lie in more than alpha of its instances; so only vertices of core
        number above alpha can beat D."""
        return [v for v in region if core_map[v] > alpha]

    t3 = time.perf_counter()
    for comp in comps:
        best, alpha = newton_search(members, p, comp, best, alpha, grouped, stats, shrink)
    t_flow = time.perf_counter() - t3

    return DSDResult(
        "CoreExact",
        pattern.name,
        best,
        float(alpha),
        kmax=kmax,
        timings={
            "enumerate": t_enum,
            "decompose": t_dec,
            "locate": t_locate,
            "flow": t_flow,
            "total": time.perf_counter() - t_start,
        },
        stats=stats,
    )
