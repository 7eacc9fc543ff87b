"""Exact (Algorithm 1): whole-graph flow-network search [24, 51].

The baseline the paper improves on: every min-cut runs on a network over
the ENTIRE graph. In place of the paper's bisection over alpha, it runs
the Newton search of ``network.newton_search`` from D = V, alpha =
rho(V): each non-empty cut raises alpha to the cut's density, and the
first empty cut certifies the optimum. Instance enumeration is Spark
dataflow; the min-cuts run on the driver (see DESIGN.md layering).
"""
from __future__ import annotations

import time
from fractions import Fraction

from pyspark.sql import DataFrame, SparkSession

from repro.densest.common import DSDResult, exact_density, gather
from repro.densest.network import newton_search
from repro.patterns.base import Pattern


def exact_densest(
    spark: SparkSession,
    edges: DataFrame,
    pattern: Pattern,
    inst: DataFrame | None = None,
    grouped: bool | None = None,
) -> DSDResult:
    """Find the CDS/PDS exactly, per Algorithm 1 (+ construct+ grouping
    for non-clique patterns when ``grouped`` is None)."""
    t0 = time.perf_counter()
    allv, members = gather(spark, edges, pattern, inst)
    t_enum = time.perf_counter() - t0
    if grouped is None:
        grouped = pattern.kind not in ("clique",)

    n = len(allv)
    stats = {"iterations": 0, "network_sizes": [], "n": n, "instances": int(members.shape[0])}
    if members.shape[0] == 0 or n < 2:
        best = allv[:1]
        return DSDResult(
            "Exact", pattern.name, sorted(best), exact_density(members, best),
            timings={"enumerate": t_enum, "flow": 0.0, "total": time.perf_counter() - t0},
            stats=stats,
        )

    t_flow0 = time.perf_counter()
    best, alpha = newton_search(
        members, pattern.nv, allv, allv, Fraction(members.shape[0], n), grouped, stats
    )
    t_flow = time.perf_counter() - t_flow0
    return DSDResult(
        "Exact",
        pattern.name,
        sorted(best),
        float(alpha),
        timings={
            "enumerate": t_enum,
            "flow": t_flow,
            "total": time.perf_counter() - t0,
        },
        stats=stats,
    )
