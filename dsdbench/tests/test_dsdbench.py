"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root:

    PYTHONPATH=src python3 -m pytest dsdbench/tests -q -p no:cacheprovider

The command-level tests start their own Spark session per run (about
40 s each); the tracer tests use the ``spark`` fixture of the root
conftest.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pandas as pd
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import certify  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import tracer as tracer_mod  # noqa: E402

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run_bench(cwd: str, workload: str, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "dsdbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def copy_checkout(dst, link_src: bool) -> str:
    """A checkout holding BENCHMARK.json and the benchmark (and src, if asked)."""
    root = str(dst)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    shutil.copytree(BENCH, os.path.join(root, "dsdbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    if link_src:
        os.symlink(os.path.join(ROOT, "src"), os.path.join(root, "src"))
    return root


# -- the command -------------------------------------------------------------

@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_end_to_end_metric(workload, tmp_path):
    proc = run_bench(ROOT, workload, "--trace", "0", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_tampered_oracle_value_fails_the_run(tmp_path):
    root = copy_checkout(tmp_path, link_src=True)
    path = os.path.join(root, "dsdbench", "oracle.py")
    text = open(path).read()
    assert "Fraction(16063, 24)" in text
    with open(path, "w") as fh:
        fh.write(text.replace("Fraction(16063, 24)", "Fraction(16064, 24)"))
    proc = run_bench(root, "exact", "--trace", "0")
    assert proc.returncode != 0
    assert "WrongAnswer" in proc.stderr
    assert '"metrics"' not in proc.stdout


def test_run_fails_without_the_program(tmp_path):
    root = copy_checkout(tmp_path, link_src=False)
    proc = run_bench(root, "exact", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- the tracer --------------------------------------------------------------

def _small_graph(spark):
    from repro.graph import generators as gen
    from repro.graph.ops import edges_from_pandas

    pdf = gen.compose(gen.clique_pandas(range(7)), gen.chung_lu_pandas(40, 90, seed=3))
    return edges_from_pandas(spark, pdf).localCheckpoint(eager=True)


def _bindings() -> dict:
    from pyspark.sql.classic.dataframe import DataFrame

    out = {(name, a): v for name, mod in list(sys.modules.items())
           if mod is not None and name.startswith("repro") for a, v in vars(mod).items()}
    out.update({("DataFrame", a): v for a, v in vars(DataFrame).items()})
    return out


def _traced_core_exact(spark, edges, tr, qid):
    from repro.densest.core_exact import core_exact
    from repro.patterns import clique

    with tr:
        tr.run_query(qid, lambda: core_exact(spark, edges, clique(3)))
    return tr.query_metrics(qid)


def test_tracer_restores_every_binding(spark):
    import repro.densest.core_exact  # noqa: F401  (loads every layer module)
    import repro.densest.network as network

    before = _bindings()
    tr = tracer_mod.Tracer(spark).install()
    try:
        assert network.build_network is not before[("repro.densest.network", "build_network")]
        assert len(tr.patched) > 20
    finally:
        tr.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_spans_nest_and_self_times_are_non_negative(spark):
    tr = tracer_mod.Tracer(spark)
    m = _traced_core_exact(spark, _small_graph(spark), tr, "q")
    spans = {s["id"]: s for s in tr.to_json()}
    assert {s["layer"] for s in spans.values()} >= {"query", "enum", "spark", "peel",
                                                     "network", "mincut"}
    for s in spans.values():
        assert s["self_s"] >= -1e-9
        if s["parent"] is not None:
            p = spans[s["parent"]]
            assert p["start"] <= s["start"] and s["end"] <= p["end"]
            assert s["query"] == p["query"]
    assert m["mincut.calls"] >= 1 and m["spark.jobs"] >= m["enum.spark_jobs"] >= 1


def test_two_traced_runs_give_identical_counts(spark):
    edges = _small_graph(spark)
    tr = tracer_mod.Tracer(spark)
    first = _traced_core_exact(spark, edges, tr, "a")
    second = _traced_core_exact(spark, edges, tr, "b")
    counts = [name for name, unit in tracer_mod.METRICS if unit != "s"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


# -- the oracle and the inputs -----------------------------------------------

@pytest.mark.parametrize("pattern", ["edge", "triangle", "4-clique", "5-clique"])
def test_oracle_counts_agree_with_its_enumerator(pattern):
    rng = np.random.default_rng(5)
    i, j = np.triu_indices(12, k=1)
    keep = rng.random(len(i)) < 0.6
    edges = pd.DataFrame({"src": i[keep], "dst": j[keep]})
    adj = oracle.induced_adjacency(edges, range(12))
    assert oracle.count_pattern(adj, pattern) == len(oracle.instances(edges, pattern))


def test_certify_peel_matches_networkx_core_numbers():
    import networkx as nx

    from repro.graph import generators as gen

    pdf = gen.compose(gen.clique_pandas(range(9)), gen.chung_lu_pandas(80, 300, seed=2))
    want = nx.core_number(nx.from_pandas_edgelist(pdf, "src", "dst"))
    assert certify.core_numbers(oracle.instances(pdf, "edge")) == want
    k, verts = certify.kmax_core(pdf, "edge")
    assert k == max(want.values())
    assert sorted(verts) == sorted(v for v, c in want.items() if c == k)


def test_seeded_input_is_checked_against_the_recipe():
    pdf, perm = inputs.seeded_edges("netscience", 4)
    inputs.check_input("netscience", 4, pdf, perm)
    broken = pdf.copy()
    broken.loc[0, "dst"] = broken.loc[1, "dst"]
    with pytest.raises(ValueError):
        inputs.check_input("netscience", 4, broken, perm)
    canon, ident = inputs.seeded_edges("netscience", 0)
    inputs.check_input("netscience", 0, canon, ident)
