"""Densest-subgraph benchmark: closed-loop workloads with oracle-checked answers.

Run from the root of a repository checkout:

    python3 dsdbench/run.py --workload exact|approx --seed N --seconds S --trace 0|1

One Python process drives one local Spark session (``local[N]``,
N = min(4, nproc)). Queries run back to back through the public
algorithm entry points; the next starts only when the previous returned.
Every answer is re-counted by ``oracle.py`` outside the timed region; a
wrong answer or an exception prints the reason to stderr and exits 1
without a result.

A run: start the session; build the workload's input graphs
(``inputs.py``) ``SETUP_REPS`` times; then repeat timed passes over the
queries until the next pass would end past ``--seconds`` (at least one;
three to five at the ``run_seconds`` of ``BENCHMARK.json``). The first
pass pays the session's cold start (code generation, first use of each
query's code path): its answers are checked like every other pass, but
its seconds are left out of the medians.

``--seed`` picks the vertex labelling of the inputs (``inputs.py``):
seed 0 is the recipes bit for bit, other seeds relabel them, so every
seed does the same work and the pinned oracle values hold.

``--trace 0`` prints the end-to-end metrics: ``run_s`` (seconds of one
warm pass, as the sum over the queries of each query's median over the
warm passes, so a slow stretch of the host that hits one query in one
pass does not move it), ``setup_s`` (session start plus the median graph
build; the first build also runs the session's first Spark jobs),
``approx_ratio_min`` (lowest rho/rho_opt of any answer, 1 for exact and
k_max-core answers) and ``driver_peak_rss_mb``. ``--trace 1`` runs one
untimed pass, then, in what is left of ``--seconds``, pairs of one
untraced and one traced pass (which runs first alternates with the pair
index and the seed), and prints for
query slot qI (the I-th query of the workload, in ``WORKLOADS`` order)
the layer metrics of ``tracer.METRICS`` as medians over traced passes
(0 for a slot the workload does not fill), plus ``trace.overhead_frac``
= traced / untraced median pass seconds - 1.

The last stdout line is the JSON result. Earlier lines give the
environment and per-query seconds; the same, with every pass and (when
traced) every span, goes to ``dsdbench/out/<workload>-seed<N>-trace<T>.json``.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import shlex
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SHUFFLE_PARTITIONS = 32
DRIVER_MEMORY = "2g"
SETUP_REPS = 3


@dataclass(frozen=True)
class Query:
    name: str
    graph: str
    pattern: str | None  # None for EMcore, which takes no pattern
    entry: str  # "module:function" under repro
    kind: str  # oracle check: exact | peel | kmax_core | kmax


WORKLOADS = {
    # Flow-heavy: Lemma 8, min cuts, network builds and Exact's bisection;
    # each query has its own Psi, so no work is shared between them. EMcore
    # on the same graph adds the classical k-core layer at little cost.
    "exact": (
        Query("coreexact_5clique", "as733", "5-clique", "densest.core_exact:core_exact", "exact"),
        Query("exact_edge", "as733", "edge", "densest.exact:exact_densest", "exact"),
        Query("emcore_kmax", "as733", None, "cores.emcore:kmax_core_emcore", "kmax"),
    ),
    # Spark enumeration dominates and no flow code runs; three queries
    # share one (graph, Psi), where enumerating once would show.
    "approx": (
        Query("peelapp_4clique", "as733", "4-clique", "densest.peel:peel_app", "peel"),
        Query("incapp_4clique", "as733", "4-clique", "densest.incapp:inc_app", "kmax_core"),
        Query("coreapp_4clique", "as733", "4-clique", "densest.coreapp_dsd:core_app", "kmax_core"),
        Query("coreapp_triangle", "netscience", "triangle", "densest.coreapp_dsd:core_app",
              "kmax_core"),
    ),
}
SLOTS = max(len(qs) for qs in WORKLOADS.values())  # per-layer metrics name slots q1..qSLOTS


def parse_args(argv):
    ap = argparse.ArgumentParser(description="Densest-subgraph benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(HERE, "out"), help="record directory")
    return ap.parse_args(argv)


def spark_session(out_dir: str):
    """The benchmark's own quiet local session; returns (spark, seconds to start)."""
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp  # pyspark's gateway handshake files
    # every JVM spark-submit starts (launcher and driver) keeps its temp
    # files in the record directory and writes no hsperfdata file
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={shlex.quote(tmp)} -XX:-UsePerfData"
    cores = min(4, os.cpu_count() or 1)
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{cores}]",
        f"--driver-memory {DRIVER_MEMORY}",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        f"--conf spark.local.dir={shlex.quote(os.path.join(out_dir, 'spark-local'))}",
        "pyspark-shell",
    ])
    from pyspark.sql import SparkSession

    # the settings of the repository's test session (conftest.py), with
    # SHUFFLE_PARTITIONS in place of its 64
    t0 = time.perf_counter()
    spark = (
        SparkSession.builder.appName("dsdbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark, time.perf_counter() - t0


def stop(spark) -> None:
    """Stop the session, then end the gateway JVM and wait for it to exit."""
    gateway = spark.sparkContext._gateway
    spark.stop()
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()  # the gateway exits on EOF of its stdin
        proc.wait(timeout=60)


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_digest() -> str:
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(base, f)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment(spark) -> dict:
    sc = spark.sparkContext
    import pyspark

    return {
        "nproc": os.cpu_count(),
        "spark_master": sc.master,
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "driver_memory": sc.getConf().get("spark.driver.memory"),
        "pyspark": pyspark.__version__,
        "java": sc._jvm.java.lang.System.getProperty("java.version"),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


def resolve(entry: str):
    import importlib

    mod, fn = entry.split(":")
    return getattr(importlib.import_module(f"repro.{mod}"), fn)


def make_pattern(name: str | None):
    from repro import patterns

    if name is None:
        return None
    if name.endswith("-clique"):
        return patterns.clique(int(name.split("-")[0]))
    return {"edge": patterns.edge, "triangle": patterns.triangle}[name]()


def call(spark, q: Query, edges):
    fn = resolve(q.entry)
    pattern = make_pattern(q.pattern)
    return fn(spark, edges) if pattern is None else fn(spark, edges, pattern)


def check(q: Query, frame, answer) -> float:
    import oracle

    if q.kind == "kmax":
        return oracle.check_kmax(frame, q.graph, answer)
    return oracle.check_dsd(frame, q.graph, q.pattern, q.kind, answer)


def build_graphs(spark, workload: str, seed: int) -> tuple:
    """(frames, DataFrames, setup rep seconds): the inputs, built SETUP_REPS times."""
    import inputs
    from repro.graph.ops import edges_from_pandas

    names = sorted({q.graph for q in WORKLOADS[workload]})
    reps = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        frames, perms, dfs = {}, {}, {}
        for name in names:
            frames[name], perms[name] = inputs.seeded_edges(name, seed)
            dfs[name] = edges_from_pandas(spark, frames[name]).localCheckpoint(eager=True)
            dfs[name].count()
        reps.append(time.perf_counter() - t0)
    for name in names:
        inputs.check_input(name, seed, frames[name], perms[name])
    return frames, dfs, reps


def one_pass(spark, workload, frames, dfs, tracer=None, tag="") -> dict:
    """Run every query once; returns per-query seconds and answer ratios."""
    secs, ratios = {}, {}
    for q in WORKLOADS[workload]:
        t0 = time.perf_counter()
        if tracer is None:
            answer = call(spark, q, dfs[q.graph])
        else:
            answer = tracer.run_query(f"{tag}{q.name}", lambda: call(spark, q, dfs[q.graph]))
        secs[q.name] = time.perf_counter() - t0
        ratios[q.name] = check(q, frames[q.graph], answer)
    return {"run_s": sum(secs.values()), "query_s": secs, "ratio": ratios}


def measure(seconds: float, step) -> list:
    """Call ``step()`` until the next call, as long as the last, would end past
    ``seconds``; at least once."""
    t0, out = time.perf_counter(), []
    while True:
        out.append(step())
        if time.perf_counter() - t0 + out[-1]["seconds"] > seconds:
            return out


def run(args) -> dict:
    os.makedirs(args.out, exist_ok=True)
    spark, t_session = spark_session(args.out)
    try:
        env = environment(spark)
        print("env " + json.dumps(env), flush=True)
        frames, dfs, reps = build_graphs(spark, args.workload, args.seed)
        queries = WORKLOADS[args.workload]
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "env": env, "session_s": t_session, "graph_build_s": reps}
        if args.trace == 0:
            passes = measure(args.seconds, lambda: timed(one_pass, spark, args.workload,
                                                         frames, dfs))
            warm = passes[1:] or passes  # the first pass is the cold start
            query_s = {q.name: statistics.median(p["query_s"][q.name] for p in warm)
                       for q in queries}
            metrics = {
                "run_s": (sum(query_s.values()), "s"),
                "setup_s": (t_session + statistics.median(reps), "s"),
                "approx_ratio_min": (min(min(p["ratio"].values()) for p in passes), "ratio"),
                "driver_peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            used = f"median of {len(warm)} of {len(passes)} passes"
            for name, med in query_s.items():
                print(f"query {name}_s {med:.4f} s ({used})", flush=True)
        else:
            passes, metrics, spans = traced_passes(spark, args, frames, dfs)
            record["spans"] = spans
        record["passes"] = passes
        record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        attempted = len(queries) * (len(passes) if args.trace == 0 else 2 * len(passes) + 1)
    finally:
        stop(spark)
    path = os.path.join(args.out, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    return {"correct": True, "attempted": attempted, "failed": 0,
            "metrics": record["metrics"]}


def timed(fn, *args, **kwargs) -> dict:
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    out["seconds"] = time.perf_counter() - t0
    return out


def traced_passes(spark, args, frames, dfs) -> tuple:
    """Pairs of untraced and traced passes; per-slot layer metrics + overhead."""
    import tracer as tracer_mod

    tr = tracer_mod.Tracer(spark)
    queries = WORKLOADS[args.workload]
    tags = itertools.count(1)

    def traced_pass(tag):
        with tr:
            return one_pass(spark, args.workload, frames, dfs, tracer=tr, tag=tag)

    def pair():
        i = next(tags)
        tag = f"p{i}."
        # the side that runs first alternates from pair to pair and, for
        # the first pair, with the seed, so a bias of position within a
        # pair does not load onto trace.overhead_frac
        traced_first = (args.seed + i) % 2 == 0
        if traced_first:
            traced = traced_pass(tag)
        plain = one_pass(spark, args.workload, frames, dfs)
        if not traced_first:
            traced = traced_pass(tag)
        return {"untraced": plain, "traced": traced, "tag": tag, "traced_first": traced_first}

    # one untimed pass first, so the cold cost of the session's first
    # queries does not land on either side of a pair; it counts against
    # --seconds, as the cold first pass of an untraced run does
    cold = timed(one_pass, spark, args.workload, frames, dfs)["seconds"]
    passes = measure(args.seconds - cold, lambda: timed(pair))
    metrics = {}
    for i in range(SLOTS):
        q = queries[i] if i < len(queries) else None
        per_pass = [tr.query_metrics(p["tag"] + q.name) for p in passes] if q else []
        if q is not None:
            print(f"slot q{i + 1} = {q.name}", flush=True)
        for name, unit in tracer_mod.METRICS:
            val = statistics.median(m[name] for m in per_pass) if q else 0
            metrics[f"q{i + 1}.{name}"] = (val, unit)
    untraced = statistics.median(p["untraced"]["run_s"] for p in passes)
    traced = statistics.median(p["traced"]["run_s"] for p in passes)
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "frac")
    return passes, metrics, tr.to_json()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"dsdbench: no repro sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        print(f"dsdbench: repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except Exception:  # a failed query or a wrong answer: report it, record nothing
        traceback.print_exc()
        print("dsdbench: FAILED; no result recorded", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
