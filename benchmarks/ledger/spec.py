"""What the ledger declares: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repository root is :func:`manifest` written
out; the self-tests hold the two equal.  Names are fixed — later issues
cite them — so a change here is a change of the benchmark and gets its
own PR and a fresh baseline.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

#: Seconds one driver run measures (``--seconds``).
RUN_SECONDS = 10

#: Times the set-up runs in one invocation; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: (name, why) — the ``why`` is the one-liner ``BENCHMARK.json`` carries;
#: README.md has the paragraph.
WORKLOADS = (
    ("paper_inmem",
     "the paper's Fig. 5 and Fig. 10 query sets in memory, plan cache "
     "hot: the NQE iterator tree does all the work"),
    ("compile_cold",
     "1331 axis paths plus seeded fuzz queries over a 30-element "
     "document, every op a plan-cache miss: xpath/ and compiler/ "
     "dominate"),
    ("stored_fastpath",
     "Fig. 10 plus index-friendly queries on a stored DBLP that fits "
     "the page buffer, codegen=auto and optimizer=cost: index routing, "
     "cost model and generated Python must compose"),
    ("stored_cold",
     "point and scan queries on a stored DBLP 8x larger than an 8-page "
     "buffer, node cache cleared per op: storage/ page reads and record "
     "decoding dominate"),
    ("collection_scatter",
     "8-shard DBLP collection with one prunable needle, nproc workers: "
     "collection/ ship, queue, pickle and merge are the blocking path"),
    ("serve_point",
     "repro.server subprocess, sub-millisecond point queries over 2 "
     "keep-alive connections: HTTP parse, admission and executor hop "
     "dominate"),
    ("serve_stream",
     "same server streaming 1000- and 3500-item node-sets in 64-item "
     "pages: framing, chunked writes and the executor hop are half of "
     "op time, evaluation the other half"),
)

WORKLOAD_NAMES = tuple(name for name, _why in WORKLOADS)

#: Operations a full-size timed window holds at least, so the 95th
#: percentile has ten samples beyond it (200 on ``stored_cold``, whose
#: scans are the slowest ops).  The workloads are sized to reach 1.3x
#: this in ``RUN_SECONDS`` on the baseline host; a window that falls
#: short on a slow host runs on until it is there.
MIN_OPS = {name: 400 for name in WORKLOAD_NAMES}
MIN_OPS["stored_cold"] = 200


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen
    #: (``None``: the three ratio metrics use an absolute rule, see
    #: README.md, and are not part of the driver's contract).
    bound: Optional[float] = None


#: The eleven end-to-end metrics of the ledger's own report.  The eight
#: with a relative bound are what ``BENCHMARK.json`` declares: they are
#: defined and non-zero on every workload.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    Metric("latency_p95_ms", "ms", "lower", 0.25),
    Metric("throughput_qps", "1/s", "higher", 0.25),
    Metric("items_per_s", "1/s", "higher", 0.25),
    Metric("ttfp_p50_ms", "ms", "lower", 0.25),
    Metric("cpu_ms_per_op", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("slo_miss_ratio", "ratio", "lower"),
    Metric("failed_ratio", "ratio", "lower"),
    Metric("stored_bytes_ratio", "ratio", "lower"),
)

#: Absolute rules of the three ratio metrics (``compare.py``).
ABSOLUTE_BOUNDS = {
    "slo_miss_ratio": 0.01,
    "failed_ratio": 0.0,
    "stored_bytes_ratio": 0.0,
}

#: Latency limit per workload, frozen at about four times the first
#: baseline's p50 (benchmarks/ledger/baselines/BENCH_e2e.json).  An op
#: over the limit, or a failed op, is an SLO miss.
SLO_MS: Dict[str, float] = {
    "paper_inmem": 35.0,
    "compile_cold": 1.0,
    "stored_fastpath": 32.0,
    "stored_cold": 2.7,
    "collection_scatter": 100.0,
    "serve_point": 5.0,
    "serve_stream": 54.0,
}

LAYERS = (
    "xpath", "compiler", "codegen", "engine", "storage", "index",
    "collection", "server", "dom",
)


def _layer_metrics() -> List[Metric]:
    rows = """
    xpath.parse_us us lower
    xpath.ast_nodes count lower
    compiler.semantic_us us lower
    compiler.rewrite_us us lower
    compiler.normalize_us us lower
    compiler.translate_us us lower
    compiler.optimize_us us lower
    compiler.physical_us us lower
    compiler.plan_operators count lower
    compiler.rules_fired count higher
    compiler.index_scans_routed count higher
    codegen.emit_us us lower
    codegen.exec_ms ms lower
    codegen.fallback_ratio ratio lower
    engine.exec_ms ms lower
    engine.next_calls_per_op count lower
    engine.tuples_per_item ratio lower
    engine.nvm_invocations_per_op count lower
    engine.axis_nodes_visited_per_op count lower
    engine.plan_cache_hit_ratio ratio higher
    engine.session_overhead_us us lower
    engine.stream_first_item_ms ms lower
    storage.page_misses_per_op count lower
    storage.page_hits_per_op count lower
    storage.evictions_per_op count lower
    storage.hit_ratio ratio higher
    storage.page_read_us us lower
    storage.node_decode_us us lower
    storage.open_ms ms lower
    storage.write_ms_per_knode ms lower
    storage.bytes_per_node bytes lower
    index.pages_read_per_op count lower
    index.lookup_us us lower
    index.candidates_per_item ratio lower
    index.build_ms_per_knode ms lower
    index.region_bytes_ratio ratio lower
    collection.ship_us us lower
    collection.shipped_bytes bytes lower
    collection.scatter_ms_per_op ms lower
    collection.gather_ms_per_op ms lower
    collection.worker_ms_per_op ms lower
    collection.slowest_shard_ms ms lower
    collection.parent_overhead_ms ms lower
    collection.result_pickle_bytes_per_item bytes lower
    collection.merge_us us lower
    collection.pruned_ratio ratio higher
    collection.shipped_cache_hit_ratio ratio higher
    collection.pool_start_ms ms lower
    collection.recycles count lower
    server.parse_request_us us lower
    server.hop_overhead_ms ms lower
    server.vs_inprocess_ratio ratio lower
    server.admission_rejects count lower
    server.start_ms ms lower
    server.encode_item_us us lower
    server.encode_frame_us us lower
    server.wire_bytes_per_item bytes lower
    server.pages_per_s 1/s higher
    dom.parse_ms_per_knode ms lower
    """
    metrics = [Metric(*row.split()) for row in rows.split("\n") if row.split()]
    # Share of traced op time spent in each layer's own code (self
    # time), plus the harness remainder and the framing part of server.
    for layer in LAYERS[:-1] + ("server_framing", "harness"):
        metrics.append(Metric(f"share.{layer}", "ratio", "lower"))
    metrics.append(Metric("trace_overhead_ratio", "ratio", "lower"))
    return metrics


PER_LAYER = tuple(_layer_metrics())

#: Counters that must repeat exactly for one seed (self-tests).
EXACT_LAYER_METRICS = (
    "engine.next_calls_per_op",
    "engine.nvm_invocations_per_op",
    "engine.axis_nodes_visited_per_op",
    "storage.page_misses_per_op",
    "storage.page_hits_per_op",
    "storage.evictions_per_op",
    "storage.bytes_per_node",
    "index.region_bytes_ratio",
    "server.wire_bytes_per_item",
    "compiler.plan_operators",
    "xpath.ast_nodes",
)


def driver_metrics() -> List[Metric]:
    """The end-to-end metrics ``BENCHMARK.json`` declares."""
    return [metric for metric in END_TO_END if metric.bound is not None]


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in driver_metrics()
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
