"""The seven workloads of the ledger.

Every workload builds its inputs from the seed (``generate_dblp(seed=)``,
``QueryGenerator(random.Random(seed))``, the schedule shuffle), runs the
program only on those generated inputs, and answers from the ``memo``
baseline interpreter what the program should have said.  README.md has
the paragraph on why each one exists and which layer it stresses; the
op weights are chosen so that the 50th and the 95th percentile of a
pass each fall *inside* one query's latency band, not on the step
between two queries (a percentile sitting on a step flips between runs).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import random
import statistics
import time
from typing import Dict, List, Optional

from repro import (
    EvalOptions,
    XPathEngine,
    evaluate,
    open_store,
    parse_document,
    store_document,
)
from repro.collection import Collection, catalog as collection_catalog
from repro.dom.serializer import serialize
from repro.server.protocol import canonical_items
from repro.testing.grammar import (
    DEFAULT_NAMESPACES,
    DEFAULT_VARIABLES,
    QueryGenerator,
)
from repro.testing.oracle import canonical_value
from repro.workloads.dblp import SPECIAL_KEY, generate_dblp
from repro.workloads.docgen import generate_document
from repro.workloads.querygen import (
    FIG5_QUERIES,
    FIG10_QUERIES,
    generate_axis_paths,
)

from benchmarks.ledger import layers
from benchmarks.ledger.harness import Answer, Op, Window, Workload
from benchmarks.ledger.layers import BUSY, SELF
from benchmarks.ledger.serving import RawClient, ServerProcess, null_span
from benchmarks.ledger.trace import Tracer, totals_from_json

_perf = time.perf_counter

#: The Fig. 10 queries in the middle and at the top of the latency
#: order of the query set (the title union and the author join).  The
#: Fig. 5 queries of ``paper_inmem`` sit around the union, so it takes
#: more copies there to hold the 50th percentile inside its band.
_PAPER_WEIGHTS = {FIG10_QUERIES[6]: 5, FIG10_QUERIES[10]: 2}
_STORED_WEIGHTS = {FIG10_QUERIES[6]: 3, FIG10_QUERIES[10]: 2}


def _ops(queries, target: str, weights: Optional[Dict[str, int]] = None,
         start: int = 0) -> List[Op]:
    """Ops ``q<NN>`` over one target; ``weights`` maps a query to its
    occurrences per pass (default 1).

    The weights shape the latency distribution of a pass: the query in
    the middle of the latency order is repeated until the 50th
    percentile lies inside its band, and the slowest query gets about a
    tenth of the pass, so the 95th percentile is *its* median.
    """
    weights = weights or {}
    return [
        Op(f"q{start + i:02d}", query, weights.get(query, 1), target)
        for i, query in enumerate(queries)
    ]


def baseline_value(query: str, document, options: Optional[EvalOptions]):
    """The canonical answer of the ``memo`` interpreter (the oracle)."""
    options = (options or EvalOptions()).replace(engine="memo")
    return canonical_value(evaluate(query, document, options))


def xml_bytes(document) -> int:
    return len(serialize(document).encode("utf-8"))


# ----------------------------------------------------------------------
# Published counters -> per-layer metrics
# ----------------------------------------------------------------------


def engine_snapshot(engine: XPathEngine) -> dict:
    """The engine's published counters, plus the per-operator totals of
    every cached plan (``operator_stats()``)."""
    stats = engine.stats()
    next_calls = tuples_out = 0
    for plan in engine.cache.plans():
        for row in plan.operator_stats():
            next_calls += row.next_calls
            tuples_out += row.tuples_out
    return {
        "hits": stats.cache.hits,
        "lookups": stats.cache.lookups,
        "evictions": stats.cache.evictions,
        "compiles": stats.compile_count,
        "runtime": dict(stats.runtime_counters),
        "next_calls": next_calls,
        "tuples_out": tuples_out,
    }


def engine_snapshot_from_stats(payload: dict) -> dict:
    """The same snapshot from a ``GET /stats`` body (no operator totals:
    ``/stats`` carries only the last plan's operators)."""
    engine = payload["engine"]
    return {
        "hits": engine["cache"]["hits"],
        "lookups": engine["cache"]["lookups"],
        "evictions": engine["cache"]["evictions"],
        "compiles": engine["compile_count"],
        "runtime": dict(engine["runtime_counters"]),
    }


def engine_metrics(before: dict, after: dict, ops: int,
                   items: int) -> Dict[str, float]:
    def delta(name: str) -> int:
        return after["runtime"].get(name, 0) - before["runtime"].get(name, 0)

    metrics: Dict[str, float] = {}
    lookups = after["lookups"] - before["lookups"]
    if lookups:
        metrics["engine.plan_cache_hit_ratio"] = (
            (after["hits"] - before["hits"]) / lookups
        )
    if after["evictions"] == before["evictions"]:
        # Plan-held counters only add up while no plan was evicted.
        metrics["engine.nvm_invocations_per_op"] = (
            delta("nvm_invocations") / ops
        )
        metrics["engine.axis_nodes_visited_per_op"] = (
            delta("axis_nodes_visited") / ops
        )
        if "next_calls" in after:
            metrics["engine.next_calls_per_op"] = (
                (after["next_calls"] - before["next_calls"]) / ops
            )
            if items:
                metrics["engine.tuples_per_item"] = (
                    (after["tuples_out"] - before["tuples_out"]) / items
                )
        if items and delta("index_candidates"):
            metrics["index.candidates_per_item"] = (
                delta("index_candidates") / items
            )
    backend = delta("codegen_fallbacks") + delta("codegen_compiled")
    if backend:
        metrics["codegen.fallback_ratio"] = (
            delta("codegen_fallbacks") / backend
        )
    if after["compiles"]:
        runtime = after["runtime"]
        if "opt_rules_fired" in runtime:
            metrics["compiler.rules_fired"] = (
                runtime["opt_rules_fired"] / after["compiles"]
            )
            metrics["compiler.index_scans_routed"] = runtime.get(
                "rewrite_index_scans", 0
            )
    return metrics


def buffer_metrics(before: dict, after: dict, ops: int) -> Dict[str, float]:
    """Page-buffer metrics from two ``buffer_stats()`` snapshots."""
    def delta(kind: str, name: str) -> int:
        return (after["by_kind"][kind][name]
                - before["by_kind"][kind][name])

    hits, misses = delta("data", "hits"), delta("data", "misses")
    metrics = {
        "storage.page_misses_per_op": misses / ops,
        "storage.page_hits_per_op": hits / ops,
        "storage.evictions_per_op": delta("data", "evictions") / ops,
    }
    # No page request at all (the node-proxy cache answered everything)
    # is "nothing missed".
    metrics["storage.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 1.0
    )
    if "index" in after["by_kind"]:
        metrics["index.pages_read_per_op"] = (
            delta("index", "hits") + delta("index", "misses")
        ) / ops
    return metrics


def store_static_metrics(path, xml: int) -> Dict[str, float]:
    """Exact size metrics of one store file."""
    with open_store(path) as stored:
        store_end, nodes = stored.store_end, stored.node_count
    return {
        "storage.bytes_per_node": store_end / nodes,
        "index.region_bytes_ratio": (os.path.getsize(path) - store_end) / xml,
    }


def share_metrics(totals: dict, layer_of: dict, op_seconds: float,
                  moved: Optional[dict] = None) -> Dict[str, float]:
    """``share.*`` from window totals; ``moved`` shifts seconds between
    layers (worker time the parent only sees as waiting)."""
    by_layer = layers.self_by_layer(totals, layer_of)
    for layer, seconds in (moved or {}).items():
        by_layer[layer] = by_layer.get(layer, 0.0) + seconds
    framing = sum(
        totals[name][SELF] for name in layers.FRAMING_SPANS
        if name in totals
    )
    return layers.layer_shares(by_layer, op_seconds, framing)


# ----------------------------------------------------------------------
# In-process engine workloads
# ----------------------------------------------------------------------


class EngineWorkload(Workload):
    """One ``XPathEngine`` in this process over named targets."""

    engine_options: dict = {}
    eval_options: Optional[EvalOptions] = None

    def __init__(self, ctx):
        super().__init__(ctx)
        self.engine: Optional[XPathEngine] = None
        #: target name -> what the engine evaluates against
        self.targets: dict = {}
        #: target name -> in-memory document the baseline reads
        self.reference: dict = {}
        self.stored = None
        self.store_path = None

    def run(self, op: Op, client, check: bool = False) -> Answer:
        value = self.engine.evaluate(
            op.query, self.targets[op.target], self.eval_options
        )
        return Answer(value, len(value) if isinstance(value, list) else 1)

    def canonical(self, op: Op, answer: Answer) -> object:
        return canonical_value(answer.value)

    def baseline(self, op: Op) -> object:
        return baseline_value(
            op.query, self.reference[op.target], self.eval_options
        )

    def knodes(self) -> float:
        return self.reference["dblp"].node_count / 1000.0

    def teardown(self) -> None:
        if self.stored is not None:
            self.stored.close()
            self.stored = None

    def stored_bytes(self):
        if self.store_path is None:
            return None
        return (os.path.getsize(self.store_path),
                xml_bytes(self.reference["dblp"]))

    def counters(self) -> dict:
        snapshot = {"engine": engine_snapshot(self.engine)}
        if self.stored is not None:
            snapshot["buffer"] = self.stored.buffer_stats()
        return snapshot

    def layer_metrics(self, before, after, window: Window,
                      reference: Window,
                      tracer: Tracer) -> Dict[str, float]:
        metrics = layers.span_metrics(
            tracer.totals(), tracer.samples, self.knodes()
        )
        totals = tracer.totals(window=True)
        metrics.update(
            share_metrics(totals, tracer.layer_of, totals["op"][BUSY])
        )
        items = sum(sample.items for sample in window.samples)
        metrics.update(engine_metrics(
            before["engine"], after["engine"], window.ops, items
        ))
        if self.stored is not None:
            metrics.update(buffer_metrics(
                before["buffer"], after["buffer"], window.ops
            ))
            metrics.update(store_static_metrics(
                self.store_path, self.stored_bytes()[1]
            ))
        return metrics


class PaperInmem(EngineWorkload):
    name = "paper_inmem"

    def sizes(self) -> dict:
        if self.ctx.quick:
            return {"document": [300, 6, 4], "small_document": [60, 6, 4],
                    "dblp": 150}
        return {"document": [2000, 6, 4], "small_document": [250, 6, 4],
                "dblp": 1200}

    def setup(self) -> None:
        sizes = self.sizes()
        self.targets = self.reference = {
            "doc": generate_document(*sizes["document"]),
            # Fig. 5 q2 (preceding-sibling x following) is quadratic.
            "small": generate_document(*sizes["small_document"]),
            "dblp": generate_dblp(sizes["dblp"], seed=self.ctx.seed),
        }
        self.engine = XPathEngine()
        self.ops = [
            Op(f"q{i:02d}", query, 1, "small" if i == 1 else "doc")
            for i, query in enumerate(FIG5_QUERIES)
        ] + _ops(FIG10_QUERIES, "dblp", _PAPER_WEIGHTS,
                 start=len(FIG5_QUERIES))


class CompileCold(EngineWorkload):
    name = "compile_cold"

    eval_options = EvalOptions(
        variables=dict(DEFAULT_VARIABLES),
        namespaces=dict(DEFAULT_NAMESPACES),
    )

    def sizes(self) -> dict:
        if self.ctx.quick:
            return {"document": [30, 3, 3], "axis_paths": 121, "fuzz": 40}
        return {"document": [30, 3, 3], "axis_paths": 1331, "fuzz": 400}

    def setup(self) -> None:
        sizes = self.sizes()
        document = generate_document(*sizes["document"])
        self.targets = self.reference = {"doc": document}
        paths = list(generate_axis_paths(3))
        queries = paths[::len(paths) // sizes["axis_paths"]]
        # Seeded fuzz queries, kept when the baseline answers them
        # without a typed error (no operation of a workload may fail).
        self._baseline: Dict[str, object] = {}
        generator = QueryGenerator(random.Random(self.ctx.seed))
        seen = set(queries)
        attempts = 0
        while len(queries) < sizes["axis_paths"] + sizes["fuzz"]:
            attempts += 1
            if attempts > 20 * sizes["fuzz"]:
                raise RuntimeError("query generator ran dry")
            query = generator.query()
            if query in seen:
                continue
            try:
                answer = baseline_value(query, document, self.eval_options)
            except Exception:  # noqa: BLE001 - any failure disqualifies
                continue
            seen.add(query)
            queries.append(query)
            self._baseline[query] = answer
        self.ops = [
            Op(f"q{i:04d}", query, 1, "doc")
            for i, query in enumerate(queries)
        ]
        # Distinct queries >= 4x the plan cache: every op is a miss.
        self.engine = XPathEngine(cache_size=min(128, len(self.ops) // 4))

    def baseline(self, op: Op) -> object:
        cached = self._baseline.get(op.query)
        return cached if cached is not None else super().baseline(op)

    def knodes(self) -> float:
        return self.reference["doc"].node_count / 1000.0


class StoredWorkload(EngineWorkload):
    """A stored, indexed DBLP opened through the page buffer."""

    publications = (1200, 150)  #: (full, quick)
    buffer_pages: Optional[int] = None  #: None: the default 256

    def sizes(self) -> dict:
        return {
            "dblp": self.publications[self.ctx.quick],
            "buffer_pages": self.buffer_pages,
        }

    def queries(self, document) -> List[Op]:
        raise NotImplementedError

    def setup(self) -> None:
        document = generate_dblp(self.sizes()["dblp"], seed=self.ctx.seed)
        self.reference = {"dblp": document}
        self.store_path = self.ctx.workdir / "dblp.natix"
        store_document(document, self.store_path)
        self.stored = open_store(
            self.store_path, buffer_pages=self.buffer_pages
        )
        self.targets = {"dblp": self.stored}
        self.engine = XPathEngine(**self.engine_options)
        self.ops = self.queries(document)


class StoredFastpath(StoredWorkload):
    name = "stored_fastpath"
    engine_options = {"codegen": "auto", "optimizer": "cost"}

    def queries(self, document) -> List[Op]:
        extra = (
            "count(//author)",
            "//inproceedings[author='Guido Moerkotte']/title",
            "//article/title",
        )
        return _ops(FIG10_QUERIES + extra, "dblp", _STORED_WEIGHTS)


class StoredCold(StoredWorkload):
    name = "stored_cold"
    publications = (1500, 150)
    #: The store is >= 8x this many pages (66 data pages at full size),
    #: so every scan re-reads every page.
    buffer_pages = 8

    def sizes(self) -> dict:
        sizes = super().sizes()
        if self.ctx.quick:
            sizes["buffer_pages"] = 1
        return sizes

    def setup(self) -> None:
        self.buffer_pages = self.sizes()["buffer_pages"]
        super().setup()

    def queries(self, document) -> List[Op]:
        publications = document.root.children[0].children
        keys = [
            attribute.value
            for publication in publications
            for attribute in publication.attributes
            if attribute.name == "key"
        ]
        # 27 keys spread over the whole file (a seeded offset into 27
        # equal strides), so the points touch pages all over the store.
        stride = len(keys) // 27
        offset = random.Random(f"{self.ctx.seed}:keys").randrange(stride)
        points = [
            f"id('{keys[offset + i * stride]}')/title" for i in range(27)
        ]
        # Predicates most publications pass: result sizes (and with
        # them items_per_s) then vary little from seed to seed.
        scans = (
            "/dblp/article[year > 1984]/@key",
            "count(//author)",
            "//inproceedings[year > 1984]/title",
        )
        return _ops(tuple(points) + scans, "dblp", {scans[2]: 3})

    def before_op(self, op: Op) -> None:
        # The proxy cache is unbounded: left alone it would serve every
        # op after the first from memory and hide the page buffer.
        self.stored.clear_node_cache()


# ----------------------------------------------------------------------
# collection_scatter
# ----------------------------------------------------------------------


class CollectionScatter(Workload):
    name = "collection_scatter"
    shards = 8
    needle_shard = 5

    def __init__(self, ctx):
        super().__init__(ctx)
        self.collection: Optional[Collection] = None
        self.engine: Optional[XPathEngine] = None
        self.shard_documents: list = []
        #: per traced op: (parent elapsed, per-shard worker elapsed)
        self.flights: List[tuple] = []

    def sizes(self) -> dict:
        return {"dblp": 400 if self.ctx.quick else 4000,
                "shards": self.shards}

    def setup(self) -> None:
        document = generate_dblp(self.sizes()["dblp"], seed=self.ctx.seed)
        self.nodes = document.node_count
        documents = collection_catalog.split_document(document, self.shards)
        # The skewed-needle construction of bench_collection.py: one
        # element only shard 5 holds, so ``//needle`` prunes 7 of 8.
        xml = serialize(documents[self.needle_shard])
        cut = xml.rindex("</dblp>")
        documents[self.needle_shard] = parse_document(
            xml[:cut] + '<needle id="n5"><v>hit</v></needle>' + xml[cut:]
        )
        self.shard_documents = documents
        self.directory = self.ctx.workdir / "dblp.coll"
        collection_catalog.create_collection(self.directory, documents)
        # Workers are forked: start them from unpatched code, so a
        # traced run does not slow the shard evaluations it cannot see.
        tracer = self.ctx.tracer
        if tracer is not None:
            tracer.uninstall()
        try:
            with self.ctx.span("Collection.__init__", "collection"):
                self.collection = Collection(
                    self.directory, workers=os.cpu_count() or 1
                )
        finally:
            if tracer is not None:
                layers.install(tracer)
        self.engine = XPathEngine()
        self.ops = _ops(
            ("count(//author)", "/dblp/*/title",
             "/dblp/article[year = '1991']/title", "//needle"),
            "collection",
            {"count(//author)": 2, "/dblp/*/title": 5, "//needle": 2},
        )

    def teardown(self) -> None:
        if self.collection is not None:
            self.collection.close()
            self.collection = None

    def run(self, op: Op, client, check: bool = False) -> Answer:
        result = self.engine.evaluate_collection(op.query, self.collection)
        merged = result.merged()
        if self.ctx.tracer is not None:
            self.flights.append(
                (result.elapsed, [s.elapsed for s in result.shards])
            )
        return Answer(result, len(merged))

    def canonical(self, op: Op, answer: Answer) -> object:
        return answer.value.canonical()

    def baseline(self, op: Op) -> object:
        return tuple(
            (shard, baseline_value(op.query, document, None))
            for shard, document in enumerate(self.shard_documents)
        )

    def child_pids(self) -> List[int]:
        return [p.pid for p in multiprocessing.active_children()]

    def knodes(self) -> float:
        return self.nodes / 1000.0

    def stored_bytes(self):
        stored = sum(
            os.path.getsize(path)
            for path in self.directory.glob("*.natix")
        )
        return stored, sum(xml_bytes(d) for d in self.shard_documents)

    def counters(self) -> dict:
        return {
            "collection": self.collection.stats(),
            "flights": len(self.flights),
        }

    def _critical_path(self, shard_elapsed: List[float]) -> float:
        """Busy seconds of the busiest worker: shards are dealt
        ``shard % workers`` and a worker runs its shards one by one."""
        workers = self.collection.workers
        return max(
            sum(shard_elapsed[worker::workers]) for worker in range(workers)
        )

    def layer_metrics(self, before, after, window: Window,
                      reference: Window,
                      tracer: Tracer) -> Dict[str, float]:
        ms = 1e3
        metrics = layers.span_metrics(
            tracer.totals(), tracer.samples, self.knodes()
        )
        flights = self.flights[before["flights"]:after["flights"]]
        critical = sum(self._critical_path(s) for _e, s in flights)
        totals = tracer.totals(window=True)
        # The parent only sees worker time as waiting inside gather();
        # the busiest worker's share of it is evaluation (engine/,
        # storage/ and index/ inside the worker, not separable from
        # outside), the rest is the collection layer's own cost.
        metrics.update(share_metrics(
            totals, tracer.layer_of, totals["op"][BUSY],
            moved={"engine": critical, "collection": -critical},
        ))
        was, now = before["collection"], after["collection"]
        queries = now.queries - was.queries
        submitted = now.submitted - was.submitted
        shipped = (now.plans_shipped - was.plans_shipped
                   + now.shipped_cache_hits - was.shipped_cache_hits)
        metrics.update({
            "collection.scatter_ms_per_op":
                ms * (now.scatter_seconds - was.scatter_seconds) / queries,
            "collection.gather_ms_per_op":
                ms * (now.gather_seconds - was.gather_seconds) / queries,
            "collection.worker_ms_per_op":
                ms * statistics.fmean(sum(s) for _e, s in flights),
            "collection.slowest_shard_ms":
                ms * statistics.fmean(max(s) for _e, s in flights),
            "collection.parent_overhead_ms":
                ms * statistics.fmean(e - max(s) for e, s in flights),
            "collection.pruned_ratio":
                (now.shards_pruned - was.shards_pruned) / submitted,
            "collection.shipped_cache_hit_ratio":
                (now.shipped_cache_hits - was.shipped_cache_hits) / shipped,
            "collection.recycles": now.recycles,
            "collection.result_pickle_bytes_per_item":
                self._pickle_bytes_per_item(),
        })
        metrics.update(store_static_metrics(
            self.directory / "shard-0000.natix",
            xml_bytes(self.shard_documents[0]),
        ))
        return metrics

    def _pickle_bytes_per_item(self) -> float:
        """Bytes a worker pickles per result record (node-set ops)."""
        pickled = items = 0
        for op in self.ops:
            result = self.collection.evaluate(op.query)
            if result.kind != "node-set":
                continue
            for shard in result.shards:
                payload = tuple(tuple(record[1:]) for record in shard.value)
                pickled += len(
                    pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
                )
                items += len(payload)
        return pickled / items


# ----------------------------------------------------------------------
# serve_point and serve_stream
# ----------------------------------------------------------------------


class ServeWorkload(Workload):
    """``python -m repro.server`` over a stored DBLP, raw HTTP clients."""

    publications = (200, 60)  #: (full, quick)
    page_size = 64

    def __init__(self, ctx):
        super().__init__(ctx)
        self.server: Optional[ServerProcess] = None
        self.untraced_server: Optional[ServerProcess] = None
        self.active: Optional[ServerProcess] = None

    def sizes(self) -> dict:
        return {"dblp": self.publications[self.ctx.quick],
                "page_size": self.page_size}

    def queries(self, document) -> List[Op]:
        raise NotImplementedError

    def setup(self) -> None:
        self.document = generate_dblp(
            self.sizes()["dblp"], seed=self.ctx.seed
        )
        self.store_path = self.ctx.workdir / "dblp.natix"
        store_document(self.document, self.store_path)
        traced = self.ctx.tracer is not None
        with self.ctx.span("server.start", "server"):
            self.server = ServerProcess(
                self.store_path,
                trace_dump=(
                    self.ctx.workdir / "server-trace.json" if traced
                    else None
                ),
            )
        if traced:
            # The reference window of a traced run needs a server
            # without wrappers to compare against.
            self.untraced_server = ServerProcess(self.store_path)
        self.active = self.server
        self.ops = self.queries(self.document)

    def set_traced(self, on: bool) -> None:
        self.active = self.server if on else self.untraced_server

    def teardown(self) -> None:
        for server in (self.server, self.untraced_server):
            if server is not None:
                server.stop()
        self.server = self.untraced_server = None

    def open_client(self, slot: int):
        tracer = self.ctx.tracer
        span = null_span
        if tracer is not None and self.active is self.server:
            span = lambda name: tracer.span(name, "server")  # noqa: E731
        return RawClient(
            self.active.host, self.active.port, f"ledger-{slot}", span
        )

    def close_client(self, client) -> None:
        client.close()

    def run(self, op: Op, client, check: bool = False) -> Answer:
        reply = client.query(op.query, self.page_size, decode=check)
        if reply.status != 200 or reply.error is not None:
            raise RuntimeError(f"HTTP {reply.status}: {reply.error}")
        if reply.footer_items != reply.items:
            raise RuntimeError(
                f"{reply.items} items arrived, the footer says "
                f"{reply.footer_items}"
            )
        return Answer(reply, reply.items, reply.ttfp, reply.wire_bytes,
                      reply.pages)

    def canonical(self, op: Op, answer: Answer) -> object:
        return canonical_items(answer.value.decoded)

    def baseline(self, op: Op) -> object:
        return baseline_value(op.query, self.document, None)

    def child_pids(self) -> List[int]:
        return [self.server.pid] if self.server is not None else []

    def knodes(self) -> float:
        return self.document.node_count / 1000.0

    def stored_bytes(self):
        return os.path.getsize(self.store_path), xml_bytes(self.document)

    def counters(self) -> dict:
        return {"stats": self.server.get_json("/stats")}

    def _in_process_p50_ms(self) -> float:
        """The same schedule through ``evaluate_stream`` in this
        process: what the answers cost without the server around them."""
        engine = XPathEngine()
        schedule = [op for op in self.ops for _ in range(op.weight)]
        latencies = []
        with open_store(self.store_path) as stored:
            for timed in (False, True, True, True):
                for op in schedule:
                    start = _perf()
                    for _page in engine.evaluate_stream(
                        op.query, stored, page_size=self.page_size
                    ):
                        pass
                    if timed:
                        latencies.append((_perf() - start) * 1e3)
        return statistics.median(latencies)

    def layer_metrics(self, before, after, window: Window,
                      reference: Window,
                      tracer: Tracer) -> Dict[str, float]:
        # The server's spans exist only once it has exited.
        dump_path = self.server.trace_dump
        self.server.stop()
        with open(dump_path, "r", encoding="utf-8") as handle:
            dump = json.load(handle)
        totals = tracer.totals()
        remote = totals_from_json(dump)
        for name, total in remote.items():
            totals[name] = total
        samples = dict(tracer.samples)
        samples.update(dump["samples"])
        tracer.missing.update(dump["missing"])
        metrics = layers.span_metrics(totals, samples, self.knodes())

        # Shares over every request the traced server answered
        # (verification included), so both sides cover the same set;
        # the four client.* spans of a request add up to its duration.
        client_seconds = sum(
            total[BUSY] for name, total in totals.items()
            if name.startswith("client.")
        )
        # What the server process spent inside the other layers is
        # theirs; the rest of what the client waited for — framing,
        # HTTP, executor hop, sockets — is the server layer's.
        layer_of = {**dump["layer_of"], **tracer.layer_of}
        by_layer = layers.self_by_layer(remote, layer_of)
        framing = sum(
            remote[name][SELF] for name in layers.FRAMING_SPANS
            if name in remote
        )
        by_layer["server"] = max(framing, client_seconds - sum(
            seconds for layer, seconds in by_layer.items()
            if layer != "server"
        ))
        metrics.update(
            layers.layer_shares(by_layer, client_seconds, framing)
        )

        was = engine_snapshot_from_stats(before["stats"])
        now = engine_snapshot_from_stats(after["stats"])
        items = sum(sample.items for sample in window.samples)
        metrics.update(engine_metrics(was, now, window.ops, items))
        metrics.update(buffer_metrics(
            before["stats"]["engine"]["buffer"],
            after["stats"]["engine"]["buffer"], window.ops,
        ))
        metrics.update(store_static_metrics(
            self.store_path, xml_bytes(self.document)
        ))
        admission = after["stats"]["server"]["admission"]
        # Unwrapped against unwrapped: the reference window ran on the
        # untraced server, and the tracer is uninstalled by now.
        in_process = self._in_process_p50_ms()
        metrics.update({
            "server.hop_overhead_ms": reference.p50_ms() - in_process,
            "server.vs_inprocess_ratio": reference.p50_ms() / in_process,
            "server.admission_rejects":
                admission["rejected_quota"] + admission["rejected_queue"],
            "server.wire_bytes_per_item":
                sum(s.wire_bytes for s in window.samples) / items,
            "server.pages_per_s":
                sum(s.pages for s in window.samples) / window.wall,
        })
        return metrics


class ServePoint(ServeWorkload):
    name = "serve_point"
    clients = min(2, os.cpu_count() or 1)

    def queries(self, document) -> List[Op]:
        publications = document.root.children[0].children
        articles = sum(1 for p in publications if p.name == "article")
        keys = [
            attribute.value
            for publication in publications
            for attribute in publication.attributes
            if attribute.name == "key" and attribute.value != SPECIAL_KEY
        ]
        rng = random.Random(f"{self.ctx.seed}:points")
        middle, band = articles // 2, max(1, articles // 20)
        special = f"id('{SPECIAL_KEY}')/title"
        other = f"id('{rng.choice(keys)}')/title"
        # Positional cost grows with the position: keep it in the middle
        # tenth so the seed moves the latency little.
        position = rng.randint(middle - band, middle + band)
        return _ops(
            (special, other, "count(/dblp/article)",
             f"/dblp/article[{position}]/title"),
            "dblp", {special: 4, other: 4},
        )


class ServeStream(ServeWorkload):
    name = "serve_stream"
    publications = (1000, 120)

    def queries(self, document) -> List[Op]:
        return _ops(("/dblp/*/title", "//author"), "dblp",
                    {"/dblp/*/title": 9})


WORKLOADS = {
    cls.name: cls
    for cls in (PaperInmem, CompileCold, StoredFastpath, StoredCold,
                CollectionScatter, ServePoint, ServeStream)
}
