"""Where the spans go, and how they turn into per-layer metrics.

:func:`install` is the one list of public ``src/repro`` calls the
traced pass wraps; a layer is a ``src/repro`` sub-package and every
span name maps to exactly one.  :func:`span_metrics` and
:func:`layer_shares` read the recorded totals back.  Counter-based
metrics (page hits, operator ``next()`` calls, collection outcomes)
are read by the workloads from the stats surfaces the layers already
publish; this module only holds the arithmetic they share.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from benchmarks.ledger.spec import LAYERS, PER_LAYER
from benchmarks.ledger.trace import Tracer

CALLS, BUSY, SELF = 0, 1, 2


def _ast_nodes(ast, _args) -> int:
    from repro.xpath.xast import LocationPath, iter_child_exprs

    count, todo = 0, [ast]
    while todo:
        expr = todo.pop()
        count += 1
        if isinstance(expr, LocationPath):
            count += len(expr.steps)
        todo.extend(iter_child_exprs(expr))
    return count


def _plan_operators(_physical, args) -> int:
    from repro.algebra.operators import plan_operators

    return len(plan_operators(args[0].plan))


def install(tracer: Tracer) -> None:
    """Wrap every traced public call (the same list in the benchmark
    process and in the traced server subprocess).

    Targets are named by path and looked up here — classes through the
    package that re-exports them, functions in the module that calls
    them (a wrapper has to sit where the name is looked up).  A later
    change that moves or removes one costs the metrics that read it
    (the tracer lists it as missing), not the traced run.
    """
    pipeline = "repro.compiler.pipeline"
    engine = "repro:XPathEngine"
    compiled = "repro.compiler:CompiledQuery"
    collection = "repro.collection.collection"
    server = "repro.server.server"

    # xpath/ and compiler/: the six phases, wherever they are called
    # from (the engine's compiler and the collection's plan shipping).
    for module in (pipeline, "repro.collection.plans"):
        tracer.wrap(module, "parse_xpath", "xpath", sample=_ast_nodes)
        tracer.wrap(module, "analyze", "compiler")
        tracer.wrap(module, "fold_constants", "compiler")
        tracer.wrap(module, "normalize", "compiler")
    # The phases' driver: its self time is the glue between them
    # (timing closures, the scalar wrap, CompiledQuery construction).
    tracer.wrap("repro:XPathCompiler", "compile", "compiler")
    tracer.wrap("repro.compiler.translate:Translator", "translate",
                "compiler")
    tracer.wrap("repro.compiler.optimize", "optimize_plan", "compiler")
    tracer.wrap(pipeline, "generate_physical", "compiler",
                sample=_plan_operators)

    # codegen/ and engine/.
    tracer.wrap("repro.codegen", "generate_python", "codegen")
    tracer.wrap("repro.codegen:GeneratedPlan", "execute", "codegen")
    tracer.wrap(compiled, "evaluate", "engine")
    tracer.wrap(compiled, "evaluate_stream", "engine", stream=True)
    tracer.wrap(engine, "evaluate", "engine")
    tracer.wrap(engine, "evaluate_stream", "engine", stream=True)

    # storage/ and index/: hot, so coalesced leaves.  A buffer manager
    # serves one page kind; its spans go to the layer that owns it.
    tracer.wrap("repro.storage:StoredDocument", "node", "storage",
                leaf=True)
    for method in ("get_page", "read_record"):
        names = {
            "data": f"BufferManager.{method}[data]",
            "index": f"BufferManager.{method}[index]",
        }
        tracer.wrap(
            "repro.storage:BufferManager", method, "storage",
            leaf=True,
            name_of=lambda self, *_a, _names=names: _names[self.kind],
        )
        tracer.layer_of[names["data"]] = "storage"
        tracer.layer_of[names["index"]] = "index"
    tracer.wrap("repro.storage:PageFile", "read_page", "storage",
                leaf=True)
    for method in ("element_ids", "attribute_owner_ids", "extent",
                   "element_ids_in_subtree"):
        tracer.wrap("repro.index:DocumentIndexes", method, "index",
                    leaf=True)
    tracer.wrap("repro.storage:DocumentStore", "write", "storage")
    tracer.wrap("repro.storage:DocumentStore", "open", "storage")
    tracer.wrap("repro.index.build", "build_index_data", "index")
    tracer.wrap("repro.index.persist", "serialize_index_blob", "index")

    # collection/: parent side only — worker processes are out of reach
    # from outside; their time comes back in ShardResult.elapsed.
    tracer.wrap(engine, "evaluate_collection", "collection")
    tracer.wrap(collection, "ship_plan", "collection",
                sample=lambda shipped, _args: len(shipped.blob))
    tracer.wrap("repro.collection:Collection", "__init__", "collection")
    tracer.wrap("repro.collection:Collection", "evaluate", "collection")
    tracer.wrap("repro.collection:CollectionResult", "merged",
                "collection")
    tracer.wrap("repro.collection:WorkerPool", "scatter", "collection")
    tracer.wrap("repro.collection:WorkerPool", "gather", "collection")

    # server/: request decoding and NDJSON framing.
    tracer.wrap(server, "parse_request", "server")
    tracer.wrap(server, "encode_item", "server", leaf=True)
    tracer.wrap(server, "encode_frame", "server")


#: Spans whose self time is the NDJSON framing part of ``server``.
FRAMING_SPANS = ("encode_item", "encode_frame")


def span_metrics(totals: Mapping[str, list],
                 samples: Mapping[str, list],
                 knodes: float) -> Dict[str, float]:
    """Every per-layer metric that is a function of spans alone.

    ``*_us`` / ``*_ms`` metrics are means per call of the named public
    function over the whole traced run (first touch included, so a
    compile that only happens once still shows); ``knodes`` is the
    workload's document size in thousands of nodes.  A metric whose
    spans never fired is left out.
    """
    us, ms = 1e6, 1e3

    def total(names, field: int) -> float:
        if isinstance(names, str):
            names = (names,)
        return sum(totals[n][field] for n in names if n in totals)

    def per(scale: float, names, field: int = BUSY, over=None):
        """``scale`` x ``field`` of ``names`` per call of ``over``."""
        calls = total(over or names, CALLS)
        return scale * total(names, field) / calls if calls else None

    def per_knode(names, field: int):
        if not knodes or not total(names, CALLS):
            return None
        return ms * total(names, field) / knodes

    def mean(key: str):
        values = samples.get(key)
        return sum(values) / len(values) if values else None

    def node_decode_us():
        """node()'s self time (page fetches are its children) per
        record read — only where at least a fifth of the calls decode;
        elsewhere proxy-cache hits dominate that self time."""
        calls = total("StoredDocument.node", CALLS)
        decodes = total("BufferManager.read_record[data]", CALLS)
        if not decodes or decodes * 5 < calls:
            return None
        return us * total("StoredDocument.node", SELF) / decodes

    evaluate = ("CompiledQuery.evaluate", "CompiledQuery.evaluate_stream")
    session = ("XPathEngine.evaluate", "XPathEngine.evaluate_stream")
    lookups = tuple(
        f"DocumentIndexes.{method}" for method in (
            "element_ids", "attribute_owner_ids", "extent",
            "element_ids_in_subtree",
        )
    )
    first_item = mean("XPathEngine.evaluate_stream.first")
    metrics = {
        "xpath.parse_us": per(us, "parse_xpath"),
        "xpath.ast_nodes": mean("parse_xpath"),
        "compiler.semantic_us": per(us, "analyze"),
        "compiler.rewrite_us": per(us, "fold_constants"),
        "compiler.normalize_us": per(us, "normalize"),
        "compiler.translate_us": per(us, "Translator.translate"),
        "compiler.optimize_us": per(us, "optimize_plan"),
        "compiler.physical_us": per(us, "generate_physical"),
        "compiler.plan_operators": mean("generate_physical"),
        "codegen.emit_us": per(us, "generate_python"),
        "codegen.exec_ms": per(ms, "GeneratedPlan.execute"),
        "engine.exec_ms": per(
            ms, evaluate + ("CompiledQuery.evaluate_stream.next",),
            over=evaluate),
        "engine.session_overhead_us": per(
            us, session + ("XPathEngine.evaluate_stream.next",), SELF,
            over=session),
        "engine.stream_first_item_ms": (
            ms * first_item if first_item is not None else None
        ),
        "storage.page_read_us": per(us, "PageFile.read_page"),
        "storage.node_decode_us": node_decode_us(),
        "storage.open_ms": per(ms, "DocumentStore.open"),
        "storage.write_ms_per_knode": per_knode(
            "DocumentStore.write", SELF),
        "index.lookup_us": per(us, lookups),
        "index.build_ms_per_knode": per_knode(
            ("build_index_data", "serialize_index_blob"), BUSY),
        "collection.ship_us": per(us, "ship_plan"),
        "collection.shipped_bytes": mean("ship_plan"),
        "collection.merge_us": per(us, "CollectionResult.merged"),
        "collection.pool_start_ms": per(ms, "Collection.__init__"),
        "server.parse_request_us": per(us, "parse_request"),
        "server.encode_item_us": per(us, "encode_item"),
        "server.encode_frame_us": per(us, "encode_frame", SELF),
        "server.start_ms": per(ms, "server.start"),
    }
    return {k: v for k, v in metrics.items() if v is not None}


def self_by_layer(totals: Mapping[str, list],
                  layer_of: Mapping[str, str]) -> Dict[str, float]:
    """Seconds of self time per layer (spans with no layer are the
    harness's own)."""
    out: Dict[str, float] = {}
    for name, total in totals.items():
        layer = layer_of.get(name, "harness")
        out[layer] = out.get(layer, 0.0) + total[SELF]
    return out


def layer_shares(by_layer: Mapping[str, float], op_seconds: float,
                 framing_seconds: float = 0.0) -> Dict[str, float]:
    """``share.<layer>`` metrics: self time over traced op time."""
    if op_seconds <= 0:
        return {}
    shares = {
        f"share.{layer}": by_layer.get(layer, 0.0) / op_seconds
        for layer in LAYERS[:-1] + ("harness",)
    }
    shares["share.server_framing"] = framing_seconds / op_seconds
    return shares


def complete(metrics: Mapping[str, Optional[float]]) -> Dict[str, dict]:
    """Every declared per-layer metric with its unit; a layer the
    workload never enters reports ``None`` (printed as 0 for the
    driver, whose contract wants a number)."""
    unknown = set(metrics) - {metric.name for metric in PER_LAYER}
    if unknown:
        raise KeyError(f"undeclared layer metrics: {sorted(unknown)}")
    return {
        metric.name: {
            "value": metrics.get(metric.name), "unit": metric.unit,
        }
        for metric in PER_LAYER
    }
