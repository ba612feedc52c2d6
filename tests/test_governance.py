"""Resource governance: deadlines, budgets, cooperative cancellation.

The contracts exercised here:

* the :class:`~repro.engine.governor.ResourceGovernor` primitives —
  amortized ticking, budget charging, cancel tokens, validation;
* a pathologically expensive query (super-linear in the document, far
  beyond 10s ungoverned by extrapolation) aborts with
  :class:`QueryTimeoutError` within **2x the requested timeout**, from
  both ``evaluate`` and ``evaluate_concurrent``;
* governance aborts are clean: the worker is released, the plan cache
  and singleflight are not poisoned, and the same query re-runs fine
  with generous limits;
* the engine's outcome counters reconcile exactly:
  ``timed_out + cancelled + budget_aborts + completed == submitted``;
* admission control: a governor built at submission whose deadline
  expires while queued aborts before the plan even opens.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import (
    CancelToken,
    EvalOptions,
    ResourceGovernor,
    XPathEngine,
    compile_xpath,
    evaluate,
    evaluate_concurrent,
    parse_document,
)
from repro.compiler import CompiledQuery
from repro.engine import session as session_module
from repro.errors import (
    QueryBudgetError,
    QueryCancelledError,
    QueryGovernanceError,
    QueryTimeoutError,
    UnboundVariableError,
)

#: A document the pathological query below is super-linear in: big
#: enough that short timeouts and small budgets always fire mid-run
#: (ungoverned: hundreds of milliseconds), small enough that cheap
#: queries (``count(//c)`` = 800) stay instant.
BIG = parse_document(
    "<a>" + "<b><c/><c/></b>" * 400 + "</a>"
)

#: The acceptance-criteria document: the pathological query over this
#: 3000-b tree measures >10 s ungoverned (11.3 s at 2000 b on the CI
#: baseline, and the cost is super-linear in b), so the <2x-timeout
#: assertions below are meaningful — only a governed abort can return
#: within the tolerance.
HUGE = parse_document(
    "<a>" + "<b><c/><c/></b>" * 3000 + "</a>"
)

#: Every b crossed with every c, each pair re-counting the whole
#: document — O(n^3)-ish.
PATHOLOGICAL = (
    "//b[count(preceding::c) >= 0]"
    "/c[count(//b[count(.//c) >= 0]) > 0]"
    "[count(//c[count(//b) > 0]) > 0]"
)

SMALL = parse_document("<a><b><c/><c/></b><b><c/></b></a>")


# ----------------------------------------------------------------------
# Governor primitives
# ----------------------------------------------------------------------


class TestGovernorPrimitives:
    def test_tick_amortizes_checks(self):
        governor = ResourceGovernor(timeout=60.0, check_interval=4)
        # Force the deadline into the past; the error must only fire on
        # the Nth tick.
        governor.deadline = governor.started - 1.0
        governor.tick()
        governor.tick()
        governor.tick()
        with pytest.raises(QueryTimeoutError):
            governor.tick()

    def test_timeout_error_carries_limit_and_elapsed(self):
        governor = ResourceGovernor(timeout=0.001)
        time.sleep(0.005)
        with pytest.raises(QueryTimeoutError) as excinfo:
            governor.check()
        assert excinfo.value.timeout == 0.001
        assert excinfo.value.elapsed >= 0.001

    def test_tuple_budget(self):
        governor = ResourceGovernor(max_tuples=3)
        governor.add_tuples()
        governor.add_tuples(2)
        with pytest.raises(QueryBudgetError) as excinfo:
            governor.add_tuples()
        assert excinfo.value.resource == "tuples"
        assert excinfo.value.limit == 3
        assert excinfo.value.used == 4

    def test_byte_budget(self):
        governor = ResourceGovernor(max_bytes=100)
        governor.add_bytes(60)
        with pytest.raises(QueryBudgetError) as excinfo:
            governor.add_bytes(60)
        assert excinfo.value.resource == "bytes"

    def test_cancel_token_shared_between_governors(self):
        token = CancelToken()
        first = ResourceGovernor(cancel=token)
        second = ResourceGovernor(cancel=token)
        first.check()
        token.cancel("shed load")
        for governor in (first, second):
            with pytest.raises(QueryCancelledError) as excinfo:
                governor.check()
            assert "shed load" in str(excinfo.value)

    def test_governance_errors_share_a_base(self):
        assert issubclass(QueryTimeoutError, QueryGovernanceError)
        assert issubclass(QueryBudgetError, QueryGovernanceError)
        assert issubclass(QueryCancelledError, QueryGovernanceError)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timeout": 0.0},
            {"timeout": -1.0},
            {"max_tuples": 0},
            {"max_bytes": -5},
            {"check_interval": 0},
        ],
    )
    def test_invalid_limits_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ResourceGovernor(**kwargs)

    def test_remaining(self):
        governor = ResourceGovernor(timeout=60.0)
        assert 0 < governor.remaining <= 60.0
        assert ResourceGovernor(max_tuples=1).remaining is None


# ----------------------------------------------------------------------
# evaluate(): the acceptance-criteria paths
# ----------------------------------------------------------------------


class TestEvaluateGovernance:
    def test_timeout_fires_within_2x(self):
        # Acceptance criterion: >10 s ungoverned, back in <2x the
        # requested timeout when governed.
        engine = XPathEngine()
        requested = 0.25
        start = time.monotonic()
        with pytest.raises(QueryTimeoutError):
            engine.evaluate(
                PATHOLOGICAL, HUGE, EvalOptions(timeout=requested)
            )
        elapsed = time.monotonic() - start
        assert elapsed < 2 * requested

    def test_timeout_fires_within_2x_over_a_store(self, tmp_path):
        # The stored variant of the acceptance criterion: same
        # >10s-ungoverned nested-predicate query, paged storage target
        # of at least 1 MiB (text padding), governed return in <2x.
        from repro.storage import DocumentStore

        padded = parse_document(
            "<a>"
            + ("<b><c>" + "x" * 300 + "</c><c/></b>") * 3000
            + "</a>"
        )
        path = tmp_path / "huge.natix"
        DocumentStore.write(padded, path)
        assert path.stat().st_size >= 1 << 20
        engine = XPathEngine()
        requested = 0.3
        with DocumentStore.open(path, buffer_pages=256) as stored:
            start = time.monotonic()
            with pytest.raises(QueryTimeoutError):
                engine.evaluate(
                    PATHOLOGICAL, stored.root,
                    EvalOptions(timeout=requested),
                )
            assert time.monotonic() - start < 2 * requested

    def test_tuple_budget_aborts(self):
        engine = XPathEngine()
        with pytest.raises(QueryBudgetError) as excinfo:
            engine.evaluate("//c", BIG, EvalOptions(max_tuples=10))
        assert excinfo.value.resource == "tuples"

    def test_byte_budget_aborts_result_collection(self):
        engine = XPathEngine()
        with pytest.raises(QueryBudgetError) as excinfo:
            engine.evaluate("//c", BIG, EvalOptions(max_bytes=64))
        assert excinfo.value.resource == "bytes"

    def test_byte_budget_aborts_materialization(self):
        # last() forces Tmp^cs materialization (the group must be
        # buffered to know its size); each snapshot is charged against
        # the byte budget.
        engine = XPathEngine()
        with pytest.raises(QueryBudgetError):
            engine.evaluate(
                "count(//b[position() = last()])", BIG,
                EvalOptions(max_bytes=256),
            )

    def test_cross_thread_cancel_mid_flight(self):
        engine = XPathEngine()
        token = CancelToken()
        timer = threading.Timer(0.15, token.cancel, args=("shutdown",))
        timer.start()
        start = time.monotonic()
        try:
            with pytest.raises(QueryCancelledError):
                engine.evaluate(
                    PATHOLOGICAL, BIG, EvalOptions(cancel=token)
                )
        finally:
            timer.cancel()
        assert time.monotonic() - start < 2.0

    def test_governed_result_matches_ungoverned(self):
        engine = XPathEngine()
        ungoverned = engine.evaluate("count(//c)", SMALL)
        governed = engine.evaluate(
            "count(//c)", SMALL,
            EvalOptions(
                timeout=30.0, max_tuples=100_000, max_bytes=100_000_000
            ),
        )
        assert governed == ungoverned == 3.0

    def test_timeout_does_not_poison_cache_or_singleflight(self):
        engine = XPathEngine()
        with pytest.raises(QueryTimeoutError):
            engine.evaluate(PATHOLOGICAL, BIG, EvalOptions(timeout=0.1))
        # Same query text, generous limits, small target: the cached
        # plan must be reusable and the singleflight key released.
        assert engine.evaluate(
            "count(//c)", BIG, EvalOptions(timeout=30.0)
        ) == 800.0
        assert engine.evaluate("count(//c)", BIG) == 800.0

    def test_engine_default_limits_apply(self):
        engine = XPathEngine(default_max_tuples=10)
        with pytest.raises(QueryBudgetError):
            engine.evaluate("//c", BIG)
        # Per-call limits win over the default.
        assert engine.evaluate(
            "count(//b)", SMALL, EvalOptions(max_tuples=1_000_000)
        ) == 2.0

    def test_env_var_default_timeout(self, monkeypatch):
        monkeypatch.setenv(session_module.TIMEOUT_ENV_VAR, "7.5")
        assert XPathEngine().default_timeout == 7.5
        monkeypatch.setenv(session_module.TIMEOUT_ENV_VAR, "not-a-number")
        assert XPathEngine().default_timeout is None
        monkeypatch.setenv(session_module.TIMEOUT_ENV_VAR, "-3")
        assert XPathEngine().default_timeout is None
        monkeypatch.delenv(session_module.TIMEOUT_ENV_VAR)
        assert XPathEngine().default_timeout is None

    def test_coalesce_key_separates_governance_specs(self, monkeypatch):
        """A slowed leader and followers that differ only in their
        ``timeout`` never share a flight (a tightly limited leader must
        not fail loosely limited followers); the same calls with equal
        limits do, which shows the followers arrive mid-flight."""
        evaluate_plan = CompiledQuery.evaluate

        def coalesced(timeouts) -> int:
            release = threading.Event()

            def slowed(plan, *args, **kwargs):
                release.wait(5)
                return evaluate_plan(plan, *args, **kwargs)

            monkeypatch.setattr(CompiledQuery, "evaluate", slowed)
            engine = XPathEngine(codegen="off")
            with ThreadPoolExecutor(max_workers=len(timeouts)) as pool:
                futures = [
                    pool.submit(
                        engine.evaluate, "count(//c)", SMALL,
                        EvalOptions(timeout=timeout),
                    )
                    for timeout in timeouts
                ]
                time.sleep(0.2)
                release.set()
                assert [future.result() for future in futures] == [3.0] * 3
            return engine.stats().runtime_counters.get(
                "coalesced_requests", 0
            )

        assert coalesced((None, 30.0, 31.0)) == 0
        assert coalesced((30.0, 30.0, 30.0)) >= 1


class TestOneShotApiGovernance:
    def test_evaluate_timeout(self):
        start = time.monotonic()
        with pytest.raises(QueryTimeoutError):
            evaluate(PATHOLOGICAL, BIG, EvalOptions(timeout=0.2))
        assert time.monotonic() - start < 0.4

    def test_evaluate_budget(self):
        with pytest.raises(QueryBudgetError):
            evaluate("//c", BIG, EvalOptions(max_tuples=5))

    def test_interpreters_reject_governance(self):
        with pytest.raises(ValueError):
            evaluate(
                "//c", SMALL, EvalOptions(engine="naive", timeout=1.0)
            )
        with pytest.raises(ValueError):
            evaluate(
                "//c", SMALL, EvalOptions(engine="memo", max_tuples=5)
            )

    def test_canonical_engine_governed(self):
        with pytest.raises(QueryBudgetError):
            evaluate(
                "//c", BIG,
                EvalOptions(engine="natix-canonical", max_tuples=5),
            )

    def test_evaluate_concurrent_passthrough(self):
        results = evaluate_concurrent(
            ["count(//c)", "count(//b)"], SMALL, EvalOptions(timeout=30.0)
        )
        assert results == [3.0, 2.0]


# ----------------------------------------------------------------------
# evaluate_concurrent(): per-query governors, isolated aborts
# ----------------------------------------------------------------------


class TestConcurrentGovernance:
    def test_timeout_fires_within_2x_and_releases_worker(self):
        # Acceptance criterion: the same >10s-ungoverned query through
        # the thread pool, back in <2x the requested timeout.
        engine = XPathEngine()
        requested = 0.3
        start = time.monotonic()
        with pytest.raises(QueryTimeoutError):
            engine.evaluate_concurrent(
                [PATHOLOGICAL], HUGE, EvalOptions(timeout=requested),
                max_workers=2,
            )
        assert time.monotonic() - start < 2 * requested
        # The pool was shut down cleanly and the engine still serves:
        # the cached pathological plan must not be poisoned either.
        assert engine.evaluate_concurrent(
            ["count(//c)", "count(//b)"], BIG
        ) == [800.0, 400.0]

    def test_return_exceptions_isolates_the_timeout(self):
        engine = XPathEngine()
        results = engine.evaluate_concurrent(
            [PATHOLOGICAL, "count(//c)", "count(//b)"],
            BIG,
            EvalOptions(max_tuples=10_000),
            max_workers=3,
            return_exceptions=True,
        )
        # The pathological query blows its tuple budget; its siblings
        # run under the same per-query budget and fit comfortably.
        assert isinstance(results[0], QueryBudgetError)
        assert results[1] == 800.0
        assert results[2] == 400.0

    def test_each_query_gets_its_own_deadline(self):
        # The deadline starts when each query starts, so a slow first
        # query cannot expire the sibling that runs after it.
        engine = XPathEngine()
        results = engine.evaluate_concurrent(
            [PATHOLOGICAL, "count(//c)"], BIG, EvalOptions(timeout=0.3),
            return_exceptions=True,
        )
        assert isinstance(results[0], QueryTimeoutError)
        assert results[1] == 800.0

    def test_admission_control_expired_deadline_skips_execution(self):
        # A governor anchored at submission whose deadline passed while
        # the query sat in the queue aborts in _prepare, before any
        # iterator opens.
        compiled = compile_xpath("count(//c)")
        governor = ResourceGovernor(timeout=0.01)
        time.sleep(0.03)
        start = time.monotonic()
        with pytest.raises(QueryTimeoutError):
            compiled.evaluate(BIG.root, governor=governor)
        assert time.monotonic() - start < 0.01

    def test_pre_cancelled_batch_aborts_every_query(self):
        engine = XPathEngine()
        token = CancelToken()
        token.cancel("drain")
        results = engine.evaluate_concurrent(
            ["count(//c)", "count(//b)"], BIG,
            EvalOptions(cancel=token), return_exceptions=True,
        )
        assert all(isinstance(r, QueryCancelledError) for r in results)

    def test_counters_present_before_any_abort(self):
        # Dashboards read the governance counters unconditionally; they
        # must exist (as zeros) on a fresh engine and after reset.
        engine = XPathEngine()
        expected = {
            "queries_submitted", "queries_completed",
            "queries_timed_out", "queries_cancelled", "budget_aborts",
        }
        counters = engine.stats().runtime_counters
        assert expected <= set(counters)
        assert all(counters[name] == 0 for name in expected)
        engine.evaluate("count(//c)", SMALL)
        engine.reset_stats()
        counters = engine.stats().runtime_counters
        assert all(counters[name] == 0 for name in expected)


# ----------------------------------------------------------------------
# Outcome accounting: every entry point x every way a run can end
# ----------------------------------------------------------------------

_COLLECTION = pytest.mark.multiprocess

#: How each entry point runs one query to the end of its answer.  The
#: batch entry points get a batch of one, so every cell is one scope
#: and one plan execution.
ENTRY_POINTS = [
    pytest.param(
        lambda engine, query, target, options:
            engine.evaluate(query, target, options),
        False, id="evaluate",
    ),
    pytest.param(
        lambda engine, query, target, options:
            list(engine.evaluate_stream(
                query, target, options, page_size=2
            )),
        False, id="evaluate_stream",
    ),
    pytest.param(
        lambda engine, query, target, options:
            engine.evaluate_many([query], target, options),
        False, id="evaluate_many",
    ),
    pytest.param(
        lambda engine, query, target, options:
            engine.evaluate_concurrent([query], target, options),
        False, id="evaluate_concurrent",
    ),
    pytest.param(
        lambda engine, query, target, options:
            engine.count(query, target, options),
        False, id="count",
    ),
    pytest.param(
        lambda engine, query, collection, options:
            engine.evaluate_collection(query, collection, options),
        True, id="evaluate_collection", marks=_COLLECTION,
    ),
    pytest.param(
        lambda engine, query, collection, options:
            list(engine.evaluate_collection_stream(
                query, collection, options, page_size=2
            )),
        True, id="evaluate_collection_stream", marks=_COLLECTION,
    ),
]

def _cancelled_token() -> CancelToken:
    token = CancelToken()
    token.cancel("test")
    return token


#: (query, options, the error it ends in, the counter it settles
#: into).  A plain evaluation error still "completes" its governed run
#: — it consumed resources and finished on its own.
OUTCOMES = [
    pytest.param(
        "//c", lambda: EvalOptions(), None, "queries_completed",
        id="ok",
    ),
    pytest.param(
        "//c[$missing]", lambda: EvalOptions(), UnboundVariableError,
        "queries_completed", id="execution-error",
    ),
    pytest.param(
        PATHOLOGICAL, lambda: EvalOptions(timeout=0.05),
        QueryTimeoutError, "queries_timed_out", id="timeout",
    ),
    pytest.param(
        "//c", lambda: EvalOptions(max_tuples=3), QueryBudgetError,
        "budget_aborts", id="tuple-budget",
    ),
    pytest.param(
        PATHOLOGICAL, lambda: EvalOptions(cancel=_cancelled_token()),
        QueryCancelledError, "queries_cancelled", id="cancel",
    ),
]


@pytest.fixture(scope="module")
def big_collection(tmp_path_factory):
    from repro.collection import (
        Collection,
        create_collection_from_document,
    )

    directory = tmp_path_factory.mktemp("governance") / "big"
    create_collection_from_document(BIG, directory, shards=2)
    with Collection(directory, workers=2) as collection:
        yield collection


@pytest.mark.parametrize("query, make_options, error, outcome", OUTCOMES)
@pytest.mark.parametrize("run, on_collection", ENTRY_POINTS)
def test_counters_reconcile(
    request, run, on_collection, query, make_options, error, outcome
):
    """However a run ends, through whichever entry point: one
    submission, exactly one outcome, one recorded execution, and the
    compiled plan still cached."""
    target = (
        request.getfixturevalue("big_collection") if on_collection
        else BIG
    )
    engine = XPathEngine(coalesce=False)
    if error is None:
        run(engine, query, target, make_options())
    else:
        with pytest.raises(error):
            run(engine, query, target, make_options())
    stats = engine.stats()
    counters = stats.runtime_counters
    settled = {
        name: counters[name]
        for name in session_module.GOVERNANCE_COUNTERS
        if name != "queries_submitted" and counters[name]
    }
    assert counters["queries_submitted"] == 1
    assert settled == {outcome: 1}
    assert stats.execution_count == 1
    # Collections cache their shipped plans themselves; a document
    # target's plan is in the engine's cache and survives the abort.
    assert stats.cache.size == (0 if on_collection else 1)
    assert stats.cache.evictions == 0


# ----------------------------------------------------------------------
# evaluate_many(): one shared governor per batch, one run per query
# ----------------------------------------------------------------------


class TestBatchGovernance:
    def test_budget_is_cumulative_across_the_batch(self):
        engine = XPathEngine()
        # Each query alone fits in the budget; together they do not.
        budget = EvalOptions(max_tuples=1000)
        assert engine.evaluate("count(/a/b)", BIG, budget) == 400.0
        with pytest.raises(QueryBudgetError):
            engine.evaluate_many(["count(/a/b)"] * 3, BIG, budget)

    def test_each_query_is_one_governed_run(self):
        engine = XPathEngine()
        engine.evaluate_many(
            ["count(//c)", "count(//b)", "count(/a/b)"], BIG
        )
        counters = engine.stats().runtime_counters
        assert counters["queries_submitted"] == 3
        assert counters["queries_completed"] == 3
        assert engine.stats().execution_count == 3

    def test_budget_trip_on_the_second_query_settles_it(self):
        # count(/a/b) takes 405 tuples: the first fits in 600, the
        # second trips the shared budget, the third never starts.
        engine = XPathEngine()
        with pytest.raises(QueryBudgetError):
            engine.evaluate_many(
                ["count(/a/b)"] * 3, BIG, EvalOptions(max_tuples=600)
            )
        counters = engine.stats().runtime_counters
        assert counters["queries_submitted"] == 2
        assert counters["queries_completed"] == 1
        assert counters["budget_aborts"] == 1

    def test_ungoverned_batch_unaffected(self):
        engine = XPathEngine()
        assert engine.evaluate_many(
            ["count(//c)", "count(//b)"], SMALL
        ) == [3.0, 2.0]


# ----------------------------------------------------------------------
# The result contract every backend shares: 16 bytes per result item
# ----------------------------------------------------------------------


def _run_driver(driver, compiled, governor):
    if driver == "stream":
        return list(compiled.evaluate_stream(BIG.root, governor=governor))
    return compiled.evaluate(BIG.root, governor=governor, codegen=driver)


class TestResultItemBytes:
    @pytest.mark.parametrize("driver", ["off", "force", "stream"])
    @pytest.mark.parametrize("query", ["/a/b", "//c", "/a/b/c"])
    def test_each_result_item_charges_16_bytes(self, driver, query):
        compiled = compile_xpath(query)
        governor = ResourceGovernor()
        result = _run_driver(driver, compiled, governor)
        assert governor.bytes == 16 * len(result)
        fits = ResourceGovernor(max_bytes=16 * len(result))
        assert len(_run_driver(driver, compiled, fits)) == len(result)
        with pytest.raises(QueryBudgetError):
            _run_driver(
                driver, compiled,
                ResourceGovernor(max_bytes=16 * len(result) - 1),
            )

    @pytest.mark.parametrize("backend", ["interpreted", "generated"])
    def test_scalar_plan_without_a_tuple_is_an_execution_error(
        self, backend
    ):
        from repro.algebra import operators as ops
        from repro.algebra import scalar as S
        from repro.codegen import generate_python
        from repro.compiler.pipeline import generate_physical
        from repro.engine.context import ExecutionContext
        from repro.errors import ExecutionError

        compiled = compile_xpath("count(/a/b)")
        translation = compiled.translation
        translation.plan = ops.Select(translation.plan, S.SConst(False))
        if backend == "interpreted":
            plan = generate_physical(translation, compiled.options)
        else:
            plan = generate_python(translation, compiled.options)
        with pytest.raises(ExecutionError, match="produced no tuple"):
            plan.execute(ExecutionContext(BIG.root))
