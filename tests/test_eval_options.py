"""The unified :class:`EvalOptions` per-call API.

Pins the PR-6 redesign contract: one frozen value object carries every
per-call knob, is accepted uniformly by all evaluation entry points,
and is stable enough to serve as a plan-cache/coalescing key.  (The
pre-2.0 individual keyword arguments are gone; ``tests/test_session.py``
pins that they are an ordinary ``TypeError``.)
"""

import pytest

from repro import (
    CancelToken,
    EvalOptions,
    TranslationOptions,
    XPathEngine,
    build_indexes,
    evaluate,
    evaluate_concurrent,
    open_store,
    parse_document,
    store_document,
)
from repro.errors import QueryBudgetError
from repro.testing.oracle import DifferentialRunner

DOC = parse_document("<a><b>x</b><b>y</b><c>z</c></a>")


class TestValueObject:
    def test_round_trip_and_replace(self):
        options = EvalOptions(
            variables={"n": 1.0},
            namespaces={"p": "urn:one", "q": "urn:two"},
            timeout=2.5,
            max_tuples=10,
            codegen="auto",
        )
        assert options.namespace_map() == {"p": "urn:one", "q": "urn:two"}
        assert options.governed()
        bumped = options.replace(max_tuples=20)
        assert bumped.max_tuples == 20
        assert bumped.timeout == 2.5
        assert options.max_tuples == 10  # frozen original untouched

    def test_namespace_order_is_normalized(self):
        one = EvalOptions(namespaces={"p": "urn:one", "q": "urn:two"})
        two = EvalOptions(namespaces={"q": "urn:two", "p": "urn:one"})
        assert one == two
        assert hash(one) == hash(two)

    def test_hashable_with_unhashable_variables(self):
        # Variables may hold node-sets (lists); they are excluded from
        # the hash but never from equality.
        nodes = evaluate("//b", DOC)
        options = EvalOptions(variables={"ns": nodes})
        hash(options)
        assert options != EvalOptions(variables={"ns": []})

    def test_defaults_are_all_none(self):
        options = EvalOptions()
        assert not options.governed()
        assert options.namespace_map() is None
        assert options == EvalOptions()

    @pytest.mark.parametrize("field", ["index", "codegen", "optimizer"])
    def test_invalid_mode_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            EvalOptions(**{field: "sometimes"})

    def test_usable_as_cache_key(self):
        # Equal options from differently-ordered inputs land on the same
        # dict slot: the coalescing and plan-cache keys stay stable.
        table = {EvalOptions(namespaces={"a": "1", "b": "2"}): "hit"}
        assert table[EvalOptions(namespaces={"b": "2", "a": "1"})] == "hit"


class TestUniformAcceptance:
    def test_one_shot_evaluate(self):
        options = EvalOptions(engine="naive")
        assert evaluate("count(//b)", DOC, options) == 2.0

    def test_engine_methods(self):
        engine = XPathEngine()
        options = EvalOptions(variables={"n": 2.0})
        assert engine.evaluate("count(//b) = $n", DOC, options) is True
        assert engine.count("//b", DOC, options) == 2
        many = engine.evaluate_many(["count(//b)", "count(//c)"], DOC, options)
        assert many == [2.0, 1.0]
        batch = engine.evaluate_concurrent(
            ["count(//b)", "count(//c)"], DOC, options, max_workers=2
        )
        assert batch == [2.0, 1.0]

    def test_evaluate_concurrent_one_shot(self):
        values = evaluate_concurrent(
            ["count(//b)", "count(//c)"], DOC, EvalOptions(), max_workers=2
        )
        assert values == [2.0, 1.0]

    @pytest.mark.parametrize("options, error", [
        (EvalOptions(engine="no-such-engine"), ValueError),
        (EvalOptions(engine="naive"), ValueError),
        ({"timeout": 1.0}, TypeError),
    ], ids=["unknown-engine", "interpreter", "dict"])
    def test_evaluate_concurrent_one_shot_validates(self, options, error):
        # The same resolution as one-shot evaluate(): only an
        # EvalOptions naming a session engine is accepted.
        with pytest.raises(error):
            evaluate_concurrent(["count(//b)"], DOC, options)
        if error is TypeError:
            with pytest.raises(error):
                evaluate("count(//b)", DOC, options)

    def test_evaluate_concurrent_one_shot_honours_canonical(
        self, monkeypatch
    ):
        translations = []
        compile_plan = XPathEngine.compile

        def recording(engine, query, **kwargs):
            translations.append(kwargs.get("options") or engine.options)
            return compile_plan(engine, query, **kwargs)

        monkeypatch.setattr(XPathEngine, "compile", recording)
        values = evaluate_concurrent(
            ["count(//b)"], DOC, EvalOptions(engine="natix-canonical")
        )
        assert values == [2.0]
        assert translations == [TranslationOptions.canonical()]

    def test_governance_rides_along(self):
        with pytest.raises(QueryBudgetError):
            XPathEngine().evaluate("//b", DOC, EvalOptions(max_tuples=1))

    def test_cancel_token_field(self):
        token = CancelToken()
        token.cancel()
        from repro.errors import QueryCancelledError

        with pytest.raises(QueryCancelledError):
            XPathEngine().evaluate("//b", DOC, EvalOptions(cancel=token))

    def test_engine_field_ignored_by_sessions(self):
        # An XPathEngine *is* the strategy; the field only steers the
        # one-shot helper.
        engine = XPathEngine()
        assert engine.count("//b", DOC, EvalOptions(engine="naive")) == 2

    def test_per_call_index_conflict_rejected(self):
        engine = XPathEngine(index="off")
        with pytest.raises(ValueError, match="index"):
            engine.evaluate("//b", DOC, EvalOptions(index="force"))

    def test_per_call_optimizer_conflict_rejected(self):
        engine = XPathEngine()  # optimizer defaults to "heuristic"
        with pytest.raises(ValueError, match="optimizer"):
            engine.evaluate("//b", DOC, EvalOptions(optimizer="cost"))

    def test_matching_optimizer_accepted(self):
        engine = XPathEngine(optimizer="cost")
        options = EvalOptions(optimizer="cost")
        assert engine.count("//b", DOC, options) == 2

    def test_one_shot_optimizer_spins_up_session(self):
        options = EvalOptions(optimizer="cost")
        assert evaluate("count(//b)", DOC, options) == 2.0

    def test_differential_runner_governance(self):
        with DifferentialRunner(
            DOC, governance=EvalOptions(max_tuples=100_000)
        ) as runner:
            assert runner.check("count(//b)") == []
        assert runner.governance == {"max_tuples": 100_000}

    def test_differential_runner_rejects_cancel(self):
        token = CancelToken()
        with pytest.raises(ValueError, match="cancel"):
            DifferentialRunner(DOC, governance=EvalOptions(cancel=token))

    def test_differential_runner_rejects_unknown_mapping_key(self):
        with pytest.raises(ValueError, match="max_seconds"):
            DifferentialRunner(DOC, governance={"max_seconds": 1})


class TestCacheAndCoalesceKey:
    def test_namespace_order_does_not_split_the_plan_cache(self):
        engine = XPathEngine()
        query = "//p:b"
        engine.evaluate(
            query, DOC, EvalOptions(namespaces={"p": "urn:x", "q": "urn:y"})
        )
        engine.evaluate(
            query, DOC, EvalOptions(namespaces={"q": "urn:y", "p": "urn:x"})
        )
        stats = engine.stats()
        assert stats.cache.misses == 1
        assert stats.cache.hits == 1


class TestStoreHelperSignatures:
    def test_keyword_buffer_pages(self, tmp_path):
        path = tmp_path / "doc.natix"
        store_document(DOC, path)
        build_indexes(path, buffer_pages=32)
        with open_store(path, buffer_pages=32) as stored:
            assert evaluate("count(//b)", stored) == 2.0
