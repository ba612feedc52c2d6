"""Tests for the core function library — all 27 functions of spec §4."""

import math

import pytest

from repro import EvalOptions, evaluate, parse_document
from repro.errors import XPathNameError, XPathTypeError
from repro.xpath import functions as fnlib
from repro.xpath.context import make_context


@pytest.fixture()
def doc():
    return parse_document(
        '<r id="r0"><a id="a1">one</a><a id="a2">two</a>'
        '<n>3.7</n><n>1.1</n><w xml:lang="en-GB">hi</w></r>'
    )


def call(name, args, doc=None, node=None):
    context = None
    if doc is not None:
        context = make_context(node or doc.root)
    return fnlib.call(name, context, args)


class TestRegistry:
    def test_all_27_core_functions_registered(self):
        expected = {
            "last", "position", "count", "id", "local-name",
            "namespace-uri", "name", "string", "concat", "starts-with",
            "contains", "substring-before", "substring-after", "substring",
            "string-length", "normalize-space", "translate", "boolean",
            "not", "true", "false", "lang", "number", "sum", "floor",
            "ceiling", "round",
        }
        assert set(fnlib.all_function_names()) == expected
        assert len(expected) == 27

    def test_unknown_function(self):
        with pytest.raises(XPathNameError):
            fnlib.lookup("frobnicate")

    def test_arity_errors(self):
        with pytest.raises(XPathTypeError):
            call("count", [])
        with pytest.raises(XPathTypeError):
            call("not", [True, False])
        with pytest.raises(XPathTypeError):
            call("concat", ["only-one"])

    def test_nodeset_parameter_type_checked(self):
        with pytest.raises(XPathTypeError):
            call("count", ["not-a-nodeset"])

    def test_position_based_flags(self):
        assert fnlib.lookup("position").position_based
        assert fnlib.lookup("last").position_based
        assert not fnlib.lookup("count").position_based


class TestNodeSetFunctions:
    def test_position_and_last(self, doc):
        context = make_context(doc.root).with_position(3, 7)
        assert fnlib.call("position", context, []) == 3.0
        assert fnlib.call("last", context, []) == 7.0

    def test_count(self, doc):
        nodes = list(doc.root.children[0].children)
        assert call("count", [nodes]) == float(len(nodes))
        assert call("count", [[]]) == 0.0

    def test_id_string(self, doc):
        result = call("id", ["a1"], doc)
        assert [n.attributes[0].value for n in result] == ["a1"]

    def test_id_whitespace_tokens(self, doc):
        result = call("id", ["a1  a2  missing"], doc)
        assert len(result) == 2

    def test_id_nodeset_input(self, doc):
        r = doc.root.children[0]
        carriers = parse_document("<x><v>a1</v><v>a2 a1</v></x>")
        values = list(carriers.root.children[0].children)
        # Re-run id() against the original document's context.
        result = fnlib.call("id", make_context(doc.root), [[]])
        assert result == []
        # node-set input: tokens from each node's string-value
        result = fnlib.call(
            "id", make_context(doc.root),
            [[r.children[0]]],  # string-value "one" -> no match
        )
        assert result == []

    def test_id_deduplicates(self, doc):
        result = call("id", ["a1 a1 a1"], doc)
        assert len(result) == 1

    def test_name_family_with_argument(self, doc):
        r = doc.root.children[0]
        assert call("name", [[r]], doc) == "r"
        assert call("local-name", [[r]], doc) == "r"
        assert call("namespace-uri", [[r]], doc) == ""
        assert call("name", [[]], doc) == ""

    def test_name_family_without_argument(self, doc):
        a = doc.root.children[0].children[0]
        context = make_context(a)
        assert fnlib.call("name", context, []) == "a"
        assert fnlib.call("local-name", context, []) == "a"

    def test_name_uses_first_in_document_order(self, doc):
        r = doc.root.children[0]
        reversed_nodes = list(reversed(r.children))
        assert call("name", [reversed_nodes], doc) == "a"

    def test_name_of_prefixed(self):
        doc = parse_document('<p:a xmlns:p="urn:p"/>')
        a = doc.root.children[0]
        assert call("name", [[a]], doc) == "p:a"
        assert call("local-name", [[a]], doc) == "a"
        assert call("namespace-uri", [[a]], doc) == "urn:p"


class TestStringFunctions:
    def test_string_no_arg_uses_context(self, doc):
        a = doc.root.children[0].children[0]
        assert fnlib.call("string", make_context(a), []) == "one"

    def test_concat(self):
        assert call("concat", ["a", "b", "c", "d"]) == "abcd"

    def test_starts_with_and_contains(self):
        assert call("starts-with", ["hello", "he"]) is True
        assert call("starts-with", ["hello", "lo"]) is False
        assert call("contains", ["hello", "ell"]) is True
        assert call("contains", ["hello", ""]) is True

    def test_substring_before_after(self):
        assert call("substring-before", ["1999/04/01", "/"]) == "1999"
        assert call("substring-after", ["1999/04/01", "/"]) == "04/01"
        assert call("substring-before", ["abc", "z"]) == ""
        assert call("substring-after", ["abc", "z"]) == ""

    # The spec's own substring examples:
    @pytest.mark.parametrize(
        "args,expected",
        [
            (["12345", 1.5, 2.6], "234"),
            (["12345", 0.0, 3.0], "12"),
            (["12345", 0.0 / 1e300, None], "12345"),
            (["12345", 1.0, float("nan")], ""),
            (["12345", float("nan"), 3.0], ""),
            (["12345", -42.0, float("inf")], "12345"),
            (["12345", float("-inf"), float("inf")], ""),
            (["12345", 2.0, None], "2345"),
        ],
    )
    def test_substring_spec_examples(self, args, expected):
        text, start, length = args
        if length is None:
            assert call("substring", [text, start]) == expected
        else:
            assert call("substring", [text, start, length]) == expected

    def test_string_length(self):
        assert call("string-length", ["hello"]) == 5.0
        assert call("string-length", [""]) == 0.0

    def test_string_length_context(self, doc):
        a = doc.root.children[0].children[0]
        assert fnlib.call("string-length", make_context(a), []) == 3.0

    def test_normalize_space(self):
        assert call("normalize-space", ["  a  b \t c \n"]) == "a b c"
        assert call("normalize-space", ["   "]) == ""

    def test_translate(self):
        assert call("translate", ["bar", "abc", "ABC"]) == "BAr"
        assert call("translate", ["--aaa--", "abc-", "ABC"]) == "AAA"

    def test_translate_first_occurrence_wins(self):
        assert call("translate", ["a", "aa", "xy"]) == "x"


class TestBooleanFunctions:
    def test_boolean_not_true_false(self):
        assert call("boolean", [0.0]) is False
        assert call("not", [True]) is False
        assert call("true", []) is True
        assert call("false", []) is False

    def test_lang(self, doc):
        w = [n for n in doc.root.children[0].children if n.name == "w"][0]
        assert fnlib.call("lang", make_context(w), ["en"]) is True
        assert fnlib.call("lang", make_context(w), ["EN-gb"]) is True
        assert fnlib.call("lang", make_context(w), ["de"]) is False

    def test_lang_inherits(self):
        doc = parse_document('<a xml:lang="fr"><b/></a>')
        b = doc.root.children[0].children[0]
        assert fnlib.call("lang", make_context(b), ["fr"]) is True

    def test_lang_without_declaration(self, doc):
        assert fnlib.call("lang", make_context(doc.root), ["en"]) is False


class TestNumberFunctions:
    def test_number_no_arg_uses_context(self, doc):
        n = [x for x in doc.root.children[0].children if x.name == "n"][0]
        assert fnlib.call("number", make_context(n), []) == 3.7

    def test_sum(self, doc):
        ns = [x for x in doc.root.children[0].children if x.name == "n"]
        assert call("sum", [ns]) == pytest.approx(4.8)
        assert call("sum", [[]]) == 0.0

    def test_sum_with_non_numeric_is_nan(self, doc):
        r = doc.root.children[0]
        assert math.isnan(call("sum", [[r.children[0]]]))

    def test_floor_ceiling_round(self):
        assert call("floor", [2.7]) == 2.0
        assert call("floor", [-2.1]) == -3.0
        assert call("ceiling", [2.1]) == 3.0
        assert call("ceiling", [-2.7]) == -2.0
        assert call("round", [2.5]) == 3.0
        assert call("round", [-2.5]) == -2.0

    def test_floor_specials(self):
        assert math.isnan(call("floor", [float("nan")]))
        assert call("ceiling", [float("inf")]) == float("inf")


class TestImplicitConversions:
    def test_string_args_converted(self):
        # starts-with converts both arguments to strings.
        assert call("starts-with", [123.0, 1.0]) is True

    def test_number_args_converted(self):
        assert call("floor", ["2.7"]) == 2.0

    def test_boolean_args_converted(self):
        assert call("not", ["nonempty"]) is False
        assert call("not", [0.0]) is True


NAN = float("nan")
INF = float("inf")


class TestNumberEdgeCasesSection44:
    """Spec §4.4 corner cases: NaN/±Infinity through substring(),
    the sign of round()'s zeros, and lang() sublanguage casing.

    Each table runs the function twice — directly through the library
    and end-to-end through the compiled engine — because the engine
    path exercises the literal-folding and comparison machinery that
    has historically disagreed with the library on IEEE specials.
    """

    # (start, length-or-None, expected) per spec §4.2's substring rules:
    # round() the positions, then keep characters whose position p
    # satisfies  p >= round(start)  and  p < round(start) + round(len).
    # NaN comparisons are false, so any NaN operand selects nothing.
    SUBSTRING_TABLE = [
        ("0 div 0", None, ""),            # NaN start
        ("0 div 0", "3", ""),             # NaN start, finite length
        ("2", "0 div 0", ""),             # NaN length
        ("-1 div 0", None, "12345"),      # -Inf start, no length
        ("1 div 0", "3", ""),             # +Inf start
        ("-1 div 0", "1 div 0", ""),      # -Inf + Inf = NaN bound
        ("-42", "1 div 0", "12345"),      # finite start, +Inf length
        ("2", "1 div 0", "2345"),
        ("1.5", "2.6", "234"),            # the spec's rounding example
        ("0", "3", "12"),                 # round(0)+round(3) = 3 excl.
        ("-1 div 0", "5", ""),            # -Inf + 5 still < 1
    ]

    @pytest.mark.parametrize("start, length, expected", SUBSTRING_TABLE)
    def test_substring_specials_direct(self, start, length, expected):
        def num(expr):
            if expr == "0 div 0":
                return NAN
            if expr == "1 div 0":
                return INF
            if expr == "-1 div 0":
                return -INF
            return float(expr)

        args = ["12345", num(start)]
        if length is not None:
            args.append(num(length))
        assert call("substring", args) == expected

    @pytest.mark.parametrize("start, length, expected", SUBSTRING_TABLE)
    def test_substring_specials_compiled(self, start, length, expected):
        doc = parse_document("<a/>")
        arguments = f"'12345', {start}"
        if length is not None:
            arguments += f", {length}"
        query = f"substring({arguments})"
        for engine in ("natix", "naive"):
            assert evaluate(query, doc, EvalOptions(engine=engine)) == expected, (
                query, engine,
            )

    # (operand, expected, sign-is-negative) — §4.4: round(-0.5) is
    # negative zero, as is round of anything in (-0.5, -0.0].
    ROUND_TABLE = [
        (-0.5, 0.0, True),
        (-0.2, 0.0, True),
        (-0.0, 0.0, True),
        (0.0, 0.0, False),
        (0.2, 0.0, False),
        (0.5, 1.0, False),
        (-0.51, -1.0, True),
    ]

    @pytest.mark.parametrize("operand, expected, negative", ROUND_TABLE)
    def test_round_zero_sign_direct(self, operand, expected, negative):
        result = call("round", [operand])
        assert result == expected
        assert (math.copysign(1.0, result) < 0) is negative, result

    def test_round_negative_zero_observable_in_engine(self):
        # 1 div -0.0 is -Infinity; the only way XPath can observe the
        # sign of round()'s zero.
        doc = parse_document("<a/>")
        for engine in ("natix", "naive"):
            assert evaluate(
                "1 div round(-0.5)", doc, EvalOptions(engine=engine)
            ) == -INF, engine
            assert evaluate(
                "1 div round(0.4)", doc, EvalOptions(engine=engine)
            ) == INF, engine

    def test_round_specials_direct(self):
        assert math.isnan(call("round", [NAN]))
        assert call("round", [INF]) == INF
        assert call("round", [-INF]) == -INF

    # (document language, tested language, expected) — §4.3: compare
    # case-insensitively; a suffix starting at a '-' is ignored, but
    # the tested language must not be *longer* than the attribute.
    LANG_TABLE = [
        ("en-GB", "en", True),
        ("en-GB", "EN", True),
        ("en-GB", "en-gb", True),
        ("en-GB", "EN-GB", True),
        ("en-GB", "en-us", False),
        ("en-GB", "en-GB-oed", False),
        ("EN", "en", True),
        ("en", "en-gb", False),      # tested longer than attribute
        ("fr", "en", False),
        ("en-GB", "", False),
        ("en-GB", "gb", False),      # sublang alone never matches
    ]

    @pytest.mark.parametrize("doclang, wanted, expected", LANG_TABLE)
    def test_lang_sublanguage_casing_direct(self, doclang, wanted,
                                            expected):
        document = parse_document(f'<w xml:lang="{doclang}">hi</w>')
        node = document.root.children[0]
        assert call("lang", [wanted], document, node) is expected

    @pytest.mark.parametrize("doclang, wanted, expected", LANG_TABLE)
    def test_lang_sublanguage_casing_compiled(self, doclang, wanted,
                                              expected):
        document = parse_document(f'<r><w xml:lang="{doclang}"/></r>')
        query = f"count(//w[lang('{wanted}')])"
        for engine in ("natix", "naive"):
            assert evaluate(
                query, document, EvalOptions(engine=engine)
            ) == (1.0 if expected else 0.0), (doclang, wanted, engine)

    def test_lang_inherited_from_ancestor(self):
        document = parse_document(
            '<r xml:lang="en-GB"><w>hi</w><x xml:lang="de"><y/></x></r>'
        )
        assert evaluate("count(//w[lang('en')])", document) == 1.0
        assert evaluate("count(//y[lang('en')])", document) == 0.0
        assert evaluate("count(//y[lang('DE')])", document) == 1.0
