"""Tests for the XPath (Figure 1 / Theorem 13) and XQuery (Theorem 12) engines."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import QuerySyntaxError
from repro.problems import (
    SET_EQUALITY,
    decode_instance,
    encode_instance,
    random_equal_instance,
    random_unequal_instance,
)
from repro.queries.xml import Element, instance_to_document, parse, serialize
from repro.queries.xpath import (
    FIGURE1_TEXT,
    Axis,
    evaluate_xpath,
    figure1_query,
    matches,
    parse_xpath,
)
from repro.queries.xquery import (
    THEOREM12_TEXT,
    evaluate_xquery,
    parse_xquery,
    theorem12_query,
)

DOC = parse(
    "<instance>"
    "<set1><item><string>01</string></item><item><string>10</string></item></set1>"
    "<set2><item><string>10</string></item><item><string>11</string></item></set2>"
    "</instance>"
)


class TestXPathParser:
    def test_simple_absolute_path(self):
        path = parse_xpath("/instance/set1/item")
        assert path.absolute
        assert [s.name_test for s in path.steps] == ["instance", "set1", "item"]
        assert all(s.axis == Axis.CHILD for s in path.steps)

    def test_explicit_axes(self):
        path = parse_xpath("descendant::set1/ancestor::instance")
        assert path.steps[0].axis == Axis.DESCENDANT
        assert path.steps[1].axis == Axis.ANCESTOR

    def test_double_slash(self):
        path = parse_xpath("//item")
        assert path.absolute and path.steps[0].axis == Axis.DESCENDANT

    def test_wildcard(self):
        assert parse_xpath("child::*").steps[0].name_test == "*"

    def test_figure1_parses_to_builtin_ast(self):
        assert parse_xpath(FIGURE1_TEXT) == figure1_query()

    def test_not_with_parentheses(self):
        a = parse_xpath("item[not(child::string = child::string)]")
        b = parse_xpath("item[not child::string = child::string]")
        assert a == b

    @pytest.mark.parametrize(
        "bad", ["", "/", "a//", "a[", "a[]", "a]b", "a[=b]", "bogus::a"]
    )
    def test_rejects_garbage(self, bad):
        with pytest.raises(QuerySyntaxError):
            parse_xpath(bad)

    def test_trailing_garbage(self):
        with pytest.raises(QuerySyntaxError):
            parse_xpath("a b")


class TestXPathEvaluation:
    def test_child_axis(self):
        items = evaluate_xpath("/instance/set1/item", DOC)
        assert len(items) == 2

    def test_descendant_axis(self):
        strings = evaluate_xpath("//string", DOC)
        assert [s.string_value() for s in strings] == ["01", "10", "10", "11"]

    def test_ancestor_axis(self):
        out = evaluate_xpath(
            "/instance/set1/item/string/ancestor::instance", DOC
        )
        assert len(out) == 1 and out[0].name == "instance"

    def test_self_and_parent(self):
        out = evaluate_xpath("/instance/set1/self::set1", DOC)
        assert len(out) == 1
        out = evaluate_xpath("/instance/set1/item/parent::set1", DOC)
        assert len(out) == 1  # deduplicated node-set

    def test_wildcard_matches_elements_only(self):
        out = evaluate_xpath("/instance/set1/item/string/child::*", DOC)
        assert out == []  # text nodes are not matched by name tests

    def test_existence_predicate(self):
        out = evaluate_xpath("/instance/set1/item[child::string]", DOC)
        assert len(out) == 2

    def test_comparison_predicate_existential(self):
        # items whose string equals SOME string in set2
        out = evaluate_xpath(
            "/instance/set1/item[child::string = /instance/set2/item/string]",
            DOC,
        )
        assert len(out) == 1
        assert out[0].string_value() == "10"


class TestDocumentOrder:
    """Node-sets come back in document order, whatever order the axes
    walk them in."""

    TREE = parse("<r><a><b><c/></b><d/></a></r>")

    @pytest.mark.parametrize(
        "path, names",
        [
            # children of nested contexts: d (child of a) precedes c
            # (child of b) in discovery, follows it in the document
            ("descendant::*/child::*", ["a", "b", "c", "d"]),
            # the ancestor axes walk upwards
            ("//c/ancestor-or-self::*", ["r", "a", "b", "c"]),
        ],
    )
    def test_result_is_in_document_order(self, path, names):
        assert [n.name for n in evaluate_xpath(path, self.TREE)] == names


class TestDeepDocuments:
    """Depth is bounded by memory, not by the interpreter's recursion limit."""

    DEPTH = 5000

    def test_chain_of_5000_elements(self):
        source = "<a>" * self.DEPTH + "x" + "</a>" * self.DEPTH
        doc = parse(source)
        chain = evaluate_xpath("//a", doc)
        assert len(chain) == self.DEPTH
        assert all(c.parent is p for p, c in zip(chain, chain[1:]))
        assert doc.root.string_value() == "x"
        written = serialize(doc.root)
        assert written == source and doc.stream_length == len(source)
        assert serialize(parse(written).root) == source


class TestFigure1:
    def test_selects_set_difference(self):
        # X = {01, 10}, Y = {10, 11} → X − Y = {01}
        out = evaluate_xpath(figure1_query(), DOC)
        assert [n.string_value() for n in out] == ["01"]

    def test_filtering_decides_noncontainment(self):
        rng = random.Random(0)
        for _ in range(10):
            inst = random_equal_instance(5, 5, rng)
            doc = instance_to_document(inst)
            # X = Y → X − Y = ∅ → no node matches
            assert not matches(figure1_query(), doc)

    def test_filtering_fires_on_difference(self):
        inst = decode_instance(encode_instance(["00", "01"], ["00", "11"]))
        doc = instance_to_document(inst)
        assert matches(figure1_query(), doc)

    def test_theorem13_double_run_protocol(self):
        """X = Y iff neither direction of the filter fires (proof of Thm 13)."""
        rng = random.Random(1)
        for make_yes in (True, False):
            inst = (
                random_equal_instance(5, 5, rng)
                if make_yes
                else random_unequal_instance(5, 5, rng)
            )
            # SET equality, not multiset: recompute the ground truth
            truth = set(inst.first) == set(inst.second)
            forward = matches(figure1_query(), instance_to_document(inst))
            backward = matches(
                figure1_query(), instance_to_document(inst.swapped())
            )
            assert (not forward and not backward) == truth

    @given(
        st.lists(st.text(alphabet="01", min_size=1, max_size=3), min_size=1, max_size=5),
        st.lists(st.text(alphabet="01", min_size=1, max_size=3), min_size=1, max_size=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_selected_equals_difference(self, xs, ys):
        k = min(len(xs), len(ys))
        inst = decode_instance(encode_instance(xs[:k], ys[:k]))
        doc = instance_to_document(inst)
        selected = {
            n.string_value() for n in evaluate_xpath(figure1_query(), doc)
        }
        assert selected == set(inst.first) - set(inst.second)


class TestXQueryParser:
    def test_theorem12_shape(self):
        from repro.queries.xquery import ElementConstructor, IfExpr

        q = theorem12_query()
        assert isinstance(q, ElementConstructor)
        assert q.name == "result"
        assert len(q.content) == 1
        assert isinstance(q.content[0], IfExpr)

    def test_empty_sequence(self):
        from repro.queries.xquery import EmptySequence

        assert isinstance(parse_xquery("()"), EmptySequence)

    def test_braced_content(self):
        q = parse_xquery("<r>{ /instance/set1 }</r>")
        assert q.name == "r" and len(q.content) == 1

    def test_rejects_garbage(self):
        with pytest.raises(QuerySyntaxError):
            parse_xquery("if then else")
        with pytest.raises(QuerySyntaxError):
            parse_xquery("<a>")
        with pytest.raises(QuerySyntaxError):
            parse_xquery("every x in y satisfies z")  # var needs '$'

    def test_trailing_tokens_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_xquery("() ()")


class TestXQueryEvaluation:
    def test_quantifiers(self):
        doc = DOC
        assert evaluate_xquery(
            "every $x in /instance/set1/item/string satisfies $x = $x", doc
        ) == [True]
        assert evaluate_xquery(
            "some $x in /instance/set1/item/string satisfies "
            "$x = /instance/set2/item/string",
            doc,
        ) == [True]

    def test_if_and_constructor(self):
        out = evaluate_xquery("if ( () ) then <a/> else <b/>", DOC)
        assert len(out) == 1 and out[0].name == "b"

    def test_and_or(self):
        base = "/instance/set1/item/string"
        assert evaluate_xquery(f"({base}) and ({base})", DOC) == [True]
        assert evaluate_xquery(f"( () ) or ({base})", DOC) == [True]
        assert evaluate_xquery("( () ) and ( () )", DOC) == [False]

    def test_unbound_variable(self):
        from repro.errors import QueryEvaluationError

        with pytest.raises(QueryEvaluationError):
            evaluate_xquery("$nope = $nope", DOC)

    def test_constructor_copies_nodes(self):
        out = evaluate_xquery("<wrap>{ /instance/set1/item/string }</wrap>", DOC)
        wrap = out[0]
        assert serialize(wrap) == "<wrap><string>01</string><string>10</string></wrap>"
        # deep copy: the original document is untouched
        assert DOC.root.child_elements("set1")[0].child_elements("item")


class TestTheorem12:
    def _result(self, inst):
        doc = instance_to_document(inst)
        out = evaluate_xquery(theorem12_query(), doc)
        assert len(out) == 1 and out[0].name == "result"
        return serialize(out[0])

    def test_equal_sets_give_true(self):
        rng = random.Random(2)
        inst = random_equal_instance(5, 5, rng)
        assert self._result(inst) == "<result><true/></result>"

    def test_unequal_sets_give_empty(self):
        inst = decode_instance(encode_instance(["00", "01"], ["00", "11"]))
        assert self._result(inst) == "<result/>"

    @given(
        st.lists(st.text(alphabet="01", min_size=1, max_size=3), min_size=1, max_size=5),
        st.lists(st.text(alphabet="01", min_size=1, max_size=3), min_size=1, max_size=5),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_decides_set_equality(self, xs, ys):
        k = min(len(xs), len(ys))
        inst = decode_instance(encode_instance(xs[:k], ys[:k]))
        expected = set(inst.first) == set(inst.second)
        produced = self._result(inst)
        assert (produced == "<result><true/></result>") == expected
