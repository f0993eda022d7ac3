"""The DOM XPath evaluator against a step-at-a-time reference.

The reference below is the evaluator as it was before the context-value
table: it applies each step to every context node, re-evaluates each
predicate's paths anew for every candidate, and walks
descendants recursively.  It returns node-sets in discovery order, so
only set equality is compared with it; document order and uniqueness are
checked on their own.
"""

from typing import Iterator, List

from hypothesis import example, given

from repro.queries.xml import Document, Element, Node, TextNode, parse
from repro.queries.xpath import (
    Axis,
    Comparison,
    LocationPath,
    Not,
    PathPredicate,
    Step,
    evaluate_xpath,
    figure1_query,
    matches,
    parse_xpath,
)
from tests.settings_profiles import DIFFERENTIAL_SETTINGS
from tests.xml_strategies import (
    path_strategy,
    predicate_strategy,
    wide_element_strategy,
)


# --- the reference --------------------------------------------------------


class _RefDocumentNode:
    def __init__(self, document):
        self.document = document

    def children(self):
        return [self.document.root]


def _ref_descendants(node) -> Iterator[Node]:
    if isinstance(node, Element):
        for child in node.children:
            yield child
            yield from _ref_descendants(child)


def _ref_axis_nodes(axis, context) -> Iterator[Node]:
    if isinstance(context, _RefDocumentNode):
        if axis in (Axis.CHILD,):
            yield from context.children()
        elif axis in (Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF):
            root = context.document.root
            yield root
            yield from _ref_descendants(root)
        return
    if axis == Axis.CHILD:
        if isinstance(context, Element):
            yield from context.children
    elif axis == Axis.DESCENDANT:
        yield from _ref_descendants(context)
    elif axis == Axis.DESCENDANT_OR_SELF:
        yield context
        yield from _ref_descendants(context)
    elif axis == Axis.SELF:
        yield context
    elif axis == Axis.PARENT:
        if context.parent is not None:
            yield context.parent
    elif axis == Axis.ANCESTOR:
        yield from context.ancestors()
    elif axis == Axis.ANCESTOR_OR_SELF:
        yield context
        yield from context.ancestors()


def _ref_name_matches(node, name_test) -> bool:
    if not isinstance(node, Element):
        return False
    return name_test == "*" or node.name == name_test


def _ref_eval_steps(steps, contexts, document) -> List[Node]:
    current = list(contexts)
    for step in steps:
        produced = []
        seen = set()
        for ctx in current:
            for candidate in _ref_axis_nodes(step.axis, ctx):
                if not _ref_name_matches(candidate, step.name_test):
                    continue
                if all(
                    _ref_eval_predicate(p, candidate, document)
                    for p in step.predicates
                ):
                    if id(candidate) not in seen:
                        seen.add(id(candidate))
                        produced.append(candidate)
        current = list(produced)
    return [n for n in current if isinstance(n, Node)]


def _ref_eval_predicate(pred, context, document) -> bool:
    if isinstance(pred, Not):
        return not _ref_eval_predicate(pred.operand, context, document)
    if isinstance(pred, PathPredicate):
        return bool(_ref_resolve(pred.path, context, document))
    if isinstance(pred, Comparison):
        left = _ref_resolve(pred.left, context, document)
        right = _ref_resolve(pred.right, context, document)
        left_values = {n.string_value() for n in left}
        return any(n.string_value() in left_values for n in right)
    raise AssertionError(f"unknown predicate {pred!r}")


def _ref_resolve(path, context, document) -> List[Node]:
    if path.absolute:
        return _ref_eval_steps(path.steps, [_RefDocumentNode(document)], document)
    return _ref_eval_steps(path.steps, [context], document)


def reference_evaluate(path, document, context=None) -> List[Node]:
    if path.absolute or context is None:
        start = [_RefDocumentNode(document)]
    else:
        start = [context]
    return _ref_eval_steps(path.steps, start, document)


def _pre_order(root) -> List[Node]:
    return [root, *_ref_descendants(root)]


# --- the properties -------------------------------------------------------


def _assert_node_set(produced, expected, document):
    rank = {id(node): i for i, node in enumerate(_pre_order(document.root))}
    ranks = [rank[id(node)] for node in produced]
    assert ranks == sorted(set(ranks)), "not in document order, or duplicated"
    assert set(map(id, produced)) == set(map(id, expected))


class TestAgainstReference:
    @given(wide_element_strategy(), path_strategy())
    @DIFFERENTIAL_SETTINGS
    def test_from_the_document_node(self, root, path):
        document = Document(root)
        expected = reference_evaluate(path, document)
        _assert_node_set(evaluate_xpath(path, document), expected, document)
        assert matches(path, document) == bool(expected)

    @given(wide_element_strategy(), predicate_strategy())
    @example(
        # a's children are b, not b's children: the table's key must hold
        # the step index, not just the path and the node
        parse("<r><a><b/></a></r>").root,
        PathPredicate(parse_xpath("child::*/child::*")),
    )
    @DIFFERENTIAL_SETTINGS
    def test_predicate_at_every_element(self, root, predicate):
        # one evaluation tests the predicate from every element, so its
        # inner paths meet the table from many context nodes
        path = LocationPath((Step(Axis.DESCENDANT_OR_SELF, "*", (predicate,)),))
        document = Document(root)
        expected = reference_evaluate(path, document)
        _assert_node_set(evaluate_xpath(path, document), expected, document)

    @given(wide_element_strategy(), path_strategy())
    @DIFFERENTIAL_SETTINGS
    def test_from_every_context_node(self, root, path):
        document = Document(root)
        for context in _pre_order(root):
            expected = reference_evaluate(path, document, context)
            produced = evaluate_xpath(path, document, context)
            _assert_node_set(produced, expected, document)


def _item(value):
    return Element("item", [Element("string", [TextNode(value)])])


class TestTablePerEvaluation:
    def test_appended_nodes_are_seen_by_the_next_call(self):
        document = parse(
            "<instance>"
            "<set1><item><string>01</string></item></set1>"
            "<set2><item><string>01</string></item></set2>"
            "</instance>"
        )
        set1, set2 = document.root.children
        query = figure1_query()
        assert not matches(query, document)
        assert len(evaluate_xpath("//set2/item", document)) == 1

        set1.append(_item("10"))
        assert matches(query, document)
        assert [n.string_value() for n in evaluate_xpath(query, document)] == ["10"]

        set2.append(_item("10"))
        assert not matches(query, document)
        assert len(evaluate_xpath("//set2/item", document)) == 2
