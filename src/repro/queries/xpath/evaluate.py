"""XPath evaluation with XPath 1.0 semantics on the document model.

* node-sets are returned in document order, duplicates removed;
* general comparison ``A = B`` is existential over string-values;
* boolean(node-set) = nonempty;
* relative paths evaluate from the context node, absolute paths from the
  (virtual) document node, whose single child is the root element.

Each :func:`evaluate_xpath` or :func:`matches` call owns one
:class:`_Evaluation`, a context-value table after Gottlob, Koch & Pichler
("Efficient Algorithms for Processing XPath Queries", VLDB 2002).  It
maps a path's step suffix and one context node to the nodes that suffix
selects, so a suffix reached again from the same node is not walked
again.  In the Figure 1 predicate the right-hand path climbs from every
``set1`` item to the one ``instance`` node, and its suffix from there is
computed once per call instead of once per item.  The table is sound
because the fragment has no positional predicates and no variables: what
a suffix selects depends on its context node alone.  It lives only as
long as the call, because documents are mutable.

The Figure 1 query — selecting the ``<item>`` children of ``set1`` whose
string is *not* matched in ``set2``, i.e. the elements of X − Y — is
provided pre-built by :func:`figure1_query` and as source text in
:data:`FIGURE1_TEXT` (the parser produces the identical AST; a test pins
that down).
"""

from __future__ import annotations

from itertools import chain
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Sequence,
    Tuple,
    Union,
)

from ...errors import QueryEvaluationError
from ..xml.document import Document, Element, Node
from .ast import (
    Axis,
    Comparison,
    LocationPath,
    Not,
    PathPredicate,
    PredicateExpr,
    Step,
)
from .parser import parse_xpath

#: Figure 1 of the paper, verbatim (modulo whitespace).
FIGURE1_TEXT = (
    "descendant::set1 / child::item [ not child::string = "
    "ancestor::instance / child::set2 / child::item / child::string ]"
)


class _DocumentNode:
    """The virtual root ('/'): parent of the document element.

    It answers the axes the way a node would, and no name test selects
    it, because it is not an :class:`Element`.
    """

    parent = None

    def __init__(self, document: Document):
        self.children = [document.root]

    def descendants(self) -> Iterator[Node]:
        return _self_and_descendants(self.children[0])

    def ancestors(self) -> Iterator[Element]:
        return iter(())


ContextNode = Union[Node, _DocumentNode]


def _self_and_descendants(node: Node) -> Iterator[Node]:
    yield node
    yield from node.descendants()


def _axis_nodes(axis: Axis, context: ContextNode) -> Iterable[ContextNode]:
    """The nodes on ``axis`` from ``context``, in axis order."""
    if axis is Axis.CHILD:
        return getattr(context, "children", ())  # text nodes have none
    if axis is Axis.DESCENDANT:
        return context.descendants()
    if axis is Axis.DESCENDANT_OR_SELF:
        return _self_and_descendants(context)
    if axis is Axis.SELF:
        return (context,)
    if axis is Axis.PARENT:
        return () if context.parent is None else (context.parent,)
    if axis is Axis.ANCESTOR:
        return context.ancestors()
    if axis is Axis.ANCESTOR_OR_SELF:
        return (context, *context.ancestors())
    raise QueryEvaluationError(f"unhandled axis {axis}")  # pragma: no cover


class _Evaluation:
    """The context-value table of one evaluation (see the module docstring)."""

    def __init__(self, document: Document):
        self.document_node = _DocumentNode(document)
        # (id(steps), index, context) -> the node-set steps[index:] selects
        # from context; the AST and the tree outlive the call, so ids stay put
        self._selected: Dict[Tuple[int, int, ContextNode], List[Node]] = {}
        # id(node-set) -> its string-values; every node-set compared is
        # held by the table, so its id stays put too
        self._values: Dict[int, FrozenSet[str]] = {}

    def path(self, path: LocationPath, context: ContextNode) -> List[Node]:
        """The node-set ``path`` selects from ``context``, in no set order."""
        start = self.document_node if path.absolute else context
        return self._select(path.steps, 0, start)

    def _select(
        self, steps: Sequence[Step], index: int, context: ContextNode
    ) -> List[Node]:
        key = (id(steps), index, context)
        selected = self._selected.get(key)
        if selected is None:
            selected = self._selected[key] = self._walk(steps, index, context)
        return selected

    def _walk(
        self, steps: Sequence[Step], index: int, context: ContextNode
    ) -> List[Node]:
        """Apply steps[index:] set-at-a-time.

        Once a step leaves a single node, the rest of the path is that
        node's suffix, looked up in the table.
        """
        candidates = _axis_nodes(steps[index].axis, context)
        while True:
            step = steps[index]
            name = step.name_test
            selected = [
                node
                for node in candidates
                if isinstance(node, Element)
                and (name == "*" or node.name == name)
            ]
            for predicate in step.predicates:
                selected = [
                    node for node in selected if self._holds(predicate, node)
                ]
            index += 1
            if index == len(steps) or not selected:
                return selected
            if len(selected) == 1:
                return self._select(steps, index, selected[0])
            axis = steps[index].axis
            # a node reached from several contexts is tested once
            candidates = dict.fromkeys(
                chain.from_iterable(
                    _axis_nodes(axis, node) for node in selected
                )
            )

    def _holds(self, pred: PredicateExpr, context: Node) -> bool:
        if isinstance(pred, Not):
            return not self._holds(pred.operand, context)
        if isinstance(pred, PathPredicate):
            return bool(self.path(pred.path, context))
        if isinstance(pred, Comparison):
            left = self._string_values(self.path(pred.left, context))
            right = self._string_values(self.path(pred.right, context))
            return not left.isdisjoint(right)
        raise QueryEvaluationError(f"unknown predicate {pred!r}")

    def _string_values(self, nodes: List[Node]) -> FrozenSet[str]:
        values = self._values.get(id(nodes))
        if values is None:
            values = self._values[id(nodes)] = frozenset(
                node.string_value() for node in nodes
            )
        return values


def _in_document_order(nodes: List[Node]) -> List[Node]:
    """``nodes`` sorted by a pre-order rank of the tree they lie in."""
    if len(nodes) < 2:
        return nodes
    top = nodes[0]
    while top.parent is not None:
        top = top.parent
    rank = {node: i for i, node in enumerate(_self_and_descendants(top))}
    return sorted(nodes, key=rank.__getitem__)


def evaluate_xpath(
    path: Union[LocationPath, str],
    document: Document,
    context: "Node | None" = None,
) -> List[Node]:
    """Evaluate a path; relative paths default to the document node context."""
    if isinstance(path, str):
        path = parse_xpath(path)
    evaluation = _Evaluation(document)
    start = evaluation.document_node if context is None else context
    return _in_document_order(evaluation.path(path, start))


def figure1_query() -> LocationPath:
    """The Figure 1 query, built programmatically (parser-independent)."""
    inner_right = LocationPath(
        (
            Step(Axis.ANCESTOR, "instance"),
            Step(Axis.CHILD, "set2"),
            Step(Axis.CHILD, "item"),
            Step(Axis.CHILD, "string"),
        )
    )
    inner_left = LocationPath((Step(Axis.CHILD, "string"),))
    predicate = Not(Comparison(inner_left, inner_right))
    return LocationPath(
        (
            Step(Axis.DESCENDANT, "set1"),
            Step(Axis.CHILD, "item", (predicate,)),
        )
    )


def matches(path: Union[LocationPath, str], document: Document) -> bool:
    """Filtering semantics (Theorem 13): does any node match the query?

    Only emptiness matters here, so the node-set is not sorted.
    """
    if isinstance(path, str):
        path = parse_xpath(path)
    evaluation = _Evaluation(document)
    return bool(evaluation.path(path, evaluation.document_node))
