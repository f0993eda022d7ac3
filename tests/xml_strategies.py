"""Shared Hypothesis strategies for the XML and XPath tests.

Trees and paths draw their names from one pool, so random name tests
select real elements, and texts from a four-letter alphabet, so random
general comparisons find equal string-values.
"""

from hypothesis import strategies as st

from repro.queries.xml import Element, TextNode
from repro.queries.xpath import (
    Axis,
    Comparison,
    LocationPath,
    Not,
    PathPredicate,
    Step,
)

NAMES = ("a", "b", "item", "set1", "string", "x_1")

names = st.sampled_from(NAMES)
texts = st.text(alphabet="01ab", min_size=1, max_size=6)


def tree_strategy():
    """A random element or text node with a random subtree."""
    leaf = st.one_of(
        names.map(lambda n: Element(n)),
        texts.map(TextNode),
    )

    def extend(children):
        return st.tuples(names, st.lists(children, max_size=4)).map(
            lambda t: Element(t[0], list(t[1]))
        )

    return st.recursive(leaf, extend, max_leaves=12)


def element_strategy():
    """A random tree whose root is an element: a document's root."""
    return tree_strategy().filter(lambda n: isinstance(n, Element))


def wide_element_strategy():
    """A root element over two to four random subtrees.

    Wider and deeper than most :func:`element_strategy` draws, so random
    paths select several nodes from several contexts more often.
    """
    subtrees = st.lists(tree_strategy(), min_size=2, max_size=4)
    return st.tuples(names, subtrees).map(lambda t: Element(t[0], list(t[1])))


def _paths(predicate_tuples):
    # '*' half the time, or most random paths would select nothing
    name_tests = st.one_of(st.just("*"), names)
    step = st.builds(
        Step, st.sampled_from(list(Axis)), name_tests, predicate_tuples
    )
    return st.builds(
        LocationPath,
        st.lists(step, min_size=1, max_size=3).map(tuple),
        st.booleans(),
    )


def predicate_strategy():
    """A random predicate: ``not``, bare paths and ``=``, nested.

    Inner paths use all seven axes and name tests from :data:`NAMES` or
    ``*``, and are relative or absolute.
    """

    def over(inner):
        return st.one_of(
            inner.map(PathPredicate), st.builds(Comparison, inner, inner)
        )

    def extend(predicates):
        inner = _paths(st.lists(predicates, max_size=1).map(tuple))
        return st.one_of(predicates.map(Not), over(inner))

    return st.recursive(over(_paths(st.just(()))), extend, max_leaves=4)


def path_strategy():
    """A random location path of the fragment, relative or absolute.

    Each step has at most one predicate from :func:`predicate_strategy`.
    """
    predicates = predicate_strategy()
    return _paths(st.lists(predicates, max_size=1).map(tuple))
