"""Round-trip fuzzing of the XML substrate with random document trees."""

from hypothesis import given, settings

from repro.queries.xml import TextNode, parse, serialize
from repro.queries.xml.tokens import tokenize, well_formed
from tests.xml_strategies import element_strategy


def _normalize(node):
    """Adjacent text nodes merge on reparse; normalize for comparison."""
    if isinstance(node, TextNode):
        return ("text", node.value)
    merged = []
    for child in node.children:
        norm = _normalize(child)
        if (
            norm[0] == "text"
            and merged
            and merged[-1][0] == "text"
        ):
            merged[-1] = ("text", merged[-1][1] + norm[1])
        else:
            merged.append(norm)
    return ("elem", node.name, tuple(merged))


class TestXMLFuzz:
    @given(element_strategy())
    @settings(max_examples=80, deadline=None)
    def test_serialize_parse_roundtrip(self, root):
        source = serialize(root)
        reparsed = parse(source)
        assert _normalize(reparsed.root) == _normalize(root)

    @given(element_strategy())
    @settings(max_examples=60, deadline=None)
    def test_token_stream_well_formed(self, root):
        tokens = list(tokenize(serialize(root)))
        assert well_formed(tokens)

    @given(element_strategy())
    @settings(max_examples=60, deadline=None)
    def test_string_value_is_text_concatenation(self, root):
        def collect(node):
            if isinstance(node, TextNode):
                return node.value
            return "".join(collect(c) for c in node.children)

        assert root.string_value() == collect(root)

    @given(element_strategy())
    @settings(max_examples=40, deadline=None)
    def test_parent_pointers_consistent(self, root):
        doc = parse(serialize(root))
        for node in doc.all_nodes():
            for child in getattr(node, "children", []):
                assert child.parent is node
