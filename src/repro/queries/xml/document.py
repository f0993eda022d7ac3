"""The document/node model and the streaming parser.

Nodes carry parent pointers so the ``ancestor`` axis of the Figure 1 XPath
query evaluates without global context.  String-values follow XPath 1.0:
the string-value of an element is the concatenation of all descendant text.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Union

from ...errors import XMLError

if TYPE_CHECKING:
    from .tokens import Token


class Node:
    """Base class: anything that can appear in a document tree."""

    parent: "Optional[Element]"

    def string_value(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError

    def ancestors(self) -> Iterator["Element"]:
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def descendants(self) -> Iterator["Node"]:
        """All proper descendants, document order.

        The walk keeps an explicit stack, so depth is bounded by memory
        rather than by the interpreter's recursion limit.
        """
        if not isinstance(self, Element):
            return
        stack = self.children[::-1]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, Element):
                stack.extend(node.children[::-1])


class Element(Node):
    """An element node with ordered children."""

    __slots__ = ("name", "children", "parent")

    def __init__(self, name: str, children: Optional[List[Node]] = None):
        self.name = name
        self.children = children or []
        self.parent: Optional[Element] = None
        for child in self.children:
            child.parent = self

    def append(self, child: Node) -> None:
        child.parent = self
        self.children.append(child)

    def child_elements(self, name: Optional[str] = None) -> List["Element"]:
        out = [c for c in self.children if isinstance(c, Element)]
        if name is not None:
            out = [c for c in out if c.name == name]
        return out

    def string_value(self) -> str:
        parts: List[str] = []
        stack: List[Node] = self.children[::-1]
        while stack:
            node = stack.pop()
            if isinstance(node, TextNode):
                parts.append(node.value)
            else:
                stack.extend(node.children[::-1])
        return "".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.name} ({len(self.children)} children)>"


class TextNode(Node):
    """A character-data node."""

    __slots__ = ("value", "parent")

    def __init__(self, value: str):
        self.value = value
        self.parent: Optional[Element] = None

    def string_value(self) -> str:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TextNode({self.value!r})"


class Document:
    """A document: a single root element."""

    def __init__(self, root: Element):
        self.root = root

    def all_nodes(self) -> Iterator[Node]:
        yield self.root
        yield from self.root.descendants()

    @property
    def stream_length(self) -> int:
        """Length of the serialized stream — the N of Theorems 12/13."""
        return len(serialize(self.root))


def parse_tokens(tokens: Iterable[Token]) -> Document:
    """Build a document from a token stream (streaming, one pass)."""
    from .tokens import EndTag, StartTag, Text

    stack: List[Element] = []
    root: Optional[Element] = None
    for tok in tokens:
        if isinstance(tok, StartTag):
            element = Element(tok.name)
            if stack:
                stack[-1].append(element)
            elif root is None:
                root = element
            else:
                raise XMLError("multiple root elements")
            stack.append(element)
        elif isinstance(tok, EndTag):
            if not stack:
                raise XMLError(f"unmatched end tag </{tok.name}>")
            open_el = stack.pop()
            if open_el.name != tok.name:
                raise XMLError(
                    f"mismatched tags: <{open_el.name}> closed by </{tok.name}>"
                )
        elif isinstance(tok, Text):
            if not stack:
                raise XMLError("character data outside the root element")
            stack[-1].append(TextNode(tok.value))
        else:  # pragma: no cover - exhaustive
            raise XMLError(f"unknown token {tok!r}")
    if stack:
        raise XMLError(f"unclosed element <{stack[-1].name}>")
    if root is None:
        raise XMLError("empty document")
    return Document(root)


def parse(source: str) -> Document:
    """Parse serialized XML."""
    from .tokens import tokenize

    return parse_tokens(tokenize(source))


def serialize(node: Node) -> str:
    """Serialize a node (canonical, no insignificant whitespace).

    Iterative: the stack holds nodes still to write and the end tags of
    open elements, so any depth that :func:`parse` accepts serializes.
    """
    parts: List[str] = []
    stack: List[Union[Node, str]] = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, TextNode):
            parts.append(item.value)
        elif isinstance(item, Element):
            if not item.children:
                parts.append(f"<{item.name}/>")
            else:
                parts.append(f"<{item.name}>")
                stack.append(f"</{item.name}>")
                stack.extend(item.children[::-1])
        else:
            raise XMLError(f"cannot serialize {item!r}")
    return "".join(parts)
