"""Encoding SET-EQUALITY instances as XML documents (Section 4).

The paper represents an instance x1#…#xm#y1#…#ym# as::

    <instance>
      <set1> <item><string> x1 </string></item> … </set1>
      <set2> <item><string> y1 </string></item> … </set2>
    </instance>

"For technical reasons, we enclose every string by a string-element and an
item-element" — both wrappers are kept here so the Figure 1 XPath query
works verbatim.  The encoding is computable with a constant number of
sequential scans (it is a per-token transformation of the stream).
"""

from __future__ import annotations

from typing import List, Tuple

from ...errors import XMLError
from ...problems.definitions import InstanceLike, as_instance
from ...problems.encoding import Instance
from .document import Document, Element, TextNode


def _set_element(name: str, values) -> Element:
    container = Element(name)
    for value in values:
        item = Element("item")
        string = Element("string")
        # empty strings stay representable: an empty <string/> element
        if value:
            string.append(TextNode(value))
        item.append(string)
        container.append(item)
    return container


def instance_to_document(instance: InstanceLike) -> Document:
    """Encode an instance as the paper's ``<instance>`` document."""
    inst = as_instance(instance)
    root = Element("instance")
    root.append(_set_element("set1", inst.first))
    root.append(_set_element("set2", inst.second))
    return Document(root)


def _children(parent: Element, *names: str) -> List[Element]:
    """``parent``'s children, each an element named in ``names``: the
    streaming extraction refuses text or any other element there too."""
    for child in parent.children:
        if not isinstance(child, Element):
            raise XMLError(f"unexpected text in <{parent.name}>")
        if child.name not in names:
            raise XMLError(f"unexpected <{child.name}> in <{parent.name}>")
    return parent.children


def _decode_set(container: Element) -> Tuple[str, ...]:
    values = []
    for item in _children(container, "item"):
        strings = _children(item, "string")
        if len(strings) != 1:
            raise XMLError("each <item> must contain exactly one <string>")
        if any(isinstance(child, Element) for child in strings[0].children):
            raise XMLError("a <string> holds text only")
        value = strings[0].string_value()
        if any(ch not in "01" for ch in value):
            raise XMLError(f"non-binary string content {value!r}")
        values.append(value)
    return tuple(values)


def document_to_instance(doc: Document) -> Instance:
    """Decode the paper's document shape back into an instance.

    The shape the streaming extraction accepts and no other:
    ``<instance>`` holding one ``<set1>`` and one ``<set2>`` (either
    first), each holding only ``<item>`` elements, each holding one
    ``<string>`` of text only.  The text must also be a 0-1 string.
    """
    root = doc.root
    if root.name != "instance":
        raise XMLError(f"expected <instance> root, got <{root.name}>")
    _children(root, "set1", "set2")
    set1 = root.child_elements("set1")
    set2 = root.child_elements("set2")
    if len(set1) != 1 or len(set2) != 1:
        raise XMLError("expected exactly one <set1> and one <set2>")
    first = _decode_set(set1[0])
    second = _decode_set(set2[0])
    if len(first) != len(second):
        raise XMLError("set1 and set2 have different cardinalities")
    return Instance(first, second)
