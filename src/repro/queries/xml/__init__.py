"""XML substrate: tokens, documents, parsing, serialization, encoding.

The fragment implemented is exactly what Section 4 needs: elements and
text (no attributes, namespaces, comments or processing instructions).
Documents stream as token sequences — the model's "XML document stream".
"""

from ..._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "tokens": ("StartTag", "EndTag", "Text", "Token", "tokenize"),
        "document": (
            "Node",
            "Element",
            "TextNode",
            "Document",
            "parse",
            "parse_tokens",
            "serialize",
        ),
        "encode": ("instance_to_document", "document_to_instance"),
    },
)
