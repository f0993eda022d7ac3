"""XQuery fragment for Theorem 12.

Supported: element constructors, ``if/then/else``, ``and``/``or``,
``every/some $x in path satisfies expr``, general comparison ``=`` between
variables/paths, the empty sequence ``()``, and path expressions (reusing
the XPath engine).  That is exactly the shape of the paper's query Q plus
the natural closure.
"""

from ..._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "ast": (
            "XQExpr",
            "ElementConstructor",
            "IfExpr",
            "AndExpr",
            "OrExpr",
            "Quantified",
            "ForExpr",
            "GeneralComparison",
            "PathExpr",
            "VarRef",
            "EmptySequence",
            "TextLiteral",
        ),
        "parser": ("parse_xquery",),
        "evaluate": ("evaluate_xquery", "theorem12_query", "THEOREM12_TEXT"),
    },
)
