"""XPath fragment: axes, name tests, predicates with ``not`` and ``=``.

Implements exactly the constructs the Figure 1 query needs (plus the
obvious neighbours), with XPath 1.0 semantics: node-sets in document
order, existential general comparison, boolean(node-set) = nonempty.
"""

from ..._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "ast": (
            "Axis",
            "LocationPath",
            "Step",
            "Comparison",
            "Not",
            "PathPredicate",
        ),
        "parser": ("parse_xpath",),
        "evaluate": ("evaluate_xpath", "matches", "figure1_query", "FIGURE1_TEXT"),
    },
)
