"""Relational algebra: schemas, relations, the operator AST, evaluators."""

from ..._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "schema": ("Schema", "Relation", "Database"),
        "algebra": (
            "Expr",
            "RelationRef",
            "Selection",
            "Projection",
            "Union",
            "Difference",
            "Product",
            "NaturalJoin",
            "Rename",
            "Predicate",
            "AttrEquals",
            "AttrEqualsAttr",
            "symmetric_difference_query",
        ),
        "reference": ("evaluate",),
        "parser": ("parse_algebra",),
        "streaming": ("StreamingEvaluator", "set_equality_database"),
    },
)
