"""Relational algebra: schemas, relations, the operator AST, evaluators."""

from ..._exports import lazy_exports

# ``evaluate`` is both a function and the submodule defining it, and the
# first import of the submodule binds the package attribute to the
# module.  Importing the function here, after that first import, keeps
# the name bound to the function whatever imports the submodule later.
from .evaluate import evaluate

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
        "evaluate": ("evaluate",),
        "parser": ("parse_algebra",),
        "streaming": ("StreamingEvaluator", "set_equality_database"),
    },
)
