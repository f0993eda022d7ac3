"""Tests for relational algebra: AST, reference and streaming evaluators."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import QueryEvaluationError
from repro.problems import (
    SET_EQUALITY,
    random_equal_instance,
    random_unequal_instance,
)
from repro.queries.relational import (
    AttrEquals,
    AttrEqualsAttr,
    Database,
    Difference,
    NaturalJoin,
    Product,
    Projection,
    Relation,
    RelationRef,
    Rename,
    Schema,
    Selection,
    StreamingEvaluator,
    Union,
    evaluate,
    set_equality_database,
    symmetric_difference_query,
)
from repro.queries.relational.algebra import operator_count
from repro.queries.relational.streaming import streaming_scan_budget


def sample_db():
    return Database(
        {
            "R": Relation.create(("a", "b"), [("1", "x"), ("2", "y"), ("3", "x")]),
            "S": Relation.create(("b", "c"), [("x", "u"), ("y", "v")]),
            "T": Relation.create(("a", "b"), [("1", "x"), ("9", "z")]),
        }
    )


class TestSchema:
    def test_duplicate_attributes_rejected(self):
        with pytest.raises(QueryEvaluationError):
            Schema(("a", "a"))

    def test_index_of_unknown(self):
        with pytest.raises(QueryEvaluationError):
            Schema(("a",)).index_of("z")

    def test_relation_arity_checked(self):
        with pytest.raises(QueryEvaluationError):
            Relation.create(("a",), [("1", "2")])

    def test_database_lookup(self):
        db = sample_db()
        assert "R" in db
        with pytest.raises(QueryEvaluationError):
            db["missing"]

    def test_total_size(self):
        db = sample_db()
        assert db.total_size() == 6 + 4 + 4


class TestReferenceEvaluator:
    def test_selection(self):
        db = sample_db()
        out = evaluate(Selection(AttrEquals("b", "x"), RelationRef("R")), db)
        assert out.tuples == {("1", "x"), ("3", "x")}

    def test_selection_attr_attr(self):
        db = Database(
            {"U": Relation.create(("a", "b"), [("1", "1"), ("1", "2")])}
        )
        out = evaluate(Selection(AttrEqualsAttr("a", "b"), RelationRef("U")), db)
        assert out.tuples == {("1", "1")}

    def test_projection_collapses_duplicates(self):
        db = sample_db()
        out = evaluate(Projection(("b",), RelationRef("R")), db)
        assert out.tuples == {("x",), ("y",)}

    def test_union_difference(self):
        db = sample_db()
        union = evaluate(Union(RelationRef("R"), RelationRef("T")), db)
        assert union.cardinality == 4
        diff = evaluate(Difference(RelationRef("R"), RelationRef("T")), db)
        assert diff.tuples == {("2", "y"), ("3", "x")}

    def test_product(self):
        db = Database(
            {
                "A": Relation.create(("a",), [("1",), ("2",)]),
                "B": Relation.create(("b",), [("x",)]),
            }
        )
        out = evaluate(Product(RelationRef("A"), RelationRef("B")), db)
        assert out.tuples == {("1", "x"), ("2", "x")}

    def test_product_rejects_overlap(self):
        db = sample_db()
        with pytest.raises(QueryEvaluationError):
            evaluate(Product(RelationRef("R"), RelationRef("T")), db)

    def test_natural_join(self):
        db = sample_db()
        out = evaluate(NaturalJoin(RelationRef("R"), RelationRef("S")), db)
        assert out.schema.attributes == ("a", "b", "c")
        assert out.tuples == {
            ("1", "x", "u"),
            ("3", "x", "u"),
            ("2", "y", "v"),
        }

    def test_rename(self):
        db = sample_db()
        out = evaluate(Rename((("a", "key"),), RelationRef("R")), db)
        assert out.schema.attributes == ("key", "b")

    def test_union_arity_mismatch(self):
        db = Database(
            {
                "A": Relation.create(("a",), [("1",)]),
                "B": Relation.create(("b", "c"), [("x", "y")]),
            }
        )
        with pytest.raises(QueryEvaluationError):
            evaluate(Union(RelationRef("A"), RelationRef("B")), db)

    def test_operator_count(self):
        assert operator_count(symmetric_difference_query()) == 7


class TestSymmetricDifference:
    def test_empty_iff_equal(self):
        rng = random.Random(0)
        query = symmetric_difference_query()
        for _ in range(10):
            yes = random_equal_instance(6, 5, rng)
            no = random_unequal_instance(6, 5, rng)
            assert evaluate(query, set_equality_database(yes)).is_empty
            assert not evaluate(query, set_equality_database(no)).is_empty

    def test_decides_set_equality_not_multiset(self):
        from repro.problems import encode_instance

        inst = encode_instance(["0", "0", "1"], ["1", "1", "0"])
        assert SET_EQUALITY(inst)
        assert evaluate(
            symmetric_difference_query(), set_equality_database(inst)
        ).is_empty


class TestStreamingEvaluator:
    def _check(self, expr, db):
        reference = evaluate(expr, db)
        streaming = StreamingEvaluator(db)
        out = streaming.evaluate(expr)
        assert out.tuples == reference.tuples
        assert out.schema.attributes == reference.schema.attributes
        return streaming.report()

    def test_all_operators_match_reference(self):
        db = sample_db()
        exprs = [
            RelationRef("R"),
            Selection(AttrEquals("b", "x"), RelationRef("R")),
            Projection(("b",), RelationRef("R")),
            Union(RelationRef("R"), RelationRef("T")),
            Difference(RelationRef("R"), RelationRef("T")),
            Difference(RelationRef("T"), RelationRef("R")),
            NaturalJoin(RelationRef("R"), RelationRef("S")),
            Rename((("a", "key"),), RelationRef("R")),
        ]
        for expr in exprs:
            self._check(expr, db)

    def test_product_streaming(self):
        db = Database(
            {
                "A": Relation.create(("a",), [(str(i),) for i in range(5)]),
                "B": Relation.create(("b",), [(str(i * 10),) for i in range(7)]),
            }
        )
        report = self._check(Product(RelationRef("A"), RelationRef("B")), db)
        assert report.scans <= streaming_scan_budget(
            Product(RelationRef("A"), RelationRef("B")), db.total_size()
        )

    def test_empty_product(self):
        db = Database(
            {
                "A": Relation.create(("a",), []),
                "B": Relation.create(("b",), [("x",)]),
            }
        )
        self._check(Product(RelationRef("A"), RelationRef("B")), db)

    def test_symmetric_difference_streaming(self):
        rng = random.Random(1)
        query = symmetric_difference_query()
        for yes in (True, False):
            inst = (
                random_equal_instance(8, 6, rng)
                if yes
                else random_unequal_instance(8, 6, rng)
            )
            db = set_equality_database(inst)
            ev = StreamingEvaluator(db)
            out = ev.evaluate(query)
            assert out.is_empty == SET_EQUALITY(inst)

    def test_scan_budget_logarithmic(self):
        """Theorem 11(a): reversals stay within O(c_Q · log N)."""
        rng = random.Random(2)
        query = symmetric_difference_query()
        for m in (8, 64, 256):
            inst = random_equal_instance(m, 8, rng)
            db = set_equality_database(inst)
            ev = StreamingEvaluator(db)
            ev.evaluate(query)
            assert ev.report().scans <= streaming_scan_budget(
                query, db.total_size()
            )

    def test_scan_growth_is_sublinear(self):
        rng = random.Random(3)
        query = symmetric_difference_query()
        scans = {}
        for m in (16, 256):
            inst = random_equal_instance(m, 8, rng)
            ev = StreamingEvaluator(set_equality_database(inst))
            ev.evaluate(query)
            scans[m] = ev.report().scans
        # 16× data → reversals grow at most ~2× (log-like), nowhere near 16×
        assert scans[256] <= 2.5 * scans[16]

    @given(
        st.lists(st.text(alphabet="01", min_size=1, max_size=4), max_size=8),
        st.lists(st.text(alphabet="01", min_size=1, max_size=4), max_size=8),
    )
    @settings(max_examples=30, deadline=None)
    def test_streaming_difference_property(self, first, second):
        db = Database(
            {
                "A": Relation.create(("v",), [(x,) for x in first]),
                "B": Relation.create(("v",), [(x,) for x in second]),
            }
        )
        expr = Difference(RelationRef("A"), RelationRef("B"))
        assert StreamingEvaluator(db).evaluate(expr).tuples == evaluate(
            expr, db
        ).tuples
