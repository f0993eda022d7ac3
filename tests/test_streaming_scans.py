"""The query layers' one-source scans against their per-record definition.

Each one-source scan of the streaming query layers is one
:func:`~repro.extmem.record_tape.transduce` call, and the XML token tape
is written with one ``write_all``.  Here ``instance_to_token_tape``, both
XML queries and ``StreamingEvaluator.evaluate`` run twice: as they are,
and with every ``transduce`` replaced by its definition (one
``step_write`` per output) and the token tape written one ``step_write``
per token, by the writer kept below.  The tapes, answers and relations
they return, ``report()`` and every event must be the same.
"""

import sys
from contextlib import ExitStack
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from repro.extmem import RecordTape, ResourceTracker
from repro.extmem import record_tape
from repro.observability.sinks import RingBufferSink
from repro.problems import Instance
from repro.problems.definitions import as_instance
from repro.queries.relational import (
    AttrEquals,
    Database,
    NaturalJoin,
    Product,
    Projection,
    Relation,
    RelationRef,
    Rename,
    Selection,
    StreamingEvaluator,
    Union,
    set_equality_database,
    symmetric_difference_query,
)
from repro.queries.xml.streaming import (
    figure1_filter_streaming,
    instance_to_token_tape,
    theorem12_query_streaming,
)
from repro.queries.xml.tokens import EndTag, StartTag, Text
from tests.settings_profiles import STANDARD_SETTINGS
from tests.test_relational import sample_db


def per_record_transduce(source, targets, transducer):
    """``transduce``'s definition."""
    for i, record in transducer(source.scan()):
        targets[i].step_write(record)


def per_record_token_tape(instance, tracker=None):
    """The token tape written one ``step_write`` per token."""
    tracker = tracker or ResourceTracker()
    inst = as_instance(instance)
    tape = RecordTape(tracker=tracker, name="tokens")
    tape.step_write(StartTag("instance"))
    for name, values in (("set1", inst.first), ("set2", inst.second)):
        tape.step_write(StartTag(name))
        for value in values:
            tape.step_write(StartTag("item"))
            tape.step_write(StartTag("string"))
            if value:
                tape.step_write(Text(value))
            tape.step_write(EndTag("string"))
            tape.step_write(EndTag("item"))
        tape.step_write(EndTag(name))
    tape.step_write(EndTag("instance"))
    return tape, tracker


def per_record():
    """Every module that calls ``transduce`` calls its definition."""
    callers = [
        module
        for name, module in sorted(sys.modules.items())
        if name.startswith("repro.")
        and module is not record_tape
        and getattr(module, "transduce", None) is record_tape.transduce
    ]
    assert {module.__name__ for module in callers} >= {
        "repro.algorithms.mergesort_tape",
        "repro.queries.relational.streaming",
        "repro.queries.xml.streaming",
    }
    stack = ExitStack()
    for module in callers:
        stack.enter_context(
            mock.patch.object(module, "transduce", per_record_transduce)
        )
    return stack


def observed(tracker, run):
    """``run()``'s result, then ``tracker``'s report and every event."""
    sink = RingBufferSink()
    tracker.attach_sink(sink)
    result = run()
    assert sink.dropped == 0
    return result, tracker.report(), sink.events()


def xml_run(instance, query, writer):
    tracker = ResourceTracker()

    def run():
        tape, _ = writer(instance, tracker)
        written = (tape.snapshot(), tape.head, tape.direction)
        answer = query(tape, tracker) if query else None
        return written, answer, (tape.head, tape.direction)

    return observed(tracker, run)


def relational_run(db, expr):
    evaluator = StreamingEvaluator(db)
    relation, report, events = observed(
        evaluator.tracker, lambda: evaluator.evaluate(expr)
    )
    return (relation.schema, relation.tuples), report, events


VALUES = st.lists(st.text(alphabet="01", max_size=3), max_size=6)


@st.composite
def instances(draw):
    """Yes- and no-instances with m = 0, empty values and duplicates."""
    first = draw(VALUES)
    if draw(st.booleans()):
        second = draw(st.permutations(first))
    else:
        second = draw(
            st.lists(
                st.text(alphabet="01", max_size=3),
                min_size=len(first),
                max_size=len(first),
            )
        )
    return Instance(tuple(first), tuple(second))


EDGES = [
    Instance((), ()),
    Instance(("",), ("",)),
    Instance(("", "1", "1"), ("1", "", "0")),
]


@pytest.mark.parametrize(
    "query", [None, figure1_filter_streaming, theorem12_query_streaming]
)
@given(instance=instances())
@example(instance=EDGES[0])
@example(instance=EDGES[1])
@example(instance=EDGES[2])
@STANDARD_SETTINGS
def test_xml_layer_matches_per_record_scans(query, instance):
    whole = xml_run(instance, query, instance_to_token_tape)
    with per_record():
        reference = xml_run(instance, query, per_record_token_tape)
    assert whole == reference


R1, R2 = RelationRef("R1"), RelationRef("R2")

#: Q′ and the Selection, Projection, Product and NaturalJoin shapes over
#: an instance's R1/R2 (R2's attribute renamed for the product).
INSTANCE_QUERIES = {
    "q-prime": symmetric_difference_query(),
    "selection": Selection(AttrEquals("value", "1"), R1),
    "projection": Projection(("value",), Union(R1, R2)),
    "product": Product(R1, Rename((("value", "other"),), R2)),
    "natural-join": NaturalJoin(R1, R2),
}


@pytest.mark.parametrize("name", sorted(INSTANCE_QUERIES))
@given(instance=instances())
@example(instance=EDGES[0])
@example(instance=EDGES[1])
@example(instance=EDGES[2])
@STANDARD_SETTINGS
def test_relational_layer_matches_per_record_scans(name, instance):
    db = set_equality_database(instance)
    whole = relational_run(db, INSTANCE_QUERIES[name])
    with per_record():
        reference = relational_run(db, INSTANCE_QUERIES[name])
    assert whole == reference


def product_db():
    return Database(
        {
            "A": Relation.create(("a",), [(str(i),) for i in range(5)]),
            "B": Relation.create(("b",), [(str(i * 10),) for i in range(7)]),
        }
    )


@pytest.mark.parametrize(
    "db, expr",
    [
        (sample_db, Selection(AttrEquals("b", "x"), RelationRef("R"))),
        (sample_db, Projection(("b",), RelationRef("R"))),
        (sample_db, NaturalJoin(RelationRef("R"), RelationRef("S"))),
        (product_db, Product(RelationRef("A"), RelationRef("B"))),
    ],
    ids=["selection", "projection", "natural-join", "product"],
)
def test_sample_queries_match_per_record_scans(db, expr):
    whole = relational_run(db(), expr)
    with per_record():
        reference = relational_run(db(), expr)
    assert whole == reference
