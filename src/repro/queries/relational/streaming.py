"""Streaming (tape-backed) evaluation of relational algebra — Theorem 11(a).

Every operator is implemented with sequential scans and tape merge sorts
only, so a query with c_Q operator nodes costs O(c_Q · log N) head
reversals — the ST(O(log N), ·, O(1)) upper bound of Theorem 11(a).  The
only non-obvious operator is the Cartesian product, which uses the classic
copy-doubling trick: |R| copies of S are produced with O(log |R|) reversals
by repeatedly appending a tape to itself, and each R-tuple is repeated |S|
times in a single scan (an internal counter of O(log N) bits).

Internal memory: O(1) records plus O(log N) bits of counters, matching the
discussion in DESIGN.md (the paper's O(1) is cells of a constant alphabet;
one record = O(record-length) such cells).

Each one-source scan moves its records whole: a relation is written with
one ``write_all``, and selection, projection, the copies behind union and
the product, the product's row repetition and every dedup are one
:func:`~repro.extmem.record_tape.transduce` call each, whose generator
sees each row once, in order.  The scans that read two tapes in lockstep
(the difference's anti-join and the product's zip) and the row count stay
per-record.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Iterator, Optional, Sequence, Tuple

from ..._util import ceil_log2
from ...errors import QueryEvaluationError
from ...extmem import RecordTape, ResourceBudget, ResourceReport, ResourceTracker
from ...extmem.record_tape import transduce
from ...algorithms.mergesort_tape import sorted_unique
from ...problems.definitions import InstanceLike, as_instance
from .algebra import (
    Difference,
    Expr,
    NaturalJoin,
    Predicate,
    Product,
    Projection,
    RelationRef,
    Rename,
    Selection,
    Union,
    operator_count,
)
from .schema import Database, Relation, Schema


def set_equality_database(instance: InstanceLike) -> Database:
    """The Theorem 11(b) reduction: R1/R2 hold the two halves as unary rows."""
    inst = as_instance(instance)
    return Database(
        {
            "R1": Relation.create(("value",), [(v,) for v in inst.first]),
            "R2": Relation.create(("value",), [(v,) for v in inst.second]),
        }
    )


def streaming_scan_budget(expr: Expr, total_size: int) -> int:
    """An explicit O(c_Q · log N) scan budget the evaluator satisfies."""
    log_n = max(1, ceil_log2(max(2, total_size)))
    return operator_count(expr) * (30 * (log_n + 2)) + 16


# -- transducers: the per-row work of each one-source scan ----------------

_Rows = Iterator[Any]
_Routed = Iterator[Tuple[int, Any]]  # (target index, row), for ``transduce``


def _copy(rows: _Rows) -> _Routed:
    for row in rows:
        yield 0, row


def _select(predicate: Predicate, schema: Schema, rows: _Rows) -> _Routed:
    for row in rows:
        if predicate.holds(schema, row):
            yield 0, row


def _project(indices: Sequence[int], rows: _Rows) -> _Routed:
    for row in rows:
        yield 0, tuple(row[i] for i in indices)


def _repeat(times: int, rows: _Rows) -> _Routed:
    """Each row ``times`` times over (an O(log N)-bit counter)."""
    for row in rows:
        for _ in range(times):
            yield 0, row


class StreamingEvaluator:
    """Evaluates algebra expressions over tapes with full cost accounting."""

    def __init__(
        self, db: Database, *, budget: Optional[ResourceBudget] = None
    ):
        self.db = db
        self.tracker = ResourceTracker(budget)

    # -- tape helpers -------------------------------------------------------

    def _fresh(self, name: str) -> RecordTape:
        return RecordTape(tracker=self.tracker, name=name)

    def _count(self, tape: RecordTape) -> int:
        tape.rewind()
        n = 0
        for _ in tape.scan():
            n += 1
        return n

    # -- operators ----------------------------------------------------------

    def _eval(self, expr: Expr) -> Tuple[RecordTape, Schema]:
        schema = expr.schema(self.db)

        if isinstance(expr, RelationRef):
            tape = self._fresh(f"rel-{expr.name}")
            # the relation arrives as a stream of tuples (sorted layout for
            # determinism; any order works)
            tape.write_all(self.db[expr.name].sorted_rows())
            return tape, schema

        if isinstance(expr, Selection):
            child, child_schema = self._eval(expr.child)
            out = self._fresh("select")
            child.rewind()
            transduce(
                child, (out,), partial(_select, expr.predicate, child_schema)
            )
            return out, schema

        if isinstance(expr, Projection):
            child, child_schema = self._eval(expr.child)
            idxs = [child_schema.index_of(a) for a in expr.attributes]
            mapped = self._fresh("project")
            child.rewind()
            transduce(child, (mapped,), partial(_project, idxs))
            return sorted_unique(mapped, self.tracker), schema

        if isinstance(expr, Union):
            left, _ = self._eval(expr.left)
            right, _ = self._eval(expr.right)
            merged = self._fresh("union")
            left.rewind()
            transduce(left, (merged,), _copy)
            right.rewind()
            transduce(right, (merged,), _copy)
            return sorted_unique(merged, self.tracker), schema

        if isinstance(expr, Difference):
            left, _ = self._eval(expr.left)
            right, _ = self._eval(expr.right)
            left_sorted = sorted_unique(left, self.tracker)
            right_sorted = sorted_unique(right, self.tracker)
            out = self._fresh("difference")
            left_sorted.rewind()
            right_sorted.rewind()
            r = right_sorted.step_read()
            for row in left_sorted.scan():
                while r is not None and r < row:
                    r = right_sorted.step_read()
                if r is None or r != row:
                    out.step_write(row)
            return out, schema

        if isinstance(expr, Product):
            return self._product(expr), schema

        if isinstance(expr, NaturalJoin):
            return self._natural_join(expr), schema

        if isinstance(expr, Rename):
            child, _ = self._eval(expr.child)
            return child, schema  # pure metadata change

        raise QueryEvaluationError(f"unknown expression node {expr!r}")

    def _append(self, source: RecordTape, target: RecordTape) -> None:
        """Append all of ``source`` onto the end of ``target`` (2 scans)."""
        source.rewind()
        target.seek_end()
        transduce(source, (target,), _copy)

    def _product(self, expr: Product) -> RecordTape:
        left, _ = self._eval(expr.left)
        right, _ = self._eval(expr.right)
        n_left = self._count(left)
        n_right = self._count(right)
        out = self._fresh("product")
        if n_left == 0 or n_right == 0:
            return out

        # |left| copies of the right stream, by binary doubling:
        # O(log |left|) appends, each a constant number of reversals.  A
        # tape cannot be appended to itself with one head, so doubling goes
        # through a scratch tape (copy, then append back).
        copies = self._fresh("prod-copies")
        scratch = self._fresh("prod-scratch")
        result = self._fresh("prod-result")
        self._append(right, copies)
        remaining = n_left
        while True:
            if remaining % 2 == 1:
                self._append(copies, result)
            remaining //= 2
            if remaining == 0:
                break
            scratch.rewind()
            scratch.wipe()
            self._append(copies, scratch)
            self._append(scratch, copies)

        # each left tuple repeated |right| times, in one scan with a counter
        expanded = self._fresh("prod-expanded")
        left.rewind()
        transduce(left, (expanded,), partial(_repeat, n_right))

        # zip the two equal-length streams
        expanded.rewind()
        result.rewind()
        for a in expanded.scan():
            b = result.step_read()
            out.step_write(a + b)
        return out

    def _natural_join(self, expr: NaturalJoin) -> RecordTape:
        """⋈ via rename-to-disjoint × , selection, projection — all streaming."""
        ls = expr.left.schema(self.db)
        rs = expr.right.schema(self.db)
        shared = expr.shared_attributes(self.db)
        renamed_right = Rename(
            tuple((a, f"__rhs_{a}") for a in shared), expr.right
        )
        product = Product(expr.left, renamed_right)
        filtered: Expr = product
        from .algebra import AttrEqualsAttr, Selection as Sel

        for a in shared:
            filtered = Sel(AttrEqualsAttr(a, f"__rhs_{a}"), filtered)
        extra = tuple(a for a in rs.attributes if a not in ls.attributes)
        projected = Projection(ls.attributes + extra, filtered)
        tape, _ = self._eval(projected)
        return tape

    # -- public API -----------------------------------------------------------

    def evaluate(self, expr: Expr) -> Relation:
        """Evaluate and materialize the result (sorted, deduplicated)."""
        tape, schema = self._eval(expr)
        final = sorted_unique(tape, self.tracker)
        final.rewind()
        return Relation(schema, frozenset(final.scan()))

    def report(self) -> ResourceReport:
        return self.tracker.report()
