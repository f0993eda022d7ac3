"""Streaming evaluation of the Section 4 XML queries, with cost accounting.

Theorems 12/13 prove the *lower* bound: evaluating the paper's queries on
a document stream needs Ω(log N) head reversals.  The matching upper
bound — implied by Corollary 7 via the reduction — is made explicit here:
the Figure 1 filter and the Theorem 12 query are decided over a **token
stream on tapes** with O(log N) reversals:

1. one forward scan extracts the set1/set2 string values onto two tapes
   (a SAX-style state machine; constant internal state),
2. tape merge sort on both value tapes (O(log N) reversals), each
   followed by one dedup scan,
3. one parallel merge scan answers the set-inclusion question.

Each one-source scan moves its records whole: the token tape is written
with one ``write_all``, and the extraction and the dedups are one
:func:`~repro.extmem.record_tape.transduce` call each, whose generator
sees each token or value once, in order.  The final merge scans read two
tapes in lockstep and stop on data, so they stay per-record.

These functions agree with the DOM-based evaluators
(:mod:`repro.queries.xpath` / :mod:`repro.queries.xquery`) on the paper's
document shape, and their resource reports exhibit the Θ(log N) scan law.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from ...algorithms.mergesort_tape import sorted_unique
from ...errors import XMLError
from ...extmem import RecordTape, ResourceReport, ResourceTracker
from ...extmem.record_tape import transduce
from ...problems.definitions import InstanceLike, as_instance
from .tokens import EndTag, StartTag, Text, Token

# the tags around every value; tokens compare by value, so one of each
# serves every item
_ITEM = StartTag("item")
_STRING = StartTag("string")
_END_STRING = EndTag("string")
_END_ITEM = EndTag("item")
# and the tags around the sets, for the extraction's checks
_INSTANCE = StartTag("instance")
_END_INSTANCE = EndTag("instance")
_SETS = (StartTag("set1"), StartTag("set2"))
_END_SETS = (EndTag("set1"), EndTag("set2"))


def instance_to_token_tape(
    instance: InstanceLike,
    tracker: Optional[ResourceTracker] = None,
) -> Tuple[RecordTape, ResourceTracker]:
    """Produce the paper's document as a token stream, in ONE forward pass.

    This is the "can be produced by a constant number of sequential scans"
    step from Section 4 — each instance value expands to a constant number
    of tokens, so the whole encoding is a single producing scan, written
    with one ``write_all``.
    """
    tracker = tracker or ResourceTracker()
    inst = as_instance(instance)
    tape = RecordTape(tracker=tracker, name="tokens")
    tokens = [StartTag("instance")]
    for name, values in (("set1", inst.first), ("set2", inst.second)):
        tokens.append(StartTag(name))
        for value in values:
            if value:
                tokens += (_ITEM, _STRING, Text(value), _END_STRING, _END_ITEM)
            else:
                tokens += (_ITEM, _STRING, _END_STRING, _END_ITEM)
        tokens.append(EndTag(name))
    tokens.append(EndTag("instance"))
    tape.write_all(tokens)
    return tape, tracker


def _values(tokens: Iterator[Token]) -> Iterator[Tuple[int, str]]:
    """The extraction transducer: each string value, to 0 inside <set1>
    and to 1 inside <set2>.

    A SAX-style automaton over the paper's document and no other:
    ``<instance>`` holding one ``<set1>`` and one ``<set2>`` (either
    first), each holding items ``<item><string>text</string></item>``,
    the text optional and a 0-1 string.  Any other token or text, a set
    missing or repeated, an unclosed element or content after
    ``</instance>`` raises
    :class:`XMLError`, as :func:`~repro.queries.xml.parse_tokens` or
    :func:`~repro.queries.xml.document_to_instance` refuses it.  Its
    state is constant: where it stands in that nesting (four levels at
    most), which sets it has seen, and the pending value (one record).
    """
    _expect(next(tokens, None), _INSTANCE, "the <instance> root")
    seen = [False, False]
    for token in tokens:
        if token == _END_INSTANCE:
            break
        if token not in _SETS:
            raise XMLError(
                f"expected <set1>, <set2> or </instance>, got {_shown(token)}"
            )
        current = _SETS.index(token)
        if seen[current]:
            raise XMLError(f"a second {_shown(token)} in <instance>")
        seen[current] = True
        end = _END_SETS[current]
        # the tokens instance_to_token_tape writes are the module's own,
        # so identity settles the common case before ``==`` is asked
        for item in tokens:
            if item is not _ITEM:
                if item == end:
                    break
                _expect(item, _ITEM, f"<item> or {_shown(end)}")
            tag = next(tokens, None)
            if tag is not _STRING:
                _expect(tag, _STRING, "<string>")
            tag = next(tokens, None)
            # a "1" prefix keeps empty strings representable (None is the
            # tape blank) without disturbing equality or order
            if type(tag) is Text:
                if tag.value.strip("01"):
                    raise XMLError(
                        f"non-binary string content {tag.value!r}"
                    )
                value = "1" + tag.value
                tag = next(tokens, None)
            else:
                value = "1"
            if tag is not _END_STRING:
                _expect(tag, _END_STRING, "</string>")
            tag = next(tokens, None)
            if tag is not _END_ITEM:
                _expect(tag, _END_ITEM, "</item>")
            yield current, value
        else:
            raise XMLError(f"unclosed element {_shown(token)}")
    else:
        raise XMLError("unclosed element <instance>")
    if not all(seen):
        raise XMLError("expected exactly one <set1> and one <set2>")
    extra = next(tokens, None)
    if extra is not None:
        raise XMLError(f"content after </instance>: {_shown(extra)}")


def _expect(token: Optional[Token], expected: Token, what: str) -> None:
    if token != expected:
        raise XMLError(f"expected {what}, got {_shown(token)}")


def _shown(token: Optional[Token]) -> str:
    if token is None:
        return "the end of the stream"
    if isinstance(token, Text):
        return f"text {token.value!r}"
    return f"<{'/' if isinstance(token, EndTag) else ''}{token.name}>"


def _extract_sets(
    token_tape: RecordTape, tracker: ResourceTracker
) -> Tuple[RecordTape, RecordTape]:
    """One forward scan: route string values into set1/set2 tapes."""
    set1 = RecordTape(tracker=tracker, name="set1-values")
    set2 = RecordTape(tracker=tracker, name="set2-values")
    token_tape.rewind()
    transduce(token_tape, (set1, set2), _values)
    return set1, set2


def xml_streaming_scan_budget(total_size: int) -> int:
    """An explicit O(log N) scan budget both streaming queries satisfy.

    One extraction scan, two tape merge sorts with dedup (the dominant
    term), and one final merge scan; the constant mirrors the one the
    scan-law test has pinned since the seed (``30·(⌈log2 N⌉ + 2)``) plus a
    small additive slack for the fixed setup scans.
    """
    from ..._util import ceil_log2

    return 30 * (max(1, ceil_log2(max(2, total_size))) + 2) + 16


@dataclass(frozen=True)
class StreamingAnswer:
    """A decision plus the resources the token-stream evaluation used."""

    answer: bool
    report: ResourceReport


def figure1_filter_streaming(
    token_tape: RecordTape, tracker: ResourceTracker
) -> StreamingAnswer:
    """Decide Figure 1's filter (∃ set1 item with string ∉ set2) on tapes.

    X ⊄ Y ⇔ X − Y ≠ ∅, computed as: extract, sort+dedup both sides, one
    anti-join scan.  O(log N) reversals total.
    """
    set1, set2 = _extract_sets(token_tape, tracker)
    xs = sorted_unique(set1, tracker)
    ys = sorted_unique(set2, tracker)
    xs.rewind()
    ys.rewind()
    y = ys.step_read()
    matched = False
    for x in xs.scan():
        while y is not None and y < x:
            y = ys.step_read()
        if y is None or y != x:
            matched = True  # an element of X missing from Y
            break
    return StreamingAnswer(answer=matched, report=tracker.report())


def theorem12_query_streaming(
    token_tape: RecordTape, tracker: ResourceTracker
) -> StreamingAnswer:
    """Decide the Theorem 12 XQuery (X = Y as sets) on the token stream.

    Equality of the deduplicated sorted value streams; answer True mirrors
    Q returning <result><true/></result>.
    """
    set1, set2 = _extract_sets(token_tape, tracker)
    xs = sorted_unique(set1, tracker)
    ys = sorted_unique(set2, tracker)
    xs.rewind()
    ys.rewind()
    equal = True
    while True:
        x, y = xs.step_read(), ys.step_read()
        if x is None and y is None:
            break
        if x != y:
            equal = False
            break
    return StreamingAnswer(answer=equal, report=tracker.report())
