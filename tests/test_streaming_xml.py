"""Tests for streaming (token-tape) evaluation of the XML queries."""

import random
import re

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro._util import ceil_log2
from repro.errors import XMLError
from repro.extmem import RecordTape, ResourceBudget, ResourceTracker
from repro.observability.sinks import TallySink
from repro.problems import (
    decode_instance,
    encode_instance,
    near_miss_instance,
    random_equal_instance,
    random_unequal_instance,
)
from repro.queries.xml import (
    document_to_instance,
    instance_to_document,
    parse_tokens,
    tokenize,
)
from repro.queries.xml.streaming import (
    figure1_filter_streaming,
    instance_to_token_tape,
    theorem12_query_streaming,
    xml_streaming_scan_budget,
)
from repro.queries.xpath import figure1_query, matches
from repro.queries.xquery import evaluate_xquery, theorem12_query
from repro.queries.xml.document import serialize
from tests.settings_profiles import STANDARD_SETTINGS

#: The three kinds of instance every contract must hold on.
KINDS = {
    "yes": random_equal_instance,
    "no": random_unequal_instance,
    "near-miss": near_miss_instance,
}


class TestTokenTapeEncoding:
    def test_single_scan(self):
        rng = random.Random(0)
        inst = random_equal_instance(8, 6, rng)
        tape, tracker = instance_to_token_tape(inst)
        assert tracker.reversals == 0  # one producing scan

    def test_tokens_parse_to_the_dom_document(self):
        rng = random.Random(1)
        inst = random_equal_instance(5, 5, rng)
        tape, _ = instance_to_token_tape(inst)
        doc_from_stream = parse_tokens(tape.snapshot())
        doc_from_dom = instance_to_document(inst)
        assert serialize(doc_from_stream.root) == serialize(doc_from_dom.root)

    def test_empty_instance(self):
        tape, _ = instance_to_token_tape("")
        doc = parse_tokens(tape.snapshot())
        assert doc.root.name == "instance"


class TestStreamingFigure1:
    def _both(self, inst):
        tape, tracker = instance_to_token_tape(inst)
        streaming = figure1_filter_streaming(tape, tracker)
        dom = matches(figure1_query(), instance_to_document(inst))
        return streaming, dom

    def test_agreement_on_random_instances(self):
        rng = random.Random(2)
        for _ in range(15):
            inst = (
                random_equal_instance(6, 5, rng)
                if rng.random() < 0.5
                else random_unequal_instance(6, 5, rng)
            )
            streaming, dom = self._both(inst)
            assert streaming.answer == dom

    def test_duplicates_handled_as_sets(self):
        inst = decode_instance(encode_instance(["0", "0", "1"], ["1", "1", "0"]))
        streaming, dom = self._both(inst)
        assert streaming.answer == dom is False

    def test_empty_strings(self):
        inst = decode_instance("##")
        streaming, dom = self._both(inst)
        assert streaming.answer == dom is False
        inst2 = decode_instance(encode_instance(["", "1"], ["1", "1"]))
        streaming2, dom2 = self._both(inst2)
        assert streaming2.answer == dom2 is True

    @given(
        st.lists(st.text(alphabet="01", max_size=4), min_size=1, max_size=6),
        st.lists(st.text(alphabet="01", max_size=4), min_size=1, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_agreement(self, xs, ys):
        k = min(len(xs), len(ys))
        inst = decode_instance(encode_instance(xs[:k], ys[:k]))
        streaming, dom = self._both(inst)
        assert streaming.answer == dom
        assert streaming.answer == bool(set(inst.first) - set(inst.second))

    def test_scan_law_logarithmic(self):
        rng = random.Random(3)
        scans = {}
        for m in (16, 256):
            inst = random_equal_instance(m, 8, rng)
            tape, tracker = instance_to_token_tape(inst)
            result = figure1_filter_streaming(tape, tracker)
            scans[m] = result.report.scans
        assert scans[256] <= 2.5 * scans[16]
        assert scans[256] <= 30 * (ceil_log2(256 * 9) + 2)


class TestStreamingTheorem12:
    def test_agreement_with_dom_evaluator(self):
        rng = random.Random(4)
        for _ in range(15):
            inst = (
                random_equal_instance(5, 5, rng)
                if rng.random() < 0.5
                else random_unequal_instance(5, 5, rng)
            )
            tape, tracker = instance_to_token_tape(inst)
            streaming = theorem12_query_streaming(tape, tracker)
            dom_out = serialize(
                evaluate_xquery(theorem12_query(), instance_to_document(inst))[0]
            )
            assert streaming.answer == (dom_out == "<result><true/></result>")

    @given(
        st.lists(st.text(alphabet="01", max_size=3), min_size=1, max_size=5),
        st.lists(st.text(alphabet="01", max_size=3), min_size=1, max_size=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_decides_set_equality(self, xs, ys):
        k = min(len(xs), len(ys))
        inst = decode_instance(encode_instance(xs[:k], ys[:k]))
        tape, tracker = instance_to_token_tape(inst)
        streaming = theorem12_query_streaming(tape, tracker)
        assert streaming.answer == (set(inst.first) == set(inst.second))


class TestMalformedTokenStreams:
    @pytest.mark.parametrize(
        "query", [figure1_filter_streaming, theorem12_query_streaming]
    )
    def test_string_closed_after_its_set(self, query):
        doc = (
            "<instance><set1><item><string>1</set1></string></item>"
            "<set2></set2></instance>"
        )
        with pytest.raises(XMLError):
            parse_tokens(list(tokenize(doc)))
        tracker = ResourceTracker()
        tape = RecordTape(tokenize(doc), tracker=tracker, name="tokens")
        with pytest.raises(XMLError, match="expected </string>, got </set1>"):
            query(tape, tracker)

    @pytest.mark.parametrize(
        "query", [figure1_filter_streaming, theorem12_query_streaming]
    )
    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                "<instance><set1><item><string>1</string></item></set2>"
                "<set2></set1></instance>",
                "expected <item> or </set1>, got </set2>",
            ),
            (
                "<instance><set1><item><string>1</string></item></set1>"
                "<set2><item><string>1</string></item>",
                "unclosed element <set2>",
            ),
            (
                "<instance><set1></set1><set1></set1><set2></set2></instance>",
                "a second <set1>",
            ),
            ("<doc><set1></set1><set2></set2></doc>", "the <instance> root"),
            ("<instance><set1></set1></instance>", "exactly one <set1>"),
            (
                "<instance><set1></set1><set2></set2></instance><x/>",
                "content after </instance>",
            ),
        ]
        + [
            (
                doc.format(text),
                f"non-binary string content {text!r}",
            )
            for text in ("ab", "2", "0 1")
            for doc in (
                "<instance><set1><item><string>{}</string></item></set1>"
                "<set2><item><string>1</string></item></set2></instance>",
                "<instance><set1><item><string>1</string></item></set1>"
                "<set2><item><string>{}</string></item></set2></instance>",
            )
        ],
        ids=[
            "mismatched", "unclosed", "second_set1", "root", "missing_set2",
            "after_root", "ab_in_set1", "ab_in_set2", "2_in_set1",
            "2_in_set2", "space_in_set1", "space_in_set2",
        ],
    )
    def test_refused_as_the_dom_path_refuses(self, query, doc, message):
        """Streams the DOM path rejects, in ``parse_tokens`` or in
        ``document_to_instance``; the first four were answered before
        the extraction checked its nesting, the last six (text that is
        not a 0-1 string) before it checked its values."""
        with pytest.raises(XMLError):
            document_to_instance(parse_tokens(list(tokenize(doc))))
        tracker = ResourceTracker()
        tape = RecordTape(tokenize(doc), tracker=tracker, name="tokens")
        with pytest.raises(XMLError, match=message):
            query(tape, tracker)

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                "<instance><set1><item><string><b/></string></item></set1>"
                "<set2><item><string/></item></set2></instance>",
                "expected </string>, got <b>",
            ),
            (
                "<instance><set1>01<item><string>1</string></item></set1>"
                "<set2><item><string>1</string></item></set2></instance>",
                "expected <item> or </set1>, got text '01'",
            ),
            (
                "<instance><set1><item><string>1</string></item><b/></set1>"
                "<set2><item><string>1</string></item></set2></instance>",
                "expected <item> or </set1>, got <b>",
            ),
            (
                "<instance><set1><item>01<string>1</string></item></set1>"
                "<set2><item><string>1</string></item></set2></instance>",
                "expected <string>, got text '01'",
            ),
            (
                "<instance><set1><item><string>1</string><b/></item></set1>"
                "<set2><item><string>1</string></item></set2></instance>",
                "expected </item>, got <b>",
            ),
            (
                "<instance><set1></set1>01<set2></set2></instance>",
                "expected <set1>, <set2> or </instance>, got text '01'",
            ),
            (
                "<instance><b/><set1></set1><set2></set2></instance>",
                "expected <set1>, <set2> or </instance>, got <b>",
            ),
        ],
        ids=[
            "element_in_string", "text_in_set", "element_in_set",
            "text_in_item", "element_in_item", "text_in_instance",
            "element_in_instance",
        ],
    )
    @pytest.mark.parametrize(
        "query", [figure1_filter_streaming, theorem12_query_streaming]
    )
    def test_deeper_nesting_refused(self, query, doc, message):
        """Content beyond the paper's four levels, or beside them: both
        paths refuse it (the DOM path once decoded ``<string><b/></string>``
        as the empty string and skipped the rest)."""
        with pytest.raises(XMLError):
            document_to_instance(parse_tokens(list(tokenize(doc))))
        tape = RecordTape(tokenize(doc), name="tokens")
        with pytest.raises(XMLError, match=re.escape(message)):
            query(tape, tape.tracker)

    def test_sets_in_either_order(self):
        doc = (
            "<instance><set2><item><string>0</string></item></set2>"
            "<set1><item><string/></item></set1></instance>"
        )
        tape = RecordTape(tokenize(doc), name="tokens")
        assert figure1_filter_streaming(tape, tape.tracker).answer is True


class TestClaimedBudgetOnEveryKind:
    """Both queries within the audit's claimed envelope, enforced, and
    deciding right, on yes-, no- and near-miss instances."""

    @given(
        m=st.integers(0, 33),
        n=st.integers(0, 6),
        kind=st.sampled_from(sorted(KINDS)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(m=1, n=0, kind="yes", seed=0)
    @example(m=4, n=12, kind="yes", seed=0)  # the audit's smallest cell
    @example(m=4, n=12, kind="no", seed=0)
    @example(m=4, n=12, kind="near-miss", seed=0)
    @STANDARD_SETTINGS
    def test_within_budget_and_decides(self, m, n, kind, seed):
        assume(kind == "yes" or m * n >= 1)
        inst = KINDS[kind](m, n, random.Random(seed))
        first, second = set(inst.first), set(inst.second)
        for query, truth in (
            (figure1_filter_streaming, bool(first - second)),
            (theorem12_query_streaming, first == second),
        ):
            tracker = ResourceTracker(
                ResourceBudget(
                    max_scans=xml_streaming_scan_budget(inst.size),
                    max_internal_bits=0,
                    max_tapes=13,
                )
            )
            tally = TallySink()
            tracker.attach_sink(tally)
            tape, _ = instance_to_token_tape(inst, tracker)
            assert query(tape, tracker).answer == truth
            assert tally.denied == 0
