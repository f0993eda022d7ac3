"""The Theorem 13 protocol: SET-EQUALITY from a co-randomized XPath filter.

The proof of Theorem 13 assumes, for contradiction, a machine T that
filters a document with the Figure 1 query in the co-R sense:

* if some node matches (X ⊄ Y), T accepts with probability 1;
* if no node matches (X ⊆ Y), T rejects with probability ≥ 1/2.

It then builds T̃ — run T on the document and on the *swapped* document,
accept iff both runs reject — and amplifies.  T̃ accepts X = Y with
probability ≥ 1/4 and rejects X ≠ Y with probability 1, i.e. it solves
SET-EQUALITY in the RST sense after amplification, contradicting
Theorem 6.

This module makes the whole construction executable so its probability
algebra can be measured:

* :class:`CoRFilter` — a filter with exactly the assumed one-sided
  contract (built from the exact Figure 1 evaluator plus a calibrated
  false-accept coin on non-matching documents);
* :func:`set_equality_protocol` — T̃ plus k-fold amplification.

A reproduction note (verified in ``bench_e17_protocol.py``): the paper
says *two* independent runs of T̃ lift the acceptance probability to 1/2,
but with the worst-case constants this gives 1 − (3/4)² = 0.4375; three
runs (1 − (3/4)³ ≈ 0.578) are needed for ≥ 1/2.  Nothing downstream
depends on the constant — any fixed amplification suffices for the
contradiction — but the measured protocol shows the 0.4375 plainly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

from ...errors import ReproError
from ...problems.definitions import InstanceLike, as_instance
from ..xml.document import Document
from ..xml.encode import instance_to_document
from .evaluate import figure1_query, matches


class CoRFilter:
    """A filter with the exact co-R contract assumed by Theorem 13.

    ``rejection_probability`` q is the probability of (correctly)
    rejecting a non-matching document; the contract requires q ≥ 1/2.
    Matching documents are always accepted (no false negatives on the
    "matches" side).
    """

    def __init__(self, *, rejection_probability: float = 0.5):
        if not 0.5 <= rejection_probability <= 1.0:
            raise ReproError(
                "the co-R contract needs rejection probability >= 1/2"
            )
        self.rejection_probability = rejection_probability
        self._query = figure1_query()

    def __call__(self, document, rng: random.Random) -> bool:
        if matches(self._query, document):
            return True  # matching documents: accept with probability 1
        return rng.random() >= self.rejection_probability


@dataclass(frozen=True)
class ProtocolResult:
    accepted: bool
    t_tilde_runs: int


def _documents(instance: InstanceLike) -> Tuple[Document, Document]:
    """The instance's document and its swapped document, in T̃'s order."""
    inst = as_instance(instance)
    return instance_to_document(inst), instance_to_document(inst.swapped())


def _both_reject(
    documents: Tuple[Document, Document],
    filter_t: CoRFilter,
    rng: random.Random,
) -> bool:
    # T runs on both orientations, forward first, even when the forward
    # run already accepted: the coins each run draws are part of the
    # protocol's observable behaviour
    forward = filter_t(documents[0], rng)
    backward = filter_t(documents[1], rng)
    return (not forward) and (not backward)


def t_tilde(
    instance: InstanceLike, filter_t: CoRFilter, rng: random.Random
) -> bool:
    """One run of T̃: accept iff T rejects both document orientations."""
    return _both_reject(_documents(instance), filter_t, rng)


def set_equality_protocol(
    instance: InstanceLike,
    rng: random.Random,
    *,
    filter_t: Optional[CoRFilter] = None,
    amplification: int = 3,
) -> ProtocolResult:
    """Decide SET-EQUALITY via the Theorem 13 construction.

    Guarantees (with q = the filter's rejection probability ≥ 1/2):

    * X ≠ Y → rejected with probability 1 (no false positives);
    * X = Y → accepted with probability ≥ 1 − (1 − q²)^amplification,
      which is ≥ 1/2 from ``amplification = 3`` on.
    """
    if amplification < 1:
        raise ReproError("amplification must be >= 1")
    filter_t = filter_t or CoRFilter()
    # every run filters the same two documents: encode them once per call
    documents = _documents(instance)
    for run in range(1, amplification + 1):
        if _both_reject(documents, filter_t, rng):
            return ProtocolResult(accepted=True, t_tilde_runs=run)
    return ProtocolResult(accepted=False, t_tilde_runs=amplification)
