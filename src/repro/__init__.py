"""repro — executable reproduction of Grohe, Hernich & Schweikardt (PODS 2006).

*Randomized Computations on Large Data Sets: Tight Lower Bounds* studies a
machine model for processing data too large for internal memory: multi-tape
Turing machines whose external-memory tapes allow at most ``r(N)`` sequential
scans (head reversals) and whose internal-memory tapes hold at most ``s(N)``
cells.  This package implements the model and everything the paper builds on
it:

* the (r, s, t) cost model with exact accounting (:mod:`repro.extmem`),
* Turing machines — deterministic, nondeterministic, randomized — with exact
  acceptance probabilities (:mod:`repro.machines`),
* list machines, skeletons, and the lower-bound machinery of Sections 5–8
  (:mod:`repro.listmachine`, :mod:`repro.lowerbounds`),
* the decision problems and their reductions (:mod:`repro.problems`),
* every upper-bound algorithm: the Theorem 8(a) fingerprinting machine, tape
  merge sort, deterministic checksort/set-equality, certificate verification
  (:mod:`repro.algorithms`),
* the query-evaluation substrate of Section 4: relational algebra, XML
  streams, XPath and XQuery fragments (:mod:`repro.queries`),
* the complexity-class layer tying it together (:mod:`repro.core`).

Quickstart::

    import random
    from repro.algorithms import multiset_equality_fingerprint
    from repro.problems import encode_instance

    words = ["0110", "1010", "0001"]
    instance = encode_instance(words, list(reversed(words)))
    result = multiset_equality_fingerprint(instance, rng=random.Random(0))
    assert result.accepted            # equal multisets: always accepted
    assert result.report.scans <= 2   # co-RST(2, O(log N), 1)
"""

from ._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__, {"_version": ("__version__",)}
)
