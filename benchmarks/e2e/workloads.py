"""The four end-to-end workloads: inputs, one iteration, and its oracle.

Each workload calls ``repro`` only through public functions, imports it
only inside :meth:`setup` (so a child's set-up clock starts before any
``repro`` import), and runs serially with ``jobs=1``.  An iteration is
split into the timed call (:meth:`iterate`) and the untimed oracle
(:meth:`check`); run-level oracles over many iterations live in
:meth:`run_failures`.

Why these four: ``audit`` is the command users run and is dominated by
``repro.extmem``; ``fingerprint_mc`` is the slowest claim-checking
experiment (E1) and reaches ``extmem`` through internal-memory stores
rather than tape moves; ``xpath_protocol`` (E17) never touches
``extmem``, so it is the control that must not move when ``extmem``
changes; ``audit_warm`` is the cached CI path, all cache and ledger and
no ``extmem``.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path
from typing import Any, Dict, List

#: Fewest yes-samples per amplification level before the E17 rate
#: oracle applies: at 400 samples the 0.08 tolerance is at least 3.2
#: binomial standard deviations, so a correct protocol fails one of the
#: four checks with probability under 1%.
MIN_RATE_SAMPLES = 400


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Workload:
    """One workload; a fresh instance serves one child process."""

    name = ""
    #: Profiled iterations in a traced run (fixed, so counts repeat).
    trace_iters = 1
    smoke_trace_iters = 1

    def setup(self, root: Path, workdir: Path, seed: int, round_index: int, spans) -> None:
        raise NotImplementedError

    def iterate(self, i: int, spans) -> Any:
        raise NotImplementedError

    def check(self, i: int, result: Any) -> bool:
        raise NotImplementedError

    def counts(self, result: Any) -> Dict[str, int]:
        """Per-iteration counts read off the objects the harness holds."""
        return {}

    def run_failures(self) -> List[str]:
        return []

    def diagnostics(self) -> Dict[str, Any]:
        """Tallies behind the run-level oracles, for the payload."""
        return {}

    def inputs_digest(self) -> str:
        """Identifies the generated inputs; equal seeds give equal digests."""
        return _digest("cell-seeded")


class Audit(Workload):
    """The full ``repro audit``: 40 contract cells, serial, no cache."""

    name = "audit"
    trace_iters = 2

    def setup(self, root, workdir, seed, round_index, spans):
        from repro.observability.audit import run_contract_audit, write_audit_json

        self._run = run_contract_audit
        self._write = write_audit_json
        self.expected = (root / "AUDIT_contracts.json").read_bytes()
        self.out = workdir / "audit.json"

    def iterate(self, i, spans):
        with spans.span("run_contract_audit", "audit"):
            run = self._run()
        with spans.span("write_audit_json", "audit"):
            self._write(run, str(self.out))
        return None

    def check(self, i, result):
        return self.out.read_bytes() == self.expected


class AuditWarm(Audit):
    """The warm-cache audit: 40 store lookups and a ledger, no engine work."""

    name = "audit_warm"
    trace_iters = 200
    smoke_trace_iters = 2
    CELLS = 40

    def setup(self, root, workdir, seed, round_index, spans):
        super().setup(root, workdir, seed, round_index, spans)
        from repro.cache import ResultStore
        from repro.observability.ledger import LedgerWriter, strip_nondeterministic

        self._store_type = ResultStore
        self._ledger_type = LedgerWriter
        self._strip = strip_nondeterministic
        self.cache_dir = workdir / "cache"
        self.ledger_path = workdir / "ledger.jsonl"
        with spans.span("cold-fill", "audit"):
            store = ResultStore(self.cache_dir)
            self._write(self._run(cache=store), str(self.out))
        entries = sorted(self.cache_dir.glob("??/*.json"))
        if store.writes != self.CELLS or len(entries) != self.CELLS:
            raise RuntimeError(
                f"cold fill wrote {store.writes} entries "
                f"({len(entries)} on disk), expected {self.CELLS}"
            )
        if not super().check(0, None):
            raise RuntimeError("cold-fill audit JSON differs from AUDIT_contracts.json")
        # every warm lookup reads one whole entry file
        self.entry_bytes = sum(path.stat().st_size for path in entries)

    def iterate(self, i, spans):
        with spans.span("LedgerWriter", "ledger"):
            ledger = self._ledger_type(str(self.ledger_path))
        with spans.span("ResultStore", "cache"):
            store = self._store_type(self.cache_dir, ledger=ledger)
        with spans.span("run_contract_audit", "audit"):
            run = self._run(cache=store, ledger=ledger)
        with spans.span("write_audit_json", "audit"):
            self._write(run, str(self.out))
        with spans.span("LedgerWriter.close", "ledger"):
            ledger.close()
        return store, ledger

    def check(self, i, result):
        store, _ledger = result
        return (
            store.hits == self.CELLS
            and store.misses == 0
            and super().check(i, None)
        )

    def counts(self, result):
        store, ledger = result
        return {
            "cache_hits": store.hits,
            "cache_lookups": store.hits + store.misses,
            "cache_bytes_read": self.entry_bytes,
            "ledger_records": ledger.records_written,
            # wall-clock fields vary in length run to run; the stripped
            # projection is what repeats exactly for a seed
            "ledger_bytes": sum(
                len(line.encode("utf-8")) + 1
                for line in self._strip(self.ledger_path)
            ),
        }


class FingerprintMC(Workload):
    """E1: Monte Carlo fingerprint trials, alternating equal and near-miss."""

    name = "fingerprint_mc"
    trace_iters = 4
    M, N, TRIALS = 128, 64, 16
    KINDS = ("near-miss", "equal")

    def setup(self, root, workdir, seed, round_index, spans):
        from repro.algorithms.fingerprint import monte_carlo_fingerprint_trials

        self._trials = monte_carlo_fingerprint_trials
        self.seed = seed
        self.round_index = round_index
        self.near_miss_trials = 0
        self.near_miss_accepted = 0

    def trial_seed(self, i: int) -> str:
        return f"e2e:{self.seed}:{self.round_index}:{i}"

    def iterate(self, i, spans):
        with spans.span("monte_carlo_fingerprint_trials", "algorithms"):
            return self._trials(
                self.M,
                self.N,
                self.TRIALS,
                kind=self.KINDS[i % 2],
                seed=self.trial_seed(i),
            )

    def check(self, i, result):
        if result.trials != self.TRIALS:
            return False
        if result.kind == "equal":
            return result.accepted == self.TRIALS  # one-sided: never reject
        self.near_miss_trials += result.trials
        self.near_miss_accepted += result.accepted
        return True

    def run_failures(self):
        if self.near_miss_accepted * 2 > self.near_miss_trials:
            return [
                f"near-miss acceptance {self.near_miss_accepted}/"
                f"{self.near_miss_trials} exceeds 1/2"
            ]
        return []

    def diagnostics(self):
        return {
            "near_miss_trials": self.near_miss_trials,
            "near_miss_accepted": self.near_miss_accepted,
        }

    def inputs_digest(self):
        return _digest(self.trial_seed(1))


class XPathProtocol(Workload):
    """E17: the Theorem 13 protocol at the worst-case co-R filter."""

    name = "xpath_protocol"
    trace_iters = 800
    smoke_trace_iters = 16
    SIZE = 6
    AMPLIFICATIONS = (1, 2, 3, 4)

    def setup(self, root, workdir, seed, round_index, spans):
        from repro.problems import random_equal_instance, random_unequal_instance
        from repro.queries.xpath.protocol import CoRFilter, set_equality_protocol

        self._protocol = set_equality_protocol
        inputs = random.Random(f"e2e-xpath:{seed}")
        with spans.span("random_equal_instance", "problems"):
            self.yes = random_equal_instance(self.SIZE, self.SIZE, inputs)
        with spans.span("random_unequal_instance", "problems"):
            # the no-instance must differ as *sets*, or accepting it is legal
            while True:
                self.no = random_unequal_instance(self.SIZE, self.SIZE, inputs)
                if set(self.no.first) != set(self.no.second):
                    break
        self.filter_t = CoRFilter(rejection_probability=0.5)
        self.rng_seed = f"e2e-xpath:{seed}:{round_index}"
        self.rng = random.Random(self.rng_seed)
        self.yes_runs = dict.fromkeys(self.AMPLIFICATIONS, 0)
        self.yes_accepted = dict.fromkeys(self.AMPLIFICATIONS, 0)

    def case(self, i: int):
        """Iteration ``i``: yes/no alternate, amplification cycles 1..4."""
        amplification = self.AMPLIFICATIONS[(i // 2) % len(self.AMPLIFICATIONS)]
        return (i % 2 == 0), amplification

    def iterate(self, i, spans):
        is_yes, amplification = self.case(i)
        with spans.span("set_equality_protocol", "queries"):
            return self._protocol(
                self.yes if is_yes else self.no,
                self.rng,
                filter_t=self.filter_t,
                amplification=amplification,
            )

    def check(self, i, result):
        is_yes, amplification = self.case(i)
        if not is_yes:
            return not result.accepted  # X != Y is rejected with probability 1
        self.yes_runs[amplification] += 1
        self.yes_accepted[amplification] += result.accepted
        return True

    def run_failures(self):
        failures = []
        for k in self.AMPLIFICATIONS:
            runs = self.yes_runs[k]
            if runs < MIN_RATE_SAMPLES:
                continue
            rate = self.yes_accepted[k] / runs
            expected = 1 - 0.75 ** k
            if abs(rate - expected) > 0.08:
                failures.append(
                    f"amplification {k}: yes-acceptance {rate:.3f} is not "
                    f"within 0.08 of {expected:.3f} ({runs} runs)"
                )
        return failures

    def diagnostics(self):
        return {
            f"amplification_{k}": {
                "runs": self.yes_runs[k],
                "accepted": self.yes_accepted[k],
                "checked": self.yes_runs[k] >= MIN_RATE_SAMPLES,
            }
            for k in self.AMPLIFICATIONS
        }

    def inputs_digest(self):
        return _digest(repr((self.yes, self.no, self.rng_seed)))


WORKLOADS = {
    cls.name: cls for cls in (Audit, FingerprintMC, XPathProtocol, AuditWarm)
}
