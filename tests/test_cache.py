"""The result cache: fingerprints, the store, routing, and the gates.

The two load-bearing guarantees tested here:

1. **byte-identity** — the audit JSON (and every other cached surface)
   is byte-for-byte the same with the cache on, off, cold or warm; the
   cache may only ever change *when* work happens, never *what* comes
   out;
2. **robustness** — corrupt, truncated, wrong-schema, mis-keyed and
   concurrently-written entries are quarantined and recomputed, never
   served and never fatal.
"""

import json
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import given, strategies as st

from tests.settings_profiles import QUICK_SETTINGS
from repro._version import __version__
from repro.cache import (
    ResultStore,
    SCHEMA_VERSION,
    canonical_json,
    compose_key,
    digest_of,
    recompute_payload,
    verify_entries,
)
from repro.errors import ReproError
from repro.observability.audit import (
    AUDIT_CELL_KIND,
    CONTRACTS,
    ContractSpec,
    QUICK_SWEEP,
    audit_cell_key,
    check_from_payload,
    check_to_payload,
    run_audit_cell,
    run_contract_audit,
)


# -- module-level race body (worker processes import it by name) -----------


def racing_writer(root, tag):
    """Many writers, one key: every writer computes and stores the same
    payload; the rename race must end with one valid entry."""
    store = ResultStore(root)
    key = compose_key("race-test", target="shared")
    payload = store.lookup(key)
    if payload is None:
        payload = {"value": 42}
        store.store(key, payload, engine=tag)
    return payload


# -- canonical serialisation ------------------------------------------------


class TestCanonicalJson:
    def test_key_order_never_matters(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})
        assert digest_of({"b": 1, "a": 2}) == digest_of({"a": 2, "b": 1})

    def test_compact_ascii(self):
        text = canonical_json({"k": ["é", 1]})
        assert " " not in text
        assert "\\u" in text  # non-ASCII is escaped, never raw

    @QUICK_SETTINGS
    @given(
        st.dictionaries(
            st.text(max_size=8),
            st.one_of(st.integers(), st.text(max_size=8), st.booleans()),
            max_size=6,
        )
    )
    def test_digest_is_construction_order_independent(self, payload):
        shuffled = dict(reversed(list(payload.items())))
        assert digest_of(payload) == digest_of(shuffled)


class TestKeyComposition:
    def test_code_version_rides_in_every_key(self):
        key = compose_key("k", x=1)
        assert dict(key.components)["code"] == __version__

    def test_component_order_never_matters(self):
        assert (
            compose_key("k", a=1, b=2).digest
            == compose_key("k", b=2, a=1).digest
        )

    def test_kind_component_is_allowed(self):
        # the entry kind is positional-only, so components may use the name
        key = compose_key("fingerprint-mc", kind="near-miss", m=4)
        assert dict(key.components)["kind"] == "near-miss"
        assert key.kind == "fingerprint-mc"

    def test_unserialisable_component_raises(self):
        # components are JSON scalars; anything else is refused
        for bad in (object(), ["a", "b"], {"x": 1}, 1.5):
            with pytest.raises(ReproError, match="JSON scalar"):
                compose_key("k", bad=bad)

    def test_empty_kind_raises(self):
        with pytest.raises(ReproError):
            compose_key("")

    def test_provenance_is_timestamp_free_and_deterministic(self):
        a = compose_key("k", x=1).provenance(engine="e")
        b = compose_key("k", x=1).provenance(engine="e")
        assert canonical_json(a) == canonical_json(b)
        assert set(a) == {"kind", "components", "repro_version", "engine"}


# -- the store --------------------------------------------------------------


class TestResultStore:
    def test_roundtrip_and_shard_layout(self, tmp_path):
        store = ResultStore(tmp_path)
        key = compose_key("t", x=1)
        assert store.lookup(key) is None  # cold miss
        store.store(key, {"answer": 7}, engine="test")
        assert store.lookup(key) == {"answer": 7}
        path = store.path_for(key)
        assert path.exists()
        assert path.parent.parent == tmp_path
        assert len(path.parent.name) == 2  # two-hex-digit shard
        assert path.parent.name + path.stem == key.digest
        assert store.counter_snapshot() == {
            "hits": 1, "misses": 1, "writes": 1, "invalid": 0,
        }

    def test_entries_are_canonical_bytes(self, tmp_path):
        # two processes writing the same key must produce identical files;
        # same-process double-store is the degenerate case of that race
        store = ResultStore(tmp_path)
        key = compose_key("t", x=1)
        store.store(key, {"b": 1, "a": 2})
        first = store.path_for(key).read_bytes()
        ResultStore(tmp_path).store(key, {"a": 2, "b": 1})
        assert store.path_for(key).read_bytes() == first

    def test_no_temp_files_left_behind(self, tmp_path):
        store = ResultStore(tmp_path)
        store.store(compose_key("t", x=1), [1, 2, 3])
        strays = [p for p in tmp_path.rglob("*") if p.suffix == ".tmp"]
        assert strays == []

    def test_unserialisable_payload_raises(self, tmp_path):
        with pytest.raises(ReproError):
            ResultStore(tmp_path).store(compose_key("t"), {"x": object()})

    def test_stats_and_gc(self, tmp_path):
        store = ResultStore(tmp_path)
        for i in range(3):
            store.store(compose_key("t", x=i), {"v": i})
        stats = store.stats()
        assert stats["entries"] == 3
        assert stats["entries_by_kind"] == {"t": 3}
        assert stats["stale_version_entries"] == 0
        assert stats["total_bytes"] > 0
        # age one entry to a prior code version: stats flags it, gc drops
        # it (its key embeds the old code component — unreachable forever)
        path, entry = next(iter(store.entries()))
        entry["provenance"]["repro_version"] = "0.0.0-ancient"
        path.write_text(canonical_json(entry) + "\n")
        assert store.stats()["stale_version_entries"] == 1
        report = store.gc()
        assert report == {
            "removed": 1,
            "kept": 2,
            "reclaimed_bytes": pytest.approx(report["reclaimed_bytes"]),
        }
        assert store.stats()["entries"] == 2

    def test_gc_sweeps_quarantine_and_strays(self, tmp_path):
        store = ResultStore(tmp_path)
        key = compose_key("t", x=1)
        store.store(key, {"v": 1})
        store.path_for(key).write_text("{ corrupt")
        assert store.lookup(key) is None  # quarantines
        (tmp_path / "ab").mkdir(exist_ok=True)
        (tmp_path / "ab" / ".stray.123.tmp").write_text("half a write")
        report = store.gc()
        assert report["kept"] == 0
        assert report["removed"] == 2  # quarantined file + stray tmp
        assert not (tmp_path / "quarantine").exists() or not any(
            (tmp_path / "quarantine").iterdir()
        )


class TestAdversarialEntries:
    """Every way an entry can be unusable ends in quarantine-and-recompute."""

    def _poisoned(self, tmp_path, text):
        store = ResultStore(tmp_path)
        key = compose_key("t", x=1)
        store.store(key, {"v": 1})
        store.path_for(key).write_text(text)
        return store, key

    def _assert_recovers(self, store, key):
        assert store.lookup(key) is None
        assert store.invalid == 1
        assert store.misses == 1
        # the bad file is out of the read path, parked in quarantine
        assert not store.path_for(key).exists()
        assert any((store.root / "quarantine").iterdir())
        # recompute-and-overwrite restores service
        store.store(key, {"v": 1})
        assert store.lookup(key) == {"v": 1}

    def test_corrupt_json(self, tmp_path):
        store, key = self._poisoned(tmp_path, "{ not json at all")
        self._assert_recovers(store, key)

    def test_truncated_file(self, tmp_path):
        store = ResultStore(tmp_path)
        key = compose_key("t", x=1)
        store.store(key, {"v": 1})
        path = store.path_for(key)
        path.write_text(path.read_text()[: path.stat().st_size // 2])
        self._assert_recovers(store, key)

    def test_wrong_schema_version(self, tmp_path):
        store = ResultStore(tmp_path)
        key = compose_key("t", x=1)
        store.store(key, {"v": 1})
        path = store.path_for(key)
        entry = json.loads(path.read_text())
        entry["schema"] = SCHEMA_VERSION + 1
        path.write_text(canonical_json(entry))
        self._assert_recovers(store, key)

    def test_key_mismatch(self, tmp_path):
        # an entry whose recorded key disagrees with its address is never
        # served: content addressing is verified on read, not trusted
        store = ResultStore(tmp_path)
        key = compose_key("t", x=1)
        store.store(key, {"v": 1})
        path = store.path_for(key)
        entry = json.loads(path.read_text())
        entry["key"] = "0" * 64
        path.write_text(canonical_json(entry))
        self._assert_recovers(store, key)

    def test_non_dict_entry(self, tmp_path):
        store, key = self._poisoned(tmp_path, '["a", "list"]')
        self._assert_recovers(store, key)

    def test_unreadable_bytes(self, tmp_path):
        store = ResultStore(tmp_path)
        key = compose_key("t", x=1)
        store.store(key, {"v": 1})
        store.path_for(key).write_bytes(b"\xff\xfe\x00garbage")
        self._assert_recovers(store, key)

    def test_every_byte_substitution_of_an_audit_entry(self, tmp_path):
        """Each byte of a real audit entry replaced by ``x`` or ``7``:
        decoding lookups never raise, and every miss leaves the damaged
        file in quarantine."""
        spec = CONTRACTS[0]
        store = ResultStore(tmp_path)
        key = audit_cell_key(spec.name, 4, 12)
        store.store(key, check_to_payload(run_audit_cell(spec, 4, 12)))
        path = store.path_for(key)
        parked = tmp_path / "quarantine" / f"{path.parent.name}-{path.name}"
        original = path.read_bytes()
        variants = 0
        for offset, byte in enumerate(original):
            for replacement in b"x7":
                if replacement == byte:
                    continue
                variants += 1
                damaged = bytearray(original)
                damaged[offset] = replacement
                path.write_bytes(bytes(damaged))
                if store.lookup(key, check_from_payload) is None:
                    assert not path.exists() and parked.exists(), offset
        assert store.hits + store.invalid == variants
        assert store.misses == store.invalid > 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_concurrent_writers_racing_one_key(self, tmp_path, workers):
        # two `repro audit --cache DIR` commands can race one key; here
        # six writers do, in this process or in two worker processes
        roots = [str(tmp_path)] * 6
        if workers == 1:
            values = list(map(racing_writer, roots, range(6)))
        else:
            spawn = multiprocessing.get_context("spawn")
            with ProcessPoolExecutor(workers, mp_context=spawn) as pool:
                values = list(pool.map(racing_writer, roots, range(6)))
        assert values == [{"value": 42}] * 6
        # exactly one valid entry; nothing quarantined by the race
        store = ResultStore(tmp_path)
        assert store.stats()["entries"] == 1
        assert store.stats()["quarantined_files"] == 0
        assert store.lookup(compose_key("race-test", target="shared")) == {
            "value": 42
        }


# -- audit routing: the byte-identity gate ----------------------------------


def _audit_json(**kwargs):
    run = run_contract_audit(quick=True, **kwargs)
    return json.dumps(run.to_json_dict(), indent=2, sort_keys=False)


class TestCachedAudit:
    def test_cache_on_off_cold_warm_all_byte_identical(self, tmp_path):
        store = ResultStore(tmp_path)
        plain = _audit_json()
        cold = _audit_json(cache=store)
        assert store.counter_snapshot()["misses"] == 24  # 8 contracts x 3
        assert store.counter_snapshot()["writes"] == 24
        warm = _audit_json(cache=store)
        assert store.counter_snapshot()["hits"] == 24
        assert store.counter_snapshot()["writes"] == 24  # nothing rewritten
        assert cold == plain
        assert warm == plain

    def test_warm_audit_runs_zero_engine_steps(self, tmp_path):
        """With every cell cached, no contract runner may even be called.

        The real contracts warm the store; a tripwired twin (same names,
        runner that explodes) then audits against it — any cell that
        misses the cache detonates, so passing proves the warm sweep is
        lookups all the way down.
        """
        store = ResultStore(tmp_path)
        run_contract_audit(quick=True, cache=store)

        def detonate(m, n, rng, sink):
            raise AssertionError("engine ran on a warm cache")

        tripwired = [
            ContractSpec(name=s.name, description=s.description, run=detonate)
            for s in CONTRACTS
        ]
        warm = run_contract_audit(
            quick=True, contracts=tripwired, cache=store
        )
        assert warm.ok
        assert store.counter_snapshot()["hits"] == 24

    def test_partial_warmth_runs_only_the_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = CONTRACTS[0]
        # pre-warm one cell by hand
        m, n = QUICK_SWEEP[0]
        check = run_audit_cell(spec, m, n)
        store.store(audit_cell_key(spec.name, m, n), check_to_payload(check))
        run = run_contract_audit(quick=True, contracts=[spec], cache=store)
        assert store.counter_snapshot()["hits"] == 1
        assert store.counter_snapshot()["misses"] == len(QUICK_SWEEP) - 1
        assert json.dumps(run.to_json_dict()) == json.dumps(
            run_contract_audit(quick=True, contracts=[spec]).to_json_dict()
        )

    def test_parallel_cached_audit_is_byte_identical(self, tmp_path):
        store = ResultStore(tmp_path)
        plain = _audit_json()
        assert _audit_json(cache=store) == plain
        assert _audit_json(cache=store) == plain  # warm too

    def test_check_payload_roundtrip_is_lossless(self):
        spec = CONTRACTS[0]
        check = run_audit_cell(spec, 4, 12)
        clone = check_from_payload(check_to_payload(check))
        assert clone == check
        assert clone.to_json_dict() == check.to_json_dict()

    def test_damaged_field_name_recomputes_the_cell(self, tmp_path):
        # an entry that parses but no longer decodes into a check is
        # quarantined and recomputed like unparseable JSON
        store = ResultStore(tmp_path)
        plain = _audit_json()
        _audit_json(cache=store)
        path = store.path_for(audit_cell_key(CONTRACTS[0].name, 4, 12))
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace('"scans":', '"scant":'), encoding="utf-8")
        warm = ResultStore(tmp_path)
        assert _audit_json(cache=warm) == plain
        assert warm.counter_snapshot() == {
            "hits": 23, "misses": 1, "writes": 1, "invalid": 1,
        }

    def test_poisoned_cell_recomputes_instead_of_crashing(self, tmp_path):
        store = ResultStore(tmp_path)
        plain = _audit_json()
        _audit_json(cache=store)
        # corrupt one stored cell; the audit must quarantine, recompute
        # and still write the same bytes
        path, _entry = next(iter(store.entries()))
        path.write_text("truncated {")
        assert _audit_json(cache=store) == plain
        assert store.counter_snapshot()["invalid"] == 1


# -- Monte Carlo trial-block routing ----------------------------------------


# -- provenance-driven verification -----------------------------------------


class TestVerifyEntries:
    def test_audit_entries_verify_ok(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = CONTRACTS[0]
        check = run_audit_cell(spec, 4, 12)
        store.store(
            audit_cell_key(spec.name, 4, 12),
            check_to_payload(check),
            engine="audit",
        )
        report = verify_entries(store)
        assert (report["checked"], report["ok"]) == (1, 1)
        assert report["mismatched"] == 0

    def test_tampered_payload_is_flagged(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = CONTRACTS[0]
        check = run_audit_cell(spec, 4, 12)
        key = audit_cell_key(spec.name, 4, 12)
        store.store(key, check_to_payload(check))
        path = store.path_for(key)
        entry = json.loads(path.read_text())
        entry["payload"]["report"]["scans"] += 1  # silent corruption
        path.write_text(canonical_json(entry))
        report = verify_entries(store)
        assert report["mismatched"] == 1
        assert report["results"][0]["verdict"] == "MISMATCH"

    def test_unknown_kind_is_unsupported_not_fatal(self, tmp_path):
        # audit cells are the one recomputed kind: a stray trial block
        # from an older store is as unsupported as an alien kind
        store = ResultStore(tmp_path)
        store.store(compose_key("alien-kind", x=1), {"v": 1})
        store.store(compose_key("fingerprint-mc", m=8, n=8), {"accepted": 3})
        report = verify_entries(store)
        assert report["unsupported"] == 2
        assert report["mismatched"] == 0
        with pytest.raises(ReproError):
            recompute_payload({"kind": "no-such-kind", "components": {}})


class TestCompareGuard:
    """The e2e comparer never passes a baseline it cannot judge."""

    SPEC = [{"name": "iter_s_p50", "unit": "s", "better": "lower",
             "bound": 0.2}]

    @staticmethod
    def _payload(value, workload="audit"):
        return {"workloads": {workload: {
            "attempted": 10,
            "failed": 0,
            "metrics": {"iter_s_p50": {"value": value, "unit": "s"}},
        }}}

    def _compare(self, run, baseline):
        from repro.observability.report import compare_bench

        return compare_bench([run], [baseline], self.SPEC)

    def test_zero_baseline_cannot_vacuously_pass(self):
        # a zero median leaves no room under a relative bound
        verdict = self._compare(self._payload(0.01), self._payload(0))
        (row,) = verdict["rows"]
        assert row["verdict"] == "regressed" and verdict["regressed"]
        assert row["change"] is None and row["baseline_iqr"] is None
        assert not self._compare(self._payload(0), self._payload(0))[
            "regressed"
        ]

    def test_negative_and_missing_and_nonnumeric_baselines(self):
        good = self._payload(1.0)
        for value in (-3.0, "5", True, None, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite number >= 0"):
                self._compare(good, self._payload(value))
            # the run side is held to the same rule
            with pytest.raises(ValueError, match="finite number >= 0"):
                self._compare(self._payload(value), good)
        missing = {"workloads": {"audit": {"attempted": 10, "failed": 0,
                                           "metrics": {}}}}
        with pytest.raises(ValueError, match="no end-to-end metric"):
            self._compare(good, missing)

    def test_valid_baseline_still_gates(self):
        regressed = self._compare(self._payload(1.3), self._payload(1.0))
        assert regressed["regressed"]
        assert regressed["rows"][0]["verdict"] == "regressed"
        fine = self._compare(self._payload(1.1), self._payload(1.0))
        assert not fine["regressed"]
        assert fine["rows"][0]["verdict"] == "ok"

    def test_new_engines_are_informational(self):
        # a workload the baseline never ran is listed, not judged
        run = self._payload(1.0)
        run["workloads"].update(self._payload(9.0, "xpath")["workloads"])
        verdict = self._compare(run, self._payload(1.0))
        assert [row["workload"] for row in verdict["rows"]] == ["audit"]
        assert verdict["only_run"] == ["xpath"]
        assert verdict["only_baseline"] == []
        assert not verdict["regressed"]


# -- the CLI ----------------------------------------------------------------


class TestCacheCli:
    def test_stats_gc_verify(self, tmp_path, capsys):
        from repro.__main__ import main

        store = ResultStore(tmp_path)
        spec = CONTRACTS[0]
        check = run_audit_cell(spec, 4, 12)
        store.store(audit_cell_key(spec.name, 4, 12), check_to_payload(check))

        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 1
        assert stats["entries_by_kind"] == {AUDIT_CELL_KIND: 1}

        assert main(["cache", "verify", "--dir", str(tmp_path)]) == 0
        assert "1 ok" in capsys.readouterr().out

        assert main(["cache", "gc", "--dir", str(tmp_path)]) == 0
        assert "kept 1" in capsys.readouterr().out

    def test_audit_cache_flags(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "audit.json"
        stats_path = tmp_path / "stats.json"
        cache_dir = tmp_path / "cache"
        argv = [
            "audit", "--quick", "--output", str(out),
            "--cache", str(cache_dir), "--cache-stats", str(stats_path),
        ]
        assert main(argv) == 0
        cold = out.read_bytes()
        assert json.loads(stats_path.read_text())["misses"] == 24
        assert main(argv) == 0
        assert out.read_bytes() == cold
        counters = json.loads(stats_path.read_text())
        assert counters == {
            "hits": 24, "misses": 0, "writes": 0, "invalid": 0,
        }
        capsys.readouterr()
        # --no-cache forces the scratch path and writes the same bytes
        assert main(
            ["audit", "--quick", "--output", str(out), "--no-cache",
             "--cache", str(cache_dir)]
        ) == 0
        assert out.read_bytes() == cold
