"""The perf-trajectory tooling (``repro.bench``): storage + CI gate.

The subject-running halves (:func:`repro.bench.run_table5`,
:func:`repro.bench.run_archive_overhead`) are exercised by the real
``python -m repro.bench`` invocations that produce the committed
``BENCH_*.json``; these tests pin the parts CI correctness depends on --
the merge format, the regression gates' aggregate decode-throughput,
split-time, reconstruct-time and recovery-time math, the flow
fingerprint gate, and the resilience checks -- on synthetic numbers,
without running any subject.  One test runs ``run_table5`` on a tiny
batik to check that the timed analysis sees a frozen set-up heap.
"""

import gc
import hashlib
import json
from types import SimpleNamespace

import repro.bench as bench
from repro.bench import (
    _CollectorClock,
    check_regression,
    flow_sha256,
    merge_into,
    run_id,
)
from repro.pt.buffer import RingBufferConfig
from repro.pt.perf import PTConfig
from repro.workloads import build_subject, default_config


def _entry(rows):
    return {"table5": {"rows": rows}}


def _baseline_file(tmp_path, rows, label="post"):
    path = str(tmp_path / "BENCH_test.json")
    merge_into(path, label, _entry(rows))
    return path


BASE_ROWS = {
    "a": {"pt_bytes": 1000, "decode_s": 1.0},
    "b": {"pt_bytes": 3000, "decode_s": 1.0},
}


class TestMerge:
    def test_labels_accumulate(self, tmp_path):
        path = _baseline_file(tmp_path, BASE_ROWS, label="pre")
        merge_into(path, "post", _entry(BASE_ROWS))
        document = json.load(open(path))
        assert sorted(document["runs"]) == ["post", "pre"]
        assert document["format"] == "repro-bench-v1"

    def test_relabel_overwrites(self, tmp_path):
        path = _baseline_file(tmp_path, BASE_ROWS)
        merge_into(path, "post", _entry({"a": {"pt_bytes": 7, "decode_s": 1.0}}))
        document = json.load(open(path))
        assert document["runs"]["post"]["table5"]["rows"]["a"]["pt_bytes"] == 7

    def test_unreadable_file_starts_fresh(self, tmp_path):
        path = str(tmp_path / "BENCH_test.json")
        open(path, "w").write("{not json")
        merge_into(path, "post", _entry(BASE_ROWS))
        assert json.load(open(path))["runs"]["post"]


class TestRegressionGate:
    def test_clean_run_passes(self, tmp_path):
        path = _baseline_file(tmp_path, BASE_ROWS)
        ok, messages = check_regression(_entry(BASE_ROWS), path)
        assert ok
        assert any("aggregate" in message for message in messages)

    def test_aggregate_drop_beyond_tolerance_fails(self, tmp_path):
        path = _baseline_file(tmp_path, BASE_ROWS)
        slower = {
            name: {"pt_bytes": row["pt_bytes"], "decode_s": row["decode_s"] * 2}
            for name, row in BASE_ROWS.items()
        }
        ok, messages = check_regression(_entry(slower), path)
        assert not ok
        (verdict,) = [m for m in messages if m.startswith("aggregate   decode")]
        assert "REGRESSION" in verdict

    def test_single_subject_noise_does_not_fail_aggregate(self, tmp_path):
        """One small subject slowing down is absorbed when the bulk of
        the bytes decode at baseline speed (the point of aggregating)."""
        path = _baseline_file(tmp_path, BASE_ROWS)
        noisy = {
            "a": {"pt_bytes": 1000, "decode_s": 1.5},  # -33% alone
            "b": {"pt_bytes": 3000, "decode_s": 1.0},
        }
        ok, _messages = check_regression(_entry(noisy), path)
        assert ok

    def test_subject_subset_is_comparable(self, tmp_path):
        path = _baseline_file(tmp_path, BASE_ROWS)
        ok, messages = check_regression(
            _entry({"a": BASE_ROWS["a"]}), path, subjects=("a",)
        )
        assert ok
        # One subject + the aggregate line.
        assert sum("decode throughput" in message for message in messages) == 2

    def test_missing_baseline_fails_without_raising(self, tmp_path):
        ok, messages = check_regression(
            _entry(BASE_ROWS), str(tmp_path / "absent.json")
        )
        assert not ok and messages

    def test_no_common_subjects_fails(self, tmp_path):
        path = _baseline_file(tmp_path, {"z": {"pt_bytes": 1, "decode_s": 1.0}})
        ok, _messages = check_regression(_entry(BASE_ROWS), path)
        assert not ok


class TestRecoveryGate:
    ROWS = {
        "a": {"pt_bytes": 1000, "decode_s": 1.0, "recovery_s": 2.0},
        "b": {"pt_bytes": 3000, "decode_s": 1.0, "recovery_s": 6.0},
    }

    def _scaled(self, factor, subject_factors=None):
        return {
            name: dict(
                row,
                recovery_s=row["recovery_s"]
                * (subject_factors or {}).get(name, factor),
            )
            for name, row in self.ROWS.items()
        }

    def test_unchanged_recovery_passes(self, tmp_path):
        path = _baseline_file(tmp_path, self.ROWS)
        ok, messages = check_regression(_entry(self.ROWS), path)
        assert ok
        assert "recovery" in messages[-1]

    def test_aggregate_recovery_slowdown_fails(self, tmp_path):
        path = _baseline_file(tmp_path, self.ROWS)
        ok, messages = check_regression(_entry(self._scaled(2.0)), path)
        assert not ok
        # Decode throughput is unchanged: only the recovery gate fired.
        flagged = [message for message in messages if "REGRESSION" in message]
        assert len(flagged) == 1 and "recovery" in flagged[0]

    def test_recovery_speedup_passes(self, tmp_path):
        path = _baseline_file(tmp_path, self.ROWS)
        ok, _messages = check_regression(_entry(self._scaled(0.3)), path)
        assert ok

    def test_small_subject_noise_is_absorbed(self, tmp_path):
        path = _baseline_file(tmp_path, self.ROWS)
        # a: 2.0s -> 3.0s alone is +50%, but only +12.5% of the aggregate.
        noisy = self._scaled(1.0, subject_factors={"a": 1.5})
        ok, _messages = check_regression(_entry(noisy), path)
        assert ok

    def test_baseline_without_recovery_column_skips_gate(self, tmp_path):
        path = _baseline_file(tmp_path, BASE_ROWS)
        ok, messages = check_regression(_entry(self._scaled(10.0)), path)
        assert ok
        assert [m for m in messages if "recovery" in m] == [
            "aggregate   recovery not gated (baseline predates column)"
        ]


class TestReconstructGate:
    ROWS = {
        name: dict(row, reconstruct_s=row["recovery_s"] / 2)
        for name, row in TestRecoveryGate.ROWS.items()
    }

    def _scaled(self, factor):
        return {
            name: dict(row, reconstruct_s=row["reconstruct_s"] * factor)
            for name, row in self.ROWS.items()
        }

    def test_unchanged_reconstruct_passes(self, tmp_path):
        path = _baseline_file(tmp_path, self.ROWS)
        ok, messages = check_regression(_entry(self.ROWS), path)
        assert ok
        assert any("reconstruct" in message for message in messages)

    def test_aggregate_reconstruct_slowdown_fails(self, tmp_path):
        path = _baseline_file(tmp_path, self.ROWS)
        ok, messages = check_regression(_entry(self._scaled(2.0)), path)
        assert not ok
        flagged = [message for message in messages if "REGRESSION" in message]
        assert len(flagged) == 1 and "reconstruct" in flagged[0]

    def test_baseline_without_reconstruct_column_skips_gate(self, tmp_path):
        path = _baseline_file(tmp_path, TestRecoveryGate.ROWS)
        ok, messages = check_regression(_entry(self._scaled(10.0)), path)
        assert ok
        assert [m for m in messages if "reconstruct" in m] == [
            "aggregate   reconstruct not gated (baseline predates column)"
        ]


class TestSplitGate:
    """``split_by_thread`` time (``split_s``) is gated like the other
    phases, and a baseline without the column says so."""

    ROWS = {
        name: dict(row, split_s=row["recovery_s"] / 4)
        for name, row in TestReconstructGate.ROWS.items()
    }

    def _scaled(self, factor):
        return {
            name: dict(row, split_s=row["split_s"] * factor)
            for name, row in self.ROWS.items()
        }

    def test_unchanged_split_passes(self, tmp_path):
        path = _baseline_file(tmp_path, self.ROWS)
        ok, messages = check_regression(_entry(self.ROWS), path)
        assert ok
        (line,) = [m for m in messages if "split" in m]
        assert "(1.00x)" in line and "not gated" not in line

    def test_split_slowdown_beyond_tolerance_fails(self, tmp_path):
        path = _baseline_file(tmp_path, self.ROWS)
        ok, messages = check_regression(_entry(self._scaled(1.3)), path)
        assert not ok
        flagged = [message for message in messages if "REGRESSION" in message]
        assert len(flagged) == 1 and "split" in flagged[0]

    def test_split_within_tolerance_passes(self, tmp_path):
        path = _baseline_file(tmp_path, self.ROWS)
        ok, _messages = check_regression(_entry(self._scaled(1.15)), path)
        assert ok

    def test_baseline_without_split_column_skips_gate(self, tmp_path):
        path = _baseline_file(tmp_path, TestReconstructGate.ROWS)
        ok, messages = check_regression(_entry(self._scaled(10.0)), path)
        assert ok
        assert [m for m in messages if "split" in m] == [
            "aggregate   split not gated (baseline predates column)"
        ]
        # The columns the baseline has are still gated.
        assert (
            "aggregate   reconstruct 4.000s vs baseline 4.000s (1.00x)"
            in messages
        )


class TestFingerprintGate:
    """A changed ``flow_sha256`` fails the gate outright, whatever the
    timings say; a baseline without the column says so."""

    ROWS = {
        name: dict(row, flow_sha256="%064x" % index)
        for index, (name, row) in enumerate(TestSplitGate.ROWS.items())
    }

    def test_equal_fingerprint_passes(self, tmp_path):
        path = _baseline_file(tmp_path, self.ROWS)
        ok, messages = check_regression(_entry(self.ROWS), path)
        assert ok
        assert "aggregate   fingerprint 2/2 subjects match baseline" in messages

    def test_changed_fingerprint_fails(self, tmp_path):
        path = _baseline_file(tmp_path, self.ROWS)
        changed = dict(self.ROWS, b=dict(self.ROWS["b"], flow_sha256="f" * 64))
        ok, messages = check_regression(_entry(changed), path)
        assert not ok
        flagged = [message for message in messages if "REGRESSION" in message]
        assert flagged == [
            "aggregate   fingerprint 1/2 subjects match baseline"
            "  REGRESSION (flows changed: b)"
        ]

    def test_baseline_without_fingerprint_column_skips_gate(self, tmp_path):
        path = _baseline_file(tmp_path, TestSplitGate.ROWS)
        slower = {
            name: dict(row, split_s=row["split_s"] * 2)
            for name, row in self.ROWS.items()
        }
        ok, messages = check_regression(_entry(slower), path)
        assert [m for m in messages if "fingerprint" in m] == [
            "aggregate   fingerprint not gated (baseline predates column)"
        ]
        # The phases the baseline has are still gated.
        assert not ok
        flagged = [message for message in messages if "REGRESSION" in message]
        assert len(flagged) == 1 and "split" in flagged[0]


class TestRowColumns:
    """The ``flow_sha256`` and ``gc_s`` columns of a Table 5 row."""

    def test_flow_sha256_hashes_one_line_per_entry_in_tid_order(self):
        def thread(entries):
            return SimpleNamespace(flow=SimpleNamespace(entries=entries))

        result = SimpleNamespace(
            flows={
                7: thread([(("A.m", 1), "recovered")]),
                2: thread([(("A.m", 0), "decoded"), (None, "fallback")]),
            }
        )
        text = "2\t('A.m', 0)\tdecoded\n2\tNone\tfallback\n7\t('A.m', 1)\trecovered\n"
        assert flow_sha256(result) == hashlib.sha256(text.encode("utf-8")).hexdigest()

    def test_collector_clock_times_only_its_block(self):
        with _CollectorClock() as clock:
            gc.collect()
        seconds = clock.seconds
        assert seconds > 0
        assert clock not in gc.callbacks
        gc.collect()
        assert clock.seconds == seconds


class TestTable5Heap:
    """``run_table5`` times the analysis over a frozen set-up heap."""

    def test_setup_heap_frozen_only_during_the_row(self, monkeypatch):
        def small_setup(name):
            subject = build_subject(name, size=3)
            buffer = RingBufferConfig(capacity_bytes=10**9, drain_bandwidth=1e9)
            return subject, subject.run(default_config()), PTConfig(buffer=buffer)

        frozen = []

        class Recording(bench.JPortal):
            def analyze_trace(self, *args, **kwargs):
                frozen.append(gc.get_freeze_count())
                return super().analyze_trace(*args, **kwargs)

        monkeypatch.setattr(bench, "_subject_setup", small_setup)
        monkeypatch.setattr(bench, "JPortal", Recording)
        before = gc.get_freeze_count()
        table = bench.run_table5(["batik"])
        assert table["rows"]["batik"]["entries"] > 0
        assert len(frozen) == 1 and frozen[0] > 0
        assert gc.get_freeze_count() == before


class TestResilienceGate:
    """The resilience checks ride on the ``resilience`` run, if any."""

    RUN = {"recovery_s": 1.0, "cold_replay_s": 1.0, "recovery_speedup": 1.0,
           "checkpoint_overhead_fraction": 0.1}

    def _check(self, tmp_path, **changes):
        path = _baseline_file(tmp_path, BASE_ROWS)
        entry = dict(_entry(BASE_ROWS), resilience=dict(self.RUN, **changes))
        return check_regression(entry, path)

    def test_recovery_within_tolerance_passes(self, tmp_path):
        ok, messages = self._check(tmp_path, recovery_s=1.15)
        assert ok
        assert sum("resilience" in message for message in messages) == 2

    def test_recovery_beyond_tolerance_fails(self, tmp_path):
        ok, messages = self._check(tmp_path, recovery_s=1.5)
        assert not ok
        flagged = [message for message in messages if "REGRESSION" in message]
        assert len(flagged) == 1 and "cold replay" in flagged[0]

    def test_checkpoint_costing_the_polls_fails(self, tmp_path):
        for overhead in (1.0, 17.4):
            ok, messages = self._check(
                tmp_path, checkpoint_overhead_fraction=overhead
            )
            assert not ok, overhead
            flagged = [m for m in messages if "REGRESSION" in m]
            assert len(flagged) == 1 and "checkpoint" in flagged[0], overhead

    def test_run_without_resilience_skips_both_checks(self, tmp_path):
        path = _baseline_file(tmp_path, BASE_ROWS)
        ok, messages = check_regression(_entry(BASE_ROWS), path)
        assert ok
        assert not any("resilience" in message for message in messages)


class TestRunId:
    def test_carries_host_and_timestamp(self):
        identity = run_id()
        assert identity["host"]
        assert identity["timestamp"]
        assert "python" in identity and "commit" in identity
