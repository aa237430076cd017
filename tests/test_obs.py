"""Tests for :mod:`repro.obs` — the structured telemetry layer.

Covers the tentpole guarantees of ISSUE-8:

* the default no-op recorder changes *nothing* — a clean with
  ``NULL_RECORDER`` attached is byte-identical to one without;
* spans nest (depth/parent) and roll up into the canonical phase
  breakdown;
* per-component ``solve`` records carry the plan's features and the
  measured seconds on both the serial and the pool path;
* one shared :class:`~repro.obs.Recorder` survives concurrent sessions
  (thread-safety);
* ``summarize_trace`` / ``calibrate_trace`` — the engines of the
  ``fdrepair trace summarize`` / ``fdrepair calibrate`` verbs — and the
  verbs themselves end-to-end.
"""

import json
import random
import threading
from contextlib import closing

import pytest

from repro import obs
from repro.cli import main
from repro.core.decompose import DIFFICULTY_UNIT_COST_S
from repro.core.fd import FDSet
from repro.core.table import Table
from repro.datagen.synthetic import portfolio_mix_table
from repro.io.tables import table_to_csv
from repro.pipeline import assess, clean
from repro.session import RepairSession
from repro.testing import random_small_table

SCHEMA = ("A", "B", "C")
HARD = FDSet("A -> B; B -> C")


def _mix_table(seed=11):
    return portfolio_mix_table(
        ("A", "B", "C"),
        easy_components=2,
        easy_size=40,
        hard_components=2,
        hard_size=30,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# No-op recorder: guaranteed absence of observable effect
# ---------------------------------------------------------------------------

class TestNullRecorder:
    def test_null_recorder_is_disabled_and_inert(self):
        rec = obs.NULL_RECORDER
        assert rec.enabled is False
        with rec.span("anything", tag=1):
            rec.count("c")
            rec.observe("h", 0.5)
            rec.gauge("g", 1.0)
            rec.record("solve", foo=1)
        assert rec.snapshot() == {}
        assert rec.phase_breakdown() == {}
        rec.close()  # idempotent no-op

    def test_resolve_maps_none_to_null(self):
        assert obs.resolve(None) is obs.NULL_RECORDER
        rec = obs.Recorder()
        assert obs.resolve(rec) is rec

    def test_clean_byte_identical_with_and_without_recorder(self):
        table = _mix_table()
        plain = clean(table, HARD, exact_budget_s=0.5)
        nulled = clean(
            table, HARD, exact_budget_s=0.5, recorder=obs.NULL_RECORDER
        )
        assert plain.distance == nulled.distance
        assert plain.method == nulled.method
        assert table_to_csv(plain.cleaned) == table_to_csv(nulled.cleaned)

    def test_clean_byte_identical_under_live_recorder(self, tmp_path):
        table = _mix_table()
        plain = clean(table, HARD, exact_budget_s=0.5)
        path = tmp_path / "trace.jsonl"
        with obs.Recorder(sink=obs.JsonlTraceSink(str(path))) as rec:
            traced = clean(table, HARD, exact_budget_s=0.5, recorder=rec)
        assert plain.distance == traced.distance
        assert table_to_csv(plain.cleaned) == table_to_csv(traced.cleaned)
        assert path.exists() and path.stat().st_size > 0


# ---------------------------------------------------------------------------
# Spans, counters, histograms
# ---------------------------------------------------------------------------

class TestRecorder:
    def test_spans_nest_with_depth_and_parent(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with obs.Recorder(sink=obs.JsonlTraceSink(str(path))) as rec:
            with rec.span("outer", kind="test"):
                with rec.span("inner"):
                    pass
        records = obs.read_trace(str(path))
        spans = {r["name"]: r for r in records if r["type"] == "span"}
        assert spans["inner"]["depth"] == 1
        assert spans["inner"]["parent"] == "outer"
        assert spans["outer"]["depth"] == 0
        assert spans["outer"]["tags"] == {"kind": "test"}
        # Inner closed first, so it appears first in the log; the outer
        # duration covers the inner one.
        assert spans["outer"]["dur_s"] >= spans["inner"]["dur_s"]

    def test_counters_gauges_histograms_roll_up(self):
        rec = obs.Recorder()
        rec.count("hits", 2)
        rec.count("hits", 3, tenant="t1")
        rec.count("hits", 1, tenant="t2")
        rec.gauge("depth", 7.0)
        rec.observe("lat", 0.0005)
        rec.observe("lat", 2.0)
        snap = rec.snapshot()
        assert snap["counters"]["hits"] == 6
        assert snap["gauges"]["depth"] == 7.0
        assert rec.tag_totals("hits", "tenant") == {"t1": 3, "t2": 1}
        hist = rec.histograms()["lat"]
        assert hist["count"] == 2
        assert hist["max_s"] == 2.0
        assert hist["buckets"]["le_0.001"] == 1

    def test_sinkless_recorder_aggregates_without_io(self):
        rec = obs.Recorder()
        with rec.span("phase.solve"):
            pass
        breakdown = rec.phase_breakdown()
        assert "solve" in breakdown
        assert breakdown["solve"]["count"] == 1

    def test_summary_record_written_on_close(self, tmp_path):
        path = tmp_path / "s.jsonl"
        rec = obs.Recorder(sink=obs.JsonlTraceSink(str(path)))
        rec.count("c", 4)
        rec.close()
        rec.close()  # idempotent: no second summary
        records = obs.read_trace(str(path))
        summaries = [r for r in records if r["type"] == "summary"]
        assert len(summaries) == 1
        assert summaries[0]["counters"]["c"] == 4

    def test_shared_recorder_is_thread_safe(self, tmp_path):
        """Concurrent sessions over one recorder: no torn JSONL lines,
        no lost counter increments."""
        path = tmp_path / "threads.jsonl"
        rec = obs.Recorder(sink=obs.JsonlTraceSink(str(path)))
        errors = []

        def worker(seed):
            try:
                rng = random.Random(seed)
                table = random_small_table(
                    rng, SCHEMA, 24, domain=2, weighted=True
                )
                with RepairSession(table, HARD, recorder=rec) as session:
                    session.repair()
                    session.append(
                        [("v0", "v1", "v0"), ("v0", "v2", "v0")]
                    )
                    session.repair()
                rec.count("workers.done")
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(s,)) for s in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert rec.snapshot()["counters"]["workers.done"] == 6
        rec.close()
        # Every line parses: the sink's lock kept writers from tearing.
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        for line in lines:
            json.loads(line)
        records = obs.read_trace(str(path))
        assert len(records) == len(lines)
        spans = [r for r in records if r["type"] == "span"]
        # 3 repairs per worker: the explicit repair(), append's implicit
        # re-repair, and the final repair().
        assert sum(1 for s in spans if s["name"] == "session.repair") == 18


# ---------------------------------------------------------------------------
# Solve records: serial and pool paths
# ---------------------------------------------------------------------------

class TestSolveRecords:
    def _solve_records(self, path):
        return [
            r for r in obs.read_trace(str(path)) if r["type"] == "solve"
        ]

    def test_clean_emits_one_record_per_component(self, tmp_path):
        table = _mix_table()
        report = assess(table, HARD)
        path = tmp_path / "clean.jsonl"
        with obs.Recorder(sink=obs.JsonlTraceSink(str(path))) as rec:
            clean(table, HARD, exact_budget_s=0.5, recorder=rec)
        solves = self._solve_records(path)
        assert len(solves) == report.component_count
        for record in solves:
            assert record["context"] == "clean"
            assert record["path"] == "serial"
            assert record["actual_s"] >= 0.0
            assert record["method"] in (
                "exact", "approx", "dichotomy", "lp"
            )
            # Scheduled runs carry the plan's cost-model features.
            assert record["difficulty"] > 0
            assert record["predicted_s"] > 0
            assert "density" in record and "weight_spread" in record

    def test_pool_clean_records_match_serial_shape(self, tmp_path):
        from repro.exec import PersistentWorkerPool

        probe = PersistentWorkerPool(1)
        try:
            available = probe.start()
        finally:
            probe.close()
        if not available:
            pytest.skip("subprocess support unavailable")
        table = _mix_table()
        serial_path = tmp_path / "serial.jsonl"
        pool_path = tmp_path / "pool.jsonl"
        with obs.Recorder(sink=obs.JsonlTraceSink(str(serial_path))) as rec:
            serial = clean(table, HARD, exact_budget_s=0.5, recorder=rec)
        with obs.Recorder(sink=obs.JsonlTraceSink(str(pool_path))) as rec, \
                closing(PersistentWorkerPool(2, recorder=rec)) as pool:
            pooled = clean(
                table, HARD, exact_budget_s=0.5, executor=pool, recorder=rec
            )
        assert serial.distance == pooled.distance
        s_records = self._solve_records(serial_path)
        p_records = self._solve_records(pool_path)
        assert len(s_records) == len(p_records)
        for s, p in zip(s_records, p_records):
            assert s["ordinal"] == p["ordinal"]
            assert s["size"] == p["size"]
            assert s["method"] == p["method"]
        assert {r["path"] for r in p_records} <= {"pool", "serial"}

    def test_session_solve_records_carry_session_context(self, tmp_path):
        rng = random.Random(3)
        table = random_small_table(rng, SCHEMA, 30, domain=2, weighted=True)
        path = tmp_path / "session.jsonl"
        rec = obs.Recorder(sink=obs.JsonlTraceSink(str(path)))
        with RepairSession(
            table, HARD, session_key="t/s", recorder=rec
        ) as session:
            session.repair()
        rec.close()
        solves = self._solve_records(path)
        assert solves, "session repair produced no solve records"
        for record in solves:
            assert record["context"] == "session"
            assert record["key"] == "t/s"
        counters = rec.snapshot()["counters"]
        assert counters.get("session.cache_miss", 0) == len(solves)

    def test_budget_exhaustion_flag_surfaces(self, tmp_path):
        # A starved global budget downgrades the tangles up front:
        # planned != effective shows up as downgraded plans.
        table = _mix_table()
        path = tmp_path / "starved.jsonl"
        with obs.Recorder(sink=obs.JsonlTraceSink(str(path))) as rec:
            clean(table, HARD, exact_budget_s=1e-9, recorder=rec)
        solves = self._solve_records(path)
        assert solves
        assert any(r.get("downgraded") for r in solves)


# ---------------------------------------------------------------------------
# Trace analysis: summarize + calibrate
# ---------------------------------------------------------------------------

class TestTraceAnalysis:
    def test_read_trace_skips_torn_lines(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text(
            '{"type": "span", "name": "a", "dur_s": 1.0}\n'
            '{"type": "span", "na'  # torn final line
        )
        records = obs.read_trace(str(path))
        assert len(records) == 1

    def test_summarize_trace_rolls_up_all_record_types(self):
        records = [
            {"type": "span", "name": "phase.solve", "dur_s": 3.0},
            {"type": "span", "name": "phase.index", "dur_s": 1.0},
            {"type": "solve", "method": "exact", "actual_s": 0.5,
             "predicted_s": 0.4, "budget_exhausted": True},
            {"type": "solve", "method": "approx", "actual_s": 0.1},
            {"type": "op", "op": "repair", "tenant": "t1", "dur_s": 0.2,
             "ok": True},
            {"type": "op", "op": "repair", "tenant": "t1", "dur_s": 0.3,
             "ok": False},
            {"type": "summary", "counters": {"hits": 2}},
            {"type": "summary", "counters": {"hits": 3}},
        ]
        summary = obs.summarize_trace(records)
        assert summary["phases"]["solve"]["share"] == 0.75
        assert summary["phases"]["index"]["share"] == 0.25
        assert summary["methods"]["exact"]["budget_exhausted"] == 1
        assert summary["methods"]["exact"]["predicted_s"] == 0.4
        assert summary["methods"]["approx"]["solves"] == 1
        assert summary["tenants"]["t1"]["ops"] == 2
        assert summary["ops"]["repair"]["errors"] == 1
        assert summary["counters"]["hits"] == 5
        assert summary["solves"] == 2

    def test_calibrate_exact_fit_recovers_constant(self):
        # Synthetic trace with actual = c * difficulty exactly: the fit
        # must recover c and report zero error.
        c = 3e-5
        records = [
            {"type": "solve", "method": "exact", "difficulty": d,
             "actual_s": c * d}
            for d in (10.0, 100.0, 1000.0, 250.0)
        ]
        report = obs.calibrate_trace(records)
        assert report["pairs"] == 4
        assert report["unit_cost_s"] == pytest.approx(c, rel=1e-9)
        assert report["mean_rel_error"] == pytest.approx(0.0, abs=1e-9)
        assert report["hand_unit_cost_s"] == DIFFICULTY_UNIT_COST_S

    def test_calibrate_fit_exponent_recovers_power_law(self):
        c, gamma = 1e-6, 1.5
        records = [
            {"type": "solve", "method": "exact", "difficulty": d,
             "actual_s": c * d ** gamma}
            for d in (10.0, 50.0, 200.0, 1000.0)
        ]
        report = obs.calibrate_trace(records, fit_exponent=True)
        assert report["exponent"] == pytest.approx(gamma, rel=1e-6)
        assert report["exponent_unit_cost_s"] == pytest.approx(c, rel=1e-4)
        assert report["exponent_mean_rel_error"] == pytest.approx(
            0.0, abs=1e-6
        )

    def test_calibrate_ignores_unusable_records(self):
        records = [
            {"type": "solve", "method": "approx", "difficulty": 5.0,
             "actual_s": 1.0},
            {"type": "solve", "method": "exact", "difficulty": 0.0,
             "actual_s": 1.0},
            {"type": "solve", "method": "exact", "difficulty": 5.0,
             "actual_s": 0.0},
            {"type": "span", "name": "x", "dur_s": 1.0},
        ]
        report = obs.calibrate_trace(records)
        assert report["pairs"] == 0
        assert "unit_cost_s" not in report

    def test_calibration_improves_on_real_trace(self, tmp_path):
        path = tmp_path / "real.jsonl"
        with obs.Recorder(sink=obs.JsonlTraceSink(str(path))) as rec:
            clean(_mix_table(), HARD, exact_budget_s=0.5, recorder=rec)
        report = obs.calibrate_trace(obs.read_trace(str(path)))
        assert report["pairs"] >= 2
        assert report["mean_rel_error"] <= report["hand_mean_rel_error"]


# ---------------------------------------------------------------------------
# CLI: --trace plumbing and the analysis verbs
# ---------------------------------------------------------------------------

class TestCli:
    def _write_csv(self, tmp_path):
        table = _mix_table()
        path = tmp_path / "mix.csv"
        table_to_csv(table, str(path))
        return str(path)

    def test_srepair_trace_then_summarize_and_calibrate(
        self, tmp_path, capsys
    ):
        csv_path = self._write_csv(tmp_path)
        trace = tmp_path / "t.jsonl"
        assert main([
            "s-repair", csv_path, "A -> B; B -> C",
            "--exact-budget", "0.5", "--trace", str(trace),
        ]) == 0
        assert trace.exists()
        capsys.readouterr()

        assert main(["trace", "summarize", str(trace), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["solves"] > 0
        assert "solve" in summary["phases"]

        assert main(["calibrate", str(trace), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pairs"] > 0
        assert report["mean_rel_error"] <= report["hand_mean_rel_error"]

    def test_stream_parallel_trace_records_worker_deaths(
        self, tmp_path, capsys, monkeypatch
    ):
        """``stream --parallel 2 --trace`` builds its pool with the
        trace recorder and closes it first, so a killed worker shows up
        in the trace summary as it does for ``s-repair``."""
        from repro.datagen.synthetic import clustered_conflicts_table
        from repro.exec import PersistentWorkerPool
        from repro.faults import FAULTS_ENV

        probe = PersistentWorkerPool(1)
        try:
            available = probe.start()
        finally:
            probe.close()
        if not available:
            pytest.skip("subprocess support unavailable")
        table = clustered_conflicts_table(SCHEMA, 200, clusters=10,
                                          cluster_size=16, seed=1)
        batches = tmp_path / "batches.jsonl"
        batches.write_text(json.dumps({
            "op": "append",
            "rows": [list(row) for row in table.rows().values()],
        }) + "\n", encoding="utf-8")
        trace = tmp_path / "t.jsonl"
        monkeypatch.setenv(FAULTS_ENV, json.dumps([{
            "site": "worker.solve", "action": "kill", "at": 1,
            "match": {"worker": 0, "generation": 0},
        }]))
        assert main([
            "stream", "A -> B; B -> C", str(batches), "--schema", "A,B,C",
            "--parallel", "2", "--quiet", "--trace", str(trace),
        ]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["counters"]["pool.worker_death"] == 1

    def test_assess_json_reports_budget_totals(self, tmp_path, capsys):
        csv_path = self._write_csv(tmp_path)
        assert main([
            "assess", csv_path, "A -> B; B -> C",
            "--json", "--exact-budget", "0.5",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["granted_budget_s"] == 0.5
        assert payload["predicted_total_s"] == pytest.approx(
            sum(
                c["predicted_s"]
                for c in payload["components"]
                if c["predicted_s"] is not None
            )
        )
        assert payload["components"]

    def test_calibrate_empty_trace_exits_cleanly(self, tmp_path, capsys):
        trace = tmp_path / "empty.jsonl"
        trace.write_text("")
        assert main(["calibrate", str(trace)]) == 0
        assert "no calibratable" in capsys.readouterr().out

    def test_trace_summarize_missing_file_fails(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["trace", "summarize", str(missing)]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_stream_trace_writes_session_records(self, tmp_path):
        batches = tmp_path / "ops.jsonl"
        batches.write_text(
            '{"op": "append", "rows": [["a", "x", "p"], ["a", "y", "p"]]}\n'
            '{"op": "repair"}\n'
        )
        trace = tmp_path / "stream.jsonl"
        assert main([
            "stream", "A -> B", str(batches),
            "--schema", "A,B,C", "--quiet", "--trace", str(trace),
        ]) == 0
        records = obs.read_trace(str(trace))
        assert any(
            r["type"] == "span" and r["name"] == "session.repair"
            for r in records
        )
        assert any(r["type"] == "summary" for r in records)
