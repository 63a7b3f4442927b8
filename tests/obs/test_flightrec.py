"""Flight recorder contracts: zero-cost ring, trigger taxonomy,
snapshot-carrying dumps and the verified time-travel restore."""

import glob
import json
import os
from types import SimpleNamespace

import pytest

from repro.ckpt.snapshot import SnapshotMismatch
from repro.exp.registry import get_experiment
from repro.exp.runner import run_experiment
from repro.obs import flightrec
from repro.obs import runtime as obs_runtime
from repro.obs.flightrec import (
    FLIGHT_VERSION,
    RING_CAPACITY,
    FlightRecorder,
    classify_anomaly,
    load_flight_dump,
    restore_flight_dump,
)
from repro.sim.trace import TraceRecord


@pytest.fixture(autouse=True)
def _clean_runtime():
    obs_runtime.reset()
    yield
    obs_runtime.reset()


def _rec(t, kind="span", **details):
    return TraceRecord(t, "test", kind, details)


class TestZeroCostContract:
    def test_disabled_record_is_the_module_noop(self):
        rec = FlightRecorder(enabled=False)
        assert rec.record is flightrec._noop_record

    def test_enabled_record_is_the_bound_method(self):
        rec = FlightRecorder()
        assert rec.record is not flightrec._noop_record
        assert rec.record.__func__ is FlightRecorder.record

    def test_toggling_swaps_back_and_forth(self):
        rec = FlightRecorder()
        rec.enabled = False
        rec.record(_rec(1.0))
        assert not rec.ring
        rec.enabled = True
        rec.record(_rec(2.0))
        assert len(rec.ring) == 1


class TestRing:
    def test_ring_is_bounded_and_keeps_the_newest(self):
        rec = FlightRecorder()
        for i in range(RING_CAPACITY + 50):
            rec.record(_rec(float(i)))
        assert len(rec.ring) == RING_CAPACITY
        assert rec.ring[0].time == 50.0
        assert rec.ring[-1].time == float(RING_CAPACITY + 49)

    def test_counter_deltas_enter_the_ring_as_records(self):
        rec = FlightRecorder()
        rec.note_counters(120.0, {"link.packets_carried": 8})
        entry = rec.ring[0]
        assert entry.source == "flightrec"
        assert entry.kind == "counter_deltas"
        assert entry.details == {"link.packets_carried": 8}

    def test_report_pins_the_noted_end_instant(self):
        rec = FlightRecorder()
        rec.record(_rec(10.0))
        rec.note_end(99.5)
        payload = rec.report("slo-breach: spike")
        assert payload["reason"] == "slo-breach: spike"
        assert payload["at_us"] == 99.5
        assert payload["records"] == [[10.0, "test", "span", {}]]

    def test_report_falls_back_to_last_record_time(self):
        rec = FlightRecorder()
        rec.record(_rec(10.0))
        rec.record(_rec(42.0))
        assert rec.report("x")["at_us"] == 42.0

    def test_report_makes_details_json_safe(self):
        rec = FlightRecorder()
        rec.record(_rec(1.0, packet=object(), n=3))
        details = rec.report("x")["records"][0][3]
        assert details["n"] == 3
        assert isinstance(details["packet"], str)
        json.dumps(details)    # must not raise


class TestAttach:
    def test_attach_behind_an_enabled_tracer_chains_the_sink(self):
        seen = []
        tracer = SimpleNamespace(enabled=True, sink=seen.append)
        rec = FlightRecorder()
        rec.attach(tracer)
        record = _rec(5.0)
        tracer.sink(record)
        assert seen == [record]
        assert list(rec.ring) == [record]

    def test_attach_to_a_disabled_tracer_adopts_the_ring(self):
        tracer = SimpleNamespace(enabled=False, sink=None,
                                 kinds=(), records=[])
        rec = FlightRecorder()
        rec.attach(tracer)
        assert tracer.enabled
        assert tracer.records is rec.ring
        assert tracer.kinds, "forced span kinds must be installed"


class _Verdict:
    def __init__(self, passed, stages=()):
        self._passed = passed
        self._stages = [SimpleNamespace(stage=s) for s in stages]

    @property
    def passed(self):
        return self._passed

    def failed_stages(self):
        return self._stages


class TestTriggerTaxonomy:
    def test_exception_wins(self):
        reason = classify_anomaly(None, ValueError("boom"))
        assert reason == "exception: ValueError: boom"

    def test_failed_verdict_names_the_breached_stages(self):
        outcome = SimpleNamespace(
            verdict=_Verdict(False, ["spike", "cooldown", "spike"]))
        assert classify_anomaly(outcome) == "slo-breach: cooldown,spike"

    def test_verdict_without_stage_results_names_none(self):
        outcome = SimpleNamespace(verdict=SimpleNamespace(passed=False))
        assert classify_anomaly(outcome) == "slo-breach: unknown-stage"

    def test_stage_lookup_bug_propagates(self):
        def failed_stages():
            raise RuntimeError("verdict bug")
        outcome = SimpleNamespace(verdict=SimpleNamespace(
            passed=False, failed_stages=failed_stages))
        with pytest.raises(RuntimeError, match="verdict bug"):
            classify_anomaly(outcome)

    def test_passed_verdict_is_clean(self):
        outcome = SimpleNamespace(verdict=_Verdict(True),
                                  workload_completed=True)
        assert classify_anomaly(outcome) is None

    def test_incomplete_workload_is_a_deadlock(self):
        outcome = SimpleNamespace(workload_completed=False,
                                  category="partitioned")
        assert classify_anomaly(outcome) == "deadlock: partitioned"

    def test_outcome_without_observability_fields_is_clean(self):
        assert classify_anomaly(SimpleNamespace(resolved=True)) is None


class TestDumps:
    def test_load_rejects_non_flight_documents(self, tmp_path):
        path = str(tmp_path / "notflight.json")
        with open(path, "w") as fh:
            json.dump({"flight": 99}, fh)
        with pytest.raises(ValueError, match="not a flight dump"):
            load_flight_dump(path)

    def test_ring_only_dump_refuses_to_restore(self):
        doc = {"flight": FLIGHT_VERSION, "experiment": "x",
               "run_index": 0, "snapshot": None,
               "snapshot_error": "run raised before completing"}
        with pytest.raises(ValueError, match="no snapshot"):
            restore_flight_dump(doc)

    def test_induced_breach_dumps_and_restores(self, tmp_path):
        # The small link-cut cell: the plain-gm flavor reliably
        # breaches its SLO while ftgm holds it, so exactly one run
        # must trigger the recorder.
        spec = get_experiment("slo-chaos").build_spec(
            {"scale": "small", "scenarios": ["link-cut"]})
        flight_dir = str(tmp_path / "flights")
        result = run_experiment(spec, sample_every=5000.0,
                                flight_dir=flight_dir)

        dumps = sorted(glob.glob(os.path.join(flight_dir,
                                              "*.flight.json")))
        assert result.flight_dumps == dumps
        assert len(dumps) == 1

        doc = load_flight_dump(dumps[0])
        assert doc["experiment"] == "slo-chaos"
        assert doc["reason"].startswith("slo-breach: ")
        assert doc["records"], "ring must not be empty"
        assert doc["snapshot"] is not None
        # Counter deltas from the sampler ride the same ring.
        assert any(row[1] == "flightrec" and row[2] == "counter_deltas"
                   for row in doc["records"])

        breached = result.outcomes[doc["run_index"]]
        assert breached.flavor == "gm"
        assert not breached.verdict.passed

        paused = restore_flight_dump(dumps[0], verify=True)
        assert paused.now == doc["at_us"]

        # A dump embedding the previous snapshot format is refused by
        # version, before any replay could end in a hash mismatch.
        doc["snapshot"]["snapshot"] = 1
        with pytest.raises(SnapshotMismatch, match="snapshot version 1"):
            restore_flight_dump(doc)

    def test_clean_campaign_writes_no_dumps(self, tmp_path):
        spec = get_experiment("netfaults").build_spec(
            {"runs_per_scenario": 1, "scenarios": ["link-cut"],
             "nodes": 4})
        flight_dir = str(tmp_path / "flights")
        result = run_experiment(spec, flight_dir=flight_dir)
        assert not result.flight_dumps
        assert not glob.glob(os.path.join(flight_dir, "*"))
