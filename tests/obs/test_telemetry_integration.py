"""Telemetry-plane integration contracts.

The load-bearing guarantees: telemetry never perturbs an experiment
(byte-identical outcomes on or off, in every execution mode), snapshot
aggregation is order-independent, and tracing captures recovery spans
and cross-node message flows.
"""

import json

import pytest

from repro.obs import runtime as obs_runtime
from repro.exp.registry import get_experiment
from repro.exp.results import validate_result
from repro.exp.runner import run_experiment


@pytest.fixture(autouse=True)
def _clean_runtime():
    obs_runtime.reset()
    yield
    obs_runtime.reset()


def _doc(name, params, **kw):
    experiment = get_experiment(name)
    spec = experiment.build_spec(dict(params))
    result = run_experiment(spec, **kw)
    doc = result.to_doc()
    doc.pop("manifest")      # wall time / timestamp differ run to run
    return result, doc


def _strip(doc):
    doc = dict(doc)
    doc.pop("telemetry", None)
    return json.dumps(doc, sort_keys=True)


class TestByteIdentity:
    @pytest.mark.parametrize("seed", [2003, 99])
    def test_enabled_vs_disabled_is_byte_identical(self, seed):
        params = {"runs": 3, "seed": seed}
        _, off = _doc("table1", params)
        _, on = _doc("table1", params, telemetry=True, trace=True)
        assert "telemetry" not in off
        assert "telemetry" in on
        assert _strip(off) == _strip(on)

    def test_ftgm_flavor_identical_too(self):
        params = {"runs": 4}
        _, off = _doc("effectiveness", params)
        _, on = _doc("effectiveness", params, telemetry=True, trace=True)
        assert _strip(off) == _strip(on)

    def test_workers_and_forkserver_modes_agree(self):
        params = {"runs": 4}
        docs = [
            _doc("effectiveness", params, telemetry=True,
                 workers=workers, forkserver=forkserver)[1]
            for workers, forkserver in
            ((1, True), (4, True), (1, False), (4, False))
        ]
        asjson = [json.dumps(d, sort_keys=True) for d in docs]
        assert all(d == asjson[0] for d in asjson), \
            "serial/pool/fork-server runs must agree, telemetry included"


class TestSnapshotSemantics:
    def test_telemetry_doc_validates(self):
        result, doc = _doc("table1", {"runs": 3}, telemetry=True)
        doc["manifest"] = result.manifest.to_dict()
        validate_result(doc)

    def test_snapshot_covers_every_layer(self):
        result, _ = _doc("table1", {"runs": 3}, telemetry=True)
        counters = result.telemetry.counters
        for key in ("sim.events_scheduled", "lanai.instructions_retired",
                    "mcp.packets_sent", "dma.transactions",
                    "pci.bytes_moved", "link.packets_carried",
                    "switch.forwarded", "gm.port.sends_completed"):
            assert key in counters, "missing %s" % key

    def test_recovery_histograms_present_for_ftgm(self):
        # 10 runs at the default seed is the smallest campaign in which
        # at least one injected fault triggers a full FTGM recovery.
        result, _ = _doc("effectiveness", {"runs": 10}, telemetry=True)
        hists = result.telemetry.histograms
        assert any(k.startswith("recovery.phase.") for k in hists)
        assert "recovery.total_us" in hists

    @pytest.mark.parametrize("name, params", [
        ("fig7", {"messages": 3}), ("fig8", {"iterations": 2}),
        ("table2", {"iterations": 2}), ("fig45", {})])
    def test_paper_figures_report_counters(self, name, params):
        result, _ = _doc(name, params, telemetry=True)
        counters = result.telemetry.counters
        assert counters["mcp.packets_sent"] > 0
        assert counters["link.packets_carried"] > 0

    def test_disabled_run_attaches_no_telemetry(self):
        result, _ = _doc("table1", {"runs": 2})
        assert result.telemetry is None
        assert result.traces is None


class TestTracing:
    def test_flows_stitch_sender_wire_receiver(self):
        result, _ = _doc("table1", {"runs": 2}, trace=True)
        assert result.traces and len(result.traces) == 2
        phases = {}
        for _, records in result.traces:
            for record in records:
                if record.kind == "flow":
                    phases.setdefault(record.details["_id"], set()) \
                          .add(record.details["_ph"])
        assert any(v >= {"b", "n", "e"} for v in phases.values()), \
            "no message completed a b/n/e flow"

    def test_recovery_spans_mirror_table3_phases(self):
        result, _ = _doc("effectiveness", {"runs": 10}, trace=True)
        spans = {record.details["name"]
                 for _, records in result.traces
                 for record in records if record.kind == "span"}
        assert {"daemon wakeup", "MCP reload",
                "FAULT_DETECTED posting"} <= spans

    def test_timer_expired_noise_is_excluded(self):
        result, _ = _doc("table1", {"runs": 2}, trace=True)
        kinds = {record.kind
                 for _, records in result.traces for record in records}
        assert "timer_expired" not in kinds

    def test_runtime_is_reset_after_run(self):
        _doc("table1", {"runs": 2}, telemetry=True, trace=True)
        assert not obs_runtime.metrics_on()
        assert not obs_runtime.tracing()
