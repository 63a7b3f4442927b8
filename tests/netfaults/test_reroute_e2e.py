"""End-to-end reroute recovery: the PR's acceptance scenario.

A 4-node 2-switch ring runs a cross-switch message stream; the in-use
uplink is severed mid-stream.  The path detector must classify the fault
as path-dead (NOT a NIC hang — no card is reset), the FTD must re-run
the mapper and install fresh routes, in-flight shadow-tokened messages
must be delivered exactly once over the new path, and the whole run must
be deterministic: two same-seed executions produce identical traces.
"""

from dataclasses import asdict

from repro.exp.registry import get_experiment
from repro.netfaults import NetCategory, NetFaultConfig, Verdict

run_one = get_experiment("netfaults").run_one

_CONFIG = dict(run_id=0, seed=1234, scenario="link-cut",
               fault_at_us=9_000.0)


class TestRerouteRecovery:
    def setup_method(self):
        self.outcome = run_one(NetFaultConfig(**_CONFIG))

    def test_detector_classifies_path_dead(self):
        verdicts = {v for _t, _d, v in self.outcome.verdicts}
        assert Verdict.PATH_DEAD in verdicts
        assert Verdict.NIC_HANG not in verdicts

    def test_card_is_not_reset(self):
        # The card was healthy: reroute must happen without the 765 ms
        # reset/reload path ever triggering.
        assert self.outcome.nic_resets == 0
        assert self.outcome.card_recoveries == 0

    def test_mapper_reroute_happened(self):
        assert self.outcome.reroutes >= 1
        assert self.outcome.reroutes_failed == 0
        assert self.outcome.reroute_installed_at \
            > self.outcome.reroute_woken_at > self.outcome.verdict_at \
            > self.outcome.fault_at

    def test_exactly_once_delivery(self):
        assert self.outcome.delivered_once == self.outcome.messages_expected
        assert self.outcome.duplicates == 0
        assert self.outcome.missing == 0
        assert self.outcome.sends_errored == 0

    def test_classified_as_reroute_recovery(self):
        assert self.outcome.category == NetCategory.REROUTE
        segments = self.outcome.latency_segments()
        assert segments is not None
        assert all(value >= 0 for _label, value in segments)


def test_same_seed_runs_are_identical():
    first = run_one(NetFaultConfig(**_CONFIG))
    second = run_one(NetFaultConfig(**_CONFIG))
    assert asdict(first) == asdict(second)
