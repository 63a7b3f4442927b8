"""The paper's Figure 4 and Figure 5 failure scenarios.

Figure 4 (duplicate messages): a sender crashes with an ACK in transit;
after a naive MCP reload it resends with fresh sequence numbers, the
receiver NACKs with its expected number, the sender adopts it, and the
receiver accepts a message it already delivered.

Figure 5 (lost messages): plain GM's receiver ACKs before the DMA into
the user buffer completes; a crash in that window convinces the sender
the message arrived while the receiver never sees it.

Both bugs must REPRODUCE under plain GM + naive reload, and both must be
ABSENT under FTGM.  The scenario runners live in
:mod:`repro.faults.scenarios` (shared with the Fig. 4/5 benchmark).
"""

import pytest

from repro.exp.registry import get_experiment
from repro.faults.scenarios import run_figure4, run_figure5
from repro.gm.library import Port


def _booted(figure, flavor):
    """The registry's ``fig45`` cluster for one figure x flavor case."""
    experiment = get_experiment("fig45")
    config, = [c for c in experiment.expand(experiment.build_spec({}))
               if c.figure == figure and c.cluster.flavor == flavor]
    return experiment.boot(config)


class TestFigure4Duplicates:
    def test_plain_gm_naive_reload_accepts_duplicate(self):
        result = run_figure4(_booted(4, "gm"))
        # Message 5 was delivered BEFORE the crash (its ACK was in
        # transit) and AGAIN after the naive resend: a duplicate.
        assert result.deliveries_of_msg5 == 2
        assert result.duplicate

    def test_ftgm_rejects_duplicate_after_recovery(self):
        result = run_figure4(_booted(4, "ftgm"))
        assert result.deliveries_of_msg5 == 1
        assert not result.duplicate
        # And the sender's send completed (callback fired post-recovery).
        assert result.sender_completed


class TestFigure5LostMessages:
    def test_plain_gm_loses_message_acked_before_dma(self):
        result = run_figure5(_booted(5, "gm"))
        # The sender was told the send succeeded...
        assert result.sender_told_success
        # ...but the receiving application never saw the message.
        assert not result.receiver_got_message
        assert result.lost

    def test_ftgm_delayed_ack_preserves_message(self):
        result = run_figure5(_booted(5, "ftgm"))
        assert result.sender_told_success
        assert result.receiver_got_message
        assert not result.lost

    def test_a_non_gm_error_from_the_send_path_raises(self, monkeypatch):
        # The sender catches GmError only: a send GM rejects is a failed
        # send, any other exception is a bug and must surface instead of
        # being tabulated as one.
        def send(self, *args, **kwargs):
            raise RuntimeError("send path bug")
            yield  # pragma: no cover - a generator, like Port.send

        monkeypatch.setattr(Port, "send", send)
        with pytest.raises(RuntimeError, match="send path bug"):
            run_figure5(_booted(5, "ftgm"))
