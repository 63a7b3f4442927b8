"""FTGM recovery-effectiveness (§5.2) on a small injected population."""

import pytest

from repro.exp.registry import get_experiment
from repro.exp.runner import run_experiment


@pytest.fixture(scope="module")
def study():
    experiment = get_experiment("effectiveness")
    spec = experiment.build_spec({"runs": 30, "seed": 4242, "messages": 8})
    return experiment.aggregate(
        spec, run_experiment(spec, forkserver=False).outcomes)


def test_hang_population_nonempty(study):
    assert study.hangs > 0


def test_all_hangs_detected(study):
    """"this simple fault detection mechanism was able to detect all the
    interface hangs" — our watchdog must match."""
    assert study.detected == study.hangs


def test_recovery_rate_matches_paper_band(study):
    """Paper: 281/286 (98.3%) recovered.  Require >= 90% here."""
    assert study.recovery_rate >= 0.90


def test_render_mentions_paper_numbers(study):
    text = study.render()
    assert "286" in text and "98.3" in text
