"""The parallel campaign runner must be invisible in the results.

``run_experiment(spec, workers=N)`` fans injection runs out over forked
children.  Every run is hermetic (its own Simulator, its own seed), so
the parallel campaign must reproduce the serial one bit for bit: same
outcome objects, same order, same rendered table.  Anything less would
make Table 1 depend on the machine's core count.
"""

from repro.exp.registry import get_experiment
from repro.exp.runner import run_experiment, run_many
from repro.faults.injector import InjectionConfig


def _campaign(name, workers, progress=None, **params):
    """``name``'s aggregate, run in-process at ``workers=1``."""
    experiment = get_experiment(name)
    spec = experiment.build_spec(params)
    result = run_experiment(spec, workers=workers, progress=progress,
                            forkserver=False)
    return experiment.aggregate(spec, result.outcomes)


def test_campaign_parallel_matches_serial():
    serial = _campaign("table1", 1, runs=40, seed=2003)
    parallel = _campaign("table1", 4, runs=40, seed=2003)
    assert [o.run_id for o in parallel.outcomes] == list(range(40))
    assert parallel.outcomes == serial.outcomes
    assert parallel.counts == serial.counts
    assert parallel.render() == serial.render()


def test_effectiveness_parallel_matches_serial():
    serial = _campaign("effectiveness", 1, runs=16, seed=42)
    parallel = _campaign("effectiveness", 4, runs=16, seed=42)
    assert parallel == serial


def test_parallel_progress_reaches_total():
    ticks = []
    result = _campaign("table1", 2, progress=ticks.append, runs=8, seed=11)
    assert len(result.outcomes) == 8
    # Completion order is nondeterministic but the count is not.
    assert sorted(ticks) == list(range(1, 9))
    assert ticks[-1] == 8 or 8 in ticks


def test_run_many_single_config_stays_serial():
    # A one-element campaign must not pay pool startup.
    configs = [InjectionConfig(run_id=0, seed=5, messages=4)]
    outcomes = run_many(configs, get_experiment("table1").run_one,
                        workers=8, progress=None)
    assert len(outcomes) == 1
    assert outcomes[0].run_id == 0
