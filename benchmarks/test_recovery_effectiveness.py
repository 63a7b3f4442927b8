"""§5.2 — recovery effectiveness: the Table 1 campaign repeated on FTGM.

Paper: every interface hang was detected; 281 of 286 hangs fully
recovered (five under investigation).  We require full detection and a
>= 90% recovery rate on the simulated hang population.
"""

from conftest import env_int

from repro.exp.registry import get_experiment
from repro.exp.runner import run_experiment


def test_recovery_effectiveness(benchmark, report):
    runs = env_int("REPRO_EFF_RUNS", 80)

    def study():
        experiment = get_experiment("effectiveness")
        spec = experiment.build_spec(
            {"runs": runs, "seed": 7001, "messages": 10})
        return experiment.aggregate(spec, run_experiment(spec).outcomes)

    result = benchmark.pedantic(study, rounds=1, iterations=1)
    report("recovery_effectiveness", result.render())

    assert result.hangs > 0
    # "this simple fault detection mechanism was able to detect all the
    # interface hangs reported in Table 1"
    assert result.detected == result.hangs
    assert result.recovery_rate >= 0.90
