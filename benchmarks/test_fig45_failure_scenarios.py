"""Figures 4 & 5 — the duplicate- and lost-message scenarios, GM vs FTGM.

Not a performance figure but a behaviour matrix: the adversarially timed
crashes of the paper's §3 reproduce their bugs under plain GM with naive
reload, and FTGM's restored sequence state / moved commit point remove
them.
"""

from repro.exp.registry import get_experiment
from repro.exp.runner import run_experiment


def test_fig45_failure_matrix(benchmark, report):
    def run_matrix():
        experiment = get_experiment("fig45")
        spec = experiment.build_spec({})
        outcomes = run_experiment(spec).outcomes
        return {("fig%d" % config.figure, config.cluster.flavor):
                outcome["bad"]
                for config, outcome in zip(experiment.expand(spec),
                                           outcomes)}

    bad = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    lines = [
        "Figures 4 & 5: failure scenarios under naive-GM vs FTGM",
        "%-42s %8s %8s" % ("scenario", "GM", "FTGM"),
        "%-42s %8s %8s" % (
            "Fig 4: duplicate delivered after crash",
            "YES" if bad[("fig4", "gm")] else "no",
            "YES" if bad[("fig4", "ftgm")] else "no"),
        "%-42s %8s %8s" % (
            "Fig 5: message lost (sender told success)",
            "YES" if bad[("fig5", "gm")] else "no",
            "YES" if bad[("fig5", "ftgm")] else "no"),
    ]
    report("fig45_failure_scenarios", "\n".join(lines))

    assert bad[("fig4", "gm")]          # a duplicate
    assert not bad[("fig4", "ftgm")]
    assert bad[("fig5", "gm")]          # a lost message
    assert not bad[("fig5", "ftgm")]
