"""The registry behind the CLI: every experiment runs under one
spelling, ``repro run <name>``; run/list work."""

import json
import subprocess

import pytest

from repro.ckpt.snapshot import restore_snapshot, take_snapshot
from repro.cli import main
from repro.exp import results as results_module
from repro.exp import runner as runner_module
from repro.exp.registry import Experiment, all_experiments, \
    experiment_names, get_experiment
from repro.exp.results import validate_result
from repro.exp.runner import run_experiment
from repro.exp.spec import ExperimentSpec

ALL_VERBS = ("table1", "table2", "table3", "fig7", "fig8", "fig9",
             "fig45", "effectiveness", "surface", "netfaults")


class TestRegistry:
    @pytest.mark.parametrize("name", experiment_names())
    def test_every_experiment_runs_via_repro_run(self, name, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", name, "--help"])
        assert exit_info.value.code == 0
        usage = capsys.readouterr().out
        assert usage.startswith("usage: repro run %s" % name)
        for option in get_experiment(name).options:
            assert option.flag in usage

    def test_all_historic_verbs_registered(self):
        names = experiment_names()
        for verb in ALL_VERBS:
            assert verb in names

    def test_unknown_name_lists_the_alternatives(self):
        with pytest.raises(KeyError, match="table1"):
            get_experiment("nope")

    def test_registrations_are_complete(self):
        for experiment in all_experiments():
            assert callable(experiment.build_spec)
            assert callable(experiment.expand)
            assert callable(experiment.resume)
            assert callable(experiment.run_one)
            assert callable(experiment.aggregate)
            assert callable(experiment.render)
            spec = experiment.build_spec(
                {opt.dest: opt.default for opt in experiment.options})
            assert spec.experiment == experiment.name
            assert len(experiment.expand(spec)) == spec.runs


class TestEngineVerbs:
    def test_list_shows_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in experiment_names():
            assert name in out

    def test_run_by_name(self, capsys):
        assert main(["run", "table1", "--runs", "2"]) == 0
        assert "Failure Category" in capsys.readouterr().out
        assert main(["run", "netfaults", "--runs-per-scenario", "1"]) == 0
        assert "Netfault campaign" in capsys.readouterr().out

    def test_run_writes_a_valid_result_document(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        assert main(["run", "table1", "--runs", "2",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        validate_result(doc)
        assert doc["spec"]["experiment"] == "table1"
        assert len(doc["outcomes"]) == 2
        capsys.readouterr()

    def test_run_from_spec_file(self, tmp_path, capsys):
        spec = get_experiment("table1").build_spec({"runs": 2})
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        assert main(["run", str(path)]) == 0
        assert "Failure Category" in capsys.readouterr().out

    def test_spec_file_round_trips_through_the_cli(self, tmp_path):
        spec = get_experiment("netfaults").build_spec(
            {"runs_per_scenario": 1})
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        assert ExperimentSpec.from_json(path.read_text()) == spec

    def test_run_unknown_experiment_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "nope"])

    def test_workers_flag_accepted_everywhere(self, capsys):
        assert main(["run", "table1", "--runs", "2", "--workers", "2"]) == 0
        assert "Failure Category" in capsys.readouterr().out

    def test_experiment_name_is_not_a_command(self, capsys):
        assert main(["table1", "--runs", "2"]) == 2
        assert "use 'repro run table1'" in capsys.readouterr().err


# Small params for every registered experiment; the test below fails
# when a newly registered one is missing here.
PROTOCOL_PARAMS = {
    "table1": {"runs": 1},
    "effectiveness": {"runs": 1},
    "surface": {"runs": 1},
    "netfaults": {"runs_per_scenario": 1},
    "closfault": {"scale": "small"},
    "slo-chaos": {"scale": "small"},
    "table2": {"iterations": 2},
    "table3": {},
    "fig9": {},
    "fig7": {"messages": 3},
    "fig8": {"iterations": 2},
    "fig45": {},
}


def test_protocol_params_cover_the_registry():
    assert sorted(PROTOCOL_PARAMS) == sorted(experiment_names())


@pytest.mark.parametrize("name", sorted(PROTOCOL_PARAMS))
def test_campaign_protocol_is_resume_on_the_configs_cluster(name):
    """Every experiment registers ``resume``; boot, family, ``run_one``
    and the snapshot pause all derive from it and ``config.cluster``."""
    experiment = get_experiment(name)
    spec = experiment.build_spec(PROTOCOL_PARAMS[name])
    config = experiment.expand(spec)[0]
    assert experiment.boot_family(config) == config.cluster
    outcome = experiment.run_one(config)
    assert outcome == experiment.resume(experiment.boot(config), config)
    snapshot = take_snapshot(spec, 4_000.0, 0)
    paused = restore_snapshot(snapshot)         # verifies the state hash
    assert paused.now == snapshot.at_us
    assert paused.finish() == outcome


def test_run_one_is_not_a_registration_parameter():
    with pytest.raises(TypeError, match="run_one"):
        Experiment(name="x", help="", build_spec=None, expand=None,
                   aggregate=None, render=None, resume=None, run_one=None)


def test_snapshot_cli_round_trips_a_paper_figure(tmp_path, capsys):
    out = tmp_path / "fig9.snapshot.json"
    assert main(["snapshot", "fig9", "--at", "700", "--out", str(out)]) == 0
    assert "run 0 of fig9 at 700.0 us" in capsys.readouterr().out
    paused = restore_snapshot(str(out))         # verifies the state hash
    assert paused.now == 700.0
    experiment = get_experiment("fig9")
    config = experiment.expand(experiment.build_spec({}))[0]
    assert paused.finish() == experiment.run_one(config)


class TestExecutorRule:
    """Cluster size picks the executor: the fork-server only for several
    workers or clusters of ``LAZY_AUTO_THRESHOLD`` nodes and up."""

    class Stop(Exception):
        pass

    @pytest.fixture
    def executor(self, monkeypatch):
        seen = {}

        def spy(configs, runner, *, workers=1, fork_boot=None, **_kwargs):
            seen.update(workers=workers, fork_boot=fork_boot)
            raise self.Stop

        monkeypatch.setattr(runner_module, "run_many", spy)

        def executor_of(name, params, **kwargs):
            spec = get_experiment(name).build_spec(params)
            with pytest.raises(self.Stop):
                run_experiment(spec, **kwargs)
            return "fork-server" if seen["fork_boot"] is not None \
                else "in-process"
        return executor_of

    @pytest.mark.parametrize("name,params", [
        ("table1", {"runs": 4}),                # 2 nodes
        ("netfaults", {"runs_per_scenario": 1}),   # 4 nodes
        ("fig7", {}),
    ], ids=["2-node", "4-node", "paper-figure"])
    def test_small_clusters_run_in_process(self, executor, name, params):
        assert executor(name, params) == "in-process"

    def test_sixteen_nodes_fork(self, executor):
        assert executor("closfault", {"scale": "small"}) == "fork-server"

    @pytest.mark.parametrize("name", ["table1", "fig8"])
    def test_several_workers_fork(self, executor, name):
        assert executor(name, {}, workers=2) == "fork-server"

    def test_forkserver_false_withholds_the_boot(self, executor):
        assert executor("closfault", {"scale": "small"},
                        forkserver=False) == "in-process"


class TestGitRevision:
    """Provenance degrades to "unknown" only for a missing or failing
    ``git``; anything else is a bug and propagates."""

    def _run_raising(self, monkeypatch, exc):
        def run(*args, **kwargs):
            raise exc
        monkeypatch.setattr(results_module.subprocess, "run", run)

    def test_missing_git_is_unknown(self, monkeypatch):
        self._run_raising(monkeypatch, FileNotFoundError("git"))
        assert results_module.git_revision() == "unknown"

    def test_failing_git_is_unknown(self, monkeypatch):
        self._run_raising(monkeypatch, subprocess.CalledProcessError(
            128, ["git", "rev-parse", "HEAD"]))
        assert results_module.git_revision() == "unknown"

    def test_other_errors_propagate(self, monkeypatch):
        self._run_raising(monkeypatch, RuntimeError("not a git failure"))
        with pytest.raises(RuntimeError, match="not a git failure"):
            results_module.git_revision()
