"""The registry behind the CLI: every experiment runs under one
spelling, ``repro run <name>``; run/list work."""

import json

import pytest

from repro.ckpt.snapshot import restore_snapshot, take_snapshot
from repro.cli import main
from repro.exp.registry import all_experiments, experiment_names, \
    get_experiment
from repro.exp.results import validate_result
from repro.exp.spec import ExperimentSpec

ALL_VERBS = ("table1", "table2", "table3", "fig7", "fig8", "fig9",
             "fig45", "effectiveness", "surface", "netfaults", "perf")


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


CAMPAIGNS = [("table1", {"runs": 1}),
             ("netfaults", {"runs_per_scenario": 1}),
             ("closfault", {"scale": "small"}),
             ("slo-chaos", {"scale": "small"})]


@pytest.mark.parametrize("name,params", CAMPAIGNS,
                         ids=[name for name, _ in CAMPAIGNS])
def test_campaign_protocol_is_resume_on_the_configs_cluster(name, params):
    """A campaign registers ``resume``; boot, family, ``run_one`` and the
    snapshot pause all derive from it and ``config.cluster``."""
    experiment = get_experiment(name)
    spec = experiment.build_spec(params)
    config = experiment.expand(spec)[0]
    assert experiment.boot_family(config) == config.cluster
    outcome = experiment.run_one(config)
    assert outcome == experiment.resume(experiment.boot(config), config)
    snapshot = take_snapshot(spec, 4_000.0, 0)
    paused = restore_snapshot(snapshot)         # verifies the state hash
    assert paused.now == snapshot.at_us
    assert paused.finish() == outcome
