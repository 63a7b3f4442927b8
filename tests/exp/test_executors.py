"""The two executors are one experiment: same bytes, clear errors.

``run_many`` has an in-process serial loop and a fork-server (boot once
per family, ``os.fork()`` a copy-on-write child per run; a runner with no
registered boot rides it through a null boot).  Which one runs is pure
execution strategy, so outcomes, summaries, rendered reports and sampled
timeseries must be byte-identical across every row of the executor
table, at more than one seed — and a fork-server child that dies must
surface as an error naming its run, never as a hang or a short result.
"""

import hashlib
import json
import os
import signal
from types import SimpleNamespace

import pytest

from repro.exp.registry import get_experiment
from repro.exp.runner import (
    ForkBoot,
    _read_frame,
    _write_frame,
    forkserver_available,
    run_experiment,
    run_many,
)

pytestmark = pytest.mark.skipif(not forkserver_available(),
                                reason="the fork-server needs os.fork")

# The executor table of run_many's docstring, as run_experiment kwargs.
# The first row is the reference; the default picks its executor by
# cluster size.  The fork-server at one child, which run_experiment
# picks only for 16+ nodes, is :func:`_fork_server_one`.
EXECUTORS = {
    "in-process": {"forkserver": False},
    "default": {},
    "fork-server-3": {"workers": 3},
    "null-boot-3": {"workers": 3, "forkserver": False},
}

# table3 ignores the seed.
CASES = [
    ("table1", {"runs": 4}, 2003),
    ("table1", {"runs": 4}, 99),
    ("netfaults", {"runs_per_scenario": 1}, 2003),
    ("netfaults", {"runs_per_scenario": 1}, 99),
    ("slo-chaos", {"scale": "small"}, 2003),
    ("slo-chaos", {"scale": "small"}, 99),
    ("table3", {}, 0),
]


def _spec(name, params, seed):
    return get_experiment(name).build_spec(dict(params, seed=seed))


def _run(name, params, seed, **kwargs):
    return run_experiment(_spec(name, params, seed), **kwargs)


def _fork_server_one(spec):
    """``run_many`` handed the registered boot at one worker: the
    fork-server one child at a time, whatever the cluster size."""
    experiment = get_experiment(spec.experiment)
    outcomes = run_many(
        experiment.expand(spec), experiment.run_one,
        fork_boot=ForkBoot(family=experiment.boot_family,
                           boot=experiment.boot, resume=experiment.resume))
    aggregate = experiment.aggregate(spec, outcomes)
    return SimpleNamespace(
        outcomes=outcomes, rendered=experiment.render(aggregate),
        summary=experiment.summarize(aggregate)
        if experiment.summarize is not None else None)


@pytest.mark.parametrize("name,params,seed", CASES,
                         ids=["%s-%d" % (c[0], c[2]) for c in CASES])
def test_every_executor_yields_the_same_bytes(name, params, seed):
    results = {label: _run(name, params, seed, **kwargs)
               for label, kwargs in EXECUTORS.items()}
    results["fork-server-1"] = _fork_server_one(_spec(name, params, seed))
    reference = results.pop("in-process")
    for label, result in results.items():
        assert result.outcomes == reference.outcomes, label
        assert result.summary == reference.summary, label
        assert result.rendered == reference.rendered, label


@pytest.mark.parametrize("name,params", [
    ("netfaults", {"runs_per_scenario": 1}),
    ("slo-chaos", {"scale": "small"}),
], ids=["netfaults", "slo-chaos"])
def test_every_executor_samples_the_same_timeseries(name, params):
    docs = {label: json.dumps(
                _run(name, params, 2003, sample_every=2000.0,
                     **kwargs).to_doc()["timeseries"], sort_keys=True)
            for label, kwargs in EXECUTORS.items()}
    reference = docs.pop("in-process")
    for label, doc in docs.items():
        assert doc == reference, label


class TestGoldenDocs:
    """Pinned rendered-document hashes, in-process and forked.

    A change here means the *simulation* changed, not just the executor
    — update the constants only alongside a deliberate, explained
    behavior change.
    """

    NETFAULTS_DOC = ("7b9302fd65f30ab9cca41231a5234c94c0d4"
                     "1597385e036fa3ea8353ac210467")
    CLOSFAULT_DOC = ("62bb32659387d0df8dd691c32123b61ae70f"
                     "bc720cf9a01df709e34b1556466a")

    @pytest.mark.parametrize("name,params,pinned", [
        ("netfaults", {"runs_per_scenario": 1}, NETFAULTS_DOC),
        ("closfault", {"scale": "small", "runs_per_cell": 1},
         CLOSFAULT_DOC),
    ], ids=["netfaults", "closfault"])
    @pytest.mark.parametrize("executor", ["in-process", "fork-server-1"])
    def test_rendered_doc_is_pinned(self, name, params, pinned, executor):
        spec = _spec(name, params, 2003)
        result = _fork_server_one(spec) if executor == "fork-server-1" \
            else run_experiment(spec, forkserver=False)
        assert hashlib.sha256(result.rendered.encode()).hexdigest() \
            == pinned


# -- fork-server abuse ---------------------------------------------------------

DOOMED = 4


def square(config):
    return config * config


def _die(how):
    if how == "signal 9":
        os.kill(os.getpid(), signal.SIGKILL)
    os._exit(3)             # "exit status 3": gone without a frame


def _resume_or_die(how, _state, config):
    if config == DOOMED:
        _die(how)
    return config * config


def _raise_on_doomed(config):
    if config == DOOMED:
        raise ValueError("bad config %d" % config)
    return config * config


@pytest.fixture
def deadline():
    """Fail, don't hang: a lost child must never stall the campaign."""
    def expired(_signum, _frame):
        raise AssertionError("fork-server campaign hung")
    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.usefixtures("deadline")
@pytest.mark.parametrize("how", ["signal 9", "exit status 3"])
class TestChildDeath:
    CONFIGS = list(range(8))

    @pytest.mark.parametrize("workers", [1, 3])
    def test_error_names_the_run_and_how_it_died(self, how, workers):
        fork_boot = ForkBoot(
            family=lambda config: 0, boot=lambda config: "booted",
            resume=lambda state, config: _resume_or_die(how, state, config))
        with pytest.raises(RuntimeError,
                           match=r"run %d died \(%s\)" % (DOOMED, how)):
            run_many(self.CONFIGS, square, workers=workers,
                     fork_boot=fork_boot)

    def test_null_boot_reports_the_same(self, how):
        with pytest.raises(RuntimeError,
                           match=r"run %d died \(%s\)" % (DOOMED, how)):
            run_many(self.CONFIGS,
                     lambda config: _resume_or_die(how, None, config),
                     workers=3)


@pytest.mark.usefixtures("deadline")
def test_a_raising_run_is_relayed_with_its_index_and_type():
    with pytest.raises(RuntimeError,
                       match=r"run %d failed: ValueError: bad config"
                             % DOOMED):
        run_many(list(range(8)), _raise_on_doomed, workers=3)


class TestFrames:
    def _pipe_holding(self, data):
        r_fd, w_fd = os.pipe()
        os.write(w_fd, data)
        os.close(w_fd)
        return r_fd

    def _framed(self, obj):
        r_fd, w_fd = os.pipe()
        _write_frame(w_fd, obj)
        os.close(w_fd)
        data = os.read(r_fd, 1 << 16)
        os.close(r_fd)
        return data

    def test_round_trip_then_clean_eof(self):
        r_fd = self._pipe_holding(self._framed((3, "ok", {"x": 1})))
        try:
            assert _read_frame(r_fd) == (3, "ok", {"x": 1})
            assert _read_frame(r_fd) is None
        finally:
            os.close(r_fd)

    @pytest.mark.parametrize("kept", [1, 3, 6])
    def test_torn_frame_is_not_a_clean_eof(self, kept):
        # 1-3 bytes: a torn header; 6: a whole header, torn payload.
        r_fd = self._pipe_holding(self._framed((3, "ok", None))[:kept])
        try:
            with pytest.raises(EOFError):
                _read_frame(r_fd)
        finally:
            os.close(r_fd)
