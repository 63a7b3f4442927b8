"""Named experiments: the registry behind ``repro run``.

A registered :class:`Experiment` bundles everything the engine needs to
run one of the paper's studies end to end: how to build a spec from CLI
parameters, how to expand a spec into hermetic per-run configs, the
per-run ``resume``, aggregation/rendering of the outcome list, the
outcome decoder for journals and result files, and the CLI option
declarations that make each experiment a thin registration instead of
a hand-built subcommand.

``repro list`` prints this registry; ``repro run <name>`` (and
``metrics``/``report``/``snapshot``) resolve through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Tuple

from .spec import ExperimentSpec

__all__ = ["Option", "Experiment", "register", "get_experiment",
           "all_experiments", "experiment_names"]


@dataclass(frozen=True)
class Option:
    """One CLI option of an experiment (``repro run <name> --flag``)."""

    dest: str
    flag: str
    type: Callable[[str], Any] = int
    default: Any = None
    help: str = ""
    choices: Optional[Tuple[str, ...]] = None

    def add_to(self, parser) -> None:
        kwargs: Dict[str, Any] = {"dest": self.dest,
                                  "default": self.default,
                                  "help": self.help}
        if self.type is bool:
            kwargs["action"] = "store_true"
        else:
            kwargs["type"] = self.type
        if self.choices:
            kwargs["choices"] = list(self.choices)
        parser.add_argument(self.flag, **kwargs)


def _boot_and_resume(boot, resume, config):
    return resume(boot(config), config)


@dataclass
class Experiment:
    """One registered experiment; see module docstring for the fields'
    roles in the engine.

    Every experiment registers ``resume``; that is the whole run
    protocol.  Its configs carry the cluster they run on as
    ``config.cluster`` (a :class:`~repro.exp.spec.ClusterSpec`), and
    ``resume(cluster, config, pause_at=None)`` drives the run on the
    booted cluster and classifies it, or with ``pause_at`` stops at that
    simulated instant and returns a :class:`~repro.ckpt.pause.PausedRun`
    (the hook behind ``repro snapshot``).  The rest is derived:

    * ``boot`` is :func:`repro.cluster.boot_run`, the seed-independent
      shared prefix of a run;
    * ``boot_family`` is ``config.cluster``: runs with equal clusters
      share one boot on the fork-server;
    * ``run_one`` is ``resume(boot(config), config)``.
    """

    name: str
    help: str
    build_spec: Callable[[Dict[str, Any]], ExperimentSpec]
    expand: Callable[[ExperimentSpec], List[Any]]
    aggregate: Callable[[ExperimentSpec, List[Any]], Any]
    render: Callable[[Any], str]
    resume: Callable[..., Any]
    decode: Optional[Callable[[Any], Any]] = None
    summarize: Optional[Callable[[Any], Dict[str, Any]]] = None
    options: Tuple[Option, ...] = ()
    progress_every: int = 0           # 0 = no progress lines on stderr
    boot: Callable[[Any], Any] = field(init=False)
    boot_family: Callable[[Any], Any] = field(init=False)
    run_one: Callable[[Any], Any] = field(init=False)

    def __post_init__(self) -> None:
        from ..cluster import boot_run

        self.boot = boot_run
        self.boot_family = attrgetter("cluster")
        self.run_one = partial(_boot_and_resume, boot_run, self.resume)


_REGISTRY: Dict[str, Experiment] = {}
_LOADED = False


def register(experiment: Experiment) -> Experiment:
    if experiment.name in _REGISTRY:
        raise ValueError("experiment %r already registered"
                         % experiment.name)
    _REGISTRY[experiment.name] = experiment
    return experiment


def _ensure_loaded() -> None:
    global _LOADED
    if not _LOADED:
        _LOADED = True
        from . import experiments  # noqa: F401  (registers on import)


def get_experiment(name: str) -> Experiment:
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError("no experiment named %r (have: %s)"
                       % (name, ", ".join(experiment_names())))


def all_experiments() -> List[Experiment]:
    """Registered experiments, in registration order."""
    _ensure_loaded()
    return list(_REGISTRY.values())


def experiment_names() -> List[str]:
    _ensure_loaded()
    return list(_REGISTRY)
