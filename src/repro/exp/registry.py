"""Named experiments: the registry behind every CLI verb.

A registered :class:`Experiment` bundles everything the engine needs to
run one of the paper's studies end to end: how to build a spec from CLI
parameters, how to expand a spec into hermetic per-run configs, the
picklable per-run function, aggregation/rendering of the outcome list,
the outcome decoder for journals and result files, and the CLI option
declarations that make each verb a thin registration instead of a
hand-built subcommand.

``repro list`` prints this registry; ``repro run <name>`` and every
legacy verb (``repro table1``, ``repro netfaults``, ...) resolve
through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from .spec import ExperimentSpec

__all__ = ["Option", "Experiment", "register", "get_experiment",
           "all_experiments", "experiment_names"]


@dataclass(frozen=True)
class Option:
    """One CLI option of an experiment, shared by ``repro run <name>``
    and the experiment's legacy verb (which may use an older flag
    spelling, e.g. netfaults' historic ``--runs`` for
    ``--runs-per-scenario``)."""

    dest: str
    flag: str
    type: Callable[[str], Any] = int
    default: Any = None
    help: str = ""
    choices: Optional[Tuple[str, ...]] = None
    legacy_flag: Optional[str] = None

    def add_to(self, parser, legacy: bool = False) -> None:
        flag = (self.legacy_flag if legacy and self.legacy_flag
                else self.flag)
        kwargs: Dict[str, Any] = {"dest": self.dest,
                                  "default": self.default,
                                  "help": self.help}
        if self.type is bool:
            kwargs["action"] = "store_true"
        else:
            kwargs["type"] = self.type
        if self.choices:
            kwargs["choices"] = list(self.choices)
        parser.add_argument(flag, **kwargs)


@dataclass
class Experiment:
    """One registered experiment; see module docstring for the fields'
    roles in the engine."""

    name: str
    help: str
    build_spec: Callable[[Dict[str, Any]], ExperimentSpec]
    expand: Callable[[ExperimentSpec], List[Any]]
    run_one: Callable[[Any], Any]
    aggregate: Callable[[ExperimentSpec, List[Any]], Any]
    render: Callable[[Any], str]
    decode: Optional[Callable[[Any], Any]] = None
    summarize: Optional[Callable[[Any], Dict[str, Any]]] = None
    options: Tuple[Option, ...] = ()
    progress_every: int = 0           # 0 = no progress lines on stderr
    progress_fmt: str = "  ... %d/%d runs"
    # Fork-server support (optional): the seed-independent shared boot
    # prefix of a run and its continuation.  ``run_one`` must equal
    # ``resume(boot(config), config)`` exactly; ``boot_family`` groups
    # configs that share one boot (default: all of them).
    boot: Optional[Callable[[Any], Any]] = None
    resume: Optional[Callable[[Any, Any], Any]] = None
    boot_family: Optional[Callable[[Any], Any]] = None
    # Checkpoint support (optional): ``pause(state, config, at)`` runs a
    # booted run up to simulated time ``at`` and returns a
    # ``repro.ckpt.PausedRun`` — the hook behind ``repro snapshot``.
    pause: Optional[Callable[[Any, Any, float], Any]] = None


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
