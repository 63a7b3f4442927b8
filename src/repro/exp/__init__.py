"""The declarative experiment engine.

One spine for every campaign, study and benchmark in the repo:

* :mod:`repro.exp.spec` — frozen ``ExperimentSpec``/``ScenarioSpec``
  descriptions with JSON round-trip and a stable spec hash.
* :mod:`repro.exp.runner` — the shared deterministic fan-out
  (``run_many``), checkpoint journals, and ``run_experiment``.
* :mod:`repro.exp.results` — the unified result schema: outcome codecs,
  run manifests, result documents and their validator.
* :mod:`repro.exp.registry` — named experiments; every CLI verb is a
  registration (:mod:`repro.exp.experiments`).

Importing this package is cheap: experiment definitions (and the
simulator modules they drag in) load lazily on first registry access.
"""

from .registry import (
    Experiment,
    Option,
    all_experiments,
    experiment_names,
    get_experiment,
    register,
)
from .results import (
    ExperimentResult,
    RunManifest,
    encode_outcome,
    typed_decoder,
    validate_result,
)
from .runner import (
    Journal,
    JournalMismatch,
    derive_run_seed,
    run_experiment,
    run_many,
)
from .spec import (
    ClusterSpec,
    ExperimentSpec,
    FaultSpec,
    ScenarioSpec,
    WorkloadSpec,
    freeze_params,
    thaw_params,
)

__all__ = [
    "ClusterSpec",
    "Experiment",
    "ExperimentResult",
    "ExperimentSpec",
    "FaultSpec",
    "Journal",
    "JournalMismatch",
    "Option",
    "RunManifest",
    "ScenarioSpec",
    "WorkloadSpec",
    "all_experiments",
    "derive_run_seed",
    "encode_outcome",
    "experiment_names",
    "freeze_params",
    "get_experiment",
    "register",
    "run_experiment",
    "run_many",
    "thaw_params",
    "typed_decoder",
    "validate_result",
]
