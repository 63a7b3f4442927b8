"""The one result schema every experiment emits.

A finished experiment is an :class:`ExperimentResult`: the spec that
produced it, a :class:`RunManifest` (spec hash, seed, git revision, wall
time) pinning the result to an exact configuration and tree, the ordered
per-run outcomes, the rendered table/figure text, and an optional small
summary.  ``to_doc()`` serializes all of that to the JSON document that
``repro run --out`` writes and that :func:`validate_result` checks in
CI.

Outcome objects stay ordinary dataclasses (``InjectionOutcome``,
``NetFaultOutcome``, workload results...).  :func:`encode_outcome` turns
any of them into a JSON-able dict and :func:`typed_decoder` rebuilds
them — recursing through nested dataclasses and re-tupling
``Tuple[...]`` fields from type hints — so a journaled outcome decodes
``==``-equal to the object the run produced.  That equality is what
makes resumed campaigns byte-identical to uninterrupted ones.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import time
import typing
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Union

from .spec import ExperimentSpec

__all__ = [
    "RESULT_SCHEMA",
    "RunManifest",
    "ExperimentResult",
    "git_revision",
    "encode_outcome",
    "decode_dataclass",
    "typed_decoder",
    "validate_result",
]

RESULT_SCHEMA = "repro.exp.result/1"


def git_revision(cwd: Optional[str] = None) -> str:
    """The working tree's HEAD commit, or ``"unknown"`` outside a repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd, timeout=5,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True)
        return out.stdout.decode("ascii", "replace").strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


@dataclass(frozen=True)
class RunManifest:
    """Provenance of one experiment run: what, from where, how long."""

    spec_hash: str
    seed: int
    git_rev: str
    wall_time_s: float
    recorded_at: str

    @classmethod
    def collect(cls, spec_hash: str, seed: int,
                wall_time_s: float) -> "RunManifest":
        return cls(spec_hash=spec_hash, seed=seed,
                   git_rev=git_revision(),
                   wall_time_s=round(wall_time_s, 3),
                   recorded_at=time.strftime("%Y-%m-%dT%H:%M:%S"))

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunManifest":
        return cls(**{f.name: data[f.name]
                      for f in dataclasses.fields(cls)})


# -- outcome (de)serialization -------------------------------------------------


def encode_outcome(outcome: Any) -> Any:
    """Outcome object -> JSON-able value.

    Dataclasses become dicts tagged with ``__type__``; plain dicts (and
    other JSON-able values) pass through unchanged.
    """
    if dataclasses.is_dataclass(outcome) and not isinstance(outcome, type):
        data = dataclasses.asdict(outcome)
        data["__type__"] = type(outcome).__name__
        return data
    return outcome


def _coerce(hint: Any, value: Any) -> Any:
    """Rebuild ``value`` (fresh from JSON) to match the type ``hint``."""
    if value is None or hint is None:
        return value
    if dataclasses.is_dataclass(hint) and isinstance(value, dict):
        return decode_dataclass(hint, value)
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin is Union:
        non_none = [a for a in args if a is not type(None)]
        if len(non_none) == 1:
            return _coerce(non_none[0], value)
        return value
    if origin in (list, List) and isinstance(value, list):
        item = args[0] if args else None
        return [_coerce(item, v) for v in value]
    if origin is tuple and isinstance(value, (list, tuple)):
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_coerce(args[0], v) for v in value)
        if args:
            return tuple(_coerce(a, v) for a, v in zip(args, value))
        return tuple(value)
    if isinstance(value, dict):
        # Dict[...] values may carry typed items (rare); recurse values.
        if origin in (dict, Dict) and len(args) == 2:
            return {k: _coerce(args[1], v) for k, v in value.items()}
    return value


def decode_dataclass(cls: type, data: Dict[str, Any]) -> Any:
    """Rebuild a dataclass instance from :func:`encode_outcome` output.

    ``init=False`` fields (e.g. a classifier-filled ``category``) are
    restored verbatim rather than recomputed, so a decode is faithful to
    what the run recorded even if classification logic later changes.
    """
    hints = typing.get_type_hints(cls)
    init_kwargs: Dict[str, Any] = {}
    post: Dict[str, Any] = {}
    for f in dataclasses.fields(cls):
        if f.name not in data:
            continue
        value = _coerce(hints.get(f.name), data[f.name])
        if f.init:
            init_kwargs[f.name] = value
        else:
            post[f.name] = value
    obj = cls(**init_kwargs)
    for name, value in post.items():
        object.__setattr__(obj, name, value)
    return obj


def typed_decoder(*classes: type) -> Callable[[Any], Any]:
    """A decoder resolving ``__type__`` tags against ``classes``.

    Untagged values (plain-dict outcomes) pass through unchanged.
    """
    by_name = {cls.__name__: cls for cls in classes}

    def decode(value: Any) -> Any:
        if isinstance(value, dict) and "__type__" in value:
            name = value["__type__"]
            if name not in by_name:
                raise ValueError("outcome type %r not decodable here "
                                 "(known: %s)"
                                 % (name, sorted(by_name)))
            data = {k: v for k, v in value.items() if k != "__type__"}
            return decode_dataclass(by_name[name], data)
        return value

    return decode


# -- the result document -------------------------------------------------------


@dataclass
class ExperimentResult:
    """One finished experiment: spec + manifest + outcomes + rendering.

    ``telemetry`` (a merged :class:`repro.obs.metrics.MetricsSnapshot`)
    is present only when the run collected metrics; the document then
    carries a ``"telemetry"`` key — absent otherwise, so telemetry-off
    results are byte-identical to pre-telemetry ones.  ``traces`` holds
    per-run ``(index, records)`` pairs for Chrome-trace export and is
    never serialized into the result document (the CLI writes it to its
    own file).

    ``timeseries`` (the continuous sampler's per-run track documents)
    follows the telemetry discipline: a ``"timeseries"`` key appears
    only when sampling was armed, so sampling-off results stay
    byte-identical to pre-sampling ones.  ``flight_dumps`` lists the
    flight-dump paths written for this campaign's anomalous runs; like
    ``traces`` it never enters the document (the dumps are their own
    files).
    """

    spec: ExperimentSpec
    manifest: RunManifest
    outcomes: List[Any]
    rendered: str
    summary: Optional[Dict[str, Any]] = None
    telemetry: Optional[Any] = None
    traces: Optional[List[Any]] = None
    timeseries: Optional[Dict[str, Any]] = None
    flight_dumps: Optional[List[str]] = None

    def to_doc(self) -> Dict[str, Any]:
        doc = {
            "schema": RESULT_SCHEMA,
            "spec": self.spec.to_dict(),
            "manifest": self.manifest.to_dict(),
            "outcomes": [encode_outcome(o) for o in self.outcomes],
            "rendered": self.rendered,
            "summary": self.summary,
        }
        if self.telemetry is not None:
            doc["telemetry"] = self.telemetry.to_doc()
        if self.timeseries is not None:
            doc["timeseries"] = self.timeseries
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), indent=2, sort_keys=True) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())


def validate_result(doc: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``doc`` is a well-formed result JSON."""
    problems = []
    if doc.get("schema") != RESULT_SCHEMA:
        problems.append("schema is %r, want %r"
                        % (doc.get("schema"), RESULT_SCHEMA))
    spec_data = doc.get("spec")
    if not isinstance(spec_data, dict):
        problems.append("spec missing or not an object")
        spec = None
    else:
        try:
            spec = ExperimentSpec.from_dict(spec_data)
        except Exception as exc:
            problems.append("spec does not parse: %s" % exc)
            spec = None
    manifest = doc.get("manifest")
    if not isinstance(manifest, dict):
        problems.append("manifest missing or not an object")
    else:
        for key, kind in (("spec_hash", str), ("seed", int),
                          ("git_rev", str), ("wall_time_s", (int, float)),
                          ("recorded_at", str)):
            if not isinstance(manifest.get(key), kind):
                problems.append("manifest.%s missing or mistyped" % key)
        if spec is not None and isinstance(manifest.get("spec_hash"), str) \
                and manifest["spec_hash"] != spec.spec_hash:
            problems.append("manifest.spec_hash %r != hash of spec %r"
                            % (manifest["spec_hash"], spec.spec_hash))
    if not isinstance(doc.get("outcomes"), list):
        problems.append("outcomes missing or not a list")
    elif spec is not None and spec.runs \
            and len(doc["outcomes"]) != spec.runs:
        problems.append("outcomes has %d entries, spec.runs is %d"
                        % (len(doc["outcomes"]), spec.runs))
    if not isinstance(doc.get("rendered"), str):
        problems.append("rendered missing or not a string")
    if "telemetry" in doc:      # optional; validated only when present
        telemetry = doc["telemetry"]
        if not isinstance(telemetry, dict):
            problems.append("telemetry present but not an object")
        else:
            for key in ("counters", "gauges", "histograms"):
                if not isinstance(telemetry.get(key), dict):
                    problems.append("telemetry.%s missing or mistyped" % key)
    if "timeseries" in doc:     # optional; validated only when present
        series = doc["timeseries"]
        if not isinstance(series, dict):
            problems.append("timeseries present but not an object")
        else:
            if not isinstance(series.get("sample_every_us"), (int, float)):
                problems.append("timeseries.sample_every_us missing "
                                "or mistyped")
            runs = series.get("runs")
            if not isinstance(runs, list):
                problems.append("timeseries.runs missing or not a list")
            else:
                for entry in runs:
                    if (not isinstance(entry, list) or len(entry) != 2
                            or not isinstance(entry[0], int)
                            or not isinstance(entry[1], dict)):
                        problems.append("timeseries.runs entries must be "
                                        "[run_index, track_doc] pairs")
                        break
                    t = entry[1].get("t")
                    tracks = entry[1].get("tracks")
                    if not isinstance(t, list) \
                            or not isinstance(tracks, dict):
                        problems.append("timeseries run %s missing t/tracks"
                                        % entry[0])
                        break
                    if any(not isinstance(track, list)
                           or len(track) != len(t)
                           for track in tracks.values()):
                        problems.append("timeseries run %s has tracks not "
                                        "spanning t" % entry[0])
                        break
    if problems:
        raise ValueError("invalid result document: " + "; ".join(problems))
