"""Command-line experiment driver: ``python -m repro run <experiment>``.

Every experiment resolves through the registry
(:mod:`repro.exp.registry`) and runs under one spelling,
``repro run <name>``; ``metrics``, ``report`` and ``snapshot`` take the
same target and options::

    python -m repro list
    python -m repro run table1 --runs 300 --workers 4 --out t1.json
    python -m repro run table1 --scale small --trace t1.trace.json
    python -m repro run netfaults --runs-per-scenario 2 \\
        --journal nf.journal            # kill it; rerun to resume
    python -m repro run slo-chaos --scale small --workers 2
    python -m repro run slo-chaos --peak-rate 2500 --profile spike-train
    python -m repro run spec.json       # re-run a saved spec exactly
    python -m repro metrics table1 --scale small --workers 4
    python -m repro metrics --from t1.json --json
    python -m repro run slo-chaos --scale small --sample-every 5000 \\
        --flight-recorder flights/ --out slo.json
    python -m repro report slo.json
    python -m repro snapshot netfaults --runs-per-scenario 1 \\
        --at 4000 --run 2 --out nf.snapshot.json
    python -m repro run netfaults --runs-per-scenario 1 \\
        --from-snapshot nf.snapshot.json    # splice the restored run in
    python -m repro run fig7 --messages 30
    python -m repro run effectiveness --runs 120

``--out`` writes the unified result JSON (spec + manifest + outcomes +
rendered text; see ``docs/EXPERIMENTS_ENGINE.md``); ``--journal`` makes
the campaign checkpointed and resumable.  ``--trace`` writes a
Chrome-trace JSON of every run's events (spans, message flows) and
``repro metrics <name>`` prints the aggregated telemetry report — see
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, List, Optional

__all__ = ["main"]


def _progress_printer(experiment, total: int) -> Optional[Callable]:
    """stderr progress lines at the experiment's historic cadence."""
    every = experiment.progress_every
    if not every:
        return None

    def progress(done: int) -> None:
        if done % every == 0:
            print("  ... %d/%d runs" % (done, total), file=sys.stderr)

    return progress


def _execute(experiment, spec, ns, telemetry: bool = False):
    """Run ``spec`` with the common options parsed into ``ns``."""
    from .ckpt.snapshot import SnapshotMismatch
    from .exp.runner import JournalMismatch, run_experiment

    trace = ns.trace
    try:
        result = run_experiment(
            spec, workers=ns.workers,
            progress=_progress_printer(experiment, spec.runs),
            journal_path=ns.journal,
            telemetry=telemetry, trace=trace is not None,
            sample_every=ns.sample_every, flight_dir=ns.flight_recorder,
            from_snapshot=ns.from_snapshot)
    except (JournalMismatch, SnapshotMismatch) as exc:
        raise SystemExit("error: %s" % exc)
    if ns.out:
        result.write(ns.out)
        print("wrote %s" % ns.out, file=sys.stderr)
    for path in result.flight_dumps or []:
        print("flight dump: %s" % path, file=sys.stderr)
    if trace:
        import json

        from .sim.trace import chrome_trace_doc

        runs = [("run%d" % index, records)
                for index, records in (result.traces or [])]
        with open(trace, "w") as fh:
            json.dump(chrome_trace_doc(runs), fh, sort_keys=True)
        print("wrote %s (%d runs traced; load in Perfetto or "
              "chrome://tracing)" % (trace, len(runs)), file=sys.stderr)
    return result


def _add_common_options(parser) -> None:
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel runner processes (default 1; "
                             "runs fork off one shared boot when above "
                             "1 or on clusters of 16+ nodes)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the result JSON here")
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help="checkpoint outcomes here; rerunning the "
                             "same spec resumes from it")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="capture per-run event traces and write a "
                             "Chrome-trace JSON here (load in Perfetto "
                             "or chrome://tracing)")
    parser.add_argument("--sample-every", type=float, default=None,
                        dest="sample_every", metavar="T_US",
                        help="sample hot-loop counters every T_US of "
                             "simulated time into per-run timeseries "
                             "tracks (a 'timeseries' key in --out; "
                             "Perfetto counter plots with --trace)")
    parser.add_argument("--flight-recorder", default=None,
                        dest="flight_recorder", metavar="DIR",
                        help="arm the flight recorder: anomalous runs "
                             "(SLO breach, deadlock, exception) dump "
                             "their recent-event ring plus an anomaly-"
                             "instant snapshot into DIR")
    parser.add_argument("--from-snapshot", default=None,
                        dest="from_snapshot", metavar="PATH",
                        help="restore this snapshot's pinned run from "
                             "its checkpoint instead of re-running it "
                             "(must match the spec); other runs execute "
                             "normally")


def _cmd_list(argv: List[str]) -> int:
    from .exp.registry import all_experiments

    if argv:
        print("repro list takes no arguments", file=sys.stderr)
        return 2
    experiments = all_experiments()
    width = max(len(e.name) for e in experiments)
    print("Registered experiments (run with: repro run <name> [options]):")
    for experiment in experiments:
        print("  %-*s  %s" % (width, experiment.name, experiment.help))
    return 0


def _parse_engine_argv(prog: str, argv: List[str],
                       add_options: Callable = _add_common_options):
    """Shared ``<target> [options]`` parsing for the engine verbs
    (``run``/``metrics``/``report``/``snapshot``); an experiment name
    also takes that experiment's options, which ``--help`` lists."""
    from .exp.registry import experiment_names, get_experiment
    from .exp.spec import ExperimentSpec

    common = argparse.ArgumentParser(add_help=False)
    add_options(common)
    if not argv or argv[0].startswith("-"):
        usage = argparse.ArgumentParser(
            prog=prog, parents=[common],
            description="Run a registered experiment or a saved spec JSON.")
        usage.add_argument("target",
                           help="experiment name (see 'repro list') or a "
                                "spec .json path; it comes first")
        usage.parse_args(argv)
        usage.error("the target must come before the options")
    target = argv[0]
    parser = argparse.ArgumentParser(prog="%s %s" % (prog, target),
                                     parents=[common])
    if target.endswith(".json") or os.path.exists(target):
        ns = parser.parse_args(argv[1:])     # options live in the spec
        with open(target) as fh:
            spec = ExperimentSpec.from_json(fh.read())
        try:
            experiment = get_experiment(spec.experiment)
        except KeyError as exc:
            parser.error(str(exc))
    else:
        try:
            experiment = get_experiment(target)
        except KeyError:
            parser.error("unknown experiment %r (have: %s)"
                         % (target, ", ".join(experiment_names())))
        parser.description = experiment.help
        for option in experiment.options:
            option.add_to(parser)
        ns = parser.parse_args(argv[1:])
        spec = experiment.build_spec({option.dest: getattr(ns, option.dest)
                                      for option in experiment.options})
    return experiment, spec, ns


def _cmd_run(argv: List[str]) -> int:
    experiment, spec, ns = _parse_engine_argv("repro run", argv)
    print(_execute(experiment, spec, ns).rendered)
    return 0


def _add_snapshot_options(parser) -> None:
    parser.add_argument("--at", type=float, required=True, dest="at_us",
                        metavar="T_US",
                        help="simulated instant (us) to pause and "
                             "checkpoint the run at")
    parser.add_argument("--run", type=int, default=0, dest="run_index",
                        metavar="N",
                        help="run index within the expanded spec "
                             "(default 0)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="snapshot file to write (default "
                             "<experiment>-run<N>.snapshot.json)")


def _cmd_snapshot(argv: List[str]) -> int:
    """Checkpoint one run of an experiment at a simulated instant."""
    from .ckpt.snapshot import (SnapshotMismatch, take_snapshot,
                                write_snapshot)

    experiment, spec, ns = _parse_engine_argv(
        "repro snapshot", argv, add_options=_add_snapshot_options)
    out = ns.out or "%s-run%d.snapshot.json" % (experiment.name,
                                                ns.run_index)
    try:
        snapshot = take_snapshot(spec, ns.at_us, run_index=ns.run_index)
    except SnapshotMismatch as exc:
        raise SystemExit("error: %s" % exc)
    write_snapshot(snapshot, out)
    print("wrote %s (run %d of %s at %.1f us, state %s)"
          % (out, ns.run_index, experiment.name, snapshot.at_us,
             snapshot.state_hash[:16]))
    return 0


def _add_metrics_options(parser) -> None:
    _add_common_options(parser)
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="print the report as JSON instead of text")


def _print_metrics(snapshot, title: str, as_json: bool) -> None:
    from .obs.report import metrics_report_doc, render_metrics_report

    if as_json:
        import json

        print(json.dumps(metrics_report_doc(snapshot, title=title),
                         indent=2, sort_keys=True))
    else:
        print(render_metrics_report(snapshot, title=title))


def _cmd_metrics(argv: List[str]) -> int:
    """Run an experiment with metrics on and print the telemetry report.

    ``--from result.json`` re-renders the report from a saved result
    document's ``telemetry`` key instead of re-running the campaign.
    """
    if "--from" in argv:
        import json

        from .obs.metrics import MetricsSnapshot

        parser = argparse.ArgumentParser(
            prog="repro metrics",
            description="Re-render the telemetry report from a saved "
                        "result document.")
        parser.add_argument("--from", dest="from_path", required=True,
                            metavar="RESULT_JSON",
                            help="result file written by --out")
        parser.add_argument("--json", action="store_true", dest="as_json",
                            help="print the report as JSON instead of text")
        ns = parser.parse_args(argv)
        with open(ns.from_path) as fh:
            doc = json.load(fh)
        telemetry = doc.get("telemetry")
        if telemetry is None:
            raise SystemExit(
                "error: %s has no 'telemetry' key — write it with "
                "'repro metrics <name> --out %s' (telemetry must be on "
                "when the campaign runs)" % (ns.from_path, ns.from_path))
        title = "%s (%d runs, from %s)" % (
            (doc.get("spec", {}) or {}).get("experiment", "?"),
            len(doc.get("outcomes", [])), ns.from_path)
        _print_metrics(MetricsSnapshot.from_doc(telemetry), title,
                       ns.as_json)
        return 0

    experiment, spec, ns = _parse_engine_argv(
        "repro metrics", argv, add_options=_add_metrics_options)
    result = _execute(experiment, spec, ns, telemetry=True)
    _print_metrics(result.telemetry,
                   "%s (%d runs)" % (experiment.name, spec.runs),
                   ns.as_json)
    return 0


def _cmd_report(argv: List[str]) -> int:
    """Campaign-level report: CDFs, SLO attribution, latency summaries.

    The target is either a result JSON written by ``--out`` (reported
    as-is, no execution) or an experiment name/spec — then the campaign
    runs with telemetry on first, exactly like ``repro metrics``.
    """
    import json

    from .exp.results import RESULT_SCHEMA
    from .obs.report import campaign_report_doc, render_campaign_report

    saved_doc = None
    if argv and not argv[0].startswith("-") and os.path.exists(argv[0]):
        with open(argv[0]) as fh:
            candidate = json.load(fh)
        if candidate.get("schema") == RESULT_SCHEMA:
            saved_doc = candidate
            parser = argparse.ArgumentParser(prog="repro report")
            parser.add_argument("target")
            parser.add_argument("--json", action="store_true",
                                dest="as_json",
                                help="print the report as JSON")
            ns = parser.parse_args(argv)
        # Not a result document: fall through — a spec .json runs below.
    if saved_doc is None:
        experiment, spec, ns = _parse_engine_argv(
            "repro report", argv, add_options=_add_metrics_options)
        saved_doc = _execute(experiment, spec, ns, telemetry=True).to_doc()
    report = campaign_report_doc(saved_doc)
    if ns.as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_campaign_report(report))
    return 0


def _cmd_topo(argv: List[str]) -> int:
    """Summarize (and optionally plot) a fabric shape without booting."""
    from .net.topo import summarize, to_dot

    parser = argparse.ArgumentParser(
        prog="repro topo",
        description="Summarize a fabric topology: switches per tier, "
                    "link counts and path redundancy, computed from the "
                    "same generators the cluster builder cables — no "
                    "NICs, no SRAM, no boot.")
    parser.add_argument("topology",
                        choices=("star", "ring", "tree", "clos",
                                 "fat-tree"),
                        help="fabric shape (as build_cluster's topology)")
    parser.add_argument("--nodes", type=int, default=16,
                        help="host count (default 16)")
    parser.add_argument("--switches", type=int, default=None,
                        help="ring/tree switch count or Clos spine count")
    parser.add_argument("--radix", type=int, default=None,
                        help="Clos/fat-tree switch port count (default 8)")
    parser.add_argument("--dot", default=None, metavar="PATH",
                        help="also write a Graphviz DOT file here "
                             "('-' for stdout)")
    args = parser.parse_args(argv)
    try:
        print(summarize(args.nodes, args.topology,
                        n_switches=args.switches, radix=args.radix))
        if args.dot:
            doc = to_dot(args.nodes, args.topology,
                         n_switches=args.switches, radix=args.radix)
            if args.dot == "-":
                print(doc)
            else:
                with open(args.dot, "w") as fh:
                    fh.write(doc + "\n")
                print("wrote %s" % args.dot, file=sys.stderr)
    except ValueError as exc:
        raise SystemExit("error: %s" % exc)
    return 0


_USAGE = """\
usage: repro <command> [options]

Experiments from 'Low Overhead Fault Tolerant Networking in Myrinet'
(DSN 2003).

commands:
  list                        list the registered experiments
  run <name|spec.json>        run one (--out, --journal, --trace, ...)
  metrics <name|spec.json>    run with telemetry on and print the metrics
                              report ('--from result.json' re-renders one)
  report <name|result.json>   campaign-level report (CDFs, SLO attribution)
  snapshot <name|spec.json>   checkpoint one run at a simulated instant
  topo <shape>                summarize a fabric topology without booting

'repro <command> --help' describes each command's options.
"""

_COMMANDS = {"list": _cmd_list, "run": _cmd_run, "metrics": _cmd_metrics,
             "report": _cmd_report, "snapshot": _cmd_snapshot,
             "topo": _cmd_topo}


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(_USAGE, end="", file=sys.stdout if argv else sys.stderr)
        return 0 if argv else 2
    command = _COMMANDS.get(argv[0])
    if command is None:
        from .exp.registry import experiment_names

        hint = ("use 'repro run %s'" % argv[0]
                if argv[0] in experiment_names() else "see 'repro --help'")
        print("repro: unknown command %r; %s" % (argv[0], hint),
              file=sys.stderr)
        return 2
    return command(argv[1:])
