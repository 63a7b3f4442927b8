"""Command-line experiment driver: ``python -m repro <experiment>``.

Every verb resolves through the experiment registry
(:mod:`repro.exp.registry`) — the legacy spellings keep working and two
engine verbs drive anything registered::

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

    python -m repro table1 --runs 300
    python -m repro table2
    python -m repro table3
    python -m repro fig7 --messages 30
    python -m repro fig8 --iterations 40
    python -m repro fig9
    python -m repro fig45
    python -m repro effectiveness --runs 120
    python -m repro netfaults --runs 5 --workers 4

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
    fmt = experiment.progress_fmt
    two_fields = fmt.count("%d") == 2

    def progress(done: int) -> None:
        if done % every == 0:
            message = fmt % (done, total) if two_fields else fmt % done
            print(message, file=sys.stderr)

    return progress


def _execute(experiment, spec, *, workers: int,
             out: Optional[str] = None,
             journal: Optional[str] = None,
             forkserver: bool = True,
             telemetry: bool = False,
             trace: Optional[str] = None,
             sample_every: Optional[float] = None,
             flight_dir: Optional[str] = None,
             from_snapshot: Optional[str] = None):
    from .ckpt.snapshot import SnapshotMismatch
    from .exp.runner import JournalMismatch, run_experiment

    try:
        result = run_experiment(
            spec, workers=workers,
            progress=_progress_printer(experiment, spec.runs),
            journal_path=journal, forkserver=forkserver,
            telemetry=telemetry, trace=trace is not None,
            sample_every=sample_every, flight_dir=flight_dir,
            from_snapshot=from_snapshot)
    except (JournalMismatch, SnapshotMismatch) as exc:
        raise SystemExit("error: %s" % exc)
    if out:
        result.write(out)
        print("wrote %s" % out, file=sys.stderr)
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


def _run_registered(experiment, args) -> str:
    """Legacy-verb handler: CLI namespace -> spec -> engine."""
    params = {option.dest: getattr(args, option.dest)
              for option in experiment.options}
    spec = experiment.build_spec(params)
    trace = getattr(args, "trace", None)
    result = _execute(experiment, spec,
                      workers=getattr(args, "workers", 1),
                      out=getattr(args, "out", None),
                      journal=getattr(args, "journal", None),
                      forkserver=not getattr(args, "no_forkserver", False),
                      trace=trace,
                      sample_every=getattr(args, "sample_every", None),
                      flight_dir=getattr(args, "flight_recorder", None),
                      from_snapshot=getattr(args, "from_snapshot", None))
    return result.rendered


def _add_common_options(parser) -> None:
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel runner processes (default 1)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the result JSON here")
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help="checkpoint outcomes here; rerunning the "
                             "same spec resumes from it")
    parser.add_argument("--no-forkserver", action="store_true",
                        dest="no_forkserver",
                        help="boot every run's cluster afresh instead "
                             "of forking runs off one shared boot "
                             "(in-process when --workers is 1)")
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
    """Shared target/options parsing for the engine verbs
    (``run``/``metrics``/``snapshot``)."""
    from .exp.registry import experiment_names, get_experiment
    from .exp.spec import ExperimentSpec

    base = argparse.ArgumentParser(
        prog=prog,
        description="Run a registered experiment or a saved spec JSON.")
    base.add_argument("target",
                      help="experiment name (see 'repro list') or a "
                           "spec .json path")
    add_options(base)
    ns, rest = base.parse_known_args(argv)

    if ns.target.endswith(".json") or os.path.exists(ns.target):
        if rest:
            base.error("spec-file runs take no experiment options "
                       "(got %s); edit the spec instead" % " ".join(rest))
        with open(ns.target) as fh:
            spec = ExperimentSpec.from_json(fh.read())
        try:
            experiment = get_experiment(spec.experiment)
        except KeyError as exc:
            base.error(str(exc))
    else:
        try:
            experiment = get_experiment(ns.target)
        except KeyError:
            base.error("unknown experiment %r (have: %s)"
                       % (ns.target, ", ".join(experiment_names())))
        options = argparse.ArgumentParser(
            prog="%s %s" % (prog, experiment.name))
        for option in experiment.options:
            option.add_to(options)
        opts = options.parse_args(rest)
        spec = experiment.build_spec(vars(opts))
    return experiment, spec, ns


def _cmd_run(argv: List[str]) -> int:
    experiment, spec, ns = _parse_engine_argv("repro run", argv)
    result = _execute(experiment, spec, workers=ns.workers, out=ns.out,
                      journal=ns.journal,
                      forkserver=not ns.no_forkserver,
                      trace=ns.trace,
                      sample_every=ns.sample_every,
                      flight_dir=ns.flight_recorder,
                      from_snapshot=ns.from_snapshot)
    print(result.rendered)
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
    result = _execute(experiment, spec, workers=ns.workers, out=ns.out,
                      journal=ns.journal,
                      forkserver=not ns.no_forkserver,
                      telemetry=True, trace=ns.trace,
                      sample_every=ns.sample_every,
                      flight_dir=ns.flight_recorder,
                      from_snapshot=ns.from_snapshot)
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
        result = _execute(experiment, spec, workers=ns.workers,
                          out=ns.out, journal=ns.journal,
                          forkserver=not ns.no_forkserver,
                          telemetry=True, trace=ns.trace,
                          sample_every=ns.sample_every,
                          flight_dir=ns.flight_recorder,
                          from_snapshot=ns.from_snapshot)
        saved_doc = result.to_doc()
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


def _legacy_parser() -> argparse.ArgumentParser:
    from .exp.registry import all_experiments

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Experiments from 'Low Overhead Fault Tolerant "
                    "Networking in Myrinet' (DSN 2003)",
        epilog="Engine verbs: 'repro list' shows every registered "
               "experiment; 'repro run <name|spec.json> [options]' runs "
               "one with --out/--journal/--trace support; 'repro "
               "metrics <name|spec.json>' runs with telemetry on and "
               "prints the aggregated metrics report ('--from "
               "result.json' re-renders a saved one); 'repro report "
               "<name|result.json>' prints the campaign-level report "
               "(CDFs, SLO attribution); both take --json.")
    sub = parser.add_subparsers(dest="command", required=True)
    for experiment in all_experiments():
        verb = sub.add_parser(experiment.name, help=experiment.help)
        for option in experiment.options:
            option.add_to(verb, legacy=True)
        _add_common_options(verb)
        verb.set_defaults(experiment=experiment)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "list":
        return _cmd_list(argv[1:])
    if argv and argv[0] == "run":
        return _cmd_run(argv[1:])
    if argv and argv[0] == "metrics":
        return _cmd_metrics(argv[1:])
    if argv and argv[0] == "report":
        return _cmd_report(argv[1:])
    if argv and argv[0] == "snapshot":
        return _cmd_snapshot(argv[1:])
    if argv and argv[0] == "topo":
        return _cmd_topo(argv[1:])
    args = _legacy_parser().parse_args(argv)
    print(_run_registered(args.experiment, args))
    return 0
