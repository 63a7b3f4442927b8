#!/usr/bin/env python3
"""The repo's benchmark: one command, every metric by name with its unit.

Two ways in:

* One run of one workload, the form ``BENCHMARK.json`` names::

      python3 benchmarks/suite/run.py --workload table1 --seed 7 \\
          --seconds 12 --trace 0

  ``--trace 0`` measures the end-to-end metrics with tracing, telemetry
  and sampling off; ``--trace 1`` is the separate traced run that yields
  the per-layer metrics.  The last line of standard output is one JSON
  object ``{"correct", "attempted", "failed", "metrics"}``.

* The whole suite (no ``--trace``)::

      python3 benchmarks/suite/run.py [--seed 2003] [--rounds 3]
          [--workload NAME] [--quick] [--out FILE] [--repin]

  Each round runs every workload once, each in a fresh child process and
  never two at once; odd rounds run in reverse order because the box
  drifts.  Then one traced run per workload.  Reported values are medians
  over rounds with min and max.

``src`` is found relative to this file, so no ``PYTHONPATH`` is needed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional

import measure
import workloads as wl

BENCHMARK_JSON = os.path.join(wl.ROOT, "BENCHMARK.json")
GOLDENS_JSON = os.path.join(wl.SUITE_DIR, "goldens.json")
SCHEMA = "repro.bench.suite/1"

def load_contract() -> Dict[str, Any]:
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def environment_stamp() -> Dict[str, Any]:
    from repro.exp.results import git_revision

    return {"cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "git_rev": git_revision(wl.ROOT)}


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _with_units(values: Dict[str, float],
                declared: List[Dict[str, Any]]) -> Dict[str, Any]:
    """``{name: {"value", "unit"}}`` for exactly the declared metrics."""
    names = [m["name"] for m in declared]
    missing = sorted(set(names) - set(values))
    extra = sorted(set(values) - set(names))
    if missing or extra:
        raise RuntimeError("metrics out of step with BENCHMARK.json: "
                           "missing %s, undeclared %s" % (missing, extra))
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def changed_from_pins(workload: str, mode: str, seed: int, quick: bool,
                      digests: Dict[str, Any],
                      counts: Optional[Dict[str, float]] = None
                      ) -> Dict[str, Any]:
    """Compare a run with ``goldens.json``; pins exist for one seed only.

    Returns ``{"checked", "outcomes_changed", "rendered_changed",
    "count_diffs"}``; an unpinned seed or ``--quick`` checks nothing."""
    report = {"checked": False, "outcomes_changed": 0,
              "rendered_changed": [], "count_diffs": {}}
    if seed != wl.PINNED_SEED or quick or not os.path.exists(GOLDENS_JSON):
        return report
    with open(GOLDENS_JSON) as fh:
        pins = json.load(fh).get(workload, {}).get(mode)
    if pins is None:
        return report
    report["checked"] = True
    for part, got in digests.items():
        want = pins["digests"].get(part, {"runs": [], "rendered": None})
        if got is None:             # the part raised: nothing matches
            got = {"runs": [], "rendered": None}
        pairs = zip(got["runs"], want["runs"])
        report["outcomes_changed"] += \
            sum(1 for a, b in pairs if a != b) \
            + abs(len(got["runs"]) - len(want["runs"]))
        if got["rendered"] != want["rendered"]:
            report["rendered_changed"].append(part)
    for name, want in pins.get("counts", {}).items():
        got = (counts or {}).get(name)
        if counts is not None and got != want:
            report["count_diffs"][name] = [want, got]
    return report


# -- one run of one workload ---------------------------------------------------


def single_run(args) -> Dict[str, Any]:
    """One end-to-end or traced run; returns the detailed document."""
    contract = load_contract()
    workload = wl.WORKLOADS[args.workload]
    seconds = args.seconds if args.seconds is not None \
        else contract["run_seconds"]
    specs = wl.set_up(workload, args.seed, args.quick)
    doc: Dict[str, Any] = {"workload": workload.name, "seed": args.seed,
                           "trace": args.trace, "quick": args.quick,
                           "seconds": seconds, "env": environment_stamp()}
    if args.trace:
        run = measure.traced(workload, args.seed, args.quick)
        values = dict(run["metrics"])
        values.update(measure.probe_micro(args.quick))
        # Every workload emits every simulated figure: 0 where it has none.
        simulated = wl.simulated_metrics(run["summaries"])
        for name in wl.PAPER_REFERENCE:
            values[name] = simulated.get(name, 0.0)
        values["failed_share"] = _share(run["failed"], run["attempted"])
        values["ft_ok_share"] = _share(run["ft_ok"], run["ft_total"])
        pins = changed_from_pins(
            workload.name, "traced", args.seed, args.quick, run["digests"],
            {n: values[n] for n in measure.EXACT_COUNTS})
        values["exp.outcomes_changed"] = pins["outcomes_changed"]
        doc["metrics"] = _with_units(values, contract["per_layer"])
        doc["detail"] = {k: run[k] for k in (
            "traced_wall_s", "bare_wall_s", "profiled_s", "cells", "note",
            "ft_ok", "ft_total", "deterministic", "digests")}
        doc["spans"] = run["spans"]
    else:
        before, after = measure.SETUP_PROBES
        probes = measure.probe_setup(workload, args.seed, args.quick, before)
        run = measure.end_to_end(workload, specs, seconds)
        values = dict(run["metrics"])
        probes += measure.probe_setup(workload, args.seed, args.quick, after)
        values["setup_s"] = statistics.median(probes)
        pins = changed_from_pins(workload.name, "e2e", args.seed,
                                 args.quick, run["digests"])
        doc["metrics"] = _with_units(values, contract["end_to_end"])
        doc["detail"] = {k: run[k] for k in (
            "passes", "samples", "tail_percentile", "run_wall_max_ms",
            "cells", "errors", "ft_ok", "ft_total", "deterministic",
            "digests")}
        doc["detail"].update(
            setup_probes_s=probes,
            failed_share=_share(run["failed"], run["attempted"]),
            ft_ok_share=_share(run["ft_ok"], run["ft_total"]),
            simulated=wl.simulated_metrics(run["summaries"]))
    doc["pins"] = pins
    doc["attempted"] = run["attempted"]
    doc["failed"] = run["failed"]
    # Correct = every run produced an outcome, repeating the pass (or
    # turning tracing on) reproduced the same bytes, and every run with a
    # fault-tolerance verdict passed it.  A pin mismatch is reported
    # (`exp.outcomes_changed`, `pins`) but is a model change, not an error.
    doc["correct"] = bool(run["failed"] == 0 and run["deterministic"]
                          and run["ft_ok"] == run["ft_total"])
    return doc


def print_run(doc: Dict[str, Any]) -> None:
    detail = doc["detail"]
    env = doc["env"]
    print("# %s  seed=%d  trace=%d  cpus=%d  python=%s  git=%s"
          % (doc["workload"], doc["seed"], doc["trace"], env["cpus"],
             env["python"], env["git_rev"][:12]))
    if doc["trace"]:
        print("# traced pass %.2f s (profiled %.2f s), bare pass %.2f s%s"
              % (detail["traced_wall_s"], detail["profiled_s"],
                 detail["bare_wall_s"],
                 "; " + detail["note"] if detail["note"] else ""))
        for label, steps in detail["cells"]:
            print("#   %-22s %s" % (label, "  ".join(
                "%s %.3f s" % (k, v) for k, v in sorted(steps.items()))))
    else:
        print("# %d passes, %d run-wall samples, tail = p%.1f, max %.1f ms, "
              "set-up probes %s"
              % (detail["passes"], detail["samples"],
                 detail["tail_percentile"], detail["run_wall_max_ms"],
                 " ".join("%.2f" % p for p in detail["setup_probes_s"])))
        for label, wall in detail["cells"]:
            print("#   %-22s %8.3f s" % (label, wall))
        print("# failed_share %.4f  ft_ok_share %s"
              % (detail["failed_share"],
                 "%.4f (%d/%d)" % (detail["ft_ok_share"], detail["ft_ok"],
                                   detail["ft_total"])
                 if detail["ft_total"] else "n/a"))
        for name, value in detail["simulated"].items():
            print("# %-28s %12.4f   (paper %.4g)"
                  % (name, value, wl.PAPER_REFERENCE[name]))
        for error in detail["errors"]:
            print("# ERROR %s" % error)
    pins = doc["pins"]
    if pins["checked"]:
        print("# pins (seed %d): %d outcomes changed, rendered changed: %s, "
              "count diffs: %s"
              % (wl.PINNED_SEED, pins["outcomes_changed"],
                 pins["rendered_changed"] or "none",
                 pins["count_diffs"] or "none"))
    else:
        print("# pins: skipped (only seed %d at full size is pinned)"
              % wl.PINNED_SEED)
    if not detail["deterministic"]:
        print("# ERROR outcomes differ between passes of the same spec")
    for name, metric in doc["metrics"].items():
        print("%-32s %16.6f %s" % (name, metric["value"], metric["unit"]))


# -- the whole suite -----------------------------------------------------------


def _child(workload: str, seed: int, trace: int, seconds: Optional[float],
           quick: bool, out_dir: str) -> Dict[str, Any]:
    out = os.path.join(out_dir, "%s.%d.json" % (workload, trace))
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(trace), "--out", out]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    if quick:
        command.append("--quick")
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    with open(out) as fh:
        return json.load(fh)


def suite(args) -> Dict[str, Any]:
    contract = load_contract()
    names = [args.workload] if args.workload \
        else [w["name"] for w in contract["workloads"]]
    rounds: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    traced: Dict[str, Dict[str, Any]] = {}
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        for index in range(args.rounds):
            order = names if index % 2 == 0 else names[::-1]
            for name in order:
                print("round %d/%d  %s" % (index + 1, args.rounds, name),
                      file=sys.stderr)
                rounds[name].append(_child(name, args.seed, 0, args.seconds,
                                           args.quick, tmp))
        for name in names:
            print("traced  %s" % name, file=sys.stderr)
            traced[name] = _child(name, args.seed, 1, args.seconds,
                                  args.quick, tmp)
    doc: Dict[str, Any] = {
        "schema": SCHEMA, "seed": args.seed, "rounds": args.rounds,
        "quick": args.quick, "env": environment_stamp(),
        "seconds": rounds[names[0]][0]["seconds"],
        "workloads": {}}
    for name in names:
        runs = rounds[name]
        end_to_end = {}
        for metric in contract["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            end_to_end[metric["name"]] = {
                "unit": metric["unit"], "values": values,
                "median": statistics.median(values),
                "min": min(values), "max": max(values)}
        last = runs[-1]["detail"]
        doc["workloads"][name] = {
            "passes": last["passes"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs)
            + traced[name]["failed"],
            "correct": all(r["correct"] for r in runs)
            and traced[name]["correct"],
            "failed_share": max(r["detail"]["failed_share"] for r in runs),
            "ft_ok_share": last["ft_ok_share"] if last["ft_total"] else None,
            "simulated": last["simulated"],
            "cells": last["cells"],
            "pins": {"e2e": runs[-1]["pins"], "traced": traced[name]["pins"]},
            "digests": {"e2e": last["digests"],
                        "traced": traced[name]["detail"]["digests"]},
            "end_to_end": end_to_end,
            "per_layer": traced[name]["metrics"],
            "traced": {k: traced[name]["detail"][k] for k in (
                "traced_wall_s", "bare_wall_s", "profiled_s", "cells",
                "note")},
            "spans": traced[name]["spans"]}
    return doc


def print_suite(doc: Dict[str, Any]) -> None:
    env = doc["env"]
    print("# seed=%d rounds=%d seconds=%s quick=%s cpus=%d python=%s git=%s"
          % (doc["seed"], doc["rounds"], doc["seconds"], doc["quick"],
             env["cpus"], env["python"], env["git_rev"][:12]))
    for name, w in doc["workloads"].items():
        print("\n== %s  (%d passes/round, %d runs attempted, "
              "failed_share %.4f, ft_ok_share %s, correct %s)"
              % (name, w["passes"], w["attempted"], w["failed_share"],
                 "n/a" if w["ft_ok_share"] is None
                 else "%.4f" % w["ft_ok_share"], w["correct"]))
        print("%-32s %14s %14s %14s  %s"
              % ("end-to-end", "median", "min", "max", "unit"))
        for metric, m in w["end_to_end"].items():
            print("%-32s %14.4f %14.4f %14.4f  %s"
                  % (metric, m["median"], m["min"], m["max"], m["unit"]))
        for metric, value in w["simulated"].items():
            reference = wl.PAPER_REFERENCE[metric]
            print("%-32s %14.4f   paper %.4g, error %+.4g"
                  % (metric, value, reference, value - reference))
        for label, wall in w["cells"]:
            print("  cell %-22s %8.3f s" % (label, wall))
        t = w["traced"]
        print("-- traced pass %.2f s (profiled %.2f s), bare %.2f s%s"
              % (t["traced_wall_s"], t["profiled_s"], t["bare_wall_s"],
                 "; " + t["note"] if t["note"] else ""))
        for label, steps in t["cells"]:
            print("  cell %-22s %s" % (label, "  ".join(
                "%s %.3f s" % (k, v) for k, v in sorted(steps.items()))))
        for metric, m in w["per_layer"].items():
            print("%-32s %14.6f  %s" % (metric, m["value"], m["unit"]))
        for mode, pins in w["pins"].items():
            if pins["checked"] and (pins["outcomes_changed"]
                                    or pins["rendered_changed"]
                                    or pins["count_diffs"]):
                print("!! %s pins differ: %s" % (mode, pins))


def repin(doc: Dict[str, Any]) -> None:
    if doc["seed"] != wl.PINNED_SEED or doc["quick"]:
        raise SystemExit("--repin needs the full-size suite at seed %d"
                         % wl.PINNED_SEED)
    pins = {}
    if os.path.exists(GOLDENS_JSON):
        with open(GOLDENS_JSON) as fh:
            pins = json.load(fh)
    for name, w in doc["workloads"].items():
        pins[name] = {
            "e2e": {"digests": w["digests"]["e2e"]},
            "traced": {"digests": w["digests"]["traced"],
                       "counts": {n: w["per_layer"][n]["value"]
                                  for n in measure.EXACT_COUNTS}}}
    with open(GOLDENS_JSON, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("# re-pinned %s" % GOLDENS_JSON)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one end-to-end run "
                             "(default: run_seconds of BENCHMARK.json); "
                             "the traced run is always one pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="one run of --workload: 0 end-to-end, "
                             "1 traced")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test sizes; never comparable")
    parser.add_argument("--out", help="write the full result document")
    parser.add_argument("--repin", action="store_true",
                        help="rewrite goldens.json from this suite run")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--micro-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        wl.check_environment()
        wl.bind_program()
    except wl.BenchmarkEnvironmentError as exc:
        print("benchmark refused to start: %s" % exc, file=sys.stderr)
        return 2
    if args.setup_probe:
        wl.set_up(wl.WORKLOADS[args.workload], args.seed, args.quick)
        return 0
    if args.micro_probe:
        import micro

        print(json.dumps(micro.run_all(args.quick)))
        return 0
    if args.trace is None:
        doc = suite(args)
        print_suite(doc)
        if args.repin:
            repin(doc)
        status = 0 if all(w["correct"] and not w["failed"]
                          for w in doc["workloads"].values()) else 1
    else:
        if args.workload is None:
            parser.error("--trace needs --workload")
        doc = single_run(args)
        print_run(doc)
        status = 0
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
    if args.trace is not None:
        # The contract's result line: last on standard output.
        print(json.dumps({k: doc[k] for k in (
            "correct", "attempted", "failed", "metrics")}))
    return status


if __name__ == "__main__":
    sys.exit(main())
