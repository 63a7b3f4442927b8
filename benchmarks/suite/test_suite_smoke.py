"""Smoke-run the benchmark suite at ``--quick`` sizes (under a minute).

Not part of tier-1 (``testpaths`` excludes ``benchmarks/``); run it with
``python -m pytest benchmarks/suite -m perf``.  It guards what a later
change most easily breaks without noticing: a metric that
``BENCHMARK.json`` names but the run no longer emits, a count that stops
repeating, a comparison tool that disagrees with itself.
"""

import json
import os
import re
import subprocess
import sys

import pytest

SUITE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE))
WORKLOAD = "table1"      # the one workload that touches every layer block


def _run(*args):
    return subprocess.run([sys.executable, os.path.join(SUITE, "run.py"),
                           *args], check=True, stdout=subprocess.PIPE,
                          timeout=120).stdout.decode()


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def suite_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite") / "quick.json"
    _run("--quick", "--rounds", "1", "--workload", WORKLOAD, "--seed", "7",
         "--out", str(out))
    with open(out) as fh:
        return str(out), json.load(fh)


@pytest.mark.perf
def test_contract_limits(contract):
    sys.path.insert(0, SUITE)
    try:
        import workloads
    finally:
        sys.path.remove(SUITE)
    assert contract["paths"] == ["benchmarks/suite"]
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in contract[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert {w["name"] for w in contract["workloads"]} \
        == set(workloads.WORKLOADS)
    assert all(m["bound"] <= 0.25 for m in contract["end_to_end"])
    assert any(m["name"] == "setup_s" for m in contract["end_to_end"])


@pytest.mark.perf
def test_every_metric_is_emitted_with_its_unit(contract, suite_doc):
    _path, doc = suite_doc
    run = doc["workloads"][WORKLOAD]
    assert run["correct"] and run["failed_share"] == 0
    for metric in contract["end_to_end"]:
        assert run["end_to_end"][metric["name"]]["unit"] == metric["unit"]
        assert run["end_to_end"][metric["name"]]["median"] > 0
    assert set(run["per_layer"]) == {m["name"] for m in contract["per_layer"]}
    for metric in contract["per_layer"]:
        assert run["per_layer"][metric["name"]]["unit"] == metric["unit"]


@pytest.mark.perf
def test_counts_repeat_exactly(suite_doc):
    _path, doc = suite_doc
    first = doc["workloads"][WORKLOAD]["per_layer"]
    last_line = _run("--quick", "--workload", WORKLOAD, "--seed", "7",
                     "--trace", "1").strip().splitlines()[-1]
    again = json.loads(last_line)
    assert set(again) == {"correct", "attempted", "failed", "metrics"}
    assert again["correct"] and again["failed"] == 0
    sys.path.insert(0, SUITE)
    try:
        from measure import EXACT_COUNTS, LAYERS
    finally:
        sys.path.remove(SUITE)
    exact = list(EXACT_COUNTS) + ["%s.calls" % layer for layer in LAYERS]
    assert {n: again["metrics"][n]["value"] for n in exact} \
        == {n: first[n]["value"] for n in exact}


@pytest.mark.perf
def test_compare_against_itself_is_all_same(suite_doc):
    path, _doc = suite_doc
    result = subprocess.run(
        [sys.executable, os.path.join(SUITE, "compare.py"), path, path],
        stdout=subprocess.PIPE, timeout=30)
    assert result.returncode == 0
    table, _, exact = result.stdout.decode().partition("\n\n")
    verdicts = [line.split()[-1] for line in table.splitlines()[1:]]
    assert verdicts and set(verdicts) == {"same"}
    assert exact.strip().endswith("none")
