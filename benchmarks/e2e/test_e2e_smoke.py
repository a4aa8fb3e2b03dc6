"""Tier-1 smoke test of the end-to-end benchmark.

Runs every workload at ``--smoke`` size through the same runner the
driver uses, once untraced and once traced, and checks the contract
between ``BENCHMARK.json`` and what the runner emits.  The check stage is
also driven in-process with a planted wrong release.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [row["name"] for row in DECLARED["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """Both passes over all workloads (side by side: the host has two
    cores); returns (out dir, {trace: stdout})."""
    out = tmp_path_factory.mktemp("e2e")
    running = {}
    for trace in (0, 1):
        with open(out / f"stdout{trace}.txt", "w", encoding="utf-8") as log:
            running[trace] = subprocess.Popen(
                [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "smoke",
                 "--seconds", "0.3", "--trace", str(trace), "--out", str(out)],
                stdout=log, stderr=subprocess.STDOUT,
            )
    stdout = {}
    for trace, process in running.items():
        process.wait(timeout=170)
        stdout[trace] = (out / f"stdout{trace}.txt").read_text(encoding="utf-8")
        assert process.returncode == 0, stdout[trace]
    return out, stdout


def test_declaration_is_within_the_contract():
    assert set(DECLARED) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(DECLARED["workloads"]) <= 8
    assert 1 <= len(DECLARED["end_to_end"]) <= 16
    assert 1 <= len(DECLARED["per_layer"]) <= 128
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer") for row in DECLARED[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for row in DECLARED["workloads"]:
        assert set(row) == {"name", "why"} and len(row["why"]) <= 200 and "\n" not in row["why"]
    for row in DECLARED["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert 0 <= row["bound"] <= 0.25
    for row in DECLARED["per_layer"]:
        assert set(row) == {"name", "unit", "better"}
    for row in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert UNIT.fullmatch(row["unit"]) and row["better"] in ("lower", "higher")
    setup = [row for row in DECLARED["end_to_end"] if row["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(row["bound"] for row in DECLARED["end_to_end"])
    total_runs = 4 + 22 * len(DECLARED["workloads"])
    assert isinstance(DECLARED["run_seconds"], int) and 1 <= DECLARED["run_seconds"] <= 60
    assert total_runs * DECLARED["run_seconds"] < 3420


@pytest.mark.parametrize("trace, table", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted_and_nothing_else(passes, trace, table):
    out, stdout = passes
    declared = {row["name"]: row["unit"] for row in DECLARED[table]}
    results = [json.loads(line) for line in stdout[trace].splitlines() if line.startswith("{")]
    assert len(results) == len(WORKLOADS)
    for workload, result in zip(WORKLOADS, results):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert emitted == declared, workload
        for name, metric in result["metrics"].items():
            assert set(metric) == {"value", "unit"}
            assert isinstance(metric["value"], (int, float)), (workload, name)
            assert re.search(
                rf"^{re.escape(workload)} {re.escape(name)} \S+ {re.escape(metric['unit'])} n=\d+$",
                stdout[trace], re.M,
            ), (workload, name)
        stem = f"{workload}.trace" if trace else workload
        raw = json.loads((out / f"{stem}.json").read_text(encoding="utf-8"))
        assert raw["metrics"] == result["metrics"]
        assert {"nproc", "python", "platform", "loadavg_1min", "noisy_host"} <= set(raw["host"])
        assert raw["samples"]["session_s"][-1], workload
    if not trace:  # an end-to-end metric is never 0
        zero = [
            (workload, name)
            for workload, result in zip(WORKLOADS, results)
            for name, metric in result["metrics"].items()
            if not metric["value"] > 0
        ]
        assert not zero


def test_spans_nest_and_self_times_are_non_negative(passes):
    out, _ = passes
    traced = 0
    for workload in WORKLOADS:
        path = out / f"{workload}.spans.jsonl"
        if not path.exists():
            continue  # fleet-closed: nothing traced runs in the callers' process
        spans = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        traced += 1
        covered = [0.0] * len(spans)
        for span in spans:
            assert span["end"] >= span["start"]
            assert span["op"] >= 1  # the untraced ops came first
            if span["parent"] >= 0:
                parent = spans[span["parent"]]
                assert span["parent"] < span["id"]
                assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
                covered[span["parent"]] += span["end"] - span["start"]
        for span, inside in zip(spans, covered):
            assert (span["end"] - span["start"]) - inside >= -1e-9, (workload, span["name"])
    assert traced >= 6


def test_check_stage_fails_a_planted_wrong_release():
    sys.path.insert(0, str(HERE))
    try:
        import workloads
    finally:
        sys.path.remove(str(HERE))

    workload = workloads.build("curve-release", "smoke", smoke=True)
    workload.build_params()
    records = [workload.op(index)[1] for index in range(2)]
    assert workload.check(records) == []

    flipped = bytearray(records[1]["release"])
    flipped[-1] ^= 1
    wrong_bytes = [records[0], dict(records[1], release=bytes(flipped))]
    assert [op for op, _ in workload.check(wrong_bytes)] == [1]

    off = tuple(value + 1000.0 for value in records[1]["estimate"])
    assert any(op == 1 for op, _ in workload.check([records[0], dict(records[1], estimate=off)]))

    rejected = dict(records[0], accepted=False, provers={"prover-0": "honest", "prover-1": "bad-coin-proof"})
    assert {op for op, _ in workload.check([rejected])} == {0}
