"""Self-tests of the ledger (not part of tier-1; run explicitly)::

    PYTHONPATH=src python -m pytest benchmarks/ledger/tests -q

Everything runs at ``--quick`` sizes through the same ``run.py`` the
driver calls, in subprocesses, so process and scratch-directory hygiene
is observed from outside.
"""

from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.ledger import compare, expected, harness, spec
from benchmarks.ledger.serving import _Frames
from benchmarks.ledger.trace import Tracer

LEDGER = Path(harness.LEDGER_DIR)
ROOT = LEDGER.parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_ledger(*args: str, report: Path = None):
    """``run.py`` in its own session; returns (process, leftovers)."""
    command = [sys.executable, str(LEDGER / "run.py"), "--quick",
               "--seconds", "1", *args]
    if report is not None:
        command += ["--report", str(report)]
    process = subprocess.Popen(
        command, cwd=str(ROOT), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    stdout, stderr = process.communicate(timeout=300)
    process.stdout_text, process.stderr_text = stdout, stderr
    return process, _session_members(process.pid)


def _session_members(session: int):
    """Command lines of live processes still in ``session``."""
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                fields = handle.read().rsplit(b") ", 1)[1].split()
            if int(fields[3]) != session or fields[0] == b"Z":
                continue
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                alive.append(handle.read().replace(b"\0", b" ").decode())
        except (OSError, IndexError):
            continue
    return alive


def last_line(process) -> dict:
    return json.loads(process.stdout_text.strip().splitlines()[-1])


# -- the declaration -----------------------------------------------------


def test_manifest_is_the_spec_and_within_the_contract_limits():
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    assert manifest == spec.manifest()
    assert set(manifest) == {"command", "paths", "run_seconds",
                             "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = [row["name"] for key in ("workloads", "end_to_end",
                                     "per_layer") for row in manifest[key]]
    assert all(NAME.match(name) for name in names)
    for key in ("workloads", "end_to_end", "per_layer"):
        section = [row["name"] for row in manifest[key]]
        assert len(section) == len(set(section))
    for row in manifest["workloads"]:
        assert len(row["why"]) <= 200 and "\n" not in row["why"]
    for row in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(row["unit"])
        assert row["better"] in ("lower", "higher")
    for row in manifest["end_to_end"]:
        assert 0 < row["bound"] <= 0.25
    setup = [r for r in manifest["end_to_end"] if r["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["better"] == "lower"
    assert isinstance(manifest["run_seconds"], int)
    assert 1 <= manifest["run_seconds"] <= 60
    assert set(spec.SLO_MS) == set(spec.WORKLOAD_NAMES)
    assert set(spec.MIN_OPS) == set(spec.WORKLOAD_NAMES)
    assert {m.name for m in spec.PER_LAYER} >= set(spec.EXACT_LAYER_METRICS)


# -- every workload, both passes ----------------------------------------


@pytest.mark.parametrize("workload", spec.WORKLOAD_NAMES)
def test_quick_run_reports_every_declared_metric(workload, tmp_path):
    report_path = tmp_path / "report.json"
    process, leftovers = run_ledger(
        "--workload", workload, "--seed", "0", "--trace", "0",
        report=report_path,
    )
    assert process.returncode == 0, process.stderr_text
    assert leftovers == []
    line = last_line(process)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert list(line["metrics"]) == [m.name for m in spec.driver_metrics()]
    for metric in spec.driver_metrics():
        row = line["metrics"][metric.name]
        assert row["unit"] == metric.unit
        assert isinstance(row["value"], float) and row["value"] > 0
    report = json.loads(report_path.read_text())
    assert list(report["end_to_end"]) == [m.name for m in spec.END_TO_END]
    for row in report["end_to_end"].values():
        assert {"value", "unit", "samples"} <= set(row)
    assert report["end_to_end"]["failed_ratio"]["value"] == 0

    process, leftovers = run_ledger(
        "--workload", workload, "--seed", "0", "--trace", "1",
        report=report_path,
    )
    assert process.returncode == 0, process.stderr_text
    assert leftovers == []
    line = last_line(process)
    assert line["correct"] is True
    assert list(line["metrics"]) == [m.name for m in spec.PER_LAYER]
    for metric in spec.PER_LAYER:
        row = line["metrics"][metric.name]
        assert row["unit"] == metric.unit
        assert isinstance(row["value"], (int, float))
    assert line["metrics"]["trace_overhead_ratio"]["value"] > 0
    assert not (harness.WORK_ROOT.exists()
                and any(harness.WORK_ROOT.iterdir()))


# -- determinism ---------------------------------------------------------


@pytest.mark.parametrize(
    "workload", ["paper_inmem", "compile_cold", "stored_cold",
                 "serve_stream"],
)
def test_exact_counters_repeat_and_inputs_follow_the_seed(
    workload, tmp_path
):
    reports = []
    for index, seed in enumerate(("7", "7", "8")):
        path = tmp_path / f"report{index}.json"
        process, _ = run_ledger(
            "--workload", workload, "--seed", seed, "--trace", "1",
            report=path,
        )
        assert process.returncode == 0, process.stderr_text
        reports.append(json.loads(path.read_text()))
    first, again, other = reports
    for name in spec.EXACT_LAYER_METRICS:
        assert first["layers"][name]["value"] == (
            again["layers"][name]["value"]
        ), name
    assert first["inputs_sha1"] == again["inputs_sha1"]
    assert first["inputs_sha1"] != other["inputs_sha1"]


def test_stored_bytes_ratio_is_exact(tmp_path):
    values = []
    for index in range(2):
        path = tmp_path / f"report{index}.json"
        process, _ = run_ledger(
            "--workload", "stored_fastpath", "--seed", "3", "--trace", "0",
            report=path,
        )
        assert process.returncode == 0, process.stderr_text
        values.append(json.loads(path.read_text())
                      ["end_to_end"]["stored_bytes_ratio"]["value"])
    assert values[0] == values[1] and values[0] > 1.0


# -- hygiene after an aborted run -----------------------------------------


@pytest.mark.parametrize("workload", ["serve_point", "collection_scatter"])
def test_aborted_run_leaves_no_process_and_no_scratch(workload):
    process, leftovers = run_ledger(
        "--workload", workload, "--seed", "0", "--trace", "0",
        "--fail-op", "3",
    )
    assert process.returncode != 0
    assert "InjectedFailure" in process.stderr_text
    assert not process.stdout_text.strip().endswith("}")
    deadline = time.monotonic() + 5
    while leftovers and time.monotonic() < deadline:
        time.sleep(0.1)
        leftovers = _session_members(process.pid)
    assert leftovers == []
    assert not (harness.WORK_ROOT.exists()
                and any(harness.WORK_ROOT.iterdir()))


# -- expected answers ----------------------------------------------------


def test_committed_expected_answers_come_from_the_baseline(tmp_path):
    from benchmarks.ledger.workloads import PaperInmem

    workload = PaperInmem(harness.Context(0, False, tmp_path, None))
    workload.setup()
    committed = expected.load(
        workload.name, 0, workload.sizes(), workload.ops
    )
    assert committed is not None, "expected/paper_inmem.seed0.json"
    assert committed == harness.expected_answers(workload, regen=True)


def test_a_wrong_answer_is_a_failed_op(tmp_path):
    from benchmarks.ledger.workloads import PaperInmem

    workload = PaperInmem(harness.Context(1, True, tmp_path, None))
    workload.setup()
    answers = harness.expected_answers(workload, regen=True)
    assert harness.verify(workload, answers) == []
    key = workload.ops[0].key
    answers[key] = ("0" * 16, answers[key][1] + 1)
    assert harness.verify(workload, answers) == [key]
    window = harness.run_window(workload, answers, 0.2)
    assert window.failed == sum(1 for s in window.samples if s.key == key)
    assert window.failed > 0


def test_a_window_runs_on_until_it_holds_the_op_floor(tmp_path):
    from benchmarks.ledger.workloads import CompileCold

    workload = CompileCold(harness.Context(0, True, tmp_path, None))
    workload.setup()
    answers = harness.expected_answers(workload, regen=True)
    per_pass = len(workload.ops)
    short = harness.run_window(workload, answers, 0.0)
    assert short.ops == per_pass
    floored = harness.run_window(workload, answers, 0.0,
                                 min_ops=2 * per_pass + 1)
    assert floored.ops == 3 * per_pass  # whole passes only


def test_the_committed_baseline_meets_the_op_floor_in_time():
    with open(LEDGER / "baselines" / "BENCH_e2e.json", "r",
              encoding="utf-8") as handle:
        baseline = json.load(handle)
    assert baseline["seconds"] == spec.RUN_SECONDS
    for name, report in baseline["workloads"].items():
        ops = report["end_to_end"]["latency_p95_ms"]["samples"]
        assert ops >= spec.MIN_OPS[name], name
        # ... within the declared window (plus the pass that ends it),
        # not by running on.
        assert report["window_s"] < 1.1 * spec.RUN_SECONDS, name


def test_raw_client_counts_the_items_that_arrived():
    def item(value):
        return {"type": "node", "sort_key": [1], "kind": 1, "name": "a",
                "value": value}

    def line(frame):
        return json.dumps(frame, separators=(",", ":")).encode() + b"\n"

    body = io.BytesIO(
        line({"frame": "header", "qid": 1, "kind": "node-set"})
        + line({"frame": "page", "qid": 1, "seq": 0, "items": [
            item('{"type":"node"} in a value'), item("plain")]})
        + line({"frame": "page", "qid": 1, "seq": 1, "items": [item("x")]})
        # A footer that claims more than was delivered.
        + line({"frame": "footer", "qid": 1, "pages": 2, "items": 5})
    )
    frames = _Frames(decode=True)
    frames.read(body, until_first_page=False)
    assert (frames.pages, frames.items, frames.footer_items) == (2, 3, 5)
    assert len(frames.decoded) == 3


# -- compare.py -----------------------------------------------------------


def _result_set(directory: Path, p50: float, jitter: float = 0.0):
    directory.mkdir()
    for index in range(5):
        value = p50 * (1 + jitter * (index - 2))
        report = {"workloads": {"paper_inmem": {"end_to_end": {
            "latency_p50_ms": {"value": value, "unit": "ms"},
            "throughput_qps": {"value": 1000 / value, "unit": "1/s"},
            "failed_ratio": {"value": 0.0, "unit": "ratio"},
            "stored_bytes_ratio": {"value": None, "unit": "ratio"},
        }}}}
        (directory / f"run{index}.json").write_text(json.dumps(report))
    return directory


def test_compare_says_ok_worse_and_unresolved(tmp_path, capsys):
    base = _result_set(tmp_path / "base", 10.0, jitter=0.005)
    same = _result_set(tmp_path / "same", 10.2, jitter=0.005)
    slow = _result_set(tmp_path / "slow", 13.5, jitter=0.005)
    noisy = _result_set(tmp_path / "noisy", 10.0, jitter=0.2)

    def verdicts(directory):
        return {row["metric"]: row["verdict"] for row in compare.compare(
            compare.load_set(base), compare.load_set(directory))}

    everything_ok = {"latency_p50_ms": "ok", "throughput_qps": "ok",
                     "failed_ratio": "ok"}
    assert compare.main([str(base), str(same)]) == 0
    assert verdicts(same) == everything_ok
    assert compare.main([str(base), str(slow)]) == 1
    assert verdicts(slow) == {**everything_ok, "latency_p50_ms": "worse",
                              "throughput_qps": "worse"}
    assert compare.main([str(base), str(noisy)]) == 0
    assert verdicts(noisy) == {**everything_ok,
                               "latency_p50_ms": "unresolved",
                               "throughput_qps": "unresolved"}
    assert "unresolved" in capsys.readouterr().out
    (tmp_path / "few").mkdir()
    assert compare.main([str(base), str(tmp_path / "few")]) == 2


# -- the tracer ----------------------------------------------------------


def test_tracer_self_time_leaves_and_uninstall():
    class Target:
        def outer(self):
            time.sleep(0.01)
            for _ in range(3):
                self.inner()

        def inner(self):
            time.sleep(0.002)

    tracer = Tracer()
    original = Target.__dict__["outer"]
    tracer.wrap(Target, "outer", "engine")
    tracer.wrap(Target, "inner", "storage", leaf=True)
    with tracer.span("op", op_id=0):
        Target().outer()
    tracer.uninstall()
    assert Target.__dict__["outer"] is original

    totals = tracer.totals(window=True)
    calls, busy, self_s = totals["Target.inner"]
    assert calls == 3 and busy >= 0.006
    outer_calls, outer_busy, outer_self = totals["Target.outer"]
    assert outer_calls == 1
    assert outer_self == pytest.approx(outer_busy - busy, abs=1e-6)
    assert totals["op"][2] < 0.005  # the root span did nothing itself
    assert len(tracer.leaves) == 1  # three calls, one coalesced row
    dumped = tracer.to_json()
    assert dumped["spans"][0][1:2] == ["op"] and len(dumped["spans"]) == 2


def test_tracer_skips_and_reports_a_target_that_is_gone():
    tracer = Tracer()
    tracer.wrap("repro.no_such_module:Thing", "method", "engine")
    tracer.wrap("repro:XPathEngine", "no_such_method", "engine")
    tracer.wrap("repro:XPathEngine", "evaluate", "engine",
                sample=lambda result, args: result.no_such_attribute)
    try:
        from repro import XPathEngine, parse_document

        assert XPathEngine().evaluate("count(/a)",
                                      parse_document("<a/>")) == 1.0
    finally:
        tracer.uninstall()
    assert tracer.missing == {
        "repro.no_such_module:Thing.method",
        "repro:XPathEngine.no_such_method",
        "repro:XPathEngine.evaluate (sample)",
    }
    assert tracer.totals()["XPathEngine.evaluate"][0] == 1
    assert tracer.to_json()["missing"] == sorted(tracer.missing)
