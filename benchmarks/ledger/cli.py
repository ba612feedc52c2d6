"""Command line of the ledger.

Two modes share one parser:

* ``--workload NAME`` — one measured run in this process, the way the
  driver calls it (``--workload --seed --seconds --trace``).  The last
  line of standard output is the result object of the contract.
* no ``--workload`` — the whole ledger: every workload in a fresh
  subprocess untraced, then a shorter traced pass, every metric printed
  by name with its unit, and ``BENCH_e2e.json``, ``BENCH_layers.json``
  and ``trace.json`` written to ``--out``.

Either mode exits non-zero when an operation failed or an answer did
not match its expected digest.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

from benchmarks.ledger import spec
from benchmarks.ledger.harness import LEDGER_DIR, run_workload
from benchmarks.ledger.serving import REPO_ROOT, child_env

#: Where the whole-ledger mode writes by default (ignored by git; the
#: committed first baseline is a copy under ``baselines/``).
DEFAULT_OUT = LEDGER_DIR / "out"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger",
        description="the repository's performance ledger",
    )
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES,
                        help="run one workload in this process "
                             "(default: the whole ledger)")
    parser.add_argument("--seed", type=int, default=0,
                        help="drives every generated input (default: 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed window "
                             f"(default: {spec.RUN_SECONDS}; 2 with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, per-layer metrics "
                             "(default: 0, end-to-end metrics)")
    parser.add_argument("--quick", action="store_true",
                        help="small inputs, one set-up (self-tests)")
    parser.add_argument("--report", type=Path, metavar="FILE",
                        help="also write this run's full report as JSON")
    parser.add_argument("--trace-out", type=Path, metavar="FILE",
                        help="write the spans of a traced run here")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        metavar="DIR",
                        help="whole-ledger mode: where BENCH_e2e.json, "
                             "BENCH_layers.json and trace.json go")
    parser.add_argument("--regen-expected", action="store_true",
                        help="rewrite expected/ for this seed from the "
                             "memo baseline interpreter")
    parser.add_argument("--fail-op", type=int, metavar="N",
                        help="make the N-th timed operation raise "
                             "(self-tests: clean-up after an aborted run)")
    return parser


def _seconds(arguments) -> float:
    if arguments.seconds is not None:
        return arguments.seconds
    return 2.0 if arguments.quick else float(spec.RUN_SECONDS)


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------


def driver_line(report: dict, trace: bool) -> str:
    """The result object the driver reads off the last line."""
    if trace:
        metrics = {
            name: {"value": row["value"] if row["value"] is not None
                   else 0.0, "unit": row["unit"]}
            for name, row in report["layers"].items()
        }
    else:
        metrics = {
            metric.name: {
                "value": report["end_to_end"][metric.name]["value"],
                "unit": metric.unit,
            }
            for metric in spec.driver_metrics()
        }
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    })


def print_metrics(workload: str, rows: dict) -> None:
    for name, row in rows.items():
        value = row["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        samples = f"  n={row['samples']}" if "samples" in row else ""
        print(f"{workload:>18}  {name:<42} {shown:>12} {row['unit']}"
              f"{samples}")


def run_one(arguments) -> int:
    report = run_workload(
        arguments.workload,
        seed=arguments.seed,
        seconds=_seconds(arguments),
        trace=bool(arguments.trace),
        quick=arguments.quick,
        fail_op=arguments.fail_op,
        regen_expected=arguments.regen_expected,
        trace_out=arguments.trace_out,
    )
    if arguments.report is not None:
        with open(arguments.report, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
    print_metrics(
        arguments.workload,
        report["layers"] if arguments.trace else report["end_to_end"],
    )
    print(driver_line(report, bool(arguments.trace)))
    return 0 if report["correct"] else 1


# ----------------------------------------------------------------------
# The whole ledger
# ----------------------------------------------------------------------


def _child(arguments, workload: str, trace: int, seconds: float,
           report: Path, trace_out: Optional[Path]) -> Optional[dict]:
    """One workload run in a fresh interpreter; its report, or ``None``
    when the child crashed before writing one."""
    command = [
        sys.executable, str(LEDGER_DIR / "run.py"),
        "--workload", workload, "--seed", str(arguments.seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--report", str(report),
    ]
    if arguments.quick:
        command.append("--quick")
    if arguments.regen_expected and not trace:
        command.append("--regen-expected")
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    report.unlink(missing_ok=True)
    done = subprocess.run(
        command, cwd=str(REPO_ROOT), env=child_env(),
        stdout=subprocess.DEVNULL, check=False,
    )
    if not report.is_file():
        print(f"[ledger] {workload} (trace={trace}) exited "
              f"{done.returncode} without a report", file=sys.stderr)
        return None
    with open(report, "r", encoding="utf-8") as handle:
        loaded = json.load(handle)
    report.unlink()
    loaded["exit_code"] = done.returncode
    return loaded


def run_ledger(arguments) -> int:
    out: Path = arguments.out
    out.mkdir(parents=True, exist_ok=True)
    seconds = _seconds(arguments)
    traced_seconds = max(2.0, seconds / 2)
    started = time.time()
    ok = True
    e2e, layer_rows, traces = {}, {}, {}
    host = None
    for workload in spec.WORKLOAD_NAMES:
        scratch = out / f".{workload}.json"
        report = _child(arguments, workload, 0, seconds, scratch, None)
        if report is None or not report["correct"]:
            ok = False
        if report is not None:
            host = report.pop("host")
            e2e[workload] = report
            print_metrics(workload, report["end_to_end"])

        trace_file = out / f".{workload}.trace.json"
        report = _child(arguments, workload, 1, traced_seconds, scratch,
                        trace_file)
        if report is None or not report["correct"]:
            ok = False
        if report is not None:
            report.pop("host")
            layer_rows[workload] = report
            print_metrics(workload, report["layers"])
        if trace_file.is_file():
            with open(trace_file, "r", encoding="utf-8") as handle:
                traces[workload] = json.load(handle)
            trace_file.unlink()

    common = {
        "schema": 1,
        "seed": arguments.seed,
        "quick": arguments.quick,
        "host": host,
        "started_unix": round(started, 3),
        "wall_seconds": round(time.time() - started, 3),
    }
    _write(out / "BENCH_e2e.json", {
        **common,
        "seconds": seconds,
        "bounds": {
            metric.name: (
                metric.bound if metric.bound is not None
                else {"absolute": spec.ABSOLUTE_BOUNDS[metric.name]}
            )
            for metric in spec.END_TO_END
        },
        "slo_ms": spec.SLO_MS,
        "workloads": e2e,
    })
    _write(out / "BENCH_layers.json", {
        **common, "seconds": traced_seconds, "workloads": layer_rows,
    })
    _write(out / "trace.json", traces, indent=None)
    print(f"wrote {out / 'BENCH_e2e.json'}, {out / 'BENCH_layers.json'} "
          f"and {out / 'trace.json'}")
    if not ok:
        print("FAILED: an operation failed or an answer was wrong",
              file=sys.stderr)
    return 0 if ok else 1


def _write(path: Path, payload: dict, indent: Optional[int] = 1) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=indent, sort_keys=True)
        handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    arguments = build_parser().parse_args(argv)
    if arguments.workload:
        return run_one(arguments)
    return run_ledger(arguments)
