#!/usr/bin/env python3
"""Benchmark the repro drivers end to end, or layer by layer with ``--trace 1``.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig8-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, one table
    python3 perfbench/run.py --workload network-sweep --seed 1 --trace 1

Every workload runs in fresh interpreters: ``setups`` set-ups (import of
``repro`` plus building the inputs from ``--seed``), whose median is
``setup_s``, then one interpreter that calls the workload until ``--seconds``
have passed and checks every output.  The last line printed is one JSON
object: ``correct``, ``attempted`` and ``failed`` (checks; a call that raised
counts as one failed check) and the ``metrics``, end-to-end ones with
``--trace 0`` and per-layer ones with ``--trace 1``.  The exit code is 1 when
a check failed.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.spans import PER_LAYER_METRICS  # noqa: E402 - needs ROOT on the path

WORKLOADS = ("fig8-cold", "analysis-warm", "network-sweep")

#: End-to-end metrics: unit and the direction in which each improves.
END_TO_END_METRICS: dict[str, tuple[str, str]] = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Set-ups per run; the median of their times is ``setup_s``.  The warm
#: workload's set-up is a whole cold Fig. 8, so it is made once per run and
#: the median over runs steadies it.
SETUPS = 5

#: A run must finish within this many seconds, set-ups included.
RUN_BUDGET_S = 170.0

#: Where runs keep their stores and hand-off files; removed when a run ends.
WORK_DIR = ROOT / ".perfbench_work"


class ChildFailed(RuntimeError):
    """A benchmark interpreter exited with an error or ran out of time."""


def provenance() -> dict:
    """Commit, interpreter and machine, from ``benchmarks/run_benchmarks.py``'s helpers."""
    path = ROOT / "benchmarks" / "run_benchmarks.py"
    stamp: dict = {"nproc": os.cpu_count(), "loadavg_before": os.getloadavg()}
    if not path.is_file():  # the legacy suite is slated for retirement
        return stamp
    spec = importlib.util.spec_from_file_location("run_benchmarks", path)
    helpers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(helpers)
    return {"git": helpers.git_revision(), "machine": helpers.machine_info(), **stamp}


def _child(mode: str, options: list[str], workdir: Path, deadline: float) -> dict:
    """Run ``perfbench.child`` in a fresh interpreter and return its JSON."""
    out = workdir / f"{mode}.json"
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    command = [
        sys.executable, "-m", "perfbench.child", mode,
        *options, "--workdir", str(workdir), "--out", str(out),
    ]
    # Own session, so a timeout can stop the pool workers with their parent.
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True
    )
    try:
        process.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} of {options[1]} ran out of time") from None
    finally:
        _reap_group(process.pid)
        process.wait()
    if process.returncode != 0:
        raise ChildFailed(f"{mode} of {options[1]} exited with code {process.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


def _reap_group(pgid: int) -> None:
    """Stop whatever is left of an interpreter's process group, workers included."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except OSError:  # the group is already gone
        return


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, scale: str, deadline: float
) -> dict:
    """Set-ups plus the workload interpreter; the measurements of one run."""
    if workload == "analysis-warm" or scale == "smoke":
        setups = 1
    else:
        # The traced run reports no set-up time and needs no set-up's output.
        setups = 0 if trace else SETUPS
    options = ["--workload", workload, "--seed", str(seed), "--scale", scale]
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))
    try:
        setup_times = []
        for index in range(setups):
            setup_dir = workdir / f"setup-{index}"
            setup_dir.mkdir()
            setup_times.append(_child("setup", options, setup_dir, deadline)["setup_s"])
        run_dir = workdir / f"setup-{len(setup_times) - 1}" if setup_times else workdir
        report = _child(
            "run",
            [*options, "--seconds", repr(seconds), "--trace", str(int(trace))],
            run_dir,
            deadline,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:  # another run is still using it
            pass
    report["setup_times"] = setup_times
    return report


def summarise(report: dict, trace: bool) -> dict:
    """The result object of one workload run."""
    calls = report["calls"]
    checks = [check for call in calls for check in call["checks"]]
    failed = [check for check in checks if not check[1]]
    attempted = len(checks)
    if report["error"] is not None:
        attempted += 1
        failed.append(["call", False, report["error"].strip().splitlines()[-1]])
    metrics: dict[str, dict] = {}
    if trace:
        for name, (unit, _) in PER_LAYER_METRICS.items():
            metrics[name] = {"value": report["layers"][name], "unit": unit}
    else:
        values = {
            "wall_s": statistics.median(call["wall_s"] for call in calls),
            "setup_s": statistics.median(report["setup_times"]),
            "cpu_s": statistics.median(call["cpu_s"] for call in calls),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        for name, (unit, _) in END_TO_END_METRICS.items():
            metrics[name] = {"value": values[name], "unit": unit}
    return {
        "correct": not failed,
        "attempted": max(attempted, 1),
        "failed": len(failed),
        "metrics": metrics,
        "failures": failed,
        "calls": len(calls),
        "traced_wall_s": calls[1]["wall_s"] if trace else None,
        "untraced_wall_s": calls[-1]["wall_s"],
        "sim_blocks_per_s": statistics.median(report["sim_blocks"] / call["wall_s"] for call in calls),
    }


def _print_table(workload: str, summary: dict, trace: bool) -> None:
    if trace:
        print(
            f"== {workload}: one traced call, {summary['traced_wall_s']:.3f} s traced, "
            f"{summary['untraced_wall_s']:.3f} s untraced"
        )
    else:
        print(f"== {workload}: median over {summary['calls']} calls")
    for name, metric in summary["metrics"].items():
        print(f"  {name:<28} {metric['value']:>16.6g} {metric['unit']}")
    if not trace:
        # In the table only, not in the result line: both read 0 on some runs
        # (no simulated block on analysis-warm; no failure on a healthy run).
        print(f"  {'sim_blocks_per_s':<28} {summary['sim_blocks_per_s']:>16.6g} blocks/s")
        failed_frac = summary["failed"] / summary["attempted"]
        print(f"  {'failed_ops_frac':<28} {failed_frac:>16.6g} fraction")
    for name, _, detail in summary["failures"]:
        print(f"  FAILED {name}: {detail}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "smoke"), default="full",
        help="'smoke' shrinks every workload for the benchmark's own tests",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    stamp = provenance()

    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = {}
    for workload in selected:
        deadline = time.monotonic() + RUN_BUDGET_S
        try:
            report = run_workload(
                workload, args.seed, args.seconds, bool(args.trace), args.scale, deadline
            )
        except ChildFailed as error:
            print(f"perfbench: {error}", file=sys.stderr)
            return 1
        if not report["calls"] or (args.trace and "layers" not in report):
            print(f"perfbench: {workload} measured nothing:\n{report['error']}", file=sys.stderr)
            return 1
        summaries[workload] = summarise(report, bool(args.trace))
        _print_table(workload, summaries[workload], bool(args.trace))

    stamp.update(loadavg_after=os.getloadavg(), workload=args.workload, seed=args.seed,
                 seconds=args.seconds, trace=args.trace, scale=args.scale)
    print("provenance " + json.dumps(stamp, sort_keys=True))
    if len(summaries) == 1:
        (summary,) = summaries.values()
    else:
        summary = {
            "correct": all(item["correct"] for item in summaries.values()),
            "attempted": sum(item["attempted"] for item in summaries.values()),
            "failed": sum(item["failed"] for item in summaries.values()),
            "metrics": {
                f"{workload}.{name}": metric
                for workload, item in summaries.items()
                for name, metric in item["metrics"].items()
            },
        }
    print(json.dumps({key: summary[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
