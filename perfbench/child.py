"""One fresh interpreter of a benchmark run: a set-up, or the workload loop.

Started by ``perfbench/run.py`` as ``python -m perfbench.child`` with the
repository's ``src`` on the path; it writes its measurements as JSON to
``--out``.  Nothing of ``repro`` is imported before the set-up clock starts.

``setup``
    Import ``repro`` and build the workload's inputs into ``--workdir``;
    report the seconds that took.
``run``
    Take over the inputs a set-up left in ``--workdir``, then call the
    workload repeatedly until ``--seconds`` have passed, timing each call
    with tracing off and checking its output.  With ``--trace 1``, make one
    call with tracing off to warm up, one with every layer traced and one
    more with tracing off, and report the per-layer metrics of the traced
    call and its overhead over the last one.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from perfbench import spans


def _cpu_s() -> float:
    """User plus system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _timed_call(workload, workdir: Path, index: int) -> dict:
    """One untraced call: wall and CPU time, then the checks on its output."""
    prepared = workload.prepare(workdir, index)
    cpu_before = _cpu_s()
    start = time.perf_counter()
    output = workload.call(prepared)
    wall = time.perf_counter() - start
    cpu = _cpu_s() - cpu_before
    checks = workload.check(prepared, output)
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "checks": [[check.name, check.ok, check.detail] for check in checks],
    }


def _traced_call(workload, workdir: Path, index: int) -> tuple[dict, "spans.Tracer"]:
    """One call with every layer wrapped: its checks and its tracer."""
    flush_dir = workdir / f"trace-{index}"
    flush_dir.mkdir()
    tracer = spans.Tracer(flush_dir)
    prepared = workload.prepare(workdir, index)
    spans.install(tracer)
    try:
        root = tracer.open("workload")
        start = time.perf_counter()
        try:
            output = workload.call(prepared)
        finally:
            wall = time.perf_counter() - start
            tracer.close(root)
    finally:
        tracer.restore()
    tracer.collect()
    checks = workload.check(prepared, output)
    record = {
        "wall_s": wall,
        "checks": [[check.name, check.ok, check.detail] for check in checks],
    }
    return record, tracer


def _setup(args: argparse.Namespace) -> dict:
    start = time.perf_counter()
    from perfbench import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, workloads.SCALES[args.scale])
    workload.setup(args.workdir)
    return {"setup_s": time.perf_counter() - start}


def _run(args: argparse.Namespace) -> dict:
    from perfbench import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, workloads.SCALES[args.scale])
    workload.load(args.workdir)
    calls: list[dict] = []
    report: dict = {"calls": calls, "sim_blocks": workload.sim_blocks(), "error": None}
    started = time.monotonic()
    try:
        calls.append(_timed_call(workload, args.workdir, 0))
        _discard_stores(args.workdir)
        if args.trace:
            # Warmed up by the first call; the untraced reference comes last.
            traced, tracer = _traced_call(workload, args.workdir, 1)
            calls.append(traced)
            calls.append(_timed_call(workload, args.workdir, 2))
            report["layers"] = spans.layer_metrics(tracer, traced["wall_s"], calls[-1]["wall_s"])
        else:
            while time.monotonic() - started < args.seconds:
                calls.append(_timed_call(workload, args.workdir, len(calls)))
                _discard_stores(args.workdir)
    except Exception:  # noqa: BLE001 - reported as a failed operation
        report["error"] = traceback.format_exc()
    report["peak_rss_mb"] = _peak_rss_mb()
    return report


def _discard_stores(workdir: Path) -> None:
    """Drop the cold stores of finished calls so a long run stays small on disk."""
    for path in workdir.glob("cold-store-*"):
        shutil.rmtree(path, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = _setup(args) if args.mode == "setup" else _run(args)
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
