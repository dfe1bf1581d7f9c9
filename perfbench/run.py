#!/usr/bin/env python3
"""lusk benchmark.

One workload per process; the last stdout line is the JSON result.

    python3 perfbench/run.py --workload desk_train --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                  # every workload, untraced then
                                              # traced, each in a fresh process

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# (name, unit); bounds and directions live in BENCHMARK.json
END_TO_END = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("op_peak_alloc_mb", "MB"),
              ("ok_frac", "ratio"), ("throughput_per_s", "1/s"), ("op_ms_p50", "ms"),
              ("op_ms_p90", "ms")]
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def provenance(workload, seed, traced):
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"commit": _git_commit(), "workload": workload, "seed": seed,
            "traced": traced, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV}}


def _times(run, length):
    """Set-up and op-phase metrics from spans, each span's time given by length."""
    import numpy as np

    ops = run.op_spans[run.warmup:]
    op_ms = [1000.0 * length(start, end) for start, end in ops]
    return {
        "setup_s": statistics.median(length(start, end) for start, end in run.setup_spans),
        "throughput_per_s": 1000.0 * sum(run.op_items[run.warmup:]) / sum(op_ms),
        "op_ms_p50": float(np.percentile(op_ms, 50)),
        "op_ms_p90": float(np.percentile(op_ms, 90)),
    }


def end_to_end(run):
    """Every end-to-end metric; times are scaled by the run's calibration
    clock, and warm-up ops are left out."""
    values = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_peak_alloc_mb": run.peak_alloc_b / 2 ** 20,
        "ok_frac": (run.attempted - run.failed) / run.attempted,
        **_times(run, run.clock.scaled),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}


def host_report(run):
    """The calibration kernel's own times and the unscaled time metrics."""
    return {"host": run.clock.summary(),
            "unscaled": _times(run, lambda start, end: end - start)}


def run_workload(workload, seed, seconds, traced, size=None):
    """Run one workload in this process; returns the result dict, the
    calibration report (empty when traced) and the tracer."""
    import tracing
    import workloads

    fn = workloads.WORKLOADS[workload]
    tracer = tracing.Tracer().install() if traced else tracing.NullTracer()
    try:
        run = fn(seed, seconds, tracer, traced, *([size] if size else []))
    finally:
        tracer.stop()
    for problem in run.problems:
        print(f"perfbench: {workload}: {problem}", file=sys.stderr)
    if not run.op_s:
        raise SystemExit(f"perfbench: {workload}: no op completed")
    metrics = tracing.layer_metrics(tracer, run) if traced else end_to_end(run)
    result = {"correct": not run.problems, "attempted": run.attempted, "failed": run.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return result, ({} if traced else host_report(run)), tracer


def run_all(seed, seconds):
    """Each workload untraced then traced, each in a fresh process; prints a table."""
    import workloads

    for workload in workloads.WORKLOADS:
        got = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            if proc.returncode:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"perfbench: {workload} seed {seed} exited {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            got[trace] = json.loads(lines[-1])
            if not trace:
                unscaled = json.loads(lines[-2])["unscaled"]
        print(f"{workload} seed {seed}: correct={got[0]['correct'] and got[1]['correct']} "
              f"attempted={got[0]['attempted']} failed={got[0]['failed']}")
        for name, m in got[0]["metrics"].items():
            print(f"  {name:<18} {m['value']:>12.4f} {m['unit']}")
        traced_p50 = got[1]["metrics"]["trace.op_ms_p50"]["value"]
        print(f"  unscaled op_ms_p50 {unscaled['op_ms_p50']:.4f} ms; traced "
              f"{100.0 * (traced_p50 / unscaled['op_ms_p50'] - 1):+.1f}%")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lusk" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no lusk sources at {SRC}")
    # Before numpy loads: one OpenBLAS thread. On the 2-vCPU VM the benchmark
    # was built on, a second thread sped up no workload and made whole
    # stream_infer runs 15-20% slower at random.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        run_all(args.seed, args.seconds)
        return
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    result, host, tracer = run_workload(args.workload, args.seed, args.seconds,
                                        bool(args.trace))
    if args.trace:
        import tracing

        out = ROOT / ".bench_work" / f"trace-{args.workload}-seed{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        tracing.write_spans(tracer, out)
    print(json.dumps({"provenance": provenance(args.workload, args.seed, bool(args.trace)),
                      **host}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
