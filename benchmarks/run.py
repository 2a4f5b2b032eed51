"""irflab benchmark: one workload, one process, one closed-loop client.

    python3 benchmarks/run.py --workload sessions-22k --seed 1 --seconds 30 --trace 0

Generates the workload's inputs from --seed (in a child process, into
benchmarks/out/<workload>/inputs), sets up by irflab's load calls several
times (setup_s is their median), then repeats the workload's fixed pass
while another pass still fits in --seconds (at least one). Every pass is
checked; a failed session, training run or CLI command counts in `failed`.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced and
one traced pass and prints the per-layer metrics from spans recorded around
irflab's public functions (tracing.py). The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The full run
record (versions, seed, units, sample counts, output digests, spans) is
written under benchmarks/out/<workload>/.

--size smoke runs the same workloads on tiny inputs in seconds.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train-2k", "sessions-22k", "experiment-2k")

# units of the metrics BENCHMARK.json lists as end_to_end
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sessions_per_s": "1/s",
    "session_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "map100": "score",
}


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def parse_args(argv):
    parser = argparse.ArgumentParser(description="irflab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "irflab" / "__init__.py").is_file():
        print(f"error: irflab sources not found under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # one BLAS thread: the benchmark measures a single closed-loop client
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]

    import numpy as np

    import irflab
    from tracing import Tracer, layer_metrics, quantile
    from workloads import SIZES, WORKLOADS

    out = HERE / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    inputs = out / "inputs"
    out.mkdir(parents=True)
    rel_inputs = os.path.relpath(inputs)
    gen = subprocess.run(
        [sys.executable, str(HERE / "inputs.py"), "--workload", args.workload, "--size", args.size,
         "--seed", str(args.seed), "--out", rel_inputs],
        capture_output=True, text=True, timeout=300)
    if gen.returncode != 0:
        print(f"error: input generation failed:\n{gen.stderr}", file=sys.stderr)
        return 1

    workload = WORKLOADS[args.workload](args.size, args.seed, Path(rel_inputs), out)
    setup_times = []
    for _ in range(SIZES[args.size]["setup_repeats"]):
        state = None
        gc.collect()
        t = time.perf_counter()
        state = workload.setup()
        setup_times.append(time.perf_counter() - t)

    walls, session_ms, session_rates, checks = [], [], [], []
    started = time.perf_counter()
    while True:
        work = None
        gc.collect()
        t = time.perf_counter()
        work = workload.work(state)
        walls.append(time.perf_counter() - t)
        session_ms += work.session_ms
        session_rates.append(len(work.session_ms) / work.session_s if work.session_s else 0.0)
        checks.append(workload.check(state, work))
        if args.trace or time.perf_counter() - started + statistics.median(walls) > args.seconds:
            break

    layer, layer_units, layer_samples, spans_path = {}, {}, {}, None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.span("bench.setup"):
                state = workload.setup()
            gc.collect()
            with tracer.span("bench.pass"):
                t = time.perf_counter()
                work = workload.work(state)
                traced_wall = time.perf_counter() - t
        finally:
            tracer.uninstall()
        checks.append(workload.check(state, work))
        layer, layer_units, layer_samples = layer_metrics(tracer)
        layer["tracing.overhead_s"] = traced_wall - walls[0]
        layer_units["tracing.overhead_s"] = "s"
        spans_path = out / "spans.jsonl"
        tracer.write(spans_path)

    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    failures = [f for c in checks for f in c.failures]
    if any(c.digests != checks[0].digests or c.map100 != checks[0].map100 for c in checks[1:]):
        attempted += 1
        failed += 1
        failures.append("passes over the same inputs produced different outputs")

    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "sessions_per_s": statistics.median(session_rates),
        "session_ms_p90": quantile(session_ms, 0.9),
        "peak_rss_mb": peak_rss_mb(),
        "map100": checks[0].map100,
    }
    training = [c.training for c in checks if c.training]
    train_rate = None
    if training:
        train_rate = statistics.median(
            sum(s["positions"] for s in t.values()) / sum(s["seconds"] for s in t.values()) for t in training)
    # printed and recorded, not gated: on a mix of session kinds the median
    # sits between kinds and p99 rests on a handful of samples
    latency = {"session_ms_p50": quantile(session_ms, 0.5), "session_ms_p99": quantile(session_ms, 0.99),
               "session_ms_mean": statistics.fmean(session_ms) if session_ms else 0.0}
    samples = {"setup_s": len(setup_times), "wall_s": len(walls),
               **{name: len(session_ms) for name in ("session_ms_p50", "session_ms_p90", "session_ms_p99")},
               **layer_samples}
    units = {**END_TO_END_UNITS, **{name: "ms" for name in latency}, "train_positions_per_s": "1/s",
             "error_rate": "ratio", **layer_units}

    print(f"workload {args.workload} (size {args.size}, seed {args.seed}): "
          f"{len(walls)} pass(es), {len(setup_times)} set-ups")
    if args.trace:
        for name, value in layer.items():
            print(f"  {name}: {value:.6g} {units[name]}")
    else:
        for name, value in metrics.items():
            print(f"  {name}: {value:.6g} {units[name]}")
        for name, value in latency.items():
            print(f"  {name}: {value:.6g} ms")
        print(f"  session latency samples: {len(session_ms)}, {int(len(session_ms) * 0.01)} beyond p99")
        print(f"  train_positions_per_s: "
              + (f"{train_rate:.6g} 1/s" if train_rate is not None else "n/a (no training in this workload)"))
    print(f"  error_rate: {failed / attempted:.6g} ratio ({failed} of {attempted} operations failed)")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")

    record = {
        "workload": args.workload, "size": args.size, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "irflab": irflab.__version__, "git_commit": git_commit(ROOT),
            "src_sha256": source_digest(SRC), "platform": platform.platform(),
        },
        "metrics": {**metrics, **latency, "train_positions_per_s": train_rate,
                    "error_rate": failed / attempted, **layer},
        "units": units,
        "samples": samples,
        "setup_times_s": setup_times,
        "pass_walls_s": walls,
        "training": training,
        "attempted": attempted, "failed": failed, "failures": failures,
        "output_digests": checks[0].digests,
        "commands": [[argv, code, seconds] for argv, code, _, seconds in work.commands],
        "spans": str(spans_path) if spans_path else None,
    }
    record_path = out / f"record-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True), encoding="utf-8")
    print(f"  run record: {os.path.relpath(record_path)}")

    reported = layer if args.trace else metrics
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in reported.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
