"""berlab benchmark: one workload per process, end-to-end or layer-traced.

    python3 perfbench/run.py --workload campaign_default --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --golden

``--trace 0`` reports the end-to-end metrics with tracing off; ``--trace 1``
alternates untraced and traced rounds of the same calls and reports the
per-layer metrics. Every call's output hash must equal the warm-up call's,
and a pinned-seed call must reproduce perfbench/golden.json; any mismatch
makes the run exit 1. The last stdout line is the JSON result. ``--golden``
only recomputes every pinned hash, the full 500-trial default campaign
(about 35 s) included.
"""

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE.parent / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def nproc():
    return len(os.sched_getaffinity(0))


def cap_blas_threads():
    """No more BLAS threads than usable cores; must run before numpy loads."""
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc():
            os.environ[var] = str(nproc())


def environment():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "cpu": cpu,
            "nproc": nproc(), "threads": {v: os.environ[v] for v in THREAD_VARS}}


def golden_only(workloads, log):
    ok = True
    for entry in workloads.golden_entries(slow=True):
        good, digest, wall = workloads.check_golden(entry)
        ok &= good
        log(f"{'ok  ' if good else 'FAIL'} {entry['workload']} seed={entry['seed']} "
            f"trials={entry.get('trials')} budget={entry.get('budget', '-')} "
            f"{digest[:16]}... {wall:.2f}s")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--golden", action="store_true",
                        help="only recompute the pinned hashes in golden.json")
    args = parser.parse_args(argv)

    def log(line):
        print(line, flush=True)

    if not (SRC / "berlab" / "__init__.py").is_file():
        print(f"error: no berlab sources under {SRC}", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, str(HERE))
    import workloads  # puts SRC first on sys.path

    import berlab

    if Path(berlab.__file__).resolve().parent != SRC / "berlab":
        print(f"error: imported berlab from {berlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.golden:
        return golden_only(workloads, log)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import measure

    w = workloads.WORKLOADS[args.workload]
    env = environment()
    log("env " + json.dumps(env, sort_keys=True))

    pinned_ok = True
    for entry in workloads.golden_entries(w.name):
        good, digest, _ = workloads.check_golden(entry)
        pinned_ok &= good
        if not good:
            log(f"golden mismatch: seed {entry['seed']} expected "
                f"{entry['sha256']}, got {digest}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        run = measure.traced(w, args.seed, args.seconds, log,
                             stem.with_suffix(".spans.jsonl.gz"))
    else:
        run = measure.end_to_end(w, args.seed, args.seconds, log)
    metrics, stats, calls, mismatched, problems = run
    for problem in problems:
        log(f"check failed: {problem}")

    checks_ok = pinned_ok and not problems
    correct = checks_ok and mismatched == 0
    attempted = calls * w.attempts()
    failed = (mismatched if checks_ok else calls) * w.attempts()

    log(f"{w.name} seed={args.seed} trace={args.trace} master_seeds={w.seeds(args.seed)} "
        f"calls={calls} correct={correct}")
    for name, s in stats.items():
        log(f"  {name:<28} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
            f"q3 {s['q3']:.6g}  n={s['n']}")
    for name, (value, unit) in metrics.items():
        log(f"  {name:<40} {value:.6g} {unit}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    stem.with_suffix(".json").write_text(json.dumps(
        {"workload": w.name, "seed": args.seed, "trace": args.trace, "env": env,
         "stats": stats, **result}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
