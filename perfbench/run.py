"""hybridseq benchmark: one workload, one closed-loop client, one process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hybrid_long_video --seed 1 --seconds 20 --trace 0

`--trace 0` measures the end-to-end metrics with nothing wrapped.
`--trace 1` is the separate traced run: half of `--seconds` untraced, half
with spans around the package's public functions, then an untimed pass for
FLOP counts and tracemalloc peaks; it reports the per-layer metrics.

The program under test is the `hybridseq` package in `src/` of the same
checkout; the run fails without printing a result when it is missing.
BLAS is pinned to one thread before numpy is imported.  Each run prints one
line per metric and, as its last line, a JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The full result, with the
machine it ran on, is also written to `perfbench/out/`, and the traced run
writes its spans there.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the BLAS thread pins)

from harness import closed_loop, percentile  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 3


def import_program():
    """Import hybridseq from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import hybridseq
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import hybridseq from {src}: {exc}")
    if src not in Path(hybridseq.__file__).resolve().parents:
        raise SystemExit(f"perfbench: hybridseq resolved outside {src}: {hybridseq.__file__}")
    return hybridseq


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_untraced(workload, seconds: float, imports_s: float) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
    closed_loop(workload.cycle, seconds, workload.enough)
    return {"setup_s": imports_s + statistics.median(setups),
            **workload.e2e_metrics(), "peak_rss_mb": peak_rss_mb()}


def run_traced(workload, seconds: float, spans_path: Path) -> dict:
    tracer = workload.tracer
    workload.install_tracing()
    try:
        with tracer.recording(), tracer.operation("setup", "setup"):
            workload.setup()
        main = workload.main_kind
        closed_loop(workload.cycle, seconds / 2)
        untraced = percentile(workload.samples[main], 50)
        workload.samples = {}
        with tracer.recording():
            closed_loop(workload.cycle, seconds / 2)
        traced = percentile(workload.samples[main], 50)
        instrument = workload.instrument()
    finally:
        tracer.patches.restore()
    tracer.dump(str(spans_path))
    return workload.per_layer(instrument, traced / untraced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    imports_s = time.perf_counter() - STARTED
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = workloads.make(args.workload, args.seed, str(OUT_DIR))

    if args.trace:
        values = run_traced(workload, args.seconds, OUT_DIR / f"spans-{tag}.json")
    else:
        values = run_untraced(workload, args.seconds, imports_s)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise SystemExit(f"perfbench: metrics {sorted(values)} differ from BENCHMARK.json")
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in declared}

    ops = workload.ops
    info = machine()
    print(f"machine {json.dumps(info, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"samples {json.dumps(workload.sample_counts(), sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"ops_failed_share {ops.failed_share:.6g} (failed {ops.failed} of {ops.attempted} attempted)")
    for err in ops.errors:
        print(f"failed {err}")

    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {**result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "samples": workload.sample_counts(),
              "errors": ops.errors, "machine": info}
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
