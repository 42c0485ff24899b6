"""Run one workload once per seed and report each end-to-end metric's
median and quartile spread against its bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload hybrid_long_video --seeds 1 2 3 4 5

The spread is (Q3 - Q1) / median over the runs, with the quartiles of
`statistics.quantiles(values, n=4)`.  Runs are sequential, one process at
a time, so they do not compete for the cores they measure.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from harness import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} operations failed")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
              flush=True)

    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        spread = quartile_spread(vals) if len(vals) >= 2 else float("nan")
        print(f"{m['name']:32s} median {statistics.median(vals):10.4g} {m['unit']:3s} "
              f"spread {spread:.4f}  bound {m['bound']}  spread/bound {spread / m['bound']:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
