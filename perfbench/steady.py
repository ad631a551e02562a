"""Steadiness of the end-to-end metrics over repeated runs of one workload.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--seed 1] [--against FILE]

Runs ``perfbench/run.py`` once per seed (``--seed``, ``--seed + 1``, ...)
with the ``run_seconds`` of BENCHMARK.json and prints, for every end-to-end
metric, the median, the quartiles (``statistics.quantiles(n=4)``), the
spread ``(q3 - q1) / median`` and that spread as a share of the metric's
bound.  ``--against`` names an earlier summary of the same workload and adds
how far each median moved, in the worse direction, as a share of the bound.
The summary is saved under perfbench/results/.  This is how the bounds in
BENCHMARK.json are set and re-checked.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--against", type=Path, default=None)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    runs = []
    for seed in range(args.seed, args.seed + args.runs):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              f"correct {result['correct']} " + " ".join(
                  f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    summary = {"workload": args.workload, "seeds": [args.seed, args.seed + args.runs - 1],
               "failed_share": [r["failed"] / r["attempted"] for r in runs],
               "metrics": {name: summarize([r["metrics"][name]["value"] for r in runs])
                           for name in metrics}}
    before = json.loads(args.against.read_text())["metrics"] if args.against else None
    print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}{'/bound':>8}"
          + (f"{'moved/bound':>13}" if before else ""))
    for name, s in summary["metrics"].items():
        bound = metrics[name]["bound"]
        line = (f"{name:<14}{s['median']:>12.5g}{s['q1']:>12.5g}{s['q3']:>12.5g}"
                f"{s['spread']:>9.3f}{bound:>7.2f}{s['spread'] / bound:>8.2f}")
        if before:
            old = before[name]["median"]
            sign = -1.0 if metrics[name]["better"] == "higher" else 1.0
            line += f"{sign * (s['median'] - old) / old / bound:>13.2f}"
        print(line)
    shares = set(summary["failed_share"])
    print(f"failed share per run: {sorted(shares)}")
    out = HERE / "results" / f"steady-{args.workload}-seed{args.seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
