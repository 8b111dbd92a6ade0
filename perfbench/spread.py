"""Run the benchmark over several seeds and report each end-to-end metric's
median, quartiles and spread, against the bounds in BENCHMARK.json.

    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 [--workloads scan rmin] [--out FILE]

The spread of a metric is (Q3 - Q1) / median over the seeds, with the
quartiles of statistics.quantiles(values, n=4).  A metric is steady when its
spread is below a third of its bound.  Runs go seed by seed through every
workload, so slow drift of the machine touches all workloads alike.  --out writes the
summary (and every run's result) as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    runs = {w: [] for w in args.workloads}
    for seed in args.seeds:
        for w in args.workloads:
            argv = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed)]
            argv += ["--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            runs[w].append(dict(result, seed=seed))
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            slowdown = next(line.split()[1] for line in proc.stderr.splitlines() if "slowdown " in line)
            print(f"{w} seed {seed}: correct={result['correct']} failed={result['failed']}/"
                  f"{result['attempted']} {values} slowdown={slowdown}", flush=True)

    summary = {}
    steady = True
    print(f"\n{'workload':<13} {'metric':<12} {'median':>11} {'Q1':>11} {'Q3':>11} {'spread':>7} {'bound':>6}")
    for w, results in runs.items():
        summary[w] = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
            spread = (q3 - q1) / med
            ok = spread < m["bound"] / 3
            steady &= ok
            summary[w][m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": m["unit"]}
            print(f"{w:<13} {m['name']:<12} {med:11.5g} {q1:11.5g} {q3:11.5g} {spread:7.3f} "
                  f"{m['bound']:6.2f}{'' if ok else '  NOT STEADY'}")
        print(f"{w:<13} correct in {sum(r['correct'] for r in results)}/{len(results)} runs, "
              f"failed {sum(r['failed'] for r in results)} of {sum(r['attempted'] for r in results)} operations")
    if args.out:
        args.out.write_text(json.dumps({"seeds": args.seeds, "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0 if steady else 2


if __name__ == "__main__":
    sys.exit(main())
