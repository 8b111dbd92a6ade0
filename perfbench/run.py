"""speclab benchmark: one workload, measured in fresh-process passes.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Workloads (defined in perfbench/workloads.py, reasons in BENCHMARK.json):
scan, rmin, cocycle and spectrum_cli.  Every pass runs in a new interpreter
(perfbench/child.py), one at a time, because speclab keeps module-level
memos that a second pass in the same process would find warm.

A pass is a list of steps (a scan trial, an rmin partition, a cocycle rep,
a CLI command) whose labels repeat in every pass of a seed; the child times
gauge.reference_loop() before the first step and after each one.  --trace 0
runs passes until the next one would end after --seconds (at least two),
each followed by one set-up-only probe, and tops the set-ups up to twenty.
On a core shared with other tenants speed changes by up to a factor of two
for tens of seconds, so times are scaled to the machine's uncontended
speed: slowdown = median reference-loop time of the passes / gauge.REF_S.
wall_s is the sum over the steps of each step's median over the passes,
divided by the slowdown; items_per_s is one pass's items over wall_s;
setup_s is the median over all set-ups, divided by the slowdown;
peak_rss_mb is the median over passes.  attempted and failed are the
operations of one pass (every pass repeats them on the same inputs), plus
one failure per pass whose output hash differs.  --trace 1 runs one
untraced and one traced pass and reports the per-layer metrics of the
traced one, unscaled, plus the tracing overhead.

A human-readable report goes to stderr.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics; metric
names and units come from BENCHMARK.json.  Exit code 0 on success, 1 when a
pass could not run (nothing is printed to stdout then).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median, quantiles

import gauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The report's name for each workload's throughput.
RATE_NAMES = {
    "scan": "trials_per_s",
    "rmin": "classes_per_s",
    "cocycle": "samples_per_s",
    "spectrum_cli": "classes_per_s",
}
TIME_LIMIT_S = 170.0  # a run must end within 180 s
MIN_PROBES = 20
MIN_PASSES = 2
MAX_PASSES = 60


class PassFailed(Exception):
    pass


def _clock() -> float:
    # CLOCK_MONOTONIC is system-wide, so a child's reading compares with ours.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_child(workload, seed, size, tmp, deadline, trace=False, setup_only=False) -> dict:
    argv = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--size", size, "--tmp", tmp]
    if trace:
        argv.append("--trace")
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("SPECLAB_CACHE_DIR", None)
    spawned = _clock()
    try:
        proc = subprocess.run(
            argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline - spawned)
        )
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{workload} pass did not finish within the run's time limit") from None
    if proc.returncode != 0:
        raise PassFailed(f"{workload} pass exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def median_steps(passes: list[dict]) -> dict:
    """Each step's median time over the passes, in the order of the first."""
    times = {}
    for r in passes:
        for label, seconds in r["steps"]:
            times.setdefault(label, []).append(seconds)
    return {label: median(v) for label, v in times.items()}


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full"):
    """Run the passes; return (result object, report lines)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    start = _clock()
    deadline = start + TIME_LIMIT_S
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        def one(**kw):
            return run_child(workload, seed, size, tmp, deadline, **kw)

        def timed(**kw):
            t = _clock()
            r = one(**kw)
            return r, _clock() - t

        traced = None
        setups = []
        if trace:
            passes = [one()]
            traced = one(trace=True)
        else:
            passes, took, probe_took = [], [], []
            while True:
                r, t = timed()
                passes.append(r)
                took.append(t)
                r, t = timed(setup_only=True)
                setups += [passes[-1]["setup_s"], r["setup_s"]]
                probe_took.append(t)
                top_up = max(0, MIN_PROBES - len(setups) - 2)
                next_end = _clock() - start + median(took) + median(probe_took) * (1 + top_up)
                if len(passes) >= MIN_PASSES and (len(passes) >= MAX_PASSES or next_end > seconds):
                    break
            setups += [one(setup_only=True)["setup_s"] for _ in range(MIN_PROBES - len(setups))]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    everything = passes + ([traced] if traced else [])
    problems = sorted({p for r in everything for p in r["problems"]})
    first = everything[0]["digest"]
    diverged = sum(1 for r in everything if r["digest"] != first)
    if diverged:
        problems.append(f"output digest differs from the first pass in {diverged} pass(es)")
    labels = [label for label, _ in everything[0]["steps"]]
    if any([label for label, _ in r["steps"]] != labels or len(set(labels)) != len(labels) for r in everything):
        problems.append("the passes do not consist of the same, distinct steps")
    if any(r["wrapped"] for r in passes):
        problems.append("an untraced pass ran with tracing wrappers installed")
    if traced and not traced["wrapped"]:
        problems.append("the traced pass ran without tracing wrappers")
    # Every pass repeats the same operations on the same inputs, so the
    # counts are those of one pass: they depend on the seed, not on how
    # many passes fitted into the run.
    attempted = passes[0]["attempted"]
    failed = passes[0]["failed"] + diverged

    walls = [r["wall"] for r in passes]
    steps = median_steps(passes)
    # The machine's speed changes by up to a factor of two for tens of
    # seconds as other tenants come and go; times are reported at its
    # uncontended speed, divided by how much slower the reference loop ran
    # in this run.
    refs = [x for r in passes for x in r["refs"]]
    slowdown = median(refs) / gauge.REF_S
    wall = sum(steps.values()) / slowdown
    e2e = {
        "wall_s": wall,
        "setup_s": median(setups) / slowdown if setups else None,
        "peak_rss_mb": median(r["rss_kb"] / 1024 for r in passes),
        "items_per_s": passes[0]["items"] / wall,
    }
    if traced:
        values = dict(traced["layers"], **{"trace.overhead_s": traced["wall"] - passes[0]["wall"]})
        wanted = spec["per_layer"]
    else:
        values = e2e
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    lines = [
        f"speclab benchmark: workload {workload}, seed {seed}, {len(passes)} untraced pass(es)"
        f"{', 1 traced pass' if traced else f', {len(setups)} set-ups'}, "
        f"{_clock() - start:.1f} s"
    ]
    show = [
        ("wall_s", e2e["wall_s"], f"s (sum of {len(steps)} step medians, {sum(steps.values()):.4g} s, / slowdown)"),
        ("setup_s", e2e["setup_s"], "s") if setups else None,
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB"),
        ("fail_frac", failed / attempted, f"ratio ({failed} of {attempted} operations)"),
        (RATE_NAMES[workload], e2e["items_per_s"], "1/s"),
    ]
    if workload == "scan":
        # Successive yields of scan_generic; the first step holds the prelude.
        gaps = [sec for r in passes for _, sec in r["steps"][1:-1]]
        if len(gaps) >= 2:
            cuts = quantiles(gaps, n=10)
            show += [
                ("trial_p50_ms", 1e3 * median(gaps), f"ms (n={len(gaps)})"),
                ("trial_p90_ms", 1e3 * cuts[8], f"ms (n={len(gaps)})"),
            ]
    lines += [f"  {name:<16} {value:.6g} {unit}" for name, value, unit in filter(None, show)]
    lines.append(f"  pass walls       {' '.join(f'{w:.4g}' for w in walls)} s (median {median(walls):.4g} s)")
    lines.append(
        f"  slowdown         {slowdown:.4g} (reference loop median {1e3 * median(refs):.4g} ms"
        f" of {len(refs)}, fastest {1e3 * min(refs):.4g} ms, uncontended {1e3 * gauge.REF_S:.4g} ms)"
    )
    lines.append(f"  output digest    {first} ({'same in every pass' if not diverged else 'DIVERGED'})")
    if traced:
        lines += trace_report(traced, passes[0]["wall"])
    for p in problems:
        lines.append(f"  CHECK FAILED: {p}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def trace_report(traced: dict, untraced_wall: float) -> list[str]:
    layers = traced["layers"]
    wall = traced["wall"]
    overhead = wall - untraced_wall
    lines = [
        f"  tracing overhead {overhead:.4g} s (traced {wall:.4g} s, untraced {untraced_wall:.4g} s,"
        f" {100 * overhead / untraced_wall:+.1f}%)",
        "  self time by layer, share of the traced wall time:",
    ]
    rows = [(name[: -len(".self_s")], v) for name, v in layers.items() if name.endswith(".self_s")]
    rows.append(("(no span)", layers["uncovered_s"]))
    for name, v in sorted(rows, key=lambda kv: -kv[1]):
        lines.append(f"    {name:<16} {v:9.4f} s  {100 * v / wall:5.1f}%")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(RATE_NAMES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for needed in (ROOT / "BENCHMARK.json", ROOT / "src" / "speclab" / "__init__.py"):
        if not needed.is_file():
            print(f"error: {needed} is missing; run from a speclab checkout", file=sys.stderr)
            return 1
    # The passes and their reference loops share one core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
