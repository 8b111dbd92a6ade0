"""One pass of one workload in a fresh interpreter.

run.py starts this script once per pass so that module-level memos such as
the trace-polynomial rewriters start cold, as they do for every CLI user:

    python3 perfbench/child.py --workload rmin --seed 1 --size full --tmp DIR [--trace] [--setup-only]

The last line of stdout is one JSON object: the CLOCK_MONOTONIC reading at
which set-up finished, and unless --setup-only the pass's wall time, the
seconds of each of its steps, peak RSS, operation counts, check problems
and output digest.  With --trace the
pass runs under tracing.Tracer and the object also holds the per-layer
metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def peak_rss_kb() -> int:
    """This process's peak resident set in KiB.  Linux carries ru_maxrss
    over from the parent across exec, so the runner's own memory would show
    through it; VmHWM counts only this program's pages."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import speclab

    src = Path(__file__).resolve().parents[1] / "src" / "speclab"
    if Path(speclab.__file__).resolve().parent != src:
        print(f"error: imported speclab from {speclab.__file__}, not {src}", file=sys.stderr)
        return 1

    import gauge
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    state = workload.setup(args.seed, workloads.SIZES[args.size], args.tmp)
    result = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    # Build the reference loop's chain now, outside set-up and the steps.
    refs = [gauge.reference_loop()]
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    wrapped = tracing.count_wrapped()
    steps = []
    last = time.perf_counter()

    def lap(label):
        # The reference loop runs between steps and counts in neither.
        nonlocal last
        steps.append((label, time.perf_counter() - last))
        refs.append(gauge.reference_loop())
        last = time.perf_counter()

    try:
        out = workload.run(state, lap)
    finally:
        wall = sum(seconds for _, seconds in steps)
        # Before the checks, whose own objects must not count as the pass's peak.
        rss_kb = peak_rss_kb()
        if tracer:
            tracer.uninstall()
    outcome = workload.check(state, out)
    result.update(
        wall=wall,
        steps=steps,
        refs=refs,
        rss_kb=rss_kb,
        items=outcome.items,
        attempted=outcome.attempted,
        failed=outcome.failed,
        problems=outcome.problems,
        digest=outcome.digest,
        wrapped=wrapped,
    )
    if tracer:
        rewriters = sys.modules["speclab.characters"]._rewriters
        memo_entries = sum(len(rw.memo) for rw in rewriters.values())
        result["layers"] = tracing.layer_metrics(tracer.summary(wall), wall, outcome.counts, memo_entries)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
